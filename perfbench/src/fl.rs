//! The two federated workloads, run through `Federation::from_scenario` and
//! `Federation::run` exactly as a user would.
//!
//! * `fl_shielded_train` — 4 honest clients on a star over the serialized
//!   transport, shielded updates under pairwise-masked secure aggregation,
//!   FedAvg, raw codec, IID shards and one local batch of 16 per client per
//!   round. Local training through tensor/autodiff/nn/models blocks the
//!   round; the seal, mask and masked-fold path runs every round as a
//!   small share.
//! * `fl_population` — 256 seats under 4 edge aggregators. Seat 0 is
//!   honest with a 1-sample shard; every other seat is a free rider that
//!   echoes the broadcast with a small perturbation and one spam frame.
//!   Trimmed mean, Int8 codec, serialized transport and a seeded low-rate
//!   fault plan that drops, duplicates, corrupts and reorders frames.
//!   Codec, transport, delivery sweeps, fault recovery and the buffered
//!   robust fold scale with the seat count; training is nearly bypassed.

use std::sync::Arc;
use std::time::Instant;

use pelta_data::{Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{
    AgentRole, AggregationRule, FaultConfig, FaultStats, Federation, FederationConfig,
    ParticipationPolicy, RunHistory, ScenarioSpec, Topology, TransportKind, UpdateCodec,
};
use pelta_models::{ImageModel, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tee::CostLedger;
use pelta_tensor::SeedStream;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;
use crate::wrap::{Parent, TracedModel};

/// Which federated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlKind {
    ShieldedTrain,
    Population,
}

/// Seats of `fl_population`.
pub const POPULATION_SEATS: usize = 256;
/// Edge aggregators of `fl_population`.
pub const POPULATION_EDGES: usize = 4;
/// Values trimmed at each end by `fl_population`'s trimmed mean.
const POPULATION_TRIM: usize = 8;

impl FlKind {
    /// Rounds of one `Federation::run` instance.
    pub fn rounds(self) -> usize {
        match self {
            FlKind::ShieldedTrain => 1,
            FlKind::Population => 3,
        }
    }

    pub fn generator(self) -> GeneratorConfig {
        match self {
            FlKind::ShieldedTrain => GeneratorConfig {
                train_samples: 64,
                test_samples: 32,
                ..GeneratorConfig::default()
            },
            FlKind::Population => GeneratorConfig {
                train_samples: POPULATION_SEATS,
                test_samples: 16,
                ..GeneratorConfig::default()
            },
        }
    }

    /// The scenario, with its fault plan seeded from the workload seed.
    pub fn scenario(self, seed: u64) -> ScenarioSpec {
        match self {
            FlKind::ShieldedTrain => ScenarioSpec::honest(FederationConfig {
                clients: 4,
                rounds: self.rounds(),
                local_training: TrainingConfig {
                    epochs: 1,
                    batch_size: 16,
                    learning_rate: 0.02,
                    momentum: 0.9,
                },
                eval_samples: 32,
                transport: TransportKind::Serialized,
                topology: Topology::Star,
                policy: ParticipationPolicy {
                    quorum: 4,
                    sample: 0,
                    straggler_deadline: 0,
                },
                rule: AggregationRule::FedAvg,
                shield_updates: true,
                secure_aggregation: true,
                codec: UpdateCodec::Raw,
                ..FederationConfig::default()
            })
            .with_partition(Partition::Iid),
            FlKind::Population => {
                let groups: Vec<Vec<usize>> = (0..POPULATION_EDGES)
                    .map(|edge| {
                        (0..POPULATION_SEATS)
                            .filter(|seat| seat % POPULATION_EDGES == edge)
                            .collect()
                    })
                    .collect();
                let per_edge = POPULATION_SEATS / POPULATION_EDGES;
                let mut spec = ScenarioSpec::honest(FederationConfig {
                    clients: POPULATION_SEATS,
                    rounds: self.rounds(),
                    local_training: TrainingConfig {
                        epochs: 1,
                        batch_size: 1,
                        learning_rate: 0.02,
                        momentum: 0.9,
                    },
                    eval_samples: 16,
                    transport: TransportKind::Serialized,
                    topology: Topology::Hierarchical {
                        groups,
                        edge_policy: ParticipationPolicy {
                            quorum: per_edge / 2,
                            sample: 0,
                            straggler_deadline: 0,
                        },
                    },
                    policy: ParticipationPolicy {
                        quorum: POPULATION_SEATS / 2,
                        sample: 0,
                        straggler_deadline: 0,
                    },
                    rule: AggregationRule::TrimmedMean {
                        trim: POPULATION_TRIM,
                    },
                    codec: UpdateCodec::Int8,
                    faults: Some(FaultConfig {
                        seed: seed ^ 0xFA17_5EED,
                        drop: 0.01,
                        duplicate: 0.01,
                        corrupt: 0.01,
                        reorder: 0.02,
                        reorder_window: 2,
                        ..FaultConfig::default()
                    }),
                    ..FederationConfig::default()
                })
                .with_partition(Partition::Iid);
                for seat in 1..POPULATION_SEATS {
                    spec = spec.with_role(
                        seat,
                        AgentRole::FreeRider {
                            claimed_samples: 0,
                            spam: 1,
                            perturbation: 0.01,
                        },
                    );
                }
                spec
            }
        }
    }
}

/// The scaled ViT-B/16 every replica of both workloads runs.
pub fn vit(rng: &mut ChaCha8Rng) -> Box<dyn ImageModel> {
    Box::new(
        VisionTransformer::new(ViTConfig::vit_b16_scaled(32, 3, 10), rng)
            .expect("the scaled ViT-B/16 configuration is valid"),
    )
}

/// Spans the traced run wants from inside a real federation.
#[derive(Clone)]
pub struct Tracing {
    pub tracer: Arc<Tracer>,
    pub parent: Parent,
}

/// Everything one instance (set-up plus one `Federation::run`) yields.
#[derive(Clone)]
pub struct Instance {
    pub setup_s: f64,
    pub run_s: f64,
    pub history: RunHistory,
    /// The final global model as exact bit patterns.
    pub global_bits: Vec<Vec<u32>>,
    pub raw_unseals: Option<u64>,
    pub faults: Option<FaultStats>,
    pub ledger: Option<CostLedger>,
    /// The span the run was recorded under (0 when untraced).
    pub run_span: u64,
}

/// Sets up (dataset generation, population build with attestation and
/// Joins) and runs one instance from `seed`.
pub fn instance(kind: FlKind, seed: u64, tracing: Option<&Tracing>) -> Result<Instance, String> {
    let setup_start = Instant::now();
    let dataset = Dataset::generate(DatasetSpec::Cifar10Like, &kind.generator(), seed);
    let spec = kind.scenario(seed);
    let mut seeds = SeedStream::new(seed);
    let mut federation = match tracing {
        None => Federation::from_scenario(&dataset, &spec, &mut seeds, vit),
        Some(t) => {
            let t = t.clone();
            Federation::from_scenario(&dataset, &spec, &mut seeds, move |rng| {
                Box::new(TracedModel::new(
                    vit(rng),
                    t.tracer.clone(),
                    t.parent.clone(),
                ))
            })
        }
    }
    .map_err(|e| format!("federation build failed: {e}"))?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let (history, run_span) = match tracing {
        None => (federation.run(&mut seeds), 0),
        Some(t) => t.tracer.span("fl.federation_run", None, |id| {
            t.parent.set(id);
            (federation.run(&mut seeds), id)
        }),
    };
    let run_s = run_start.elapsed().as_secs_f64();
    let history = history.map_err(|e| format!("federation run failed: {e}"))?;
    let global_bits = federation
        .server()
        .parameters()
        .iter()
        .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    Ok(Instance {
        setup_s,
        run_s,
        history,
        global_bits,
        raw_unseals: federation.server_raw_unseals(),
        faults: federation.fault_stats(),
        ledger: federation.server_shield_ledger(),
        run_span,
    })
}

/// Set-up alone (dataset generation, population build with attestation
/// and Joins), for runs whose instances gave too few set-up samples.
pub fn instance_setup_only(kind: FlKind, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let dataset = Dataset::generate(DatasetSpec::Cifar10Like, &kind.generator(), seed);
    let federation = Federation::from_scenario(
        &dataset,
        &kind.scenario(seed),
        &mut SeedStream::new(seed),
        vit,
    )
    .map_err(|e| format!("federation build failed: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(federation);
    Ok(elapsed)
}

/// The correctness and non-degeneracy checks of one instance, against the
/// first instance of the run (same seed, so it must replay bit for bit).
/// Returns the failed checks.
pub fn check(kind: FlKind, spec: &ScenarioSpec, this: &Instance, first: &Instance) -> Vec<String> {
    let mut problems = Vec::new();
    if this.global_bits != first.global_bits {
        problems.push("replay produced a different global model".to_string());
    }
    if this.history != first.history {
        problems.push("replay produced a different RunHistory".to_string());
    }
    if this.faults != first.faults {
        problems.push("replay produced different fault counters".to_string());
    }
    if this.history.rounds.len() != kind.rounds() {
        problems.push(format!(
            "{} rounds recorded, {} configured",
            this.history.rounds.len(),
            kind.rounds()
        ));
    }
    if !this.history.final_accuracy.is_finite()
        || this
            .history
            .rounds
            .iter()
            .any(|r| !r.mean_client_loss.is_finite())
    {
        problems.push("non-finite accuracy or loss".to_string());
    }
    let quorum = spec.federation.policy.quorum;
    for record in &this.history.rounds {
        if record.summary.reporters.len() < quorum {
            problems.push(format!(
                "round {} folded {} updates, below the quorum {quorum}",
                record.round,
                record.summary.reporters.len()
            ));
        }
    }
    match kind {
        FlKind::ShieldedTrain => {
            if this.raw_unseals != Some(0) {
                problems.push(format!(
                    "secure aggregation unsealed individual blobs: {:?}",
                    this.raw_unseals
                ));
            }
            if this.history.rounds.iter().any(|r| r.shielded_bytes == 0) {
                problems.push("a round sealed no bytes".to_string());
            }
        }
        FlKind::Population => {
            let fired = this.faults.is_some_and(|s| {
                s.dropped > 0 && s.duplicated > 0 && s.corrupted > 0 && s.reordered > 0
            });
            if !fired {
                problems.push(format!(
                    "not every configured fault class fired: {:?}",
                    this.faults
                ));
            }
        }
    }
    problems
}
