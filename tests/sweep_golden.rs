//! Golden protocol corpus for the deterministic delivery sweeps.
//!
//! A frozen set of small federations that together drive every delivery
//! sweep of `pelta-fl`: the star sweep, the hierarchical member→edge and
//! uplink sweeps (with a dark, crashed edge and its resync), the gossip
//! collect sweep, both secure-aggregation `MaskShare` reconstruction sweeps,
//! and the between-round idle pumps. Clean runs sit next to runs with every
//! fault class plus a seat crash, non-zero latency schedules, a straggler
//! deadline raced by a spamming free rider, and matching drop-only vs
//! corrupt-only plans (a lost frame must not burn the deadline, a damaged one
//! must).
//!
//! Each scenario's host-independent record — every [`RoundSummary`] and
//! edge summary, the per-round byte and gossip counters, the total traffic,
//! the fault counters and the root enclave's raw-unseal count — is pinned
//! below as a literal. A refactor of the sweep machinery is correct only if
//! it reproduces these records exactly.
//!
//! Global-model bits are *not* pinned: kernel selection depends on the CPU
//! (`docs/determinism.md` §1), so they are only comparable on one host. The
//! test prints one FNV-1a digest line per scenario instead
//! (`cargo test --test sweep_golden -- --nocapture`); diff those lines
//! between two builds on the same machine.

use pelta_autodiff::{Graph, NodeId};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    AgentRole, ClientSchedule, CrashPoint, CrashTarget, FaultConfig, Federation, FederationConfig,
    ParticipationPolicy, RoundSummary, ScenarioSpec, Topology, TransportKind, UpdateCodec,
};
use pelta_models::{Architecture, ImageModel, TrainingConfig};
use pelta_nn::{Linear, Module, Param};
use pelta_tensor::SeedStream;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0x5EED_601D;
const CLIENTS: usize = 6;

/// Channel means through a shielded 3→4 stem and a clear 4→10 head: cheap
/// enough for a tier-1 corpus, with a real shielded segment so the sealed
/// and masked paths carry traffic.
struct StemHead {
    stem: Linear,
    head: Linear,
}

impl Module for StemHead {
    fn name(&self) -> &str {
        "golden"
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        let pooled = graph.global_avg_pool2d(input)?;
        let stem = self.stem.forward(graph, pooled)?;
        graph.set_tag(stem, &self.frontier_tag())?;
        self.head.forward(graph, stem)
    }

    fn parameters(&self) -> Vec<&Param> {
        let mut params = self.stem.parameters();
        params.extend(self.head.parameters());
        params
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.stem.parameters_mut();
        params.extend(self.head.parameters_mut());
        params
    }
}

impl ImageModel for StemHead {
    fn architecture(&self) -> Architecture {
        Architecture::ResNet
    }

    fn num_classes(&self) -> usize {
        10
    }

    fn input_shape(&self) -> [usize; 3] {
        [3, 32, 32]
    }

    fn frontier_tag(&self) -> String {
        "golden.pelta_frontier".to_string()
    }

    fn shielded_parameter_prefixes(&self) -> Vec<String> {
        vec!["golden_stem.".to_string()]
    }
}

fn model(rng: &mut ChaCha8Rng) -> Box<dyn ImageModel> {
    Box::new(StemHead {
        stem: Linear::new("golden_stem", 3, 4, rng),
        head: Linear::new("golden_head", 4, 10, rng),
    })
}

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 60,
            test_samples: 10,
            ..GeneratorConfig::default()
        },
        SEED,
    )
}

fn base(topology: Topology, rounds: usize) -> FederationConfig {
    FederationConfig {
        clients: CLIENTS,
        rounds,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 5,
            learning_rate: 0.05,
            momentum: 0.9,
        },
        eval_samples: 10,
        topology,
        policy: ParticipationPolicy {
            quorum: 1,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    }
}

fn hierarchy() -> Topology {
    Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]])
}

fn schedule(
    client_id: usize,
    drop_at_round: Option<usize>,
    rejoin_at_round: Option<usize>,
    latency: usize,
) -> ClientSchedule {
    ClientSchedule {
        client_id,
        drop_at_round,
        rejoin_at_round,
        latency,
    }
}

/// Dropout/rejoin churn plus two slow seats.
fn churn() -> Vec<ClientSchedule> {
    vec![
        schedule(2, Some(1), Some(3), 0),
        schedule(3, None, None, 2),
        schedule(5, None, None, 1),
    ]
}

/// Every fault class live at once, a seat crash over rounds 2..4 and, when
/// `edge_crash` is set, edge 1 dying mid-round 2 and re-syncing at round 4.
fn chaos(edge_crash: bool) -> FaultConfig {
    let mut crashes = vec![CrashPoint {
        target: CrashTarget::Seat { seat: 1 },
        crash_round: 2,
        rejoin_round: 4,
    }];
    if edge_crash {
        crashes.push(CrashPoint {
            target: CrashTarget::Edge { edge: 1 },
            crash_round: 2,
            rejoin_round: 4,
        });
    }
    FaultConfig {
        seed: 1,
        drop: 0.08,
        duplicate: 0.08,
        corrupt: 0.10,
        reorder: 0.10,
        reorder_window: 2,
        partition: 0.08,
        partition_sweeps: 2,
        max_retransmits: 2,
        crashes,
    }
}

/// Only loss (`drop`) or only damage (`corrupt`), same rate and seed.
fn single_class(drop: f32, corrupt: f32) -> FaultConfig {
    FaultConfig {
        seed: 0xD20F_C022,
        drop,
        corrupt,
        max_retransmits: 3,
        ..FaultConfig::default()
    }
}

fn free_rider(spam: usize) -> AgentRole {
    AgentRole::FreeRider {
        claimed_samples: 0,
        spam,
        perturbation: 0.01,
    }
}

/// The frozen corpus, by name.
fn corpus() -> Vec<(&'static str, ScenarioSpec)> {
    let star_clean = FederationConfig {
        transport: TransportKind::Serialized,
        schedules: churn(),
        ..base(Topology::Star, 4)
    };
    let star_chaos = FederationConfig {
        schedules: churn(),
        faults: Some(chaos(false)),
        codec: UpdateCodec::Int8,
        ..base(Topology::Star, 5)
    };
    let mut star_deadline = base(Topology::Star, 3);
    star_deadline.policy.straggler_deadline = 5;
    star_deadline.schedules = vec![schedule(4, None, None, 2)];
    let mut lossy_deadline = base(Topology::Star, 4);
    lossy_deadline.policy.straggler_deadline = 5;
    let hier_clean = FederationConfig {
        schedules: churn(),
        ..base(hierarchy(), 4)
    };
    let hier_chaos = FederationConfig {
        transport: TransportKind::Serialized,
        schedules: churn(),
        faults: Some(chaos(true)),
        shield_updates: true,
        ..base(hierarchy(), 6)
    };
    let mut hier_deadline = base(
        Topology::Hierarchical {
            groups: vec![vec![0, 2, 4], vec![1, 3, 5]],
            edge_policy: ParticipationPolicy {
                quorum: 1,
                sample: 0,
                straggler_deadline: 4,
            },
        },
        3,
    );
    hier_deadline.schedules = vec![schedule(2, None, None, 2), schedule(5, None, None, 1)];
    hier_deadline.faults = Some(single_class(0.0, 0.2));
    // Fast traffic under a slow seat: member traffic is done long before
    // sweep 6, so only the latency term of the termination rule keeps the
    // member phase (and the uplink phase's sweep count) running. Heavy
    // partitions make that numbering visible in the fault counters (one
    // already holds Joins at the build-time pump, so round 0 opens with
    // two seats), and duplication sends second combined frames up.
    let hier_turbulent = FederationConfig {
        schedules: vec![schedule(5, None, None, 6), schedule(2, None, None, 1)],
        faults: Some(FaultConfig {
            seed: 7,
            duplicate: 0.3,
            partition: 0.5,
            partition_sweeps: 1,
            ..FaultConfig::default()
        }),
        ..base(hierarchy(), 4)
    };
    let gossip_clean = FederationConfig {
        schedules: churn(),
        ..base(Topology::Gossip { fanout: 2 }, 4)
    };
    let gossip_chaos = FederationConfig {
        schedules: churn(),
        faults: Some(chaos(false)),
        codec: UpdateCodec::TopK { k: 3 },
        ..base(Topology::Gossip { fanout: 1 }, 5)
    };
    let secure = |topology: Topology| FederationConfig {
        shield_updates: true,
        secure_aggregation: true,
        schedules: vec![
            schedule(1, Some(0), Some(2), 0),
            schedule(3, None, None, 2),
            schedule(4, Some(2), None, 1),
        ],
        faults: Some(FaultConfig {
            partition: 0.3,
            crashes: Vec::new(),
            ..chaos(false)
        }),
        ..base(topology, 3)
    };
    vec![
        ("star_clean", ScenarioSpec::honest(star_clean)),
        ("star_chaos", ScenarioSpec::honest(star_chaos)),
        (
            "star_deadline_spam",
            ScenarioSpec::honest(star_deadline).with_role(1, free_rider(4)),
        ),
        (
            "star_deadline_drop_only",
            ScenarioSpec::honest(lossy_deadline.clone()).with_faults(single_class(0.3, 0.0)),
        ),
        (
            "star_deadline_corrupt_only",
            ScenarioSpec::honest(lossy_deadline).with_faults(single_class(0.0, 0.3)),
        ),
        ("hier_clean", ScenarioSpec::honest(hier_clean)),
        ("hier_chaos_edge_crash", ScenarioSpec::honest(hier_chaos)),
        (
            "hier_deadline_spam",
            ScenarioSpec::honest(hier_deadline).with_role(3, free_rider(3)),
        ),
        ("hier_turbulent", ScenarioSpec::honest(hier_turbulent)),
        ("gossip_clean", ScenarioSpec::honest(gossip_clean)),
        (
            "gossip_chaos",
            ScenarioSpec::honest(gossip_chaos).with_role(4, free_rider(2)),
        ),
        (
            "secure_star_dropout",
            ScenarioSpec::honest(secure(Topology::Star)),
        ),
        (
            "secure_hier_dropout",
            ScenarioSpec::honest(secure(hierarchy())),
        ),
    ]
}

fn summary_line(summary: &RoundSummary) -> String {
    format!(
        "r{} p{:?} rep{:?} str{:?} drop{:?} w{} dm{} ub{}",
        summary.round,
        summary.participants,
        summary.reporters,
        summary.stragglers,
        summary.dropouts,
        summary.total_weight,
        summary.delivered_messages,
        summary.update_bytes
    )
}

/// FNV-1a over every parameter name and value bit pattern.
fn digest(parameters: &[(String, pelta_tensor::Tensor)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, tensor) in parameters {
        eat(name.as_bytes());
        for value in tensor.data() {
            eat(&value.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Runs one scenario; returns its host-independent record and the
/// global-model digest.
fn run(spec: &ScenarioSpec) -> (String, u64) {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let mut federation =
        Federation::from_scenario(&data, spec, &mut seeds, model).expect("scenario must build");
    let history = federation.run(&mut seeds).expect("scenario must run");
    let mut record = String::new();
    for round in &history.rounds {
        record.push_str(&format!(
            "{} | up{} sh{} gm{}\n",
            summary_line(&round.summary),
            round.upload_bytes,
            round.shielded_bytes,
            round.gossip_messages
        ));
        for edge in &round.edge_summaries {
            record.push_str(&format!("  edge {}\n", summary_line(edge)));
        }
    }
    record.push_str(&format!(
        "traffic {} msgs {} bytes\n",
        history.total_messages, history.total_wire_bytes
    ));
    record.push_str(&format!("{:?}\n", federation.fault_stats()));
    record.push_str(&format!(
        "raw_unseals {:?}\n",
        federation.server_raw_unseals()
    ));
    (record, digest(federation.server().parameters()))
}

#[test]
fn sweep_corpus_matches_the_golden_records() {
    let corpus = corpus();
    assert_eq!(corpus.len(), GOLDEN.len(), "one golden record per scenario");
    let mut mismatched = Vec::new();
    for ((name, spec), (golden_name, golden)) in corpus.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "corpus and golden records out of order");
        let (record, digest) = run(spec);
        println!("sweep_golden digest {name} {digest:016x}");
        if record != *golden {
            eprintln!("--- {name}: record differs from the golden literal; actual:\n{record}");
            mismatched.push(*name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "scenarios off golden: {mismatched:?}"
    );
}

/// The lost-vs-damaged contract, read straight off the pinned records: the
/// drop-only and corrupt-only runs share a seed and rate, yet only the
/// damaged frames are charged to the straggler deadline.
#[test]
fn lost_frames_do_not_burn_the_deadline_but_damaged_ones_do() {
    let delivered = |name: &str| -> Vec<usize> {
        let (_, golden) = GOLDEN.iter().find(|(n, _)| *n == name).unwrap();
        golden
            .lines()
            .filter(|line| line.starts_with('r'))
            .filter_map(|line| line.split(" dm").nth(1))
            .map(|rest| rest.split(' ').next().unwrap().parse().unwrap())
            .collect()
    };
    let lost = delivered("star_deadline_drop_only");
    let damaged = delivered("star_deadline_corrupt_only");
    assert_eq!(lost.len(), damaged.len());
    assert!(
        lost.iter().all(|&count| count <= CLIENTS),
        "a lost frame burned a deadline slot: {lost:?}"
    );
    assert!(
        damaged.iter().sum::<usize>() > lost.iter().sum::<usize>(),
        "damaged frames must burn deadline slots: {damaged:?} vs {lost:?}"
    );
}

const GOLDEN: &[(&str, &str)] = &[
    (
        "star_clean",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3, 4, 5] str[] drop[2] w50 dm6 ub2295 | up2295 sh0 gm0\n\
r2 p[0, 1, 3, 4, 5] rep[0, 1, 3, 4, 5] str[] drop[] w50 dm5 ub2295 | up2295 sh0 gm0\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
traffic 75 msgs 21069 bytes\n\
None\n\
raw_unseals None\n",
    ),
    (
        "star_chaos",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm7 ub2754 | up2754 sh0 gm0\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3, 5] str[] drop[2] w40 dm11 ub1836 | up1836 sh0 gm0\n\
r2 p[0, 1, 3, 4, 5] rep[0, 3, 4, 5] str[] drop[] w40 dm5 ub1836 | up1836 sh0 gm0\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 2, 3, 4, 5] str[] drop[] w50 dm7 ub2295 | up2295 sh0 gm0\n\
r4 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
traffic 105 msgs 21354 bytes\n\
Some(FaultStats { dropped: 4, duplicated: 4, corrupted: 6, reordered: 3, partitions: 2, retransmissions: 9, recoveries: 6, suppressed: 3 })\n\
raw_unseals None\n",
    ),
    (
        "star_deadline_spam",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 2, 3, 5] str[4, 1] drop[] w40 dm10 ub1836 | up1836 sh0 gm0\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 2, 3, 5] str[4, 1] drop[] w40 dm10 ub1836 | up1836 sh0 gm0\n\
r2 p[0, 1, 2, 3, 4, 5] rep[0, 2, 3, 5] str[4, 1] drop[] w40 dm10 ub1836 | up1836 sh0 gm0\n\
traffic 90 msgs 18240 bytes\n\
None\n\
raw_unseals None\n",
    ),
    (
        "star_deadline_drop_only",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 4, 5] str[3] drop[] w50 dm6 ub2295 | up2295 sh0 gm0\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 4, 5] str[3] drop[] w50 dm6 ub2295 | up2295 sh0 gm0\n\
r2 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4] str[5] drop[] w50 dm6 ub2295 | up2295 sh0 gm0\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 5] str[4] drop[] w50 dm6 ub2295 | up2295 sh0 gm0\n\
traffic 95 msgs 23046 bytes\n\
Some(FaultStats { dropped: 13, duplicated: 0, corrupted: 0, reordered: 0, partitions: 0, retransmissions: 13, recoveries: 10, suppressed: 0 })\n\
raw_unseals None\n",
    ),
    (
        "star_deadline_corrupt_only",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[1, 2, 4] str[0, 5, 3] drop[] w30 dm10 ub1377 | up1377 sh0 gm0\n\
r1 p[0, 1, 2, 3, 4, 5] rep[2, 4] str[5, 0, 1, 3] drop[] w20 dm11 ub918 | up918 sh0 gm0\n\
r2 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3] str[2, 4, 5] drop[] w30 dm9 ub1377 | up1377 sh0 gm0\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3] str[5, 4] drop[] w40 dm7 ub1836 | up1836 sh0 gm0\n\
traffic 103 msgs 23334 bytes\n\
Some(FaultStats { dropped: 0, duplicated: 0, corrupted: 13, reordered: 0, partitions: 0, retransmissions: 13, recoveries: 10, suppressed: 0 })\n\
raw_unseals None\n",
    ),
    (
        "hier_clean",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
\x20 edge r0 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r0 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3, 4, 5] str[] drop[2] w50 dm6 ub2295 | up2295 sh0 gm0\n\
\x20 edge r1 p[0, 2, 4] rep[0, 4] str[] drop[2] w20 dm3 ub918\n\
\x20 edge r1 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
r2 p[0, 1, 3, 4, 5] rep[0, 1, 3, 4, 5] str[] drop[] w50 dm5 ub2295 | up2295 sh0 gm0\n\
\x20 edge r2 p[0, 4] rep[0, 4] str[] drop[] w20 dm2 ub918\n\
\x20 edge r2 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
\x20 edge r3 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r3 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
traffic 99 msgs 31485 bytes\n\
None\n\
raw_unseals None\n",
    ),
    (
        "hier_chaos_edge_crash",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh876 gm0\n\
\x20 edge r0 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r0 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm4 ub1377\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3, 5] str[] drop[2] w40 dm6 ub1836 | up1836 sh584 gm0\n\
\x20 edge r1 p[0, 2, 4] rep[0] str[] drop[2] w10 dm4 ub459\n\
\x20 edge r1 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm7 ub1377\n\
r2 p[0, 1, 3, 4, 5] rep[0, 4] str[] drop[] w20 dm2 ub918 | up918 sh292 gm0\n\
\x20 edge r2 p[0, 4] rep[0, 4] str[] drop[] w20 dm3 ub918\n\
\x20 edge r2 p[] rep[] str[] drop[] w0 dm0 ub0\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 2, 4] str[] drop[] w30 dm4 ub1377 | up1377 sh438 gm0\n\
\x20 edge r3 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm4 ub1377\n\
\x20 edge r3 p[] rep[] str[] drop[] w0 dm0 ub0\n\
r4 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh876 gm0\n\
\x20 edge r4 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r4 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm4 ub1377\n\
r5 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm7 ub2754 | up2754 sh876 gm0\n\
\x20 edge r5 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm4 ub1377\n\
\x20 edge r5 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
traffic 152 msgs 44856 bytes\n\
Some(FaultStats { dropped: 6, duplicated: 5, corrupted: 9, reordered: 7, partitions: 4, retransmissions: 14, recoveries: 11, suppressed: 1 })\n\
raw_unseals Some(54)\n",
    ),
    (
        "hier_deadline_spam",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 4, 5] str[] drop[] w50 dm6 ub2295 | up2295 sh0 gm0\n\
\x20 edge r0 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r0 p[1, 3, 5] rep[1, 5] str[3] drop[] w20 dm8 ub918\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 4] str[] drop[] w40 dm4 ub1836 | up1836 sh0 gm0\n\
\x20 edge r1 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r1 p[1, 3, 5] rep[1] str[5, 3] drop[] w10 dm7 ub459\n\
r2 p[0, 1, 2, 3, 4, 5] rep[0, 1, 4, 5] str[] drop[] w40 dm4 ub1836 | up1836 sh0 gm0\n\
\x20 edge r2 p[0, 2, 4] rep[0, 4] str[2] drop[] w20 dm6 ub918\n\
\x20 edge r2 p[1, 3, 5] rep[1, 5] str[3] drop[] w20 dm7 ub918\n\
traffic 110 msgs 24495 bytes\n\
Some(FaultStats { dropped: 0, duplicated: 0, corrupted: 8, reordered: 0, partitions: 0, retransmissions: 8, recoveries: 7, suppressed: 0 })\n\
raw_unseals None\n",
    ),
    (
        "hier_turbulent",
        "\
r0 p[0, 4] rep[0, 4] str[] drop[] w20 dm6 ub918 | up918 sh0 gm0\n\
\x20 edge r0 p[0, 4] rep[0, 4] str[] drop[] w20 dm3 ub918\n\
\x20 edge r0 p[] rep[] str[] drop[] w0 dm0 ub0\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
\x20 edge r1 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r1 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm5 ub1377\n\
r2 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
\x20 edge r2 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm4 ub1377\n\
\x20 edge r2 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm0\n\
\x20 edge r3 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r3 p[1, 3, 5] rep[1, 3, 5] str[] drop[] w30 dm3 ub1377\n\
traffic 93 msgs 28394 bytes\n\
Some(FaultStats { dropped: 0, duplicated: 5, corrupted: 0, reordered: 0, partitions: 57, retransmissions: 0, recoveries: 0, suppressed: 0 })\n\
raw_unseals None\n",
    ),
    (
        "gossip_clean",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm48\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3, 4, 5] str[] drop[2] w50 dm6 ub2295 | up2295 sh0 gm44\n\
r2 p[0, 1, 3, 4, 5] rep[0, 1, 3, 4, 5] str[] drop[] w50 dm5 ub2295 | up2295 sh0 gm44\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm6 ub2754 | up2754 sh0 gm48\n\
traffic 259 msgs 144725 bytes\n\
None\n\
raw_unseals None\n",
    ),
    (
        "gossip_chaos",
        "\
r0 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm8 ub2754 | up2754 sh0 gm36\n\
r1 p[0, 1, 2, 3, 4, 5] rep[0, 1, 3, 5] str[] drop[2] w40 dm7 ub1836 | up1836 sh0 gm24\n\
r2 p[0, 1, 3, 4, 5] rep[0, 3, 4, 5] str[] drop[] w40 dm6 ub1836 | up1836 sh0 gm24\n\
r3 p[0, 1, 2, 3, 4, 5] rep[0, 2, 3, 4, 5] str[] drop[] w50 dm7 ub2295 | up2295 sh0 gm30\n\
r4 p[0, 1, 2, 3, 4, 5] rep[0, 1, 2, 3, 4, 5] str[] drop[] w60 dm8 ub2754 | up2754 sh0 gm36\n\
traffic 271 msgs 72190 bytes\n\
Some(FaultStats { dropped: 4, duplicated: 4, corrupted: 6, reordered: 3, partitions: 2, retransmissions: 9, recoveries: 6, suppressed: 3 })\n\
raw_unseals None\n",
    ),
    (
        "secure_star_dropout",
        "\
r0 p[1, 2, 3, 4, 5] rep[2, 3, 4, 5] str[] drop[1] w40 dm6 ub1836 | up1836 sh584 gm0\n\
r1 p[0, 2, 3, 4, 5] rep[0, 2, 3, 4, 5] str[] drop[] w50 dm5 ub2295 | up2295 sh730 gm0\n\
r2 p[0, 2, 3, 4, 5] rep[0, 2, 3, 5] str[] drop[4] w40 dm8 ub1836 | up1836 sh584 gm0\n\
traffic 87 msgs 15562 bytes\n\
Some(FaultStats { dropped: 4, duplicated: 3, corrupted: 5, reordered: 5, partitions: 17, retransmissions: 8, recoveries: 6, suppressed: 0 })\n\
raw_unseals Some(0)\n",
    ),
    (
        "secure_hier_dropout",
        "\
r0 p[1, 2, 3, 4, 5] rep[2, 3, 4, 5] str[] drop[1] w40 dm6 ub1836 | up1836 sh584 gm0\n\
\x20 edge r0 p[2, 4] rep[2, 4] str[] drop[] w20 dm3 ub918\n\
\x20 edge r0 p[1, 3, 5] rep[3, 5] str[] drop[1] w20 dm3 ub918\n\
r1 p[0, 2, 3, 4, 5] rep[0, 2, 3, 4, 5] str[] drop[] w50 dm8 ub2295 | up2295 sh730 gm0\n\
\x20 edge r1 p[0, 2, 4] rep[0, 2, 4] str[] drop[] w30 dm3 ub1377\n\
\x20 edge r1 p[3, 5] rep[3, 5] str[] drop[] w20 dm2 ub918\n\
r2 p[0, 2, 3, 4, 5] rep[0, 2, 3, 5] str[] drop[4] w40 dm6 ub1836 | up1836 sh584 gm0\n\
\x20 edge r2 p[0, 2, 4] rep[0, 2] str[] drop[4] w20 dm5 ub918\n\
\x20 edge r2 p[3, 5] rep[3, 5] str[] drop[] w20 dm3 ub918\n\
traffic 145 msgs 24311 bytes\n\
Some(FaultStats { dropped: 5, duplicated: 5, corrupted: 9, reordered: 9, partitions: 40, retransmissions: 13, recoveries: 11, suppressed: 0 })\n\
raw_unseals Some(0)\n",
    ),
];
