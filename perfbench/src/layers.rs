//! The decomposed replay: layers that a real `Federation::run` or attack
//! hides are timed here through their public calls, at the workload's
//! shapes and codec, each call inside its own span.
//!
//! The replay of one federated round follows the runtime's own order:
//! parallel local work (`FlClient::local_round`, free riders'
//! `FederationAgent::step`), masking and sealing of the shielded segment
//! (`ClientMaskContext::mask_segment`,
//! `ShieldedUpdateChannel::seal_segments`), the wire
//! (`Message::encode_with` / `Message::decode`, a `SerializedTransport`
//! round trip), the consensus point (`FedAvgServer::deliver` /
//! `close_round`) and the enclave side (`open_segments`,
//! `fold_masked_segments`). Tensor op classes, the train-step split and
//! data generation are timed on their own.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pelta_attacks::{effective_input_gradient, robust_accuracy, AdjointUpsampler, Pgd};
use pelta_autodiff::Graph;
use pelta_core::{AttackLoss, ClearWhiteBox, GradientOracle, ShieldedWhiteBox};
use pelta_data::{federated_split, Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{
    export_parameters, pair_seeds_for_client, split_segments, AggregationRule,
    AggregatorMaskContext, BroadcastFrame, ClientMaskContext, FedAvgServer, FederationAgent,
    FlClient, FreeRiderAgent, GlobalModel, Message, ModelUpdate, ParticipationPolicy,
    SerializedTransport, ShieldedUpdateChannel, Transport, TransportKind, UpdateCodec,
};
use pelta_models::{accuracy, train_step, ImageModel, TrainingConfig};
use pelta_nn::Sgd;
use pelta_tensor::{pool, SeedStream, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::fl::vit;
use crate::trace::{Span, Tracer};
use crate::wrap::{Parent, TimedOracle};

/// Per-layer figures by catalogue name.
pub type Figures = BTreeMap<&'static str, f64>;

/// The shapes, codec and population one workload's replay runs at.
#[derive(Debug, Clone)]
pub struct Profile {
    pub generator: GeneratorConfig,
    /// Shards the dataset is split into.
    pub clients: usize,
    /// Honest clients trained in the parallel step.
    pub honest: usize,
    /// Free riders stepped in the parallel step and replayed on the wire.
    pub free_riders: usize,
    /// Local training batch (also the tensor-op and train-step batch).
    pub batch: usize,
    pub eval_samples: usize,
    pub codec: UpdateCodec,
    pub rule: AggregationRule,
    /// Whether the workload's updates travel sealed (and masked).
    pub shielded: bool,
}

/// Tokens of the scaled ViT-B/16 on 32×32 inputs with 4×4 patches (64
/// patches plus the class token).
const TOKENS: usize = 65;
const DIM: usize = 32;
const MLP_DIM: usize = 64;
const HEADS: usize = 4;

/// Runs `f` `reps` times under spans named `name`; returns the median ms.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    for _ in 0..reps {
        std::hint::black_box(tracer.span(name, Some(parent), |_| f()));
    }
    crate::stats::median(&tracer.child_durations_ms(name, parent)).unwrap_or(0.0)
}

/// Repetitions of a micro-op: enough to fill ~150 ms, between 5 and 50.
fn reps_for(once_ms: f64) -> usize {
    ((150.0 / once_ms.max(1e-3)) as usize).clamp(5, 50)
}

/// Times the three seed-era tensor loops and the `linear_3d` GEMM at the
/// ViT's shapes for `batch` images.
pub fn tensor_ops(tracer: &Tracer, parent: u64, batch: usize, figures: &mut Figures) {
    let mut rng = ChaCha8Rng::seed_from_u64(batch as u64);
    let hidden = Tensor::rand_uniform(&[batch, TOKENS, MLP_DIM], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[MLP_DIM], -1.0, 1.0, &mut rng);
    let heads = Tensor::rand_uniform(&[batch, TOKENS, HEADS, DIM / HEADS], -1.0, 1.0, &mut rng);
    let rows = Tensor::rand_uniform(&[batch * TOKENS, DIM], -1.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform(&[MLP_DIM, DIM], -1.0, 1.0, &mut rng);

    let micro = |name: &'static str, f: &dyn Fn() -> Tensor| {
        let start = Instant::now();
        std::hint::black_box(f());
        let reps = reps_for(start.elapsed().as_secs_f64() * 1e3);
        timed(tracer, name, parent, reps, f)
    };
    let bias_add = micro("tensor.bias_add", &|| {
        hidden.add(&bias).expect("broadcastable")
    });
    let permute = micro("tensor.permute", &|| {
        heads.permute(&[0, 2, 1, 3]).expect("rank 4")
    });
    let reduce = micro("tensor.reduce_to_shape", &|| {
        hidden.reduce_to_shape(&[MLP_DIM]).expect("reducible")
    });
    let matmul = micro("tensor.matmul", &|| {
        rows.matmul_nt(&weight).expect("conformable")
    });
    let flops = 2.0 * (batch * TOKENS * DIM * MLP_DIM) as f64;
    figures.insert("tensor.bias_add_ms", bias_add);
    figures.insert("tensor.permute_ms", permute);
    figures.insert("tensor.reduce_to_shape_ms", reduce);
    figures.insert("tensor.matmul_gflops", flops / (matmul * 1e6));
}

/// `train_step` and its three public pieces, then `accuracy` over the
/// evaluation samples. Returns the model it trained.
pub fn model_split(
    tracer: &Tracer,
    parent: u64,
    profile: &Profile,
    dataset: &Dataset,
    seed: u64,
    figures: &mut Figures,
) -> Result<Box<dyn ImageModel>, String> {
    const REPS: usize = 2;
    let mut model = vit(&mut SeedStream::new(seed).derive("replay-model"));
    let batch = dataset
        .train_images()
        .narrow(0, 0, profile.batch)
        .map_err(|e| e.to_string())?;
    let labels = &dataset.train_labels()[..profile.batch];
    let mut optimiser = Sgd::new(0.02, 0.9);
    model.set_training(true);
    let mut failure = None;
    let step = timed(tracer, "models.train_step", parent, REPS, || {
        if let Err(e) = train_step(model.as_mut(), &batch, labels, &mut optimiser) {
            failure = Some(e.to_string());
        }
    });
    for _ in 0..REPS {
        let mut graph = Graph::new();
        let loss = tracer.span("models.forward", Some(parent), |_| -> Result<_, String> {
            let input = graph.input(batch.clone(), "input");
            let logits = model
                .forward(&mut graph, input)
                .map_err(|e| e.to_string())?;
            graph
                .cross_entropy(logits, labels)
                .map_err(|e| e.to_string())
        })?;
        let grads = tracer.span("autodiff.backward", Some(parent), |_| {
            graph.backward(loss).map_err(|e| e.to_string())
        })?;
        tracer
            .span("nn.sgd_step", Some(parent), |_| {
                optimiser.step(&mut model.parameters_mut(), &graph, &grads)
            })
            .map_err(|e| e.to_string())?;
    }
    model.set_training(false);
    let eval = dataset.test_subset(profile.eval_samples);
    let eval_ms = timed(tracer, "models.eval", parent, REPS, || {
        accuracy(model.as_ref(), &eval.images, &eval.labels)
    });
    if let Some(e) = failure {
        return Err(format!("train step failed: {e}"));
    }
    figures.insert("models.train_step_ms", step);
    figures.insert("models.forward_ms", under(tracer, "models.forward", parent));
    figures.insert(
        "autodiff.backward_ms",
        under(tracer, "autodiff.backward", parent),
    );
    figures.insert("nn.sgd_step_ms", under(tracer, "nn.sgd_step", parent));
    figures.insert("models.eval_ms", eval_ms);
    Ok(model)
}

/// Runs `f` and returns its output with its wall time in ms.
fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median duration (ms) of the spans named `name` under `parent`.
fn under(tracer: &Tracer, name: &str, parent: u64) -> f64 {
    median(&tracer.child_durations_ms(name, parent))
}

fn median(values: &[f64]) -> f64 {
    crate::stats::median(values).unwrap_or(0.0)
}

/// Dataset generation and the federated split at the workload's sizes.
pub fn data(
    tracer: &Tracer,
    parent: u64,
    profile: &Profile,
    seed: u64,
    figures: &mut Figures,
) -> Dataset {
    const REPS: usize = 3;
    let generate = timed(tracer, "data.generate", parent, REPS, || {
        Dataset::generate(DatasetSpec::Cifar10Like, &profile.generator, seed)
    });
    let dataset = Dataset::generate(DatasetSpec::Cifar10Like, &profile.generator, seed);
    let mut seeds = SeedStream::new(seed);
    let split = timed(tracer, "data.split", parent, REPS, || {
        federated_split(
            &dataset,
            profile.clients,
            Partition::Iid,
            &mut seeds.derive("partition"),
        )
    });
    figures.insert("data.generate_ms", generate);
    figures.insert("data.split_ms", split);
    dataset
}

/// One seat of the replayed parallel step.
enum Seat {
    Honest(Box<FlClient>),
    FreeRider(Box<FreeRiderAgent>, Box<dyn Transport>),
}

/// Replays one federated round at `profile`'s shapes and returns the ms its
/// blocking path is attributed (for the residual). Frame, fault and
/// delivery counts are only filled in where a real run has not already
/// supplied them.
pub fn fl_round(
    tracer: &Tracer,
    parent: u64,
    profile: &Profile,
    dataset: &Dataset,
    seed: u64,
    figures: &mut Figures,
) -> Result<f64, String> {
    let err = |e: pelta_fl::FlError| e.to_string();
    let mut seeds = SeedStream::new(seed);
    let template = vit(&mut seeds.derive_indexed("model", u64::MAX));
    let global = GlobalModel {
        round: 0,
        parameters: export_parameters(template.as_ref()),
    };
    let shards = federated_split(
        dataset,
        profile.clients,
        Partition::Iid,
        &mut seeds.derive("partition"),
    );
    let training = TrainingConfig {
        epochs: 1,
        batch_size: profile.batch,
        learning_rate: 0.02,
        momentum: 0.9,
    };
    let frame = BroadcastFrame::new(Message::RoundStart {
        round: 0,
        global: global.clone(),
    });
    let mut seats: Vec<Seat> = Vec::new();
    for (id, shard) in shards
        .into_iter()
        .enumerate()
        .take(profile.honest + profile.free_riders)
    {
        if id < profile.honest {
            let model = vit(&mut seeds.derive_indexed("model", id as u64));
            seats.push(Seat::Honest(Box::new(FlClient::new(
                id,
                shard,
                model,
                training.clone(),
            ))));
        } else {
            let (agent_end, runtime_end) = TransportKind::InMemory.duplex_with(profile.codec);
            runtime_end.send_broadcast(&frame).map_err(err)?;
            let agent = FreeRiderAgent::new(
                id,
                shard.len().max(1),
                1,
                0.01,
                agent_end,
                seeds.derive_indexed("adversary", id as u64),
            )
            .map_err(err)?;
            seats.push(Seat::FreeRider(Box::new(agent), runtime_end));
        }
    }

    // The parallel step: every seat's local work on the shared pool.
    let threads = pool::global().threads();
    let step_start = Instant::now();
    let (outcomes, step_span) = tracer.span("fl.client.parallel_step", Some(parent), |step| {
        let outcomes = pool::parallel_map_mut(&pool::global(), &mut seats, |_, seat| {
            let start = Instant::now();
            let out = match seat {
                Seat::Honest(client) => tracer
                    .span("fl.client.local_round", Some(step), |_| {
                        client.local_round(&global)
                    })
                    .map(Some),
                Seat::FreeRider(agent, _) => tracer
                    .span("fl.client.free_ride", Some(step), |_| agent.step(false))
                    .map(|_| None),
            };
            (out, start.elapsed().as_secs_f64())
        });
        (outcomes, step)
    });
    let step_s = step_start.elapsed().as_secs_f64();
    let busy_s: f64 = outcomes.iter().map(|(_, s)| s).sum();
    let mut updates = Vec::new();
    for (out, _) in outcomes {
        if let Some((update, _report)) = out.map_err(err)? {
            updates.push(update);
        }
    }
    figures.insert(
        "fl.client.local_round_ms",
        median(&tracer.child_durations_ms("fl.client.local_round", step_span)),
    );
    figures.insert(
        "fl.client.parallel_efficiency",
        busy_s / (threads as f64 * step_s),
    );

    // Client side of the enclave path: mask, then seal, the shielded
    // segment of every honest update.
    let measurement = ShieldedUpdateChannel::connect(seed)
        .map_err(err)?
        .measurement();
    let nonces: BTreeMap<usize, u64> = (0..profile.honest)
        .map(|id| (id, seed ^ (id as u64 + 1)))
        .collect();
    let (reference, _) = split_segments(template.as_ref(), global.parameters.clone());
    let mut members = BTreeMap::new();
    let mut messages: Vec<(Message, Message)> = Vec::new();
    let (mut mask_ms, mut seal_ms, mut unseal_ms) = (Vec::new(), Vec::new(), Vec::new());
    let opener = ShieldedUpdateChannel::connect(seed ^ 0x0BE4).map_err(err)?;
    for update in &updates {
        let (mut shielded, clear) = split_segments(template.as_ref(), update.parameters.clone());
        let mask = ClientMaskContext::new(
            update.client_id,
            pair_seeds_for_client(measurement, &nonces, update.client_id),
        );
        let ((), ms) = clock(|| {
            tracer.span("fl.secure_agg.mask", Some(parent), |_| {
                mask.mask_segment(0, &mut shielded)
            })
        });
        mask_ms.push(ms);
        let channel = ShieldedUpdateChannel::connect(nonces[&update.client_id]).map_err(err)?;
        let (sealed, ms) = clock(|| {
            tracer.span("tee.seal", Some(parent), |_| {
                channel.seal_segments(&shielded)
            })
        });
        seal_ms.push(ms);
        let (blobs, _) = sealed.map_err(err)?;
        let (opened, ms) =
            clock(|| tracer.span("tee.unseal", Some(parent), |_| opener.open_segments(&blobs)));
        unseal_ms.push(ms);
        opened.map_err(err)?;
        members.insert(update.client_id, (update.num_samples, blobs.clone()));
        // On the wire: the clear segment plus sealed blobs when shielded,
        // the whole update otherwise. The server folds the whole update
        // either way (the runtime reassembles sealed segments first).
        let wire = if profile.shielded {
            Message::Update {
                update: ModelUpdate {
                    parameters: clear,
                    ..update.clone()
                },
                shielded: blobs,
            }
        } else {
            Message::Update {
                update: update.clone(),
                shielded: Vec::new(),
            }
        };
        let folded = Message::Update {
            update: update.clone(),
            shielded: Vec::new(),
        };
        messages.push((wire, folded));
    }
    let folder = ShieldedUpdateChannel::connect(seed ^ 0xF01D).map_err(err)?;
    let masks = AggregatorMaskContext::new(measurement, nonces.clone());
    let (folded, masked_fold_ms) = clock(|| {
        tracer.span("fl.secure_agg.masked_fold", Some(parent), |_| {
            folder.fold_masked_segments(&reference, 0, &members, &masks, &[], &BTreeMap::new())
        })
    });
    folded.map_err(err)?;
    figures.insert("fl.secure_agg.mask_ms", median(&mask_ms));
    figures.insert("tee.seal_ms", median(&seal_ms));
    figures.insert("tee.unseal_ms", median(&unseal_ms));
    figures.insert("fl.secure_agg.masked_fold_ms", masked_fold_ms);

    // Free riders' frames (spam, then the echoed update) as they queued.
    for seat in &seats {
        if let Seat::FreeRider(_, runtime_end) = seat {
            while let Some(message) = runtime_end.recv().map_err(err)? {
                messages.push((message.clone(), message));
            }
        }
    }

    // The wire and the consensus point.
    let ids: Vec<usize> = (0..seats.len()).collect();
    let mut server = FedAvgServer::with_rule(
        global.parameters.clone(),
        ParticipationPolicy {
            quorum: profile.rule.min_updates().clamp(1, ids.len()),
            sample: 0,
            straggler_deadline: 0,
        },
        profile.rule,
    )
    .map_err(err)?;
    for &id in &ids {
        server.deliver(&Message::Join { client_id: id });
    }
    server
        .begin_round(&mut ChaCha8Rng::seed_from_u64(seed))
        .map_err(err)?;
    let (client_end, server_end) = SerializedTransport::pair_with(profile.codec);
    let (mut encode_us, mut decode_us, mut roundtrip_us, mut fold_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut delivered = 0usize;
    let mut wire_bytes = 0usize;
    for (wire, folded) in &messages {
        let (bytes, ms) = clock(|| {
            tracer.span("fl.codec.encode", Some(parent), |_| {
                wire.encode_with(profile.codec)
            })
        });
        encode_us.push(ms * 1e3);
        wire_bytes += bytes.len();
        let (decoded, ms) =
            clock(|| tracer.span("fl.codec.decode", Some(parent), |_| Message::decode(&bytes)));
        decode_us.push(ms * 1e3);
        decoded.map_err(err)?;
        let (received, ms) = clock(|| {
            tracer.span("fl.transport.roundtrip", Some(parent), |_| {
                client_end.send(wire).and_then(|()| server_end.recv())
            })
        });
        roundtrip_us.push(ms * 1e3);
        received.map_err(err)?;
        // The runtime hands the server the codec's view of an update.
        let delivered_message = profile
            .codec
            .round_trip_message(folded)
            .unwrap_or_else(|| folded.clone());
        let (_, ms) = clock(|| {
            tracer.span("fl.server.deliver", Some(parent), |_| {
                server.deliver(&delivered_message)
            })
        });
        delivered += 1;
        if matches!(folded, Message::Update { .. }) {
            fold_us.push(ms * 1e3);
        }
    }
    let (summary, close_ms) = clock(|| {
        tracer.span("fl.server.close_round", Some(parent), |_| {
            server.close_round()
        })
    });
    let summary = summary.map_err(err)?;
    figures.insert("fl.codec.encode_us", median(&encode_us));
    figures.insert("fl.codec.decode_us", median(&decode_us));
    figures.insert("fl.transport.roundtrip_us", median(&roundtrip_us));
    figures.insert("fl.server.fold_us", median(&fold_us));
    figures.insert("fl.server.close_round_ms", close_ms);
    // Frame, fault and delivery counts of a real run take precedence; a
    // workload without one (the attack) reports the replay's, fault-free.
    let frames = messages.len().max(1) as f64;
    let replayed = [
        ("fl.frames_per_round", frames),
        ("fl.wire_bytes_per_frame", wire_bytes as f64 / frames),
        (
            "fl.server.delivered_per_folded",
            delivered as f64 / summary.reporters.len().max(1) as f64,
        ),
        ("fl.fault.retransmissions", 0.0),
        ("fl.fault.recovery_ratio", 1.0),
    ];
    for (name, value) in replayed {
        figures.entry(name).or_insert(value);
    }

    // The blocking path of one round: the parallel step, the client-side
    // enclave work spread over the pool, the wire and fold of every frame,
    // the enclave fold, the close and central evaluation.
    let enclave_ms = if profile.shielded {
        (mask_ms.iter().sum::<f64>() + seal_ms.iter().sum::<f64>()) / threads as f64
            + masked_fold_ms
    } else {
        0.0
    };
    let wire_ms = (roundtrip_us.iter().sum::<f64>() + fold_us.iter().sum::<f64>()) / 1e3;
    Ok(step_s * 1e3 + enclave_ms + wire_ms + close_ms)
}

/// Oracle-call figures of one or more crafting calls under `parents`.
pub struct OracleFigures {
    pub probe_ms: f64,
    pub logits_ms: f64,
    pub probes_per_call: f64,
    /// Crafting wall time minus the oracle's spans, per call (ms).
    pub self_ms: f64,
}

/// Probe / logits medians and attack self time over the crafting spans
/// `calls` (each with its wall time in ms).
pub fn oracle_figures(
    spans: &[Span],
    calls: &[(u64, f64)],
    probe: &str,
    logits: &str,
) -> OracleFigures {
    let under = |name: &str, call: u64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(call))
            .map(Span::duration_ms)
            .collect()
    };
    let (mut probes, mut logit, mut selfs, mut counts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(call, wall_ms) in calls {
        let p = under(probe, call);
        let l = under(logits, call);
        selfs.push(wall_ms - p.iter().sum::<f64>() - l.iter().sum::<f64>());
        counts.push(p.len() as f64);
        probes.extend(p);
        logit.extend(l);
    }
    OracleFigures {
        probe_ms: median(&probes),
        logits_ms: median(&logit),
        probes_per_call: median(&counts),
        self_ms: median(&selfs),
    }
}

/// The attack's own per-step arithmetic outside the oracle — turning a
/// probe into an input-shaped gradient, the sign step and the projection —
/// timed on one real probe of the defender's samples at the attack's
/// budget; returns ms per crafting call.
pub fn attack_arithmetic_ms(
    tracer: &Tracer,
    parent: u64,
    oracle: &dyn GradientOracle,
    defender: &crate::attack::Defender,
) -> Result<f64, String> {
    use crate::attack::{EPSILON, STEP, STEPS};
    let samples = &defender.samples;
    let probe = oracle
        .probe(samples, &defender.labels, AttackLoss::CrossEntropy)
        .map_err(|e| e.to_string())?;
    let dims = samples.dims();
    let mut upsampler = AdjointUpsampler::new([dims[1], dims[2], dims[3]]);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let per_step = timed(
        tracer,
        "attacks.step_arithmetic",
        parent,
        STEPS,
        || -> Result<Tensor, String> {
            let grad = effective_input_gradient(&probe, &mut upsampler, dims[0], &mut rng)
                .map_err(|e| e.to_string())?;
            let candidate = samples
                .axpy(STEP, &grad.sign())
                .map_err(|e| e.to_string())?;
            let upper = samples.add_scalar(EPSILON);
            let lower = samples.add_scalar(-EPSILON);
            Ok(candidate
                .minimum(&upper)
                .and_then(|t| t.maximum(&lower))
                .map_err(|e| e.to_string())?
                .clamp(0.0, 1.0))
        },
    );
    Ok(per_step * STEPS as f64)
}

/// Shielded and clear oracle figures on a small PGD run against `model`
/// (used by workloads whose own path has no attack).
pub fn core_replay(
    tracer: &Tracer,
    parent: u64,
    model: Arc<dyn ImageModel>,
    dataset: &Dataset,
    figures: &mut Figures,
) -> Result<(), String> {
    const SAMPLES: usize = 4;
    const STEPS: usize = 2;
    let eval = dataset.test_subset(SAMPLES);
    let pgd =
        Pgd::new(crate::attack::EPSILON, crate::attack::STEP, STEPS).map_err(|e| e.to_string())?;
    let shielded =
        ShieldedWhiteBox::with_default_enclave(Arc::clone(&model)).map_err(|e| e.to_string())?;
    let clear = ClearWhiteBox::new(model);
    let link = Parent::default();
    let mut calls = Vec::new();
    let mut clear_calls = Vec::new();
    for (oracle, probe, logits, out) in [
        (
            &shielded as &dyn GradientOracle,
            "core.probe",
            "core.logits",
            &mut calls,
        ),
        (
            &clear as &dyn GradientOracle,
            "core.clear_probe",
            "core.clear_logits",
            &mut clear_calls,
        ),
    ] {
        let timed_oracle = TimedOracle::new(oracle, tracer, link.clone(), probe, logits);
        let ((outcome, call), ms) = clock(|| {
            tracer.span("attacks.craft", Some(parent), |call| {
                link.set(call);
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                (
                    robust_accuracy(&timed_oracle, &pgd, &eval.images, &eval.labels, &mut rng),
                    call,
                )
            })
        });
        outcome.map_err(|e| e.to_string())?;
        out.push((call, ms));
    }
    let spans = tracer.spans();
    let shielded_figs = oracle_figures(&spans, &calls, "core.probe", "core.logits");
    let clear_figs = oracle_figures(
        &spans,
        &clear_calls,
        "core.clear_probe",
        "core.clear_logits",
    );
    let ledger = shielded.cost_ledger();
    let probes = shielded_figs.probes_per_call.max(1.0);
    figures.insert("core.probe_ms", shielded_figs.probe_ms);
    figures.insert("core.logits_ms", shielded_figs.logits_ms);
    figures.insert("core.clear_probe_ms", clear_figs.probe_ms);
    figures.insert(
        "core.shield_overhead_ms",
        shielded_figs.probe_ms - clear_figs.probe_ms,
    );
    figures.insert("attacks.self_ms", shielded_figs.self_ms);
    figures.insert(
        "core.probes_per_example",
        shielded_figs.probes_per_call / SAMPLES as f64,
    );
    figures.insert(
        "tee.world_switches_per_probe",
        ledger.world_switches as f64 / probes,
    );
    figures.insert(
        "tee.channel_bytes_per_probe",
        ledger.channel_bytes as f64 / probes,
    );
    Ok(())
}
