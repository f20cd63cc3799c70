//! The Pelta workspace benchmark: named workloads driven through the public
//! entry points users call, timed end to end (untraced runs) and per layer
//! (traced runs). See `perfbench/README.md` for the workloads, the metrics
//! and the layer-to-end-to-end map.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fl_shielded_train --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --compare baseline.txt candidate.txt
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod attack;
mod catalogue;
mod fl;
mod host;
mod layers;
mod report;
mod stats;
mod trace;
mod wrap;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use pelta_core::{ClearWhiteBox, GradientOracle};
use pelta_data::GeneratorConfig;
use pelta_fl::{AggregationRule, UpdateCodec};

use crate::fl::FlKind;
use crate::layers::{Figures, Profile};
use crate::report::RunResult;
use crate::stats::{Summary, Tally};
use crate::trace::Tracer;
use crate::wrap::{Parent, TimedOracle};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlShieldedTrain,
    FlPopulation,
    AttackShieldedPgd,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FlShieldedTrain,
        Workload::FlPopulation,
        Workload::AttackShieldedPgd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlShieldedTrain => "fl_shielded_train",
            Workload::FlPopulation => "fl_population",
            Workload::AttackShieldedPgd => "attack_shielded_pgd",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn fl_kind(self) -> Option<FlKind> {
        match self {
            Workload::FlShieldedTrain => Some(FlKind::ShieldedTrain),
            Workload::FlPopulation => Some(FlKind::Population),
            Workload::AttackShieldedPgd => None,
        }
    }

    /// The shapes and codec the decomposed replay runs at.
    fn profile(self) -> Profile {
        match self {
            Workload::FlShieldedTrain => Profile {
                generator: FlKind::ShieldedTrain.generator(),
                clients: 4,
                honest: 4,
                free_riders: 0,
                batch: 16,
                eval_samples: 32,
                codec: UpdateCodec::Raw,
                rule: AggregationRule::FedAvg,
                shielded: true,
            },
            Workload::FlPopulation => Profile {
                generator: FlKind::Population.generator(),
                clients: fl::POPULATION_SEATS,
                honest: 1,
                free_riders: fl::POPULATION_SEATS - 1,
                batch: 1,
                eval_samples: 16,
                codec: UpdateCodec::Int8,
                rule: AggregationRule::TrimmedMean { trim: 8 },
                shielded: false,
            },
            Workload::AttackShieldedPgd => Profile {
                generator: GeneratorConfig {
                    train_samples: 32,
                    ..attack::generator()
                },
                clients: 2,
                honest: 2,
                free_riders: 0,
                batch: 16,
                eval_samples: 16,
                codec: UpdateCodec::Raw,
                rule: AggregationRule::FedAvg,
                shielded: true,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fl_shielded_train|fl_population|attack_shielded_pgd> \
--seed <n> --seconds <n> --trace <0|1>\n       perfbench --compare <baseline-results> <candidate-results>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        std::process::exit(compare_files(&args[1..]));
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    host::cap_pool_threads();
    let facts = host::HostFacts::collect(args.seed);
    println!(
        "workload={} trace={} seconds={}",
        args.workload.name(),
        u8::from(args.trace),
        args.seconds
    );
    println!("{}", facts.render());
    let budget = Duration::from_secs(args.seconds.max(1));
    let outcome = if args.trace {
        traced(args.workload, args.seed, budget)
    } else {
        untraced(args.workload, args.seed, budget)
    };
    match outcome {
        Ok(result) => println!("{}", result.to_line()),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

fn compare_files(paths: &[String]) -> i32 {
    let [baseline, candidate] = paths else {
        eprintln!("{USAGE}");
        return 2;
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match (read(baseline), read(candidate)) {
        (Ok(b), Ok(c)) => {
            let (lines, regressed) = report::compare_runs(&b, &c);
            for line in lines {
                println!("{line}");
            }
            i32::from(regressed)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            2
        }
    }
}

/// Extra set-ups timed after each fl instance: one set-up takes milliseconds,
/// so a steady median needs many, spread over the run.
const SETUPS_PER_INSTANCE: usize = 4;
/// Attack set-ups (each trains a defender) per run.
const ATTACK_SETUPS: usize = 2;

/// Prints one human-readable summary line.
fn show(label: &str, values: &[f64], unit: &str) {
    match Summary::of(values) {
        Some(s) => println!("  {label:<28} {}", s.render(unit)),
        None => println!("  {label:<28} no samples"),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.split_whitespace().next()?.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// The end-to-end run: the workload's instances, repeated until the budget
/// is spent, each checked against the first.
fn untraced(workload: Workload, seed: u64, budget: Duration) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut problems: Vec<String> = Vec::new();
    let mut setups = Vec::new();
    let mut throughput = Vec::new();
    let mut bytes = Vec::new();
    let mut quality = Vec::new();
    match workload.fl_kind() {
        Some(kind) => {
            let spec = kind.scenario(seed);
            let rounds = kind.rounds() as u64;
            let mut first: Option<fl::Instance> = None;
            let mut round_ms = Vec::new();
            let start = Instant::now();
            while start.elapsed() < budget || first.is_none() || throughput.len() < 2 {
                if start.elapsed() > 4 * budget {
                    break;
                }
                match fl::instance(kind, seed, None) {
                    Ok(inst) => {
                        tally.record(rounds, true);
                        setups.push(inst.setup_s);
                        throughput.push(rounds as f64 / inst.run_s);
                        round_ms.push(inst.run_s * 1e3 / rounds as f64);
                        bytes.push(inst.history.total_wire_bytes as f64 / rounds as f64);
                        quality.push(f64::from(inst.history.final_accuracy));
                        let reference = first.get_or_insert_with(|| inst.clone());
                        problems.extend(fl::check(kind, &spec, &inst, reference));
                    }
                    Err(e) => {
                        tally.record(rounds, false);
                        problems.push(e);
                    }
                }
                for _ in 0..SETUPS_PER_INSTANCE {
                    match fl::instance_setup_only(kind, seed) {
                        Ok(s) => setups.push(s),
                        Err(e) => problems.push(e),
                    }
                }
            }
            println!("{} (unit of work: one round)", workload.name());
            show("setup_s", &setups, "s");
            show("rounds_per_s", &throughput, "1/s");
            show("round_ms", &round_ms, "ms");
            show("wire_bytes_per_round", &bytes, "B");
            show("final_accuracy", &quality, "share");
        }
        None => {
            let mut defender = None;
            for _ in 0..ATTACK_SETUPS {
                let start = Instant::now();
                match attack::setup(seed, None) {
                    Ok(d) => {
                        setups.push(start.elapsed().as_secs_f64());
                        if let Some(previous) = &defender {
                            problems.extend(attack::check_setup(previous, &d));
                        }
                        defender = Some(d);
                    }
                    Err(e) => problems.push(e),
                }
            }
            let defender = defender.ok_or_else(|| problems.join("; "))?;
            let n = defender.labels.len() as f64;
            let mut first: Option<attack::Craft> = None;
            let start = Instant::now();
            while start.elapsed() < budget || throughput.len() < 2 {
                if start.elapsed() > 4 * budget {
                    break;
                }
                match attack::craft_shielded(&defender, seed, None) {
                    Ok(craft) => {
                        tally.record(1, true);
                        throughput.push(n / craft.wall_s);
                        bytes.push(craft.ledger.channel_bytes as f64 / n);
                        quality.push(f64::from(craft.robust_accuracy));
                        let reference = first.get_or_insert_with(|| craft.clone());
                        problems.extend(attack::check(&defender, &craft, reference));
                    }
                    Err(e) => {
                        tally.record(1, false);
                        problems.push(e);
                    }
                }
            }
            println!(
                "{} (unit of work: one adversarial example; {} per crafting call)",
                workload.name(),
                defender.labels.len()
            );
            show("setup_s", &setups, "s");
            show("adv_examples_per_s", &throughput, "1/s");
            show("channel_bytes_per_example", &bytes, "B");
            show("robust_accuracy", &quality, "share");
        }
    }
    let rss = peak_rss_mb();
    println!("  {:<28} {rss:.1} MB", "peak_rss_mb");
    println!(
        "  {:<28} {:.4} ({} of {} attempted)",
        "failed_share",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );
    report_problems(&problems);
    let metric = |values: &[f64]| stats::median(values).ok_or("no successful instance");
    let metrics = BTreeMap::from([
        ("setup_s", metric(&setups)?),
        ("throughput_per_s", metric(&throughput)?),
        ("bytes_per_unit", metric(&bytes)?),
        ("peak_rss_mb", rss),
    ]);
    Ok(RunResult::new(problems.is_empty(), tally, metrics))
}

fn report_problems(problems: &[String]) {
    if problems.is_empty() {
        println!("  checks: all passed");
    } else {
        let mut unique = problems.to_vec();
        unique.sort();
        unique.dedup();
        for p in unique {
            println!("  CHECK FAILED: {p}");
        }
    }
}

fn run_id(workload: Workload, seed: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos ^ seed.rotate_left(17) ^ workload as u64
}

/// The traced run: untraced and traced instances alternate (their ratio is
/// the tracing overhead), then the decomposed replay times the hidden
/// layers. Reports the per-layer metrics.
fn traced(workload: Workload, seed: u64, budget: Duration) -> Result<RunResult, String> {
    let tracer = Arc::new(Tracer::new(run_id(workload, seed)));
    let mut figures = Figures::new();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let profile = workload.profile();
    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    // Wall time of one unit of work, untraced, for the residual.
    let unit_wall_ms;
    match workload.fl_kind() {
        Some(kind) => {
            let spec = kind.scenario(seed);
            let rounds = kind.rounds();
            let tracing = fl::Tracing {
                tracer: Arc::clone(&tracer),
                parent: Parent::default(),
            };
            let mut reference: Option<fl::Instance> = None;
            let mut traced_runs: Vec<fl::Instance> = Vec::new();
            let start = Instant::now();
            while (start.elapsed() < budget || traced_runs.is_empty())
                && start.elapsed() < 4 * budget
            {
                for with_trace in [false, true] {
                    let outcome = fl::instance(kind, seed, with_trace.then_some(&tracing));
                    tally.record(rounds as u64, outcome.is_ok());
                    match outcome {
                        Ok(inst) => {
                            let first = reference.get_or_insert_with(|| inst.clone());
                            problems.extend(fl::check(kind, &spec, &inst, first));
                            if with_trace {
                                traced_wall.push(inst.run_s);
                                traced_runs.push(inst);
                            } else {
                                plain_wall.push(inst.run_s);
                            }
                        }
                        Err(e) => problems.push(e),
                    }
                }
            }
            let last = traced_runs.last().ok_or("no traced instance completed")?;
            let spans = tracer.spans();
            fl_real_figures(&spans, &traced_runs, rounds, &mut figures);
            let history = &last.history;
            let frames = history.total_messages as f64;
            figures.insert("fl.frames_per_round", frames / rounds as f64);
            figures.insert(
                "fl.wire_bytes_per_frame",
                history.total_wire_bytes as f64 / frames.max(1.0),
            );
            let stats = last.faults.unwrap_or_default();
            figures.insert(
                "fl.fault.retransmissions",
                stats.retransmissions as f64 / rounds as f64,
            );
            figures.insert(
                "fl.fault.recovery_ratio",
                if stats.retransmissions == 0 {
                    1.0
                } else {
                    stats.recoveries as f64 / stats.retransmissions as f64
                },
            );
            let ledger = last.ledger.unwrap_or_default();
            figures.insert("tee.sim_ms_per_round", ledger.total_ms() / rounds as f64);
            figures.insert(
                "tee.world_switches",
                ledger.world_switches as f64 / rounds as f64,
            );
            figures.insert("tee.raw_unseals", last.raw_unseals.unwrap_or(0) as f64);
            unit_wall_ms = stats::median(&plain_wall).unwrap_or(0.0) * 1e3 / rounds as f64;
        }
        None => {
            let link = Parent::default();
            let plain = attack::setup(seed, None)?;
            let wrapped = tracer.span("attacks.setup", None, |id| {
                link.set(id);
                attack::setup(seed, Some((&tracer, &link)))
            })?;
            problems.extend(attack::check_setup(&plain, &wrapped));
            let n = plain.labels.len() as f64;
            let mut reference: Option<attack::Craft> = None;
            let mut calls = Vec::new();
            let mut ledger = None;
            let start = Instant::now();
            while (start.elapsed() < budget || calls.is_empty()) && start.elapsed() < 4 * budget {
                for with_trace in [false, true] {
                    let outcome = if with_trace {
                        tracer.span("attacks.craft", None, |id| {
                            link.set(id);
                            attack::craft_shielded(&wrapped, seed, Some((&tracer, &link)))
                                .map(|c| (c, id))
                        })
                    } else {
                        attack::craft_shielded(&plain, seed, None).map(|c| (c, 0))
                    };
                    tally.record(1, outcome.is_ok());
                    match outcome {
                        Ok((craft, id)) => {
                            let first = reference.get_or_insert_with(|| craft.clone());
                            problems.extend(attack::check(&plain, &craft, first));
                            if with_trace {
                                traced_wall.push(craft.wall_s);
                                calls.push((id, craft.wall_s * 1e3));
                                ledger = Some((craft.ledger, craft.raw_unseals));
                            } else {
                                plain_wall.push(craft.wall_s);
                            }
                        }
                        Err(e) => problems.push(e),
                    }
                }
            }
            let spans = tracer.spans();
            let oracle = layers::oracle_figures(&spans, &calls, "core.probe", "core.logits");
            let (ledger, raw_unseals) = ledger.ok_or("no traced crafting call completed")?;
            let probes = oracle.probes_per_call.max(1.0);
            figures.insert("core.probe_ms", oracle.probe_ms);
            figures.insert("core.logits_ms", oracle.logits_ms);
            figures.insert("attacks.self_ms", oracle.self_ms);
            figures.insert("core.probes_per_example", oracle.probes_per_call / n);
            figures.insert(
                "tee.world_switches_per_probe",
                ledger.world_switches as f64 / probes,
            );
            figures.insert(
                "tee.channel_bytes_per_probe",
                ledger.channel_bytes as f64 / probes,
            );
            figures.insert("tee.sim_ms_per_round", ledger.total_ms());
            figures.insert("tee.world_switches", ledger.world_switches as f64);
            figures.insert("tee.raw_unseals", raw_unseals as f64);
            let forward = forward_figures(&spans, &calls, 1);
            figures.insert("models.forward_calls", forward.0 / n);
            figures.insert("models.forward_share", forward.1);
            // The clear twin on the same inputs: its probe time is the
            // baseline of the shield's overhead, and it must flip at least
            // one sample or the workload measures nothing.
            let clear = ClearWhiteBox::new(Arc::clone(&plain.model));
            let clear_link = Parent::default();
            let timed = TimedOracle::new(
                &clear,
                &tracer,
                clear_link.clone(),
                "core.clear_probe",
                "core.clear_logits",
            );
            let (clear_out, clear_call) = tracer.span("attacks.clear_craft", None, |id| {
                clear_link.set(id);
                (
                    attack::craft(&plain, seed, &timed as &dyn GradientOracle),
                    id,
                )
            });
            let (clear_wall, clear_accuracy, _) = clear_out?;
            let spans = tracer.spans();
            let clear_figs = layers::oracle_figures(
                &spans,
                &[(clear_call, clear_wall * 1e3)],
                "core.clear_probe",
                "core.clear_logits",
            );
            figures.insert("core.clear_probe_ms", clear_figs.probe_ms);
            figures.insert(
                "core.shield_overhead_ms",
                oracle.probe_ms - clear_figs.probe_ms,
            );
            if clear_accuracy >= 1.0 {
                problems
                    .push("the clear twin flipped no sample: the attack is degenerate".to_string());
            }
            println!("  clear twin robust accuracy {clear_accuracy:.3} (must be below 1)");
            let arithmetic = tracer.span("attacks.replay", None, |id| {
                let shielded =
                    pelta_core::ShieldedWhiteBox::with_default_enclave(Arc::clone(&plain.model))
                        .map_err(|e| e.to_string())?;
                layers::attack_arithmetic_ms(&tracer, id, &shielded, &plain)
            })?;
            let call_ms = stats::median(&plain_wall).unwrap_or(0.0) * 1e3;
            let oracle_ms = oracle.probes_per_call * oracle.probe_ms + oracle.logits_ms;
            unit_wall_ms = call_ms;
            figures.insert(
                "residual_share",
                (call_ms - oracle_ms - arithmetic) / call_ms.max(1e-9),
            );
        }
    }

    // The decomposed replay at the workload's shapes.
    let replay = tracer.span("replay", None, |root| -> Result<f64, String> {
        let dataset = layers::data(&tracer, root, &profile, seed, &mut figures);
        layers::tensor_ops(&tracer, root, profile.batch, &mut figures);
        let model = layers::model_split(&tracer, root, &profile, &dataset, seed, &mut figures)?;
        let cost = layers::fl_round(&tracer, root, &profile, &dataset, seed, &mut figures)?;
        // The attack workload's oracle figures come from its real run.
        if workload.fl_kind().is_some() {
            layers::core_replay(&tracer, root, Arc::from(model), &dataset, &mut figures)?;
        }
        let eval = figures.get("models.eval_ms").copied().unwrap_or(0.0);
        Ok(cost + eval)
    })?;
    if workload.fl_kind().is_some() {
        figures.insert(
            "residual_share",
            (unit_wall_ms - replay) / unit_wall_ms.max(1e-9),
        );
    }
    let plain = stats::median(&plain_wall).unwrap_or(0.0);
    let with_trace = stats::median(&traced_wall).unwrap_or(0.0);
    figures.insert(
        "trace.overhead_share",
        (with_trace - plain) / plain.max(1e-9),
    );
    figures.insert("trace.spans", tracer.spans().len() as f64);

    let path = std::path::Path::new(".perfbench_out")
        .join(format!("trace-{}-{seed}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write the trace to {}: {e}", path.display());
    } else {
        println!("  spans written to {}", path.display());
    }

    println!(
        "{} traced (per-layer figures; unit of work as in the untraced run)",
        workload.name()
    );
    println!(
        "  untraced unit wall {unit_wall_ms:.2} ms; traced/untraced instances {} / {}",
        traced_wall.len(),
        plain_wall.len()
    );
    for metric in catalogue::PER_LAYER {
        match figures.get(metric.name) {
            Some(v) => println!("  {:<32} {v:.4} {}", metric.name, metric.unit),
            None => problems.push(format!("per-layer metric {} was not measured", metric.name)),
        }
    }
    report_problems(&problems);
    let metrics = catalogue::PER_LAYER
        .iter()
        .filter_map(|m| figures.get(m.name).map(|v| (m.name, *v)))
        .collect();
    Ok(RunResult::new(problems.is_empty(), tally, metrics))
}

/// Forward passes inside the traced real runs: count per round and the
/// share of run wall time during which at least one forward pass ran.
fn fl_real_figures(
    spans: &[trace::Span],
    runs: &[fl::Instance],
    rounds: usize,
    figures: &mut Figures,
) {
    let calls: Vec<(u64, f64)> = runs.iter().map(|r| (r.run_span, r.run_s * 1e3)).collect();
    let (count, share) = forward_figures(spans, &calls, rounds);
    figures.insert("models.forward_calls", count);
    figures.insert("models.forward_share", share);
    // Frames handled where updates are folded (the edges under a
    // hierarchy, the root otherwise) per update folded at the root.
    let Some(last) = runs.last() else { return };
    let (mut delivered, mut folded) = (0usize, 0usize);
    for record in &last.history.rounds {
        delivered += if record.edge_summaries.is_empty() {
            record.summary.delivered_messages
        } else {
            record
                .edge_summaries
                .iter()
                .map(|s| s.delivered_messages)
                .sum()
        };
        folded += record.summary.reporters.len();
    }
    figures.insert(
        "fl.server.delivered_per_folded",
        delivered as f64 / folded.max(1) as f64,
    );
}

/// Median forward-pass count per unit and median covered share of the
/// parent spans `calls`.
fn forward_figures(spans: &[trace::Span], calls: &[(u64, f64)], units: usize) -> (f64, f64) {
    let mut counts = Vec::new();
    let mut shares = Vec::new();
    for &(call, _) in calls {
        let Some(parent) = spans.iter().find(|s| s.id == call) else {
            continue;
        };
        let forwards: Vec<&trace::Span> = spans
            .iter()
            .filter(|s| s.name == "models.forward" && s.parent == Some(call))
            .collect();
        counts.push(forwards.len() as f64 / units as f64);
        let uncovered = trace::self_time_ns(parent, &forwards);
        shares.push(1.0 - uncovered as f64 / parent.duration_ns().max(1) as f64);
    }
    (
        stats::median(&counts).unwrap_or(0.0),
        stats::median(&shares).unwrap_or(0.0),
    )
}
