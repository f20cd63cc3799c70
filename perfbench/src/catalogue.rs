//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, its better direction and (end to end
//! only) the bound by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` at the repository root mirrors this table;
//! a test keeps the two in step.
//!
//! A *unit of work* is one federated round on the `fl_*` workloads and one
//! crafted adversarial example on `attack_shielded_pgd`.

use crate::stats::Better;

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the baseline median (end to end).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured on untraced runs only.
pub const END_TO_END: [Metric; 4] = [
    // Median set-up time: dataset generation plus population build with
    // attestation and Joins (fl_*), or defender training plus sample
    // selection (attack).
    e2e("setup_s", "s", Lower, 0.25),
    // Units of work per second: rounds per second of `Federation::run` wall
    // time (rounds_per_s) or adversarial examples crafted per second
    // (adv_examples_per_s).
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    // Bytes per unit of work: wire bytes per round (wire_bytes_per_round)
    // or enclave secure-channel bytes per adversarial example.
    e2e("bytes_per_unit", "B", Lower, 0.1),
    // Peak resident set of the benchmark process.
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics, measured on traced runs only.
pub const PER_LAYER: [Metric; 43] = [
    layer("tensor.bias_add_ms", "ms", Lower),
    layer("tensor.permute_ms", "ms", Lower),
    layer("tensor.reduce_to_shape_ms", "ms", Lower),
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("models.train_step_ms", "ms", Lower),
    layer("models.forward_ms", "ms", Lower),
    layer("autodiff.backward_ms", "ms", Lower),
    layer("nn.sgd_step_ms", "ms", Lower),
    layer("models.eval_ms", "ms", Lower),
    layer("models.forward_calls", "count", Lower),
    layer("models.forward_share", "share", Lower),
    layer("data.generate_ms", "ms", Lower),
    layer("data.split_ms", "ms", Lower),
    layer("fl.client.local_round_ms", "ms", Lower),
    layer("fl.client.parallel_efficiency", "share", Higher),
    layer("fl.codec.encode_us", "us", Lower),
    layer("fl.codec.decode_us", "us", Lower),
    layer("fl.transport.roundtrip_us", "us", Lower),
    layer("fl.frames_per_round", "count", Lower),
    layer("fl.wire_bytes_per_frame", "B", Lower),
    layer("fl.server.fold_us", "us", Lower),
    layer("fl.server.close_round_ms", "ms", Lower),
    layer("fl.server.delivered_per_folded", "ratio", Lower),
    layer("fl.fault.retransmissions", "count", Lower),
    layer("fl.fault.recovery_ratio", "ratio", Higher),
    layer("tee.seal_ms", "ms", Lower),
    layer("tee.unseal_ms", "ms", Lower),
    layer("fl.secure_agg.mask_ms", "ms", Lower),
    layer("fl.secure_agg.masked_fold_ms", "ms", Lower),
    layer("tee.sim_ms_per_round", "sim_ms", Lower),
    layer("tee.world_switches", "count", Lower),
    layer("tee.raw_unseals", "count", Lower),
    layer("core.probe_ms", "ms", Lower),
    layer("core.logits_ms", "ms", Lower),
    layer("core.clear_probe_ms", "ms", Lower),
    layer("core.shield_overhead_ms", "ms", Lower),
    layer("attacks.self_ms", "ms", Lower),
    layer("core.probes_per_example", "count", Lower),
    layer("tee.world_switches_per_probe", "count", Lower),
    layer("tee.channel_bytes_per_probe", "B", Lower),
    layer("residual_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Lower),
];

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` must name the same metrics with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_manifest_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest: crate::report::Json = serde_json::from_str(&text).expect("valid JSON");
        let entries = |key: &str| {
            manifest
                .get(key)
                .and_then(|v| v.as_seq().map(<[_]>::to_vec))
                .unwrap_or_else(|| panic!("`{key}` list"))
        };
        let check = |key: &str, table: &[Metric]| {
            let listed = entries(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(table) {
                let map = entry.as_map().expect("metric object");
                let field = |f: &str| serde::map_get(map, f).expect(f).clone();
                assert_eq!(field("name").as_str(), Some(metric.name));
                assert_eq!(field("unit").as_str(), Some(metric.unit), "{}", metric.name);
                assert_eq!(
                    field("better").as_str(),
                    Some(metric.better.name()),
                    "{}",
                    metric.name
                );
                if let Some(bound) = metric.bound {
                    assert_eq!(field("bound").as_num(), Some(bound), "{}", metric.name);
                }
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|w| {
                serde::map_get(w.as_map().expect("workload"), "name")
                    .expect("name")
                    .as_str()
                    .expect("string")
                    .to_string()
            })
            .collect();
        let known: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
