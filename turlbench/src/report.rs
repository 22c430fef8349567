//! What a run reports: metrics by name with units, requests or ops
//! sent/succeeded/failed per phase, and the correctness verdict.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"), ("p50_ms", "ms")];

/// Per-layer metrics of a traced run: (name, unit). The `e2e.*` and
/// `gen.*` rows come from the untraced pass the traced run makes first:
/// tails and heavy-rate latencies are printed by every run but vary too
/// much across seeds to gate on.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("core.forward_ms", "ms"),
    ("core.forward_gflops", "GFLOP/s"),
    ("core.forward_weight_mb", "MB"),
    ("core.plan_compile_ms", "ms"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.batch_build_us", "us"),
    ("serve.batch.occupancy", "tables"),
    ("serve.decode_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.head_us.encode", "us"),
    ("serve.head_us.rank", "us"),
    ("serve.head_us.pool", "us"),
    ("serve.response_kb", "KB"),
    ("serve.transport_us", "us"),
    ("serve.rejected", "count"),
    ("gen.lateness_ms", "ms"),
    ("e2e.tail_ms", "ms"),
    ("e2e.heavy.p50_ms", "ms"),
    ("e2e.heavy.tail_ms", "ms"),
    ("core.train_step_ms", "ms"),
    ("nn.tape_forward_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("kb.world_ms", "ms"),
    ("nn.artifact_load_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The result of one benchmark run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Set a metric; `name` must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        self.metrics.insert(name, value);
    }

    /// Count a phase's requests or ops, and print its counts.
    pub fn phase(&mut self, name: &str, sent: u64, failed: u64) {
        self.attempted += sent;
        self.failed += failed;
        crate::say(format!("phase {name}: sent {sent} ok {} failed {failed}", sent - failed));
    }

    /// A correctness gate failed: counts as one failed op.
    pub fn fail(&mut self, why: String) {
        crate::say(format!("CHECK FAILED: {why}"));
        self.failures.push(why);
        self.attempted += 1;
        self.failed += 1;
    }

    /// True when no op failed and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The final JSON line over `declared` metrics. A layer a workload
    /// does not exercise reports 0 and is said so on its own line.
    pub fn json(&self, declared: &[(&'static str, &'static str)]) -> String {
        let mut parts = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(_) | None => {
                    crate::say(format!("{name}: not exercised by this workload, reported as 0"));
                    0.0
                }
            };
            crate::say(format!("{name} = {value} {unit}"));
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the list under `key` in BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key in BENCHMARK.json");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list ends")];
        list.split("\"name\": \"")
            .skip(1)
            .map(|r| r[..r.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), names(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} must have unit {unit} in BENCHMARK.json");
        }
    }

    #[test]
    fn json_lists_every_declared_metric_and_counts_failed_gates() {
        let mut r = Report::default();
        r.metric("setup_s", 1.25);
        r.phase("run", 10, 0);
        assert!(r.correct());
        r.fail("served body differs".into());
        assert!(!r.correct());
        let line = r.json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }
}
