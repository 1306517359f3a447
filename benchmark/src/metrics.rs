//! Metric names and units, in the order they are printed. `BENCHMARK.json`
//! lists the same names; the self-test checks that the two agree.

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("scripts_per_s", "scripts/s"),
    ("serve_rps", "1/s"),
    ("l1_accuracy", "share"),
    ("l2_micro_f1", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("lexer.self_ms", "ms"),
    ("lexer.tokens", "count"),
    ("parser.self_ms", "ms"),
    ("parser.nodes", "count"),
    ("parser.failures", "count"),
    ("ast.self_ms", "ms"),
    ("flow.self_ms", "ms"),
    ("flow.cfg_edges", "count"),
    ("flow.truncations", "count"),
    ("lint.self_ms", "ms"),
    ("lint.fires", "count"),
    ("deltas.self_ms", "ms"),
    ("deltas.changed_share", "share"),
    ("features.self_ms", "ms"),
    ("features.ngrams", "count"),
    ("ml.self_ms", "ms"),
    ("ml.rows", "count"),
    ("cache.hash_ms", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.hit_share", "share"),
    ("cache.record_bytes", "bytes"),
    ("guard.ok", "count"),
    ("guard.degraded", "count"),
    ("guard.rejected", "count"),
    ("core.worker_util", "share"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p50_ms.mid", "ms"),
    ("serve.p99_ms.mid", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("serve.max_rps_p99_10ms", "1/s"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.send_lag_ms.p99", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.cache_hit_share", "share"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "share"),
];

/// Measured values, looked up by name when the result is printed.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}
