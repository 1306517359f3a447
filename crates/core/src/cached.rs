//! Source to payload: the one analysis path, with an optional
//! content-addressed store consulted before lexing and published to on
//! miss.
//!
//! Every caller that turns source text into features — training, the
//! experiments, the CLI, the serve daemon — goes through
//! [`analyze_many_opt_cached`] or [`analyze_one_cached`], so the analysis
//! a service runs is the one the offline evaluation measured.
//!
//! A cache hit replays the *distilled* verdict — the three-way outcome,
//! the typed failure for quarantined scripts, and the space-independent
//! [`FeaturePayload`] — not the full AST. That is deliberate: everything
//! downstream of analysis (vectorization, quarantine reporting, outcome
//! accounting) runs off exactly those fields, and storing ASTs would tie
//! cache records to parser internals. A second scan over unchanged bytes
//! touches neither the lexer nor the parser.
//!
//! Batches are spread over all cores with a shared atomic claim counter
//! instead of static chunking: obfuscated samples are 10–100× slower to
//! analyze than regular ones, so pre-partitioned chunks would let one
//! pathological script idle every other thread.

use crate::config::AnalysisConfig;
use jsdetect_cache::{AnalysisCache, CacheRecord, ContentHash};
use jsdetect_features::{analyze_script_guarded, FeaturePayload, GuardedScript, VectorSpace};
use jsdetect_guard::OutcomeKind;
use jsdetect_obs::names;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One script's verdict as produced by [`analyze_one_cached`]: either
/// replayed from the store or freshly computed (and published).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedScript {
    /// BLAKE2s-256 of the source bytes — the cache key this verdict lives
    /// under.
    pub hash: ContentHash,
    /// Three-way guard verdict.
    pub outcome: OutcomeKind,
    /// Stable failure kind tag (`AnalysisError::kind()`), empty when ok.
    pub error_kind: String,
    /// Human-readable failure rendering, empty when ok.
    pub error_msg: String,
    /// Feature payload; present for ok and degraded outcomes.
    pub payload: Option<FeaturePayload>,
    /// Whether this verdict came out of the store (`true`) or was computed
    /// this scan (`false`).
    pub from_cache: bool,
}

impl CachedScript {
    /// Projects the payload into a fitted space. `None` for rejected
    /// scripts (no payload survives rejection).
    pub fn vectorize(&self, space: &VectorSpace) -> Option<Vec<f32>> {
        self.payload.as_ref().map(|p| space.vectorize_payload(p))
    }

    /// Distills a fresh analysis into its verdict (`from_cache: false`).
    pub fn distill(hash: ContentHash, g: &GuardedScript) -> CachedScript {
        CachedScript {
            hash,
            outcome: g.outcome,
            error_kind: g.error.as_ref().map(|e| e.kind().to_string()).unwrap_or_default(),
            error_msg: g.error.as_ref().map(|e| e.to_string()).unwrap_or_default(),
            payload: g.analysis.as_ref().map(FeaturePayload::extract),
            from_cache: false,
        }
    }

    /// Replays a stored record as a verdict (`from_cache: true`).
    pub fn replay(hash: ContentHash, rec: &CacheRecord) -> CachedScript {
        CachedScript {
            hash,
            outcome: rec.outcome,
            error_kind: rec.error_kind.clone(),
            error_msg: rec.error_msg.clone(),
            payload: rec.payload.clone(),
            from_cache: true,
        }
    }
}

/// Runs `work(i)` for every `i in 0..n` across all cores with
/// work-stealing, delivering results to `sink(i, result)` on the calling
/// thread (in completion order, not index order).
fn run_stealing<T, W, S>(n: usize, work: W, mut sink: S)
where
    T: Send,
    W: Fn(usize) -> T + Sync,
    S: FnMut(usize, T),
{
    if n == 0 {
        return;
    }
    let n_threads =
        std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4).min(n).max(1);
    jsdetect_obs::gauge_set(names::GAUGE_ANALYZE_THREADS, n_threads as f64);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    crossbeam::thread::scope(|scope| {
        for _ in 0..n_threads {
            let tx = tx.clone();
            let next = &next;
            let work = &work;
            scope.spawn(move |_| {
                // Streaming telemetry is visible the moment it is
                // recorded; the guard pre-registers this worker's cells
                // and marks the collection scope structurally.
                let _obs = jsdetect_obs::ScopedCollector::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, work(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx.iter() {
            sink(i, r);
        }
    })
    .expect("analysis threads panicked");
}

/// Analyzes many scripts in parallel, consulting `cache` (when given)
/// before any lexing or parsing and publishing fresh verdicts on miss.
/// `None` runs the same guarded analysis and distillation without
/// consulting or publishing anywhere.
///
/// Outcomes are identical either way, and payloads vectorize
/// bit-identically whether replayed or freshly computed. The cache's own
/// preset must match `config.limits` (callers normally build it with
/// `CacheConfig::new(dir, &config.limits)`); a mismatched store simply
/// never hits, it cannot replay a wrong verdict.
pub fn analyze_many_opt_cached(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
) -> Vec<CachedScript> {
    let _t = jsdetect_obs::span(names::SPAN_ANALYZE_MANY);
    jsdetect_obs::counter_add(names::CTR_SCRIPTS_ANALYZED, srcs.len() as u64);
    let mut out: Vec<Option<CachedScript>> = (0..srcs.len()).map(|_| None).collect();
    run_stealing(
        srcs.len(),
        |i| analyze_one_cached(srcs[i], config, cache),
        |i, r| out[i] = Some(r),
    );
    out.into_iter().map(|c| c.expect("work-stealing covered every index")).collect()
}

/// One script through the cache-aware hardened path (shared by the batch
/// driver above and the serve daemon's per-request workers).
pub fn analyze_one_cached(
    src: &str,
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
) -> CachedScript {
    let hash = ContentHash::of(src.as_bytes());
    if let Some(rec) = cache.and_then(|c| c.get(&hash)) {
        return CachedScript::replay(hash, &rec);
    }
    let result = CachedScript::distill(hash, &analyze_script_guarded(src, &config.limits));
    if let Some(cache) = cache {
        cache.put(
            &hash,
            &CacheRecord {
                outcome: result.outcome,
                error_kind: result.error_kind.clone(),
                error_msg: result.error_msg.clone(),
                payload: result.payload.clone(),
            },
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_cache::CacheConfig;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "jsdetect-core-cached-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn warm_scan_replays_identical_verdicts_without_reanalysis() {
        let dir = scratch();
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::open(CacheConfig::new(&dir, &config.limits)).unwrap();
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let srcs = ["var x = 1; f(x);", "var ;;; broken", bomb.as_str()];

        let cold = analyze_many_opt_cached(&srcs, &config, Some(&cache));
        assert!(cold.iter().all(|c| !c.from_cache));
        assert_eq!(cold[0].outcome, OutcomeKind::Ok);
        assert_eq!(cold[1].outcome, OutcomeKind::Degraded);
        assert_eq!(cold[2].outcome, OutcomeKind::Rejected);
        assert_eq!(cold[2].error_kind, "ast_depth_exceeded");
        assert!(cold[2].payload.is_none());

        // Fresh handle: memory cold, disk warm.
        let cache2 = AnalysisCache::open(CacheConfig::new(&dir, &config.limits)).unwrap();
        let warm = analyze_many_opt_cached(&srcs, &config, Some(&cache2));
        assert!(warm.iter().all(|c| c.from_cache));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(c.error_kind, w.error_kind);
            assert_eq!(c.error_msg, w.error_msg);
            assert_eq!(c.payload, w.payload);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_outcomes_match_the_storeless_path() {
        let dir = scratch();
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::open(CacheConfig::new(&dir, &config.limits)).unwrap();
        let srcs = ["var x = 1;", "function f(a) { return a + 1; }", "var ;;; broken"];
        let cached = analyze_many_opt_cached(&srcs, &config, Some(&cache));
        let storeless = analyze_many_opt_cached(&srcs, &config, None);
        for (c, s) in cached.iter().zip(&storeless) {
            assert_eq!(c.outcome, s.outcome);
            assert_eq!(c.payload, s.payload);
            assert!(!s.from_cache);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn work_stealing_covers_many_more_items_than_threads() {
        let srcs: Vec<String> = (0..97).map(|i| format!("var v{} = {};", i, i)).collect();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let out = analyze_many_opt_cached(&refs, &AnalysisConfig::trusted(), None);
        assert_eq!(out.len(), 97);
        assert!(out.iter().all(|c| c.outcome == OutcomeKind::Ok));
        // Results land at their input index, not in completion order.
        assert_eq!(out[42].hash, ContentHash::of(refs[42].as_bytes()));
    }
}
