//! The traced run: the `analyze_one_cached` sequence replayed from outside,
//! one span around each call into a layer's public function.
//!
//! The replay mirrors `jsdetect::analyze_one_cached` and
//! `jsdetect_features::analyze_script_guarded` step for step (hash, store
//! lookup, parse, lex, AST metrics, flow, lint, normalize deltas, payload
//! extraction, store publish) with the same budget checks between stages.
//! Its verdicts must equal the real pipeline's for every script, or the
//! span times would be attributed to work the product does not do.

use jsdetect::{AnalysisConfig, CachedScript, TrainedDetectors};
use jsdetect_ast::metrics::{tree_shape, KindCounts};
use jsdetect_ast::{Program, Span as SrcSpan};
use jsdetect_cache::{AnalysisCache, CacheRecord, ContentHash};
use jsdetect_features::{
    neutral_deltas, normalize_deltas, FeaturePayload, GuardedScript, ScriptAnalysis,
};
use jsdetect_flow::{analyze_with, DataFlowOptions};
use jsdetect_guard::{isolate, AnalysisError, Budget, Limits, OutcomeKind};
use jsdetect_lexer::{tokenize_lossy, tokenize_with_budget};
use jsdetect_lint::LintRunner;
use jsdetect_parser::parse_with_comments_budget;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Span names, one per layer call, plus the per-script root.
pub const SCRIPT: &str = "script";
pub const LAYERS: [&str; 11] = [
    "cache.hash",
    "cache.get",
    "parser",
    "lexer",
    "ast",
    "flow",
    "lint",
    "deltas",
    "features",
    "cache.put",
    "ml",
];
const NO_PARENT: usize = usize::MAX;
/// The id of spans that cover a whole batch rather than one script.
pub const BATCH_ID: u64 = u64::MAX;

/// One recorded span; times are ns since the pass started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same pass, `usize::MAX` for roots.
    pub parent: usize,
    /// Script index (or [`BATCH_ID`]).
    pub id: u64,
    pub thread: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread span buffer; spans stay in memory until the run ends.
struct Recorder {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: usize, id: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, id, thread: self.thread });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, id: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, parent, id);
        let out = f();
        self.close(idx);
        out
    }
}

/// Work counted at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub tokens: u64,
    pub nodes: u64,
    pub parse_failures: u64,
    pub cfg_edges: u64,
    pub truncations: u64,
    pub lint_fires: u64,
    pub deltas_attempts: u64,
    pub deltas_changed: u64,
    pub ngrams: u64,
    pub hits: u64,
    pub ok: u64,
    pub degraded: u64,
    pub rejected: u64,
    pub ml_rows: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.tokens += o.tokens;
        self.nodes += o.nodes;
        self.parse_failures += o.parse_failures;
        self.cfg_edges += o.cfg_edges;
        self.truncations += o.truncations;
        self.lint_fires += o.lint_fires;
        self.deltas_attempts += o.deltas_attempts;
        self.deltas_changed += o.deltas_changed;
        self.ngrams += o.ngrams;
        self.hits += o.hits;
        self.ok += o.ok;
        self.degraded += o.degraded;
        self.rejected += o.rejected;
        self.ml_rows += o.ml_rows;
    }
}

/// What one replay thread hands back: its spans, counts and results.
type ThreadOut = (Recorder, Counts, Vec<(usize, CachedScript)>);

/// One traced pass over a batch.
pub struct Pass {
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub results: Vec<CachedScript>,
    /// Level-1 confidences (f32 bits) from the traced batch predict.
    pub level1: Vec<Option<[u32; 3]>>,
}

/// Replays `srcs` on `threads` workers (work stealing, like the batch
/// driver), then predicts both levels over the payloads in one batch span.
pub fn traced_pass(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: &AnalysisCache,
    detectors: &TrainedDetectors,
    threads: usize,
) -> Pass {
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let per_thread: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let next = &next;
                s.spawn(move || {
                    let mut rec = Recorder { epoch, thread, spans: Vec::new() };
                    let mut counts = Counts::default();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= srcs.len() {
                            break;
                        }
                        let r =
                            replay_one(srcs[i], &config.limits, cache, &mut rec, &mut counts, i);
                        out.push((i, r));
                    }
                    (rec, counts, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay worker panicked")).collect()
    });
    let mut spans = Vec::new();
    let mut counts = Counts::default();
    let mut results: Vec<Option<CachedScript>> = vec![None; srcs.len()];
    for (rec, c, out) in per_thread {
        let base = spans.len();
        spans.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
        counts.add(&c);
        for (i, r) in out {
            results[i] = Some(r);
        }
    }
    let results: Vec<CachedScript> =
        results.into_iter().map(|r| r.expect("every script replayed")).collect();
    let mut rec = Recorder { epoch, thread: 0, spans: Vec::new() };
    let payloads: Vec<Option<&FeaturePayload>> =
        results.iter().map(|r| r.payload.as_ref()).collect();
    counts.ml_rows = payloads.iter().filter(|p| p.is_some()).count() as u64;
    let level1 = rec.time("ml", NO_PARENT, BATCH_ID, || {
        let l1 = detectors.level1.predict_payloads(&payloads);
        let _l2 = detectors.level2.predict_proba_payloads(&payloads);
        l1
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    spans.extend(rec.spans);
    let level1 = level1
        .into_iter()
        .map(|p| p.map(|p| [p.regular.to_bits(), p.minified.to_bits(), p.obfuscated.to_bits()]))
        .collect();
    Pass { wall_s, spans, counts, results, level1 }
}

/// `analyze_one_cached`, span by span.
fn replay_one(
    src: &str,
    limits: &Limits,
    cache: &AnalysisCache,
    rec: &mut Recorder,
    counts: &mut Counts,
    i: usize,
) -> CachedScript {
    let id = i as u64;
    let root = rec.open(SCRIPT, NO_PARENT, id);
    let hash = rec.time("cache.hash", root, id, || ContentHash::of(src.as_bytes()));
    if let Some(r) = rec.time("cache.get", root, id, || cache.get(&hash)) {
        rec.close(root);
        counts.hits += 1;
        count_outcome(counts, r.outcome);
        return CachedScript {
            hash,
            outcome: r.outcome,
            error_kind: r.error_kind.clone(),
            error_msg: r.error_msg.clone(),
            payload: r.payload.clone(),
            from_cache: true,
        };
    }
    let guarded = match isolate("analyze", || analyze_traced(src, limits, rec, counts, root, id)) {
        Ok(g) => g,
        Err(e) => GuardedScript { analysis: None, outcome: OutcomeKind::Rejected, error: Some(e) },
    };
    let payload = guarded
        .analysis
        .as_ref()
        .map(|a| rec.time("features", root, id, || FeaturePayload::extract(a)));
    counts.ngrams += payload.as_ref().map_or(0, |p| p.ngrams.len() as u64);
    count_outcome(counts, guarded.outcome);
    let result = CachedScript {
        hash,
        outcome: guarded.outcome,
        error_kind: guarded.error.as_ref().map(|e| e.kind().to_string()).unwrap_or_default(),
        error_msg: guarded.error.as_ref().map(|e| e.to_string()).unwrap_or_default(),
        payload,
        from_cache: false,
    };
    let record = CacheRecord {
        outcome: result.outcome,
        error_kind: result.error_kind.clone(),
        error_msg: result.error_msg.clone(),
        payload: result.payload.clone(),
    };
    rec.time("cache.put", root, id, || cache.put(&hash, &record));
    rec.close(root);
    result
}

fn count_outcome(counts: &mut Counts, outcome: OutcomeKind) {
    match outcome {
        OutcomeKind::Ok => counts.ok += 1,
        OutcomeKind::Degraded => counts.degraded += 1,
        OutcomeKind::Rejected => counts.rejected += 1,
    }
}

fn rejected(error: AnalysisError) -> GuardedScript {
    GuardedScript { analysis: None, outcome: OutcomeKind::Rejected, error: Some(error) }
}

/// `analyze_script_guarded`, span by span.
fn analyze_traced(
    src: &str,
    limits: &Limits,
    rec: &mut Recorder,
    counts: &mut Counts,
    root: usize,
    id: u64,
) -> GuardedScript {
    let budget = Budget::new(limits);
    if let Err(e) = budget.check_input(src.len()) {
        return rejected(e);
    }
    let (program, comments) =
        match rec.time("parser", root, id, || parse_with_comments_budget(src, &budget)) {
            Ok(pc) => pc,
            Err(parse_err) => {
                counts.parse_failures += 1;
                let e = budget
                    .take_violation()
                    .unwrap_or(AnalysisError::Parse { msg: parse_err.msg, pos: parse_err.pos });
                if e.is_resource() {
                    return rejected(e);
                }
                return degraded_traced(src, &budget, e, rec, counts, root, id);
            }
        };
    if let Err(e) = budget.check_deadline() {
        return rejected(e);
    }
    let tokens = match rec.time("lexer", root, id, || tokenize_with_budget(src, &budget)) {
        Ok((tokens, _)) => tokens,
        Err(_) => {
            if let Some(v) = budget.take_violation() {
                return rejected(v);
            }
            Vec::new()
        }
    };
    counts.tokens += tokens.len() as u64;
    let (shape, kinds) =
        rec.time("ast", root, id, || (tree_shape(&program), KindCounts::of(&program)));
    counts.nodes += shape.node_count as u64;
    if let Err(e) = budget.charge_nodes(shape.node_count as u64) {
        return rejected(e);
    }
    if let Err(e) = budget.check_deadline() {
        return rejected(e);
    }
    let graph = rec.time("flow", root, id, || analyze_with(&program, &DataFlowOptions::default()));
    counts.cfg_edges += graph.control_flow.edges.len() as u64;
    counts.truncations += u64::from(!graph.dataflow.complete);
    if let Err(e) = budget.check_cfg_edges(graph.control_flow.edges.len() as u64) {
        return rejected(e);
    }
    if let Err(e) = budget.check_deadline() {
        return rejected(e);
    }
    let (diagnostics, lint) = rec
        .time("lint", root, id, || LintRunner::default().run_with_summary(src, &program, &graph));
    counts.lint_fires += diagnostics.len() as u64;
    let normalize =
        rec.time("deltas", root, id, || normalize_deltas(src, &program, shape.node_count, &lint));
    counts.deltas_attempts += 1;
    counts.deltas_changed += u64::from(normalize != neutral_deltas());
    GuardedScript {
        analysis: Some(ScriptAnalysis {
            src: src.to_string(),
            program,
            tokens,
            comments,
            graph,
            shape,
            kinds,
            lint,
            normalize,
            degraded: false,
        }),
        outcome: OutcomeKind::Ok,
        error: None,
    }
}

/// The lexer-only fallback after a recoverable parse failure.
fn degraded_traced(
    src: &str,
    budget: &Budget,
    cause: AnalysisError,
    rec: &mut Recorder,
    counts: &mut Counts,
    root: usize,
    id: u64,
) -> GuardedScript {
    let (tokens, comments, _) = rec.time("lexer", root, id, || tokenize_lossy(src, Some(budget)));
    if let Some(v) = budget.take_violation() {
        if v.is_resource() {
            return rejected(v);
        }
    }
    counts.tokens += tokens.len() as u64;
    let program = Program { body: Vec::new(), span: SrcSpan::new(0, src.len() as u32) };
    let (shape, kinds) =
        rec.time("ast", root, id, || (tree_shape(&program), KindCounts::of(&program)));
    let graph = rec.time("flow", root, id, || analyze_with(&program, &DataFlowOptions::default()));
    let lint = rec
        .time("lint", root, id, || LintRunner::default().run_with_summary(src, &program, &graph).1);
    GuardedScript {
        analysis: Some(ScriptAnalysis {
            src: src.to_string(),
            program,
            tokens,
            comments,
            graph,
            shape,
            kinds,
            lint,
            normalize: neutral_deltas(),
            degraded: true,
        }),
        outcome: OutcomeKind::Degraded,
        error: Some(cause),
    }
}

/// Summed self time per span name, in ms. A span's self time is its
/// duration minus the part its children cover.
pub fn self_ms(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent] += s.ns();
        }
    }
    let mut out: Vec<(&'static str, f64)> =
        std::iter::once(SCRIPT).chain(LAYERS).map(|n| (n, 0.0)).collect();
    for (s, c) in spans.iter().zip(&child_ns) {
        if let Some(slot) = out.iter_mut().find(|(n, _)| *n == s.name) {
            slot.1 += s.ns().saturating_sub(*c) as f64 / 1e6;
        }
    }
    out
}

/// Sum of per-script root span durations, in ms.
pub fn script_busy_ms(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.name == SCRIPT).map(|s| s.ns() as f64 / 1e6).sum()
}

/// Writes spans as JSON lines (name, start/end in ns since the pass began,
/// parent index or -1, script id or -1 for batch spans, thread).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
        let id = if s.id == BATCH_ID { -1 } else { s.id as i64 };
        writeln!(
            w,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"id":{},"thread":{}}}"#,
            s.name, s.start, s.end, parent, id, s.thread
        )?;
    }
    w.flush()
}
