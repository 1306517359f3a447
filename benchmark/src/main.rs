//! The jsdetect benchmark: source text to verdict, end to end and layer by
//! layer, on three workloads generated from one seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload scan_cold|rescan_warm|serve_open --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`).
//! The exit code is 0 only when every verdict was correct; a model whose
//! feature space is stale, or a missing checkout, exits 3 without a result.
//! See `benchmark/README.md` for what each workload and metric means.

mod env;
mod load;
mod metrics;
mod mix;
mod provenance;
mod trace;
mod verdict;

use env::{median, ms, quantile, Env, TOP_K};
use jsdetect::{analyze_many_opt_cached, classify_many_cached, DEFAULT_THRESHOLD};
use jsdetect_serve::{BreakerConfig, ChaosConfig, ServeConfig};
use load::{run_step, Step};
use metrics::{Values, END_TO_END, PER_LAYER};
use mix::{Inputs, Workload};
use provenance::{nproc, Provenance};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verdict::{accuracy, Gate, Verdict};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds of (batch passes, one closed-loop daemon window) per timed run;
/// the end-to-end rates are medians over them.
const ROUNDS: usize = 5;
/// Fewest requests per open-loop rate and per ladder probe, so p99 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 1000;
/// Ladder probes: each halves the bracket's log-width, so five narrow the
/// 4.8-fold bracket to 5%.
const LADDER_PROBES: usize = 5;
/// p99 limit a ladder probe must meet.
const P99_LIMIT_MS: f64 = 10.0;
/// Share of `--seconds` spent on batch passes and on closed-loop daemon
/// windows (timed run), and on each open-loop rate and ladder probe
/// (traced run).
const BATCH_SHARE: f64 = 0.4;
const SERVE_SHARE: f64 = 0.4;
const RATE_SHARE: [f64; 3] = [0.2, 0.1, 0.08];
const PROBE_SHARE: f64 = 0.04;
/// Open-loop rates as shares of capacity, and the ladder's bracket.
const RATE_LEVELS: [f64; 3] = [0.2, 0.5, 0.8];
const BRACKET: (f64, f64) = (0.25, 1.2);

/// Closed-loop daemon capacity (requests/s, `serve_rps`) per workload,
/// measured on the parent commit on a 2-core Intel Xeon; the open-loop
/// rates and the ladder bracket derive from it. Frozen so runs on different
/// code compare.
fn capacity(w: Workload) -> f64 {
    match w {
        Workload::ScanCold => 1085.0,
        Workload::RescanWarm => 4888.0,
        Workload::ServeOpen => 1340.0,
    }
}

/// A fault planted by the self-test to prove the gate catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    None,
    /// Flip one bit of one batch verdict and one daemon answer.
    WrongVerdict,
    /// Trip the daemon's breaker at once, so it answers in degraded mode.
    Degraded,
}

#[derive(Debug, Clone)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    /// Fewest requests per fixed rate and per ladder probe.
    min_samples: usize,
    plant: Plant,
}

/// What every phase of one run shares.
struct Run<'a> {
    env: &'a Env,
    inputs: &'a Inputs,
    reference: &'a [Verdict],
    opts: &'a Opts,
}

struct Report {
    values: Values,
    gate: Gate,
    /// Provenance and workload properties, printed before the result.
    notes: Vec<(String, String)>,
    /// Spans of the last traced pass, written when the run ends.
    spans: Vec<trace::Span>,
}

impl Report {
    fn correct(&self) -> bool {
        self.gate.failed == 0 && self.gate.attempted > 0
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = PathBuf::from(".");
    if args.iter().any(|a| a == "--self-test") {
        return if self_test(&root) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload scan_cold|rescan_warm|serve_open --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report = match run(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    if opts.trace {
        let path = root.join(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match trace::write_jsonl(&path, &report.spans) {
            Ok(()) => println!("# trace: {} spans in {}", report.spans.len(), path.display()),
            Err(e) => eprintln!("warning: trace file {}: {e}", path.display()),
        }
    }
    print!("{}", render_table(&report, &opts));
    println!("{}", render_result(&report, opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::ScanCold,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        min_samples: MIN_SAMPLES,
        plant: Plant::None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => opts.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn serve_config(plant: Plant) -> ServeConfig {
    let mut cfg = env::serve_config();
    if plant == Plant::Degraded {
        cfg.breaker = BreakerConfig {
            window: 4,
            min_samples: 2,
            p99_limit_ms: 1,
            open_ms: 600_000,
            ..cfg.breaker
        };
        cfg.chaos = ChaosConfig { delay_every: 1, delay_ms: 3, ..ChaosConfig::default() };
    }
    cfg
}

/// One benchmark run: inputs, reference verdicts, set-up, then either the
/// timed phases or the traced run.
fn run(root: &Path, opts: &Opts) -> Result<Report, String> {
    let prov = Provenance::collect(root)?;
    let w = opts.workload;
    let inputs = Inputs::generate(w, opts.seed, opts.scale);
    let mut report = Report {
        values: Values::default(),
        gate: Gate::default(),
        notes: Vec::new(),
        spans: Vec::new(),
    };
    report.note("cpu", &prov.cpu);
    report.note("nproc", prov.nproc);
    report.note("rustc", prov.rustc);
    report.note("git_sha", &prov.git_sha);
    report.note("source_blake2s", &prov.source_blake2s);
    report.note("model", env::MODEL_PATH);
    report.note("model_feature_space", prov.model_feature_space);
    report.note("seed", opts.seed);
    report.note("scripts", inputs.scripts.len());
    report.note("bytes", inputs.bytes);
    report.note("batch_scripts", inputs.batch.len());

    // The reference: every distinct script through the shared batch entry
    // with no store at all. Untimed.
    jsdetect_obs::set_enabled(false);
    let detectors = env::load_model(root)?;
    let all: Vec<&str> = inputs.scripts.iter().map(|s| s.src.as_str()).collect();
    let reference: Vec<Verdict> = classify_many_cached(
        &all,
        &jsdetect::AnalysisConfig::wild(),
        None,
        &detectors,
        TOP_K,
        DEFAULT_THRESHOLD,
    )
    .iter()
    .map(Verdict::of)
    .collect();
    drop(detectors);
    let (l1, f1) = accuracy(&inputs.scripts, &reference);
    report.note("verdict_digest", verdict_digest(&reference));

    let (env, setup) =
        Env::set_up(root, &inputs, w.warm_store(), serve_config(opts.plant), SETUP_REPS)?;
    report.values.set("setup_s", median(&setup));

    let run = Run { env: &env, inputs: &inputs, reference: &reference, opts };
    if opts.trace {
        traced(&run, &mut report)?;
    } else {
        timed(&run, &mut report)?;
    }
    report.values.set("l1_accuracy", l1);
    report.values.set("l2_micro_f1", f1);
    report.values.set("peak_rss_mb", peak_rss_mb());
    report.note("attempted", report.gate.attempted);
    report.note("failed", report.gate.failed);
    report.note("error_share", report.gate.failed as f64 / report.gate.attempted.max(1) as f64);
    for f in &report.gate.failures {
        eprintln!("FAILED: {f}");
    }
    Ok(report)
}

fn batch_srcs(inputs: &Inputs) -> Vec<&str> {
    inputs.batch.iter().map(|&i| inputs.scripts[i].src.as_str()).collect()
}

/// Timed batch passes through `classify_many_cached`, each into a fresh
/// empty store (cold) or a fresh handle on the populated one (warm), for at
/// least `budget` and at least one pass. Returns each pass's wall time in
/// seconds.
fn batch_passes(run: &Run, gate: &mut Gate, budget: Duration) -> Result<Vec<f64>, String> {
    let Run { env, inputs, reference, opts } = *run;
    let srcs = batch_srcs(inputs);
    // The batch path runs as the CLI runs it, telemetry off; every daemon
    // start turns it on for the daemon's own metrics.
    jsdetect_obs::set_enabled(false);
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || started.elapsed() < budget {
        let store = env.store().map_err(|e| format!("store: {e}"))?;
        let t0 = Instant::now();
        let verdicts = classify_many_cached(
            &srcs,
            &env.config,
            Some(&store.cache),
            &env.detectors,
            TOP_K,
            DEFAULT_THRESHOLD,
        );
        walls.push(t0.elapsed().as_secs_f64());
        drop(store);
        for (j, v) in verdicts.iter().enumerate() {
            let i = inputs.batch[j];
            let mut got = Verdict::of(v);
            if opts.plant == Plant::WrongVerdict && j == 0 {
                got.confidences[0] ^= 1;
            }
            gate.batch(i, &got, &reference[i]);
            // The workload's premise: cold scans miss, warm rescans hit.
            match opts.workload {
                Workload::ScanCold => {
                    gate.check(!v.from_cache, || format!("scan_cold: script {i} hit the cache"))
                }
                Workload::RescanWarm => {
                    gate.check(v.from_cache, || format!("rescan_warm: script {i} missed the cache"))
                }
                Workload::ServeOpen => {}
            }
        }
    }
    Ok(walls)
}

/// One open-loop step against a freshly started daemon; every answer goes
/// through the gate.
fn serve_step(
    run: &Run,
    gate: &mut Gate,
    rate: f64,
    n: usize,
    step_id: u64,
) -> Result<(Step, Vec<usize>), String> {
    let Run { env, inputs, reference, opts } = *run;
    let seq = inputs.requests(n, opts.seed ^ (step_id << 20) ^ 0x5e7);
    let srcs: Vec<&str> = seq.iter().map(|&i| inputs.scripts[i].src.as_str()).collect();
    let frames = load::frames(&srcs);
    let stack = env.daemon().map_err(|e| format!("daemon: {e}"))?;
    let step = run_step(stack.addr, &frames, rate, nproc().min(env::WORKERS));
    check_daemon(gate, stack, step_id);
    let mut step = step.map_err(|e| format!("load generator: {e}"))?;
    plant_answer(opts, step_id, step.samples.first_mut().and_then(|s| s.resp.as_mut()));
    for (s, &i) in step.samples.iter().zip(&seq) {
        gate.answer(i, s.resp.as_ref(), &reference[i]);
    }
    Ok((step, seq))
}

/// The timed run: `ROUNDS` rounds, each giving the batch path its slice of
/// passes and the daemon one closed-loop window, so drift in machine speed
/// falls on both alike and one slow round moves no median.
fn timed(run: &Run, report: &mut Report) -> Result<(), String> {
    let Run { env, inputs, reference, opts } = *run;
    let slice = Duration::from_secs_f64(opts.seconds * BATCH_SHARE / ROUNDS as f64);
    let per_window = capacity(opts.workload) * opts.seconds * SERVE_SHARE / ROUNDS as f64;
    let n = (per_window as usize).clamp(1, inputs.max_requests());
    let (mut walls, mut rps) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        walls.extend(batch_passes(run, &mut report.gate, slice)?);
        let seq = inputs.requests(n, opts.seed ^ ((round as u64) << 20) ^ 0xc105);
        let srcs: Vec<&str> = seq.iter().map(|&i| inputs.scripts[i].src.as_str()).collect();
        let stack = env.daemon().map_err(|e| format!("daemon: {e}"))?;
        let window = load::closed_loop(stack.addr, &load::frames(&srcs), nproc().min(env::WORKERS));
        check_daemon(&mut report.gate, stack, round as u64);
        let (mut answers, wall) = window.map_err(|e| format!("load generator: {e}"))?;
        plant_answer(opts, round as u64, answers.first_mut().and_then(Option::as_mut));
        for (resp, &i) in answers.iter().zip(&seq) {
            report.gate.answer(i, resp.as_ref(), &reference[i]);
        }
        rps.push(seq.len() as f64 / wall);
    }
    let per_s: Vec<f64> = walls.iter().map(|s| inputs.batch.len() as f64 / s).collect();
    report.values.set("scripts_per_s", median(&per_s));
    report.values.set("serve_rps", median(&rps));
    report.note("batch_passes", walls.len());
    report.note("serve_window_requests", n);
    Ok(())
}

/// The daemon's own accounting must agree with the client's: every
/// accepted request answered, none in degraded mode.
fn check_daemon(gate: &mut Gate, stack: env::Stack, window: u64) {
    let stats = stack.stop().map(|r| r.stats);
    gate.check(stats.is_some_and(|s| s.accepted == s.responses && s.degraded == 0), || {
        format!("serve: daemon accounting after window {window}: {stats:?}")
    });
}

/// The self-test's planted wrong verdict: one flipped confidence bit in the
/// first answer of the first window.
fn plant_answer(opts: &Opts, window: u64, resp: Option<&mut jsdetect_serve::AnalyzeResponse>) {
    if let (Plant::WrongVerdict, 0, Some(r)) = (opts.plant, window, resp) {
        r.regular = f32::from_bits(r.regular.to_bits() ^ 1);
    }
}

/// The daemon layer under open-loop load: one window per fixed rate, then
/// the ladder, the highest probed rate that meets the limit.
fn open_loop(run: &Run, report: &mut Report) -> Result<(), String> {
    let opts = run.opts;
    let cap = capacity(opts.workload);
    let n = |rate: f64, share: f64| ((rate * opts.seconds * share) as usize).max(opts.min_samples);
    const LEVELS: [(&str, &str, &str); 3] = [
        ("low", "serve.p50_ms.low", "serve.p99_ms.low"),
        ("mid", "serve.p50_ms.mid", "serve.p99_ms.mid"),
        ("high", "serve.p50_ms.high", "serve.p99_ms.high"),
    ];
    let mut mid = None;
    for (k, (level, p50, p99)) in LEVELS.into_iter().enumerate() {
        let rate = cap * RATE_LEVELS[k];
        let (step, seq) =
            serve_step(run, &mut report.gate, rate, n(rate, RATE_SHARE[k]), k as u64)?;
        report.values.set(p50, step.p(0.5));
        report.values.set(p99, step.p(0.99));
        report.note(&format!("samples.{level}"), step.samples.len());
        if k == 1 {
            report.note("repeat_share", fmt(Inputs::repeat_share(&seq)));
            mid = Some(step);
        }
    }

    // Geometric bisection of the bracket: a rate that meets the limit
    // raises the floor, one that misses lowers the ceiling. A miss is
    // probed once more before it counts, so one transient stall cannot
    // send the search down.
    let (mut lo, mut hi) = (cap * BRACKET.0, cap * BRACKET.1);
    let mut best = 0.0;
    let mut probes = Vec::new();
    let mut id = 100;
    for _ in 0..LADDER_PROBES {
        let rate = (lo * hi).sqrt();
        let mut ok = false;
        for _ in 0..2 {
            let (step, _) = serve_step(run, &mut report.gate, rate, n(rate, PROBE_SHARE), id)?;
            id += 1;
            ok = step.meets_limit(P99_LIMIT_MS);
            probes.push(format!(
                "{rate:.0}:{}:p99={:.2}ms",
                if ok { "ok" } else { "miss" },
                step.p(0.99)
            ));
            if ok {
                break;
            }
        }
        if ok {
            best = rate;
            lo = rate;
        } else {
            hi = rate;
        }
    }
    report.values.set("serve.max_rps_p99_10ms", best);
    report.note("ladder", probes.join(" "));

    // The serve layer's own split, at the mid rate.
    let step = mid.expect("three open-loop rates ran");
    let answered = || step.samples.iter().filter_map(|s| Some((s, s.resp.as_ref()?)));
    let server: Vec<f64> = answered().map(|(_, r)| r.latency_us as f64 / 1e3).collect();
    let transport: Vec<f64> = answered()
        .filter_map(|(s, r)| Some(ms(s.recv?.saturating_sub(s.sent)) - r.latency_us as f64 / 1e3))
        .collect();
    let hits = answered().filter(|(_, r)| r.from_cache).count();
    let v = &mut report.values;
    v.set("serve.server_ms.p50", quantile(&server, 0.5));
    v.set("serve.server_ms.p99", quantile(&server, 0.99));
    v.set("serve.transport_ms.p50", quantile(&transport, 0.5));
    v.set("serve.send_lag_ms.p99", quantile(&lag(&step), 0.99));
    v.set("serve.backlog_max", step.backlog_max() as f64);
    v.set("serve.cache_hit_share", hits as f64 / step.samples.len().max(1) as f64);
    Ok(())
}

fn lag(step: &Step) -> Vec<f64> {
    step.samples.iter().map(|s| s.lag_ms()).collect()
}

/// The traced run: untimed reference payloads, untraced passes for the
/// overhead baseline, traced passes for the layer split, then the daemon
/// under open-loop load for the serve layer.
fn traced(run: &Run, report: &mut Report) -> Result<(), String> {
    let Run { env, inputs, reference, .. } = *run;
    const PASSES: usize = 3;
    let srcs = batch_srcs(inputs);
    let want = analyze_many_opt_cached(&srcs, &env.config, None);
    let threads = nproc().min(srcs.len()).max(1);

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut self_times: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut coverage, mut util) = (Vec::new(), Vec::new());
    let mut last = None;
    // Alternate untraced and traced passes, and which goes first, so drift
    // hits both alike.
    for k in 0..PASSES {
        if k % 2 == 0 {
            walls.extend(batch_passes(run, &mut report.gate, Duration::ZERO)?);
        }
        let store = env.store().map_err(|e| format!("store: {e}"))?;
        let pass = trace::traced_pass(&srcs, &env.config, &store.cache, &env.detectors, threads);
        let record_bytes: u64 = {
            let mut seen = std::collections::HashSet::new();
            pass.results
                .iter()
                .filter(|r| seen.insert(r.hash))
                .filter_map(|r| std::fs::metadata(store.cache.record_path(&r.hash)).ok())
                .map(|m| m.len())
                .sum()
        };
        drop(store);
        for (j, (got, want)) in pass.results.iter().zip(&want).enumerate() {
            let i = inputs.batch[j];
            let same = got.outcome == want.outcome
                && got.error_kind == want.error_kind
                && got.error_msg == want.error_msg
                && got.payload == want.payload;
            report.gate.check(same, || {
                format!("trace: script {i}: replayed payload differs from analyze_one_cached")
            });
            report
                .gate
                .check(pass.level1[j].unwrap_or_default() == reference[i].confidences, || {
                    format!("trace: script {i}: traced level-1 predict differs from the reference")
                });
        }
        let times = trace::self_ms(&pass.spans);
        let busy_ms = trace::script_busy_ms(&pass.spans).max(f64::MIN_POSITIVE);
        let layers: f64 =
            trace::LAYERS.iter().filter(|l| **l != "ml").map(|l| lookup(&times, l)).sum();
        coverage.push(layers / busy_ms);
        util.push(busy_ms / 1e3 / (pass.wall_s * threads as f64));
        traced_walls.push(pass.wall_s);
        self_times.push(times);
        last = Some((pass, record_bytes));
        if k % 2 == 1 {
            walls.extend(batch_passes(run, &mut report.gate, Duration::ZERO)?);
        }
    }
    let (pass, record_bytes) = last.expect("at least one traced pass");
    let layer =
        |name: &str| median(&self_times.iter().map(|t| lookup(t, name)).collect::<Vec<_>>());
    let v = &mut report.values;
    for (metric, span) in [
        ("lexer.self_ms", "lexer"),
        ("parser.self_ms", "parser"),
        ("ast.self_ms", "ast"),
        ("flow.self_ms", "flow"),
        ("lint.self_ms", "lint"),
        ("deltas.self_ms", "deltas"),
        ("features.self_ms", "features"),
        ("ml.self_ms", "ml"),
        ("cache.hash_ms", "cache.hash"),
        ("cache.get_ms", "cache.get"),
        ("cache.put_ms", "cache.put"),
    ] {
        v.set(metric, layer(span));
    }
    let c = &pass.counts;
    let n = srcs.len().max(1) as f64;
    v.set("lexer.tokens", c.tokens as f64);
    v.set("parser.nodes", c.nodes as f64);
    v.set("parser.failures", c.parse_failures as f64);
    v.set("flow.cfg_edges", c.cfg_edges as f64);
    v.set("flow.truncations", c.truncations as f64);
    v.set("lint.fires", c.lint_fires as f64);
    v.set("deltas.changed_share", c.deltas_changed as f64 / c.deltas_attempts.max(1) as f64);
    v.set("features.ngrams", c.ngrams as f64);
    v.set("ml.rows", c.ml_rows as f64);
    v.set("cache.hit_share", c.hits as f64 / n);
    v.set("cache.record_bytes", record_bytes as f64);
    v.set("guard.ok", c.ok as f64);
    v.set("guard.degraded", c.degraded as f64);
    v.set("guard.rejected", c.rejected as f64);
    v.set("core.worker_util", median(&util));
    v.set("trace.overhead_pct", (median(&traced_walls) / median(&walls) - 1.0) * 100.0);
    v.set("trace.coverage", median(&coverage));
    report.note("deltas_attempts", c.deltas_attempts);
    report.note("traced_threads", threads);
    report.spans = pass.spans;

    open_loop(run, report)
}

fn lookup(times: &[(&'static str, f64)], name: &str) -> f64 {
    times.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

fn fmt(x: f64) -> String {
    format!("{x:.4}")
}

/// BLAKE2s over every reference verdict in mix order: equal for every
/// workload run on the same seed.
fn verdict_digest(reference: &[Verdict]) -> String {
    let text: String = reference.iter().map(|v| format!("{v:?}\n")).collect();
    jsdetect_cache::ContentHash::of(text.as_bytes()).to_hex()
}

/// Peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_set(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn render_table(report: &Report, opts: &Opts) -> String {
    let mut out = format!(
        "# workload {} seed {} seconds {} trace {}\n",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for (k, v) in &report.notes {
        out.push_str(&format!("# {k}: {v}\n"));
    }
    for (name, unit) in metric_set(opts.trace) {
        let v = report.values.get(name).unwrap_or(f64::NAN);
        out.push_str(&format!("{name:<24} {v:>14.4} {unit}\n"));
    }
    out
}

/// The final line: `correct`, `attempted`, `failed`, and every metric of
/// the requested set with its unit.
fn render_result(report: &Report, trace: bool) -> String {
    let metrics: Vec<String> = metric_set(trace)
        .iter()
        .map(|(name, unit)| {
            let v = report.values.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.correct(),
        report.gate.attempted,
        report.gate.failed,
        metrics.join(", ")
    )
}

/// Runs every workload at a tiny scale and checks that the printed result
/// names every `BENCHMARK.json` metric with its unit, that a clean run is
/// correct, and that a planted wrong verdict and a planted degraded answer
/// each make the run incorrect.
fn self_test(root: &Path) -> bool {
    let declared = match declared_metrics(root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("self-test: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut expect = |what: String, cond: bool| {
        println!("{} {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    for w in Workload::ALL {
        let base = Opts {
            workload: w,
            seed: 1,
            seconds: 0.5,
            trace: false,
            scale: 0.04,
            min_samples: 50,
            plant: Plant::None,
        };
        for trace in [false, true] {
            let opts = Opts { trace, ..base.clone() };
            match run(root, &opts) {
                Ok(r) => {
                    expect(
                        format!("{} trace {}: clean run is correct", w.name(), u8::from(trace)),
                        r.correct(),
                    );
                    let printed = render_result(&r, trace);
                    let parsed: Result<serde_json::JsonValue, _> = serde_json::from_str(&printed);
                    let wanted = if trace { &declared.1 } else { &declared.0 };
                    for (name, unit) in wanted {
                        let m = parsed
                            .as_ref()
                            .ok()
                            .and_then(|p| p.get("metrics"))
                            .and_then(|m| m.get(name));
                        let printed_unit = m.and_then(|m| m.get("unit")).and_then(as_str);
                        let has_value = m.and_then(|m| m.get("value")).is_some();
                        expect(
                            format!(
                                "{} trace {}: prints {name} in {unit}",
                                w.name(),
                                u8::from(trace)
                            ),
                            has_value && printed_unit == Some(unit.as_str()),
                        );
                    }
                }
                Err(e) => expect(
                    format!("{} trace {}: run failed: {e}", w.name(), u8::from(trace)),
                    false,
                ),
            }
        }
        for plant in [Plant::WrongVerdict, Plant::Degraded] {
            let caught =
                run(root, &Opts { plant, ..base.clone() }).map(|r| !r.correct()).unwrap_or(false);
            expect(format!("{}: planted {plant:?} is caught", w.name()), caught);
        }
    }
    ok
}

fn as_str(v: &serde_json::JsonValue) -> Option<&str> {
    match v {
        serde_json::JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

type Declared = Vec<(String, String)>;

/// `end_to_end` and `per_layer` (name, unit) pairs from `BENCHMARK.json`.
fn declared_metrics(root: &Path) -> Result<(Declared, Declared), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v: serde_json::JsonValue =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Declared {
        v.get(key)
            .and_then(|l| l.as_arr())
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((as_str(m.get("name")?)?.to_string(), as_str(m.get("unit")?)?.to_string()))
            })
            .collect()
    };
    let (e2e, layers) = (list("end_to_end"), list("per_layer"));
    let same = |d: &Declared, code: &[(&str, &str)]| {
        d.len() == code.len() && d.iter().zip(code).all(|((n, u), (cn, cu))| n == cn && u == cu)
    };
    if !same(&e2e, &END_TO_END) || !same(&layers, &PER_LAYER) {
        return Err("BENCHMARK.json metrics differ from benchmark/src/metrics.rs".into());
    }
    Ok((e2e, layers))
}

#[cfg(test)]
mod tests {
    /// `cargo test --manifest-path benchmark/Cargo.toml` runs the self-test
    /// against the enclosing checkout.
    #[test]
    fn self_test_catches_planted_faults_and_prints_every_metric() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert!(super::self_test(&root));
    }
}
