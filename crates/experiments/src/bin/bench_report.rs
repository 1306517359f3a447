//! Persisted perf trajectory for the measurements `benchmark/` does not make.
//!
//! Measures forest fit (legacy row-major vs columnar) and forest inference
//! (serial row-major vs flattened batch) on a synthetic matrix shaped like
//! the default pipeline's level-2 training set (~1300 rows × ~317 features
//! × 32 trees), front-end tokenization (zero-copy byte-level scanner vs the
//! preserved char-level reference), and the cost of streaming telemetry on
//! batch analysis, then appends the numbers to `BENCH_ml.json` so the
//! speedups are tracked across changes instead of living in commit
//! messages. End-to-end scan, rescan and daemon throughput, with their
//! per-layer split, are the `benchmark/` package's.
//!
//! Flags: `--smoke` (tiny scale, standalone output file for CI),
//! `--out-file <path>` (default `BENCH_ml.json`), `--label <name>`
//! (trajectory entry label, default the short git SHA of the working
//! tree, or `current` outside git; an existing entry with the same label
//! is replaced, so runs at a new commit append), `--seed <u64>`
//! (synthetic-data seed, default 42),
//! `--scale <f64>` (multiplier on row/script counts, default 1.0).
//!
//! Each stage records min/median/p90 over its repeats, and each entry
//! records provenance (seed, scale, git SHA, feature-space version) and the
//! machine (CPU model, available parallelism, `rustc -V`).

use jsdetect::{analyze_many_opt_cached, AnalysisConfig, CachedScript};
use jsdetect_experiments::{or_exit, Args, IoError};
use jsdetect_ml::reference::RowMajorForest;
use jsdetect_ml::{Dataset, ForestParams, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::JsonValue;
use std::time::Instant;

#[derive(Serialize)]
struct StageStat {
    name: String,
    min_ms: f64,
    median_ms: f64,
    /// Nearest-rank 90th percentile of the repeats.
    p90_ms: f64,
    /// Rows (or scripts) per second at the median.
    rows_per_sec: f64,
    repeats: usize,
}

/// Cost of the always-on streaming telemetry: the same `analyze_many`
/// batch with recording disabled vs enabled. CI gates `overhead_pct`.
#[derive(Serialize)]
struct ObsBench {
    n_scripts: usize,
    /// Median batch analysis with telemetry disabled.
    analyze_disabled_ms: f64,
    /// Median batch analysis with streaming telemetry enabled.
    analyze_enabled_ms: f64,
    /// `(enabled − disabled) / disabled × 100` (may be negative: noise).
    overhead_pct: f64,
    /// Trace-ring events retained by the last enabled rep's snapshot.
    trace_events: usize,
    /// Events overwritten before export in that rep (ring overflow).
    trace_dropped: u64,
}

/// Front-end tokenization throughput: the zero-copy byte-level scanner
/// against the preserved char-level reference lexer, over a realistic
/// mixed corpus (regular scripts plus one variant per transformation
/// technique).
#[derive(Serialize)]
struct LexBench {
    n_scripts: usize,
    /// Total source bytes lexed per rep.
    bytes_total: usize,
    /// Total tokens produced per rep.
    tokens_total: u64,
    /// Median full-corpus pass with the current scanner.
    lex_ms: f64,
    /// Source megabytes per second through the current scanner.
    mb_per_sec: f64,
    /// Tokens per second through the current scanner.
    tokens_per_sec: f64,
    /// Median full-corpus pass with the pre-refactor reference scanner.
    reference_ms: f64,
    /// reference_ms / lex_ms (higher = the rewrite is faster).
    speedup_vs_reference: f64,
}

/// The machine an entry was measured on.
#[derive(Serialize)]
struct Machine {
    /// `model name` from `/proc/cpuinfo` (Linux only).
    cpu: Option<String>,
    /// `std::thread::available_parallelism`.
    cores: usize,
    /// `rustc -V` of the toolchain on `PATH`.
    rustc: Option<String>,
}

#[derive(Serialize)]
struct BenchEntry {
    label: String,
    smoke: bool,
    n_rows: usize,
    n_features: usize,
    n_trees: usize,
    stages: Vec<StageStat>,
    /// forest_fit_row_major / forest_fit_columnar (higher = faster now).
    fit_speedup: f64,
    /// forest_predict_serial / forest_predict_batch.
    predict_speedup: f64,
    peak_rss_kb: Option<u64>,
    seed: u64,
    scale: f64,
    git_sha: Option<String>,
    feature_space_version: u32,
    machine: Machine,
    obs: ObsBench,
    lex: LexBench,
}

/// The persisted trajectory. Entries stay opaque JSON, so entries written
/// by older versions of this tool survive a rewrite unchanged whatever
/// their fields.
#[derive(Serialize, Deserialize)]
struct BenchFile {
    description: String,
    trajectory: Vec<JsonValue>,
}

/// Synthetic matrix shaped like the default pipeline's level-2 training
/// set: a mix of quantized (tie-heavy) and continuous columns.
fn synthetic(n: usize, d: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..d)
            .map(|j| {
                if j % 4 == 0 {
                    rng.gen_range(0..12) as f32
                } else {
                    (rng.gen_range(0..100_000) as f32) / 12_500.0 - 4.0
                }
            })
            .collect();
        let label = (row[0] > 5.0) ^ (row[1] > 0.0) ^ (rng.gen_range(0..10) == 0);
        x.push(row);
        y.push(label);
    }
    (x, y)
}

/// Times `repeats` runs of `f` and summarizes them, with `rows` items per
/// run.
fn stage(name: &str, rows: usize, repeats: usize, mut f: impl FnMut()) -> StageStat {
    let mut t: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    t.sort_by(f64::total_cmp);
    let median_ms = t[t.len() / 2];
    let stat = StageStat {
        name: name.to_string(),
        min_ms: t[0],
        median_ms,
        p90_ms: t[(t.len() * 9).div_ceil(10) - 1],
        rows_per_sec: rows as f64 / (median_ms / 1e3),
        repeats,
    };
    println!(
        "  {:24} {:>9.2} {:>9.2} {:>9.2} ms   {:>12.0} rows/s",
        stat.name, stat.min_ms, stat.median_ms, stat.p90_ms, stat.rows_per_sec
    );
    stat
}

/// Peak resident set size in kB from /proc/self/status (Linux only).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The storeless batch analysis the obs-overhead passes time, under
/// trusted limits.
fn analyze_storeless(refs: &[&str]) -> Vec<CachedScript> {
    analyze_many_opt_cached(refs, &AnalysisConfig::trusted(), None)
}

/// Trimmed standard output of a successful command, if any.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// Short git commit SHA of the working tree, if available.
fn git_sha() -> Option<String> {
    command_output("git", &["rev-parse", "--short", "HEAD"])
}

fn machine() -> Machine {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    });
    Machine {
        cpu,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_output("rustc", &["-V"]),
    }
}

/// Measures the streaming-telemetry overhead on `analyze_many`. Disabled
/// and enabled reps interleave (ABAB…) so drift — thermal, allocator
/// state, page cache — hits both modes equally, and medians keep a single
/// outlier rep from deciding the CI gate at smoke scale.
fn obs_overhead(refs: &[&str], reps: usize) -> ObsBench {
    let mut disabled = Vec::with_capacity(reps);
    let mut enabled = Vec::with_capacity(reps);
    let (mut trace_events, mut trace_dropped) = (0usize, 0u64);
    for _ in 0..reps {
        jsdetect_obs::set_enabled(false);
        let t0 = Instant::now();
        std::hint::black_box(analyze_storeless(refs));
        disabled.push(t0.elapsed().as_secs_f64() * 1e3);

        jsdetect_obs::set_enabled(true);
        jsdetect_obs::reset();
        let t0 = Instant::now();
        std::hint::black_box(analyze_storeless(refs));
        enabled.push(t0.elapsed().as_secs_f64() * 1e3);
        let snap = jsdetect_obs::snapshot();
        trace_events = snap.events.len();
        trace_dropped = snap.dropped_events;
    }
    jsdetect_obs::set_enabled(false);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (d, e) = (median(&mut disabled), median(&mut enabled));
    ObsBench {
        n_scripts: refs.len(),
        analyze_disabled_ms: d,
        analyze_enabled_ms: e,
        overhead_pct: (e - d) / d * 100.0,
        trace_events,
        trace_dropped,
    }
}

/// Reads the trajectory at `path`. A missing file starts a fresh one; a
/// file that does not parse is an error, never a silent restart.
fn load(path: &str) -> Result<BenchFile, IoError> {
    let err = |op, e: &dyn std::fmt::Display| IoError { op, path: path.into(), msg: e.to_string() };
    match std::fs::read_to_string(path) {
        Ok(s) => serde_json::from_str(&s).map_err(|e| err("parse", &e)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(BenchFile { description: description(), trajectory: Vec::new() })
        }
        Err(e) => Err(err("read", &e)),
    }
}

/// Drops any entry labelled `label` and appends `entry`, so re-runs under
/// one label stay idempotent.
fn upsert(trajectory: &mut Vec<JsonValue>, label: &str, entry: JsonValue) {
    trajectory.retain(|e| !matches!(e.get("label"), Some(JsonValue::Str(l)) if l == label));
    trajectory.push(entry);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { seed, scale, .. } = Args::parse();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let git_sha = git_sha();
    let flag = |name: &str| -> Option<String> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1).cloned())
    };
    let out_file = flag("--out-file").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_ml_smoke.json".to_string()
        } else {
            "BENCH_ml.json".to_string()
        }
    });
    let label = flag("--label").unwrap_or_else(|| {
        if smoke {
            "smoke".to_string()
        } else {
            git_sha.clone().unwrap_or_else(|| "current".to_string())
        }
    });

    // Default pipeline scale: level-2 training is ~1300 samples × ~317
    // features with 32-tree forests.
    let (base_n, d, n_trees, fit_reps, pred_reps) =
        if smoke { (160, 40, 8, 3, 5) } else { (1300, 317, 32, 5, 9) };
    let n = ((base_n as f64 * scale) as usize).max(8);
    let (x, y) = synthetic(n, d, seed);
    let data = Dataset::from_rows(&x).expect("synthetic matrix");
    let params = ForestParams { n_trees, seed, ..Default::default() };
    let machine = machine();

    println!("bench_report: {} rows × {} features, {} trees ({})", n, d, n_trees, label);
    println!("  seed {} scale {} sha {}", seed, scale, git_sha.as_deref().unwrap_or("unknown"));
    println!(
        "  cpu {} ({} cores), {}",
        machine.cpu.as_deref().unwrap_or("unknown"),
        machine.cores,
        machine.rustc.as_deref().unwrap_or("rustc unknown")
    );
    println!("  {:24} {:>9} {:>9} {:>9}", "stage", "min", "median", "p90");
    let mut stages = Vec::new();

    stages.push(stage("forest_fit_row_major", n, fit_reps, || {
        std::hint::black_box(RowMajorForest::fit(&x, &y, &params));
    }));
    stages.push(stage("forest_fit_columnar", n, fit_reps, || {
        std::hint::black_box(RandomForest::fit_dataset(&data, &y, &params));
    }));

    let legacy = RowMajorForest::fit(&x, &y, &params);
    let forest = RandomForest::fit_dataset(&data, &y, &params);
    stages.push(stage("forest_predict_serial", n, pred_reps, || {
        for row in &x {
            std::hint::black_box(legacy.predict_proba(row));
        }
    }));
    stages.push(stage("forest_predict_batch", n, pred_reps, || {
        std::hint::black_box(forest.predict_proba_batch(&data));
    }));

    // Tokenization throughput, current scanner vs the preserved reference.
    // The corpus mixes plain generated scripts with one variant per
    // transformation technique so literal-heavy and minified shapes are
    // both represented.
    let lex_corpus: Vec<String> = {
        let mut v = jsdetect_corpus::regular_corpus(if smoke { 6 } else { 48 }, seed);
        let base_len = v.len();
        for (i, t) in jsdetect::Technique::ALL.iter().enumerate() {
            let base = v[i % base_len].clone();
            if let Ok(obf) = jsdetect_transform::apply(&base, &[*t], seed + i as u64) {
                v.push(obf);
            }
        }
        v
    };
    let lex_bytes: usize = lex_corpus.iter().map(String::len).sum();
    let mut lex_tokens = 0u64;
    stages.push(stage("lex_throughput", lex_corpus.len(), pred_reps, || {
        lex_tokens = 0;
        for src in &lex_corpus {
            let toks = jsdetect_lexer::tokenize(src).expect("lex corpus tokenizes");
            lex_tokens += toks.len() as u64;
            std::hint::black_box(&toks);
        }
    }));
    stages.push(stage("lex_reference", lex_corpus.len(), pred_reps, || {
        for src in &lex_corpus {
            let toks = jsdetect_lexer::reference::tokenize_reference(src)
                .expect("lex corpus tokenizes (reference)");
            std::hint::black_box(&toks);
        }
    }));

    // Streaming-telemetry cost on batch analysis of uneven script sizes;
    // CI gates the result.
    let n_scripts = (((if smoke { 24 } else { 150 }) as f64 * scale) as usize).max(4);
    let scripts: Vec<String> = (0..n_scripts)
        .map(|i| {
            let stmts = 5 + (i * 37) % 120;
            (0..stmts).map(|s| format!("var v{}_{} = {} + f({});", i, s, s, s)).collect::<String>()
        })
        .collect();
    let refs: Vec<&str> = scripts.iter().map(String::as_str).collect();
    let obs = obs_overhead(&refs, 7);

    let ms_of = |name: &str| stages.iter().find(|s| s.name == name).map(|s| s.median_ms).unwrap();
    let lex_ms = ms_of("lex_throughput");
    let lex = LexBench {
        n_scripts: lex_corpus.len(),
        bytes_total: lex_bytes,
        tokens_total: lex_tokens,
        lex_ms,
        mb_per_sec: lex_bytes as f64 / 1e6 / (lex_ms / 1e3),
        tokens_per_sec: lex_tokens as f64 / (lex_ms / 1e3),
        reference_ms: ms_of("lex_reference"),
        speedup_vs_reference: ms_of("lex_reference") / lex_ms,
    };
    let entry = BenchEntry {
        label: label.clone(),
        smoke,
        n_rows: n,
        n_features: d,
        n_trees,
        fit_speedup: ms_of("forest_fit_row_major") / ms_of("forest_fit_columnar"),
        predict_speedup: ms_of("forest_predict_serial") / ms_of("forest_predict_batch"),
        stages,
        peak_rss_kb: peak_rss_kb(),
        seed,
        scale,
        git_sha,
        feature_space_version: jsdetect_features::FEATURE_SPACE_VERSION,
        machine,
        obs,
        lex,
    };
    println!(
        "\n  fit speedup    {:.2}x (row-major → columnar)\n  predict speedup {:.2}x (serial → batch)",
        entry.fit_speedup, entry.predict_speedup
    );
    let o = &entry.obs;
    println!(
        "  obs overhead   {:+.1}% (disabled {:.2} ms → enabled {:.2} ms; {} trace events, {} dropped)",
        o.overhead_pct, o.analyze_disabled_ms, o.analyze_enabled_ms, o.trace_events, o.trace_dropped
    );
    let l = &entry.lex;
    println!(
        "  lex throughput {:.1} MB/s, {:.2}M tokens/s ({:.2}x vs reference: {:.1} ms → {:.1} ms over {:.2} MB)",
        l.mb_per_sec,
        l.tokens_per_sec / 1e6,
        l.speedup_vs_reference,
        l.reference_ms,
        l.lex_ms,
        l.bytes_total as f64 / 1e6
    );

    // Append to (or start) the persisted trajectory. Smoke runs write a
    // standalone file and never touch the committed trajectory.
    let mut file = if smoke {
        BenchFile { description: smoke_description(), trajectory: Vec::new() }
    } else {
        let mut file = or_exit(load(&out_file));
        file.description = description();
        file
    };
    upsert(&mut file.trajectory, &label, entry.to_value());
    if let Some(dir) = std::path::Path::new(&out_file).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    let json = or_exit(serde_json::to_string_pretty(&file).map_err(|e| IoError {
        op: "serialize",
        path: out_file.clone().into(),
        msg: e.to_string(),
    }));
    or_exit(std::fs::write(&out_file, json).map_err(|e| IoError {
        op: "write",
        path: out_file.clone().into(),
        msg: e.to_string(),
    }));
    println!("\nwrote {}", out_file);
}

fn description() -> String {
    "Perf trajectory of what benchmark/ does not measure: forest fit/predict, \
     tokenization against the reference lexer, and the streaming-telemetry \
     overhead, measured by crates/experiments/src/bin/bench_report.rs. One \
     entry per tracked change; times in milliseconds. Older entries also \
     carry end-to-end stages and blocks that benchmark/ now measures."
        .to_string()
}

fn smoke_description() -> String {
    "Smoke-scale bench_report output (CI bitrot check only — numbers are not \
     meaningful at this scale)."
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry as an older version of this tool wrote it, with blocks the
    /// current entry no longer has.
    const OLD: &str = r#"{
      "description": "old",
      "trajectory": [
        {"label": "old", "smoke": false, "peak_rss_kb": 52000, "seed": null,
         "stages": [{"name": "analyze_many", "median_ms": 2.0150770000000002, "repeats": 5}],
         "telemetry": {"stages": [], "stage_sum_ratio": 0.97},
         "cache": {"preset": "wild", "warm_speedup": 54.6},
         "syntax": {"n_scripts": 60, "degraded_rate": 0.0}},
        {"label": "other", "smoke": false}
      ],
      "serve": {"n_requests": 516}
    }"#;

    fn parse(s: &str) -> Result<BenchFile, serde_json::Error> {
        serde_json::from_str(s)
    }

    fn label_of(e: &JsonValue) -> &str {
        match e.get("label") {
            Some(JsonValue::Str(l)) => l,
            _ => panic!("entry without a label"),
        }
    }

    #[test]
    fn unparseable_file_is_an_error() {
        let dir = std::env::temp_dir().join(format!("bench-report-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ml.json");
        let path = path.to_str().unwrap();
        assert!(load(path).unwrap().trajectory.is_empty(), "a missing file starts fresh");
        for bad in
            ["{\"description\": \"d\", \"trajectory\": [", "not json", "{\"description\": \"d\"}"]
        {
            std::fs::write(path, bad).unwrap();
            let e = load(path).err().unwrap_or_else(|| panic!("{:?} loaded", bad));
            assert_eq!(e.op, "parse");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_entries_round_trip_unchanged() {
        let before = parse(OLD).unwrap();
        let mut file = parse(OLD).unwrap();
        let new = JsonValue::Obj(vec![("label".to_string(), JsonValue::Str("new".to_string()))]);
        upsert(&mut file.trajectory, "new", new.clone());
        let text = serde_json::to_string_pretty(&file).unwrap();
        let after = parse(&text).unwrap();
        assert_eq!(after.trajectory[..2], before.trajectory[..]);
        assert_eq!(after.trajectory[2], new);
        let root: JsonValue = serde_json::from_str(&text).unwrap();
        assert!(root.get("serve").is_none(), "top-level side blocks are not carried");
    }

    #[test]
    fn same_label_entry_is_replaced() {
        let mut file = parse(OLD).unwrap();
        let new = JsonValue::Obj(vec![
            ("label".to_string(), JsonValue::Str("old".to_string())),
            ("smoke".to_string(), JsonValue::Bool(true)),
        ]);
        upsert(&mut file.trajectory, "old", new.clone());
        let labels: Vec<&str> = file.trajectory.iter().map(label_of).collect();
        assert_eq!(labels, ["other", "old"]);
        assert_eq!(file.trajectory[1], new);
    }
}
