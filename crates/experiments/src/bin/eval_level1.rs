//! §III-E1 (Test Set 1, level 1) — detection accuracy over the held-out
//! regular / minified / obfuscated pools.
//!
//! Paper targets: regular 98.65%, obfuscated 99.81%, minified 99.71%,
//! overall 99.41%; transformed-vs-regular 99.69%.

use jsdetect_corpus::LabeledSample;
use jsdetect_experiments::{classify, or_exit, train_cached, write_json, Args};
use serde::Serialize;

#[derive(Serialize)]
struct Level1Result {
    regular_acc: f64,
    minified_acc: f64,
    obfuscated_acc: f64,
    overall_acc: f64,
    transformed_acc: f64,
    n_regular: usize,
    n_minified: usize,
    n_obfuscated: usize,
    paper: PaperRef,
}

#[derive(Serialize)]
struct PaperRef {
    regular_acc: f64,
    minified_acc: f64,
    obfuscated_acc: f64,
    overall_acc: f64,
    transformed_acc: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, pools) = or_exit(train_cached(&args));

    let count = |samples: &[LabeledSample], check: &dyn Fn(&jsdetect::Level1Prediction) -> bool| {
        let srcs: Vec<&str> = samples.iter().map(|s| s.src.as_str()).collect();
        let preds: Vec<_> =
            classify(&detectors, &srcs).into_iter().map(|v| v.and_then(|v| v.level1)).collect();
        let mut ok = 0usize;
        let mut n = 0usize;
        for p in preds.iter().flatten() {
            n += 1;
            if check(p) {
                ok += 1;
            }
        }
        (ok, n)
    };

    let (reg_ok, reg_n) = count(&pools.test_regular, &|p| !p.is_transformed());
    let (min_ok, min_n) = count(&pools.test_minified, &|p| p.minified >= 0.5);
    let (obf_ok, obf_n) = count(&pools.test_obfuscated, &|p| p.obfuscated >= 0.5);
    // Transformed = minified and/or obfuscated flag fires.
    let (tr_min_ok, _) = count(&pools.test_minified, &|p| p.is_transformed());
    let (tr_obf_ok, _) = count(&pools.test_obfuscated, &|p| p.is_transformed());

    let pct = |ok: usize, n: usize| 100.0 * ok as f64 / n.max(1) as f64;
    let result = Level1Result {
        regular_acc: pct(reg_ok, reg_n),
        minified_acc: pct(min_ok, min_n),
        obfuscated_acc: pct(obf_ok, obf_n),
        overall_acc: pct(reg_ok + min_ok + obf_ok, reg_n + min_n + obf_n),
        transformed_acc: pct(reg_ok + tr_min_ok + tr_obf_ok, reg_n + min_n + obf_n),
        n_regular: reg_n,
        n_minified: min_n,
        n_obfuscated: obf_n,
        paper: PaperRef {
            regular_acc: 98.65,
            minified_acc: 99.71,
            obfuscated_acc: 99.81,
            overall_acc: 99.41,
            transformed_acc: 99.69,
        },
    };

    println!("Level-1 detector accuracy (Test Set 1, §III-E1)");
    println!("{:-<64}", "");
    println!("{:24} {:>12} {:>12}", "class", "measured", "paper");
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        format!("regular (n={})", result.n_regular),
        result.regular_acc,
        result.paper.regular_acc
    );
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        format!("minified (n={})", result.n_minified),
        result.minified_acc,
        result.paper.minified_acc
    );
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        format!("obfuscated (n={})", result.n_obfuscated),
        result.obfuscated_acc,
        result.paper.obfuscated_acc
    );
    println!("{:24} {:>11.2}% {:>11.2}%", "overall", result.overall_acc, result.paper.overall_acc);
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        "transformed", result.transformed_acc, result.paper.transformed_acc
    );
    or_exit(write_json(&args, "eval_level1", &result));
}
