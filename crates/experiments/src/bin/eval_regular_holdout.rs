//! §IV-B1 sanity check — classification of a fresh regular-only corpus
//! (the paper's stand-in is the 150,000-sample Raychev et al. corpus;
//! target: 98.65% classified regular).

use jsdetect_corpus::regular_corpus;
use jsdetect_experiments::{classify, or_exit, train_cached, write_json, Args};
use serde::Serialize;

#[derive(Serialize)]
struct HoldoutResult {
    regular_acc: f64,
    n: usize,
    paper_acc: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let n = args.scaled(400);
    eprintln!("[holdout] generating {} fresh regular scripts (unseen seeds)...", n);
    // Seed offset far outside the training stream.
    let scripts = regular_corpus(n, args.seed.wrapping_add(0xDEAD_0000));
    let srcs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let preds: Vec<_> =
        classify(&detectors, &srcs).into_iter().map(|v| v.and_then(|v| v.level1)).collect();
    let mut ok = 0usize;
    let mut total = 0usize;
    for p in preds.iter().flatten() {
        total += 1;
        if !p.is_transformed() {
            ok += 1;
        }
    }
    let acc = 100.0 * ok as f64 / total.max(1) as f64;

    println!("Fresh regular-corpus holdout (§IV-B1 verification), n={}", total);
    println!("classified regular: {:.2}% (paper, Raychev corpus: 98.65%)", acc);

    or_exit(write_json(
        &args,
        "eval_regular_holdout",
        &HoldoutResult { regular_acc: acc, n: total, paper_acc: 98.65 },
    ));
}
