//! §III-E3 (Test Set 3) — generalization to the held-out Dean Edwards
//! packer (the Daft Logic obfuscator's engine).
//!
//! Paper targets: 99.52% of packed samples flagged transformed; the
//! thresholded Top-4 reports minification (advanced and simple),
//! identifier obfuscation, and string obfuscation.

use jsdetect::Technique;
use jsdetect_corpus::packer_set;
use jsdetect_experiments::{classify, or_exit, train_cached, write_json, Args};
use serde::Serialize;

#[derive(Serialize)]
struct PackerResult {
    transformed_acc: f64,
    top4_technique_rates: Vec<(String, f64)>,
    n: usize,
    paper_transformed_acc: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let n = args.scaled(150);
    eprintln!("[packer] generating {} packed samples...", n);
    let samples = packer_set(n, args.seed ^ 0x9acc);
    let srcs: Vec<&str> = samples.iter().map(|s| s.src.as_str()).collect();

    let verdicts = classify(&detectors, &srcs);
    let l1: Vec<_> = verdicts.iter().map(|v| v.as_ref().and_then(|v| v.level1)).collect();
    let mut transformed = 0usize;
    let mut total = 0usize;
    for p in l1.iter().flatten() {
        total += 1;
        if p.is_transformed() {
            transformed += 1;
        }
    }
    let acc = 100.0 * transformed as f64 / total.max(1) as f64;

    // Thresholded Top-4 technique reports across the set.
    let probs: Vec<_> = verdicts.into_iter().map(|v| v.and_then(|v| v.level2)).collect();
    let mut counts = [0usize; 10];
    let mut n_pred = 0usize;
    for p in probs.into_iter().flatten() {
        n_pred += 1;
        for i in jsdetect_ml::metrics::thresholded_top_k(&p, 4, 0.10) {
            counts[i] += 1;
        }
    }
    let mut rates: Vec<(String, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (Technique::ALL[i].as_str().to_string(), 100.0 * *c as f64 / n_pred.max(1) as f64)
        })
        .collect();
    rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("Held-out packer generalization (Test Set 3, §III-E3), n={}", total);
    println!("{:-<64}", "");
    println!("flagged transformed: {:.2}% (paper: 99.52%)", acc);
    println!("\ntop-4 thresholded technique reports (fraction of samples):");
    for (name, r) in &rates {
        println!("  {:26} {:6.2}%", name, r);
    }
    println!(
        "\npaper reports: minification advanced + simple, identifier\n\
         obfuscation, and string obfuscation — in line with the packer."
    );

    let result = PackerResult {
        transformed_acc: acc,
        top4_technique_rates: rates,
        n: total,
        paper_transformed_acc: 99.52,
    };
    or_exit(write_json(&args, "eval_packer", &result));
}
