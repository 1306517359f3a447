//! Lint-feature ablation — Level-2 per-technique F1 with and without the
//! lint-summary densities appended to the feature vector.
//!
//! The lint rules fire on the exact structural signatures the Level-2
//! classifier has to recover statistically (dispatcher loops, string
//! pools, anti-debugging probes, …); this quantifies how much those nine
//! extra dimensions help each per-technique head.

use jsdetect::{train_pipeline, DetectorConfig, Technique};
use jsdetect_experiments::{classify, or_exit, write_json, Args};
use jsdetect_features::FeatureConfig;
use jsdetect_ml::metrics;
use serde::Serialize;

#[derive(Serialize)]
struct LintRow {
    features: String,
    technique: String,
    precision: f64,
    recall: f64,
    f1: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    for (name, lint) in [("without lint", false), ("with lint", true)] {
        // Normalization deltas stay off in both arms so the comparison
        // isolates the lint family.
        let features = FeatureConfig { handpicked: true, ngrams: true, lint, normalize: false };
        let cfg = DetectorConfig { features, ..DetectorConfig::default() }.with_seed(args.seed);
        let out = train_pipeline(n, args.seed, &cfg);

        let srcs: Vec<&str> = out.test_level2.iter().map(|s| s.src.as_str()).collect();
        let probs: Vec<_> =
            classify(&out.detectors, &srcs).into_iter().map(|v| v.and_then(|v| v.level2)).collect();
        let mut pred: Vec<Vec<bool>> = Vec::new();
        let mut truth: Vec<Vec<bool>> = Vec::new();
        for (p, s) in probs.into_iter().zip(&out.test_level2) {
            if let Some(p) = p {
                pred.push(p.iter().map(|v| *v >= 0.5).collect());
                truth.push(s.label_vector());
            }
        }

        println!("== {} (space dim {}) ==", name, out.detectors.level2.space().dim());
        let exact = 100.0 * metrics::exact_match(&pred, &truth);
        for (i, t) in Technique::ALL.iter().enumerate() {
            let col_pred: Vec<bool> = pred.iter().map(|v| v[i]).collect();
            let col_truth: Vec<bool> = truth.iter().map(|v| v[i]).collect();
            let m = metrics::prf(&col_pred, &col_truth);
            println!(
                "  {:24} P {:5.2}  R {:5.2}  F1 {:5.2}",
                t.as_str(),
                m.precision,
                m.recall,
                m.f1
            );
            rows.push(LintRow {
                features: name.to_string(),
                technique: t.as_str().to_string(),
                precision: m.precision,
                recall: m.recall,
                f1: m.f1,
            });
        }
        println!("  {:24} exact-match {:5.2}%", "(all techniques)", exact);
    }
    or_exit(write_json(&args, "ablation_lint", &rows));
}
