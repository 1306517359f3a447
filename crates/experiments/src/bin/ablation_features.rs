//! Feature-family ablation — 4-grams only vs. hand-picked only vs. both
//! (DESIGN.md §5). The paper uses both families; this quantifies each
//! family's contribution.

use jsdetect::{train_pipeline, DetectorConfig};
use jsdetect_experiments::{classify, or_exit, write_json, Args};
use jsdetect_features::FeatureConfig;
use jsdetect_ml::metrics;
use serde::Serialize;

#[derive(Serialize)]
struct FeatureRow {
    features: String,
    level1_overall_acc: f64,
    level2_exact_acc: f64,
    dims_note: String,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    for (name, features) in [
        ("both", FeatureConfig { handpicked: true, ngrams: true, lint: false, normalize: false }),
        (
            "handpicked only",
            FeatureConfig { handpicked: true, ngrams: false, lint: false, normalize: false },
        ),
        (
            "4-grams only",
            FeatureConfig { handpicked: false, ngrams: true, lint: false, normalize: false },
        ),
    ] {
        let cfg = DetectorConfig { features, ..DetectorConfig::default() }.with_seed(args.seed);
        let out = train_pipeline(n, args.seed, &cfg);

        let mut ok = 0usize;
        let mut total = 0usize;
        for (pool, class) in [
            (&out.test_regular, "regular"),
            (&out.test_minified, "minified"),
            (&out.test_obfuscated, "obfuscated"),
        ] {
            let srcs: Vec<&str> = pool.iter().map(|s| s.src.as_str()).collect();
            for p in classify(&out.detectors, &srcs).into_iter().flatten().filter_map(|v| v.level1)
            {
                total += 1;
                let correct = match class {
                    "regular" => !p.is_transformed(),
                    "minified" => p.minified >= 0.5,
                    _ => p.obfuscated >= 0.5,
                };
                if correct {
                    ok += 1;
                }
            }
        }
        let l1 = 100.0 * ok as f64 / total.max(1) as f64;

        let srcs: Vec<&str> = out.test_level2.iter().map(|s| s.src.as_str()).collect();
        let probs: Vec<_> =
            classify(&out.detectors, &srcs).into_iter().map(|v| v.and_then(|v| v.level2)).collect();
        let mut hard = Vec::new();
        let mut truth = Vec::new();
        for (p, s) in probs.into_iter().zip(&out.test_level2) {
            if let Some(p) = p {
                hard.push(p.iter().map(|v| *v >= 0.5).collect::<Vec<bool>>());
                truth.push(s.label_vector());
            }
        }
        let l2 = 100.0 * metrics::exact_match(&hard, &truth);

        println!("{:18} level1 {:6.2}%  level2-exact {:6.2}%", name, l1, l2);
        rows.push(FeatureRow {
            features: name.to_string(),
            level1_overall_acc: l1,
            level2_exact_acc: l2,
            dims_note: format!("l1 space dim = {}", out.detectors.level1.space().dim()),
        });
    }
    or_exit(write_json(&args, "ablation_features", &rows));
}
