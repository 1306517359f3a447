//! §III-D3 ablation — classifier chains vs. the independence assumption,
//! and random forest vs. naive Bayes vs. a single tree.
//!
//! The paper's validation study selected the random forest with classifier
//! chains; this experiment reproduces that comparison on the validation
//! split.

use jsdetect::{train_pipeline, DetectorConfig, Strategy};
use jsdetect_experiments::{classify, or_exit, write_json, Args};
use jsdetect_ml::{metrics, BaseParams, ForestParams, TreeParams};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    model: String,
    strategy: String,
    level1_overall_acc: f64,
    level2_exact_acc: f64,
    train_seconds: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    let configs: Vec<(String, String, DetectorConfig)> = vec![
        (
            "random forest".into(),
            "chain".into(),
            DetectorConfig {
                strategy: Strategy::ClassifierChain,
                base: BaseParams::Forest(ForestParams::default()),
                ..DetectorConfig::default()
            },
        ),
        (
            "random forest".into(),
            "independent".into(),
            DetectorConfig {
                strategy: Strategy::BinaryRelevance,
                base: BaseParams::Forest(ForestParams::default()),
                ..DetectorConfig::default()
            },
        ),
        (
            "naive bayes".into(),
            "chain".into(),
            DetectorConfig {
                strategy: Strategy::ClassifierChain,
                base: BaseParams::Bayes,
                ..DetectorConfig::default()
            },
        ),
        (
            "naive bayes".into(),
            "independent".into(),
            DetectorConfig {
                strategy: Strategy::BinaryRelevance,
                base: BaseParams::Bayes,
                ..DetectorConfig::default()
            },
        ),
        (
            "single tree".into(),
            "chain".into(),
            DetectorConfig {
                strategy: Strategy::ClassifierChain,
                base: BaseParams::Tree(TreeParams::default(), 7),
                ..DetectorConfig::default()
            },
        ),
    ];

    for (model, strategy, cfg) in configs {
        let t0 = std::time::Instant::now();
        let out = train_pipeline(n, args.seed, &cfg.with_seed(args.seed));
        let secs = t0.elapsed().as_secs_f64();

        // Level-1 overall on the held-out pools.
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

        // Level-2 exact-set accuracy.
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

        println!(
            "{:16} {:12} level1 {:6.2}%  level2-exact {:6.2}%  ({:.1}s)",
            model, strategy, l1, l2, secs
        );
        rows.push(AblationRow {
            model,
            strategy,
            level1_overall_acc: l1,
            level2_exact_acc: l2,
            train_seconds: secs,
        });
    }

    println!("\npaper: the random forest with classifier chains performed best.");
    or_exit(write_json(&args, "ablation_chain", &rows));
}
