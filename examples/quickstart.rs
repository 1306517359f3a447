//! Quickstart: train the two detectors at a small scale and classify a
//! few scripts.
//!
//! Classification goes through [`analyze_one_cached`] and
//! [`classify_analyzed`] — the same guarded, cache-aware path the
//! `jsdetect-serve` daemon runs per request — so what you see here is
//! byte-identical to what the service answers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jsdetect_suite::detector::{
    analyze_one_cached, classify_analyzed, train_pipeline, AnalysisConfig, DetectorConfig,
    ScriptVerdict, Technique, TrainedDetectors, DEFAULT_THRESHOLD,
};
use jsdetect_suite::transform::apply;

fn classify(detectors: &TrainedDetectors, src: &str) -> ScriptVerdict {
    let analyzed = analyze_one_cached(src, &AnalysisConfig::default(), None);
    classify_analyzed(analyzed, detectors, 4, DEFAULT_THRESHOLD)
}

fn main() {
    // 1. Train. The paper trains on 21,000 scripts; 80 keeps this example
    //    fast while still reaching usable accuracy.
    println!("training detectors on a synthetic corpus (n=80)...");
    let t0 = std::time::Instant::now();
    let out = train_pipeline(80, 7, &DetectorConfig::fast().with_seed(7));
    let detectors = out.detectors;
    println!("trained in {:.1?}\n", t0.elapsed());

    // 2. Classify a hand-written (regular) script.
    let regular = r#"
        function formatPrice(value, currency) {
            var amount = Math.round(value * 100) / 100;
            return currency + ' ' + amount.toFixed(2);
        }
        console.log(formatPrice(12.5, 'EUR'));
    "#;
    let verdict = classify(&detectors, regular);
    let p = verdict.level1.expect("regular script analyzes cleanly");
    println!(
        "regular script    → transformed={} (regular={:.2} minified={:.2} obfuscated={:.2})",
        verdict.is_transformed(),
        p.regular,
        p.minified,
        p.obfuscated
    );

    // 3. Obfuscate the same script and classify again.
    let obfuscated =
        apply(regular, &[Technique::IdentifierObfuscation, Technique::StringObfuscation], 99)
            .unwrap();
    let verdict = classify(&detectors, &obfuscated);
    let p = verdict.level1.expect("obfuscated script analyzes cleanly");
    println!(
        "obfuscated script → transformed={} (regular={:.2} minified={:.2} obfuscated={:.2})",
        verdict.is_transformed(),
        p.regular,
        p.minified,
        p.obfuscated
    );

    // 4. The same verdict already carries the level-2 technique report
    //    (thresholded Top-k rule, applied because level 1 said
    //    "transformed").
    println!("\nlevel-2 report for the obfuscated script:");
    for t in &verdict.techniques {
        println!("  - {}", t.as_str());
    }

    // 5. Minify instead — the verdict changes class.
    let minified = apply(regular, &[Technique::MinificationAdvanced], 99).unwrap();
    let verdict = classify(&detectors, &minified);
    let p = verdict.level1.expect("minified script analyzes cleanly");
    println!("\nminified script   → minified={:.2} obfuscated={:.2}", p.minified, p.obfuscated);
    println!("minified source: {}", minified);
}
