//! Golden-model pin: training and prediction are deterministic functions of
//! the corpus size, the seed and the detector configuration.
//!
//! One `train_pipeline(48, 7, fast)` run is reduced to three fingerprints:
//! the BLAKE2s hash of the serialized model, and for each held-out pool the
//! hash of every level-1 and level-2 probability's f32 bit pattern. Any
//! change to analysis, vocabulary fitting, vectorization, forest training or
//! batch inference that moves a single bit moves a fingerprint.

use jsdetect_suite::cache::ContentHash;
use jsdetect_suite::corpus::LabeledSample;
use jsdetect_suite::detector::{
    classify_many_cached, train_pipeline, AnalysisConfig, DetectorConfig, OutcomeKind,
    TrainedDetectors, DEFAULT_THRESHOLD,
};

const MODEL_BYTES: usize = 35_808;
const MODEL_HASH: &str = "4f4536e2261737eca34047559b441176e6a67ca597cea8582bae5fc13f40c9d2";

/// `(scripts classified Ok, level-1 bits hash, level-2 bits hash)`.
type PoolPin = (usize, &'static str, &'static str);

const OBFUSCATED_PIN: PoolPin = (
    96,
    "4765dec23be7e4d1c37159ef842808a370cc6fd07ab2c9049d6d28efd43f2628",
    "8252954a6e95be24ed02eefc3ba03431221b714b2c52224068f7fb0e4e4c817e",
);
const REGULAR_PIN: PoolPin = (
    12,
    "7d139e6960d80cec182f65c5e51ae2bb59f455753465db0c6824ed008726ee7f",
    "8689771fc9d5c9f0f9293d82ed2cd85ae53670c74488c88a29a4acc72227a423",
);

/// Classifies `pool` under trusted limits, keeps the `Ok` outcomes (the
/// paper drops unparseable files) and hashes their probability bits.
fn pool_fingerprint(
    detectors: &TrainedDetectors,
    pool: &[LabeledSample],
) -> (usize, String, String) {
    let srcs: Vec<&str> = pool.iter().map(|s| s.src.as_str()).collect();
    let verdicts = classify_many_cached(
        &srcs,
        &AnalysisConfig::trusted(),
        None,
        detectors,
        4,
        DEFAULT_THRESHOLD,
    );
    let (mut l1, mut l2, mut n_ok) = (Vec::new(), Vec::new(), 0);
    for v in verdicts.iter().filter(|v| v.outcome == OutcomeKind::Ok) {
        n_ok += 1;
        let p = v.level1.expect("ok scripts carry a level-1 prediction");
        for x in [p.regular, p.minified, p.obfuscated] {
            l1.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        for x in v.level2.as_ref().expect("ok scripts carry level-2 probabilities") {
            l2.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    (n_ok, ContentHash::of(&l1).to_hex(), ContentHash::of(&l2).to_hex())
}

#[test]
fn trained_model_and_held_out_probabilities_are_pinned() {
    let out = train_pipeline(48, 7, &DetectorConfig::fast());
    let json = out.detectors.to_json().expect("model serializes");
    let obfuscated = pool_fingerprint(&out.detectors, &out.test_obfuscated);
    let regular = pool_fingerprint(&out.detectors, &out.test_regular);
    assert_eq!(json.len(), MODEL_BYTES, "model JSON length drifted");
    assert_eq!(ContentHash::of(json.as_bytes()).to_hex(), MODEL_HASH, "model JSON drifted");
    let pin = |p: PoolPin| (p.0, p.1.to_string(), p.2.to_string());
    assert_eq!(obfuscated, pin(OBFUSCATED_PIN), "obfuscated-pool probabilities drifted");
    assert_eq!(regular, pin(REGULAR_PIN), "regular-pool probabilities drifted");
}
