//! The space-independent feature payload — the unit the analysis cache
//! stores.
//!
//! A fitted [`VectorSpace`](crate::VectorSpace) is corpus-dependent (its
//! 4-gram vocabulary comes from training), so caching final vectors would
//! tie every cache record to one trained model. Instead the cache stores a
//! [`FeaturePayload`]: the hand-picked and lint feature values exactly as
//! computed (f32), plus the *raw* 4-gram counts. The payload is also the
//! unit training fits on, so a vector projected from a replayed payload
//! with [`VectorSpace::vectorize_payload`](crate::VectorSpace::vectorize_payload)
//! is bit-identical to the one a fresh analysis yields: the stored blocks
//! are copied verbatim and the n-gram block is recomputed from exact
//! integer counts.

use crate::analysis::ScriptAnalysis;
use crate::handpicked::handpicked_features;
use crate::ngrams::{ngram_counts, Gram};

/// Everything needed to re-vectorize one analyzed script without its AST.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePayload {
    /// Hand-picked feature values ([`crate::N_HANDPICKED`] of them).
    pub handpicked: Vec<f32>,
    /// Lint-summary feature values ([`jsdetect_lint::LintSummary::N_FEATURES`]).
    pub lint: Vec<f32>,
    /// Normalization-delta feature values ([`crate::deltas::N_NORMALIZE`]).
    pub normalize: Vec<f32>,
    /// Raw 4-gram counts of the pre-order kind stream, sorted by gram for
    /// a deterministic serialized form.
    pub ngrams: Vec<(Gram, u32)>,
    /// Whether the analysis this was extracted from was the lexer-only
    /// degraded fallback.
    pub degraded: bool,
}

impl FeaturePayload {
    /// Distills one analysis into its cacheable payload.
    pub fn extract(a: &ScriptAnalysis) -> FeaturePayload {
        FeaturePayload {
            handpicked: handpicked_features(a),
            lint: a.lint.features(),
            normalize: a.normalize.clone(),
            ngrams: ngram_counts(&a.program),
            degraded: a.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::analyze_ok;
    use crate::{LintSummary, N_HANDPICKED};

    #[test]
    fn extract_carries_all_three_blocks() {
        let p = FeaturePayload::extract(&analyze_ok("var x = 1; if (x) { f(x); }"));
        assert_eq!(p.handpicked.len(), N_HANDPICKED);
        assert_eq!(p.lint.len(), LintSummary::N_FEATURES);
        assert_eq!(p.normalize.len(), crate::deltas::N_NORMALIZE);
        assert!(!p.ngrams.is_empty());
        assert!(!p.degraded);
    }

    #[test]
    fn ngram_pairs_are_sorted_and_deduplicated() {
        let p = FeaturePayload::extract(&analyze_ok("var x = 1; var y = 2; var z = 3;"));
        for w in p.ngrams.windows(2) {
            assert!(w[0].0 < w[1].0, "grams must be strictly increasing");
        }
    }
}
