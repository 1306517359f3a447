//! Feature extraction for the `jsdetect` detectors (paper §III-B).
//!
//! Scripts are abstracted by their AST enhanced with control and data
//! flows ([`analyze_script_guarded`]); from that analysis two feature
//! families are computed — AST 4-grams over the pre-order node-kind
//! stream, and hand-picked features capturing the syntactic traces of the
//! ten transformation techniques — and distilled into a
//! [`FeaturePayload`], which a fitted [`VectorSpace`] projects onto
//! consistent dimensions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
pub mod deltas;
mod guarded;
mod handpicked;
mod ngrams;
mod payload;
mod space;

pub use analysis::ScriptAnalysis;
pub use deltas::{delta_feature_names, neutral_deltas, normalize_deltas, N_NORMALIZE};
pub use guarded::{analyze_script_guarded, analyze_script_lexer_only, GuardedScript};
pub use handpicked::{handpicked_features, FEATURE_NAMES, N_HANDPICKED};
pub use jsdetect_lint::LintSummary;
pub use ngrams::{ngram_counts, Gram, NgramVocab};
pub use payload::FeaturePayload;
pub use space::{FeatureConfig, VectorSpace, FEATURE_SPACE_VERSION};
