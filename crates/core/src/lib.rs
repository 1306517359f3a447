//! `jsdetect`: static detection of JavaScript obfuscation and minification
//! techniques.
//!
//! A from-scratch Rust reproduction of *"Statically Detecting JavaScript
//! Obfuscation and Minification Techniques in the Wild"* (DSN 2021). The
//! pipeline abstracts scripts by their AST enhanced with control and data
//! flows, extracts 4-gram and hand-picked features, and runs two
//! multi-task random-forest detectors:
//!
//! - **Level 1** ([`Level1Detector`]): regular vs. minified vs. obfuscated;
//! - **Level 2** ([`Level2Detector`]): which of the ten transformation
//!   techniques were used, reported through the thresholded Top-k rule.
//!
//! # Quickstart
//!
//! ```no_run
//! use jsdetect::{classify_many_cached, train_pipeline, AnalysisConfig, DetectorConfig};
//!
//! // Train at a laptop scale (the paper uses 21,000 source scripts).
//! let out = train_pipeline(200, 42, &DetectorConfig::default());
//! let verdicts = classify_many_cached(
//!     &["var x=1;f(x);"],
//!     &AnalysisConfig::wild(),
//!     None, // no verdict store
//!     &out.detectors,
//!     4,
//!     jsdetect::DEFAULT_THRESHOLD,
//! );
//! println!("transformed: {}", verdicts[0].is_transformed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cached;
mod classify;
mod config;
mod level1;
mod level2;
mod pipeline;

pub use cached::{analyze_many_opt_cached, analyze_one_cached, CachedScript};
pub use classify::{classify_analyzed, classify_many_cached, ScriptVerdict};
pub use config::{AnalysisConfig, DetectorConfig};
pub use level1::{Level1Detector, Level1Prediction, Level1Truth};
pub use level2::{Level2Detector, DEFAULT_THRESHOLD};
pub use pipeline::{train_pipeline, PipelineOutput, TrainedDetectors};

// Re-export the vocabulary types users need alongside the detectors.
pub use jsdetect_features::GuardedScript;
pub use jsdetect_guard::{AnalysisError, Limits, OutcomeKind, QuarantineReport};
pub use jsdetect_ml::metrics;
pub use jsdetect_ml::Strategy;
pub use jsdetect_transform::Technique;
