//! Per-script static analysis bundle.
//!
//! [`crate::analyze_script_guarded`] runs the full front-end once —
//! tokens, comments, AST, scopes, control flow, data flow — and hands the
//! result to the feature extractors.

use jsdetect_ast::metrics::{KindCounts, TreeShape};
use jsdetect_ast::Program;
use jsdetect_flow::ProgramGraph;
use jsdetect_lexer::{Comment, Token};
use jsdetect_lint::LintSummary;

/// Everything the feature extractors need about one script.
#[derive(Debug)]
pub struct ScriptAnalysis {
    /// Original source text.
    pub src: String,
    /// Parsed AST.
    pub program: Program,
    /// Lexical tokens (without comments).
    pub tokens: Vec<Token>,
    /// Comments.
    pub comments: Vec<Comment>,
    /// Scopes + control flow + data flow.
    pub graph: ProgramGraph,
    /// Tree-shape metrics.
    pub shape: TreeShape,
    /// Per-kind node counts.
    pub kinds: KindCounts,
    /// Obfuscation-signature lint summary (per-rule hit counts).
    pub lint: LintSummary,
    /// Normalized-vs-original delta features
    /// ([`crate::deltas::N_NORMALIZE`] of them; the neutral vector when
    /// the analysis is degraded or normalization itself degrades).
    pub normalize: Vec<f32>,
    /// True when this is the lexer-only fallback produced after a parse
    /// failure: `program`/`graph`/`shape`/`kinds` describe an empty program
    /// and only `src`/`tokens`/`comments` carry real signal.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use crate::guarded::analyze_ok;

    #[test]
    fn analysis_bundles_everything() {
        let a = analyze_ok("// c\nvar x = 1;\nif (x) { f(x); }");
        assert_eq!(a.comments.len(), 1);
        assert!(!a.tokens.is_empty());
        assert!(a.graph.scopes.bindings().len() == 1);
        assert!(a.shape.max_depth >= 2);
        assert!(a.kinds.total() > 0);
    }

    #[test]
    fn empty_and_comment_only_scripts() {
        let a = analyze_ok("");
        assert_eq!(a.shape.node_count, 1); // just the Program node
        let b = analyze_ok("// only a comment\n/* and a block */");
        assert_eq!(b.comments.len(), 2);
        assert_eq!(b.program.body.len(), 0);
    }

    #[test]
    fn single_long_line_script() {
        // Minified-style single line with thousands of statements.
        let src = "var a=0;".to_string() + &"a=a+1;".repeat(2_000);
        let a = analyze_ok(&src);
        assert!(a.shape.node_count > 8_000);
        assert!(jsdetect_ast::metrics::avg_chars_per_line(&a.src) > 1_000.0);
    }

    #[test]
    fn deep_but_legal_nesting() {
        let depth = 20;
        let src = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let src = format!("x = {};", src);
        let a = analyze_ok(&src);
        assert!(a.shape.max_depth >= 3);
    }
}
