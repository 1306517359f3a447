//! The analysis front-end: budgets, degradation, typed outcomes.
//!
//! [`analyze_script_guarded`] is the one route from source text to a
//! [`ScriptAnalysis`]: every stage charges a [`Budget`], a panic in any
//! stage is fenced, and every failure is classified into the three-way
//! [`OutcomeKind`] verdict wild-scale batch drivers need — full result,
//! lexer-only fallback, or quarantined reject. [`Limits::trusted`] keeps
//! only the stack-overflow depth guard, for trusted training corpora.

use crate::analysis::ScriptAnalysis;
use jsdetect_ast::metrics::KindCounts;
use jsdetect_ast::{Program, Span};
use jsdetect_flow::{analyze_with, DataFlowOptions};
use jsdetect_guard::{isolate, AnalysisError, Budget, Limits, OutcomeKind};
use jsdetect_lexer::{tokenize_lossy, tokenize_with_budget};
use jsdetect_lint::LintRunner;
use jsdetect_obs::names;
use jsdetect_parser::parse_with_comments_budget;

/// One script's result under the hardened pipeline.
#[derive(Debug)]
pub struct GuardedScript {
    /// The analysis bundle: the full thing for `Ok`, the lexer-only
    /// fallback (with [`ScriptAnalysis::degraded`] set) for `Degraded`,
    /// absent for `Rejected`.
    pub analysis: Option<ScriptAnalysis>,
    /// Three-way verdict.
    pub outcome: OutcomeKind,
    /// The failure, absent only for `Ok`.
    pub error: Option<AnalysisError>,
}

impl GuardedScript {
    fn ok(analysis: ScriptAnalysis) -> GuardedScript {
        GuardedScript { analysis: Some(analysis), outcome: OutcomeKind::Ok, error: None }
    }

    fn degraded(analysis: ScriptAnalysis, error: AnalysisError) -> GuardedScript {
        jsdetect_obs::counter_add(error.counter_name(), 1);
        jsdetect_obs::counter_add(names::CTR_GUARD_DEGRADED, 1);
        GuardedScript {
            analysis: Some(analysis),
            outcome: OutcomeKind::Degraded,
            error: Some(error),
        }
    }

    /// The one constructor of a rejection: it bumps both the per-kind
    /// counter and `guard/rejected`, so every quarantined script is
    /// counted once whatever rejected it.
    fn rejected(error: AnalysisError) -> GuardedScript {
        jsdetect_obs::counter_add(error.counter_name(), 1);
        jsdetect_obs::counter_add(names::CTR_GUARD_REJECTED, 1);
        GuardedScript { analysis: None, outcome: OutcomeKind::Rejected, error: Some(error) }
    }
}

/// Analyzes one script under `limits`, never panicking on budget-class
/// failures and degrading to a lexer-only feature bundle when only the
/// parse fails. A residual panic in any stage is contained and rejects
/// this script (`guard/stage_panicked`) instead of unwinding into the
/// caller's thread pool.
///
/// # Examples
///
/// ```
/// use jsdetect_features::analyze_script_guarded;
/// use jsdetect_guard::{Limits, OutcomeKind};
///
/// let ok = analyze_script_guarded("var x = 1;", &Limits::wild());
/// assert_eq!(ok.outcome, OutcomeKind::Ok);
///
/// let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
/// let r = analyze_script_guarded(&bomb, &Limits::wild());
/// assert_eq!(r.outcome, OutcomeKind::Rejected);
/// assert_eq!(r.error.unwrap().kind(), "ast_depth_exceeded");
/// ```
pub fn analyze_script_guarded(src: &str, limits: &Limits) -> GuardedScript {
    let _t = jsdetect_obs::span(names::SPAN_ANALYZE);
    jsdetect_obs::observe(names::HIST_SCRIPT_BYTES, src.len() as u64);
    fenced(|| run_stages(src, limits))
}

/// Runs `stages` behind a panic fence; a panic becomes a rejection.
fn fenced(stages: impl FnOnce() -> GuardedScript) -> GuardedScript {
    isolate("analyze", stages).unwrap_or_else(GuardedScript::rejected)
}

/// The stage sequence of [`analyze_script_guarded`], unfenced.
fn run_stages(src: &str, limits: &Limits) -> GuardedScript {
    let budget = Budget::new(limits);
    if let Err(e) = budget.check_input(src.len()) {
        return GuardedScript::rejected(e);
    }

    let (program, comments) = {
        let _s = jsdetect_obs::span(names::SPAN_PARSE);
        match parse_with_comments_budget(src, &budget) {
            Ok(pc) => pc,
            Err(parse_err) => {
                jsdetect_obs::counter_add(names::CTR_PARSE_FAILURES, 1);
                // A budget violation travels through `ParseError` stringly;
                // the typed cause sits in the budget's side channel.
                let e = budget
                    .take_violation()
                    .unwrap_or(AnalysisError::Parse { msg: parse_err.msg, pos: parse_err.pos });
                if e.is_resource() {
                    return GuardedScript::rejected(e);
                }
                return degraded_fallback(src, &budget, e);
            }
        }
    };
    if let Err(e) = budget.check_deadline() {
        return GuardedScript::rejected(e);
    }

    let tokens = {
        let _s = jsdetect_obs::span(names::SPAN_LEX);
        match tokenize_with_budget(src, &budget) {
            Ok((tokens, _)) => tokens,
            Err(_) => {
                if let Some(v) = budget.take_violation() {
                    return GuardedScript::rejected(v);
                }
                // The AST parsed, so a standalone-lex hiccup only costs
                // the token list.
                jsdetect_obs::counter_add(names::CTR_LEXER_ERRORS, 1);
                Vec::new()
            }
        }
    };

    let (shape, kinds) = {
        let _s = jsdetect_obs::span(names::SPAN_METRICS);
        (jsdetect_ast::metrics::tree_shape(&program), KindCounts::of(&program))
    };
    // Charge the realized tree size before running the recursive consumers
    // (flow, lint) over a potential node bomb.
    if let Err(e) = budget.charge_nodes(shape.node_count as u64) {
        return GuardedScript::rejected(e);
    }
    if let Err(e) = budget.check_deadline() {
        return GuardedScript::rejected(e);
    }

    let graph = {
        let _s = jsdetect_obs::span(names::SPAN_FLOW);
        analyze_with(&program, &DataFlowOptions::default())
    };
    if !graph.dataflow.complete {
        jsdetect_obs::counter_add(names::CTR_FLOW_TRUNCATIONS, 1);
        jsdetect_obs::counter_add(
            names::CTR_FLOW_TRUNCATED_BINDINGS,
            graph.dataflow.truncated_bindings.len() as u64,
        );
    }
    if let Err(e) = budget.check_cfg_edges(graph.control_flow.edges.len() as u64) {
        return GuardedScript::rejected(e);
    }
    if let Err(e) = budget.check_deadline() {
        return GuardedScript::rejected(e);
    }

    let lint = {
        let _s = jsdetect_obs::span(names::SPAN_LINT);
        let (diagnostics, lint) = LintRunner::default().run_with_summary(src, &program, &graph);
        jsdetect_obs::counter_add(names::CTR_LINT_FIRES, diagnostics.len() as u64);
        lint
    };

    let normalize = crate::deltas::normalize_deltas(src, &program, shape.node_count, &lint);

    GuardedScript::ok(ScriptAnalysis {
        src: src.to_string(),
        program,
        tokens,
        comments,
        graph,
        shape,
        kinds,
        lint,
        normalize,
        degraded: false,
    })
}

/// Lexer-only analysis under `limits`, skipping parse/flow/lint entirely.
///
/// This is the circuit-breaker's degraded service mode: when a resident
/// daemon is overloaded it trades fidelity for latency by running only the
/// lexical front-end. The result is the same bundle shape as a parse-failure
/// fallback (`degraded: true`, outcome `Degraded`) with the typed cause
/// [`AnalysisError::ServiceDegraded`], so caches and quarantine accounting
/// can tell a deliberate skip from a broken script.
pub fn analyze_script_lexer_only(src: &str, limits: &Limits) -> GuardedScript {
    let _t = jsdetect_obs::span(names::SPAN_ANALYZE);
    jsdetect_obs::observe(names::HIST_SCRIPT_BYTES, src.len() as u64);
    let budget = Budget::new(limits);
    if let Err(e) = budget.check_input(src.len()) {
        return GuardedScript::rejected(e);
    }
    degraded_fallback(src, &budget, AnalysisError::ServiceDegraded)
}

/// Builds the lexer-only fallback bundle after a recoverable parse failure
/// (paper-faithful: the paper drops unparseable files; we additionally keep
/// their lexical signal, flagged by [`ScriptAnalysis::degraded`]).
fn degraded_fallback(src: &str, budget: &Budget, cause: AnalysisError) -> GuardedScript {
    let _s = jsdetect_obs::span(names::SPAN_DEGRADED_FALLBACK);
    let (tokens, comments, _lex_err) = tokenize_lossy(src, Some(budget));
    // The lossy scan itself may blow a budget axis (token flood inside a
    // syntactically broken file) — that escalates to a reject.
    if let Some(v) = budget.take_violation() {
        if v.is_resource() {
            return GuardedScript::rejected(v);
        }
    }
    let program = Program { body: Vec::new(), span: Span::new(0, src.len() as u32) };
    let graph = analyze_with(&program, &DataFlowOptions::default());
    let (shape, kinds) = (jsdetect_ast::metrics::tree_shape(&program), KindCounts::of(&program));
    let lint = LintRunner::default().run_with_summary(src, &program, &graph).1;
    jsdetect_obs::counter_add(names::CTR_DEGRADED_FALLBACKS, 1);
    GuardedScript::degraded(
        ScriptAnalysis {
            src: src.to_string(),
            program,
            tokens,
            comments,
            graph,
            shape,
            kinds,
            lint,
            normalize: crate::deltas::neutral_deltas(),
            degraded: true,
        },
        cause,
    )
}

/// The trusted-preset analysis of a script that must analyze `Ok` (the
/// crate's unit tests share it).
#[cfg(test)]
pub(crate) fn analyze_ok(src: &str) -> ScriptAnalysis {
    let g = analyze_script_guarded(src, &Limits::trusted());
    assert_eq!(g.outcome, OutcomeKind::Ok, "{:?}", g.error);
    g.analysis.expect("an ok outcome carries its analysis")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry counters are process-global: the tests in this module
    /// that reject a script hold this lock, so the fence test can count
    /// `guard/rejected` exactly.
    static REJECTING: Mutex<()> = Mutex::new(());

    fn guarded(src: &str, limits: &Limits) -> GuardedScript {
        let _g = REJECTING.lock().unwrap_or_else(|e| e.into_inner());
        analyze_script_guarded(src, limits)
    }

    fn lexer_only(src: &str, limits: &Limits) -> GuardedScript {
        let _g = REJECTING.lock().unwrap_or_else(|e| e.into_inner());
        analyze_script_lexer_only(src, limits)
    }

    #[test]
    fn clean_script_is_ok() {
        let g = guarded("var x = 1; if (x) { f(x); }", &Limits::wild());
        assert_eq!(g.outcome, OutcomeKind::Ok);
        assert!(g.error.is_none());
        let a = g.analysis.unwrap();
        assert!(!a.degraded);
        assert!(!a.tokens.is_empty());
        assert!(a.shape.node_count > 8);
    }

    #[test]
    fn contained_panic_moves_guard_rejected_by_exactly_one() {
        let g = {
            let _g = REJECTING.lock().unwrap_or_else(|e| e.into_inner());
            jsdetect_obs::set_enabled(true);
            let before = jsdetect_obs::snapshot();
            let g = fenced(|| panic!("injected stage panic"));
            let after = jsdetect_obs::snapshot();
            jsdetect_obs::set_enabled(false);
            for name in [names::CTR_GUARD_REJECTED, "guard/stage_panicked"] {
                assert_eq!(after.counter(name) - before.counter(name), 1, "{}", name);
            }
            g
        };
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert!(g.analysis.is_none());
        assert_eq!(g.error.unwrap().kind(), "stage_panicked");
    }

    #[test]
    fn syntax_error_degrades_with_lexical_signal() {
        let g = guarded("var x = ;;;=", &Limits::wild());
        assert_eq!(g.outcome, OutcomeKind::Degraded);
        let a = g.analysis.unwrap();
        assert!(a.degraded);
        assert!(!a.tokens.is_empty(), "fallback should keep the token prefix");
        assert_eq!(a.program.body.len(), 0);
        assert_eq!(g.error.unwrap().kind(), "parse_error");
    }

    #[test]
    fn input_cap_rejects_before_any_work() {
        let limits = Limits { max_input_bytes: 8, ..Limits::wild() };
        let g = guarded("var x = 1;", &limits);
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert!(g.analysis.is_none());
        assert_eq!(g.error.unwrap().kind(), "input_too_large");
    }

    #[test]
    fn depth_bomb_rejects_with_typed_cause() {
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let g = guarded(&bomb, &Limits::wild());
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert_eq!(g.error.unwrap().kind(), "ast_depth_exceeded");
    }

    #[test]
    fn token_flood_rejects_even_when_unparseable() {
        // Fails the parse *and* floods the token budget: must reject, not
        // degrade.
        let limits = Limits { max_tokens: 100, ..Limits::wild() };
        let flood = format!("var x = ;;;= {}", "a ".repeat(1_000));
        let g = guarded(&flood, &limits);
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert_eq!(g.error.unwrap().kind(), "token_budget_exceeded");
    }

    #[test]
    fn node_budget_rejects_wide_programs() {
        let limits = Limits { max_ast_nodes: 50, ..Limits::wild() };
        let wide = "var a=0;".to_string() + &"a=a+1;".repeat(100);
        let g = guarded(&wide, &limits);
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert_eq!(g.error.unwrap().kind(), "ast_node_budget_exceeded");
    }

    #[test]
    fn cfg_edge_budget_rejects_branchy_programs() {
        let limits = Limits { max_cfg_edges: 3, ..Limits::wild() };
        let branchy = "if (a) { f(); } else { g(); } while (b) { h(); }";
        let g = guarded(branchy, &limits);
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert_eq!(g.error.unwrap().kind(), "cfg_edge_budget_exceeded");
    }

    #[test]
    fn lexer_only_mode_keeps_lexical_signal_with_typed_cause() {
        let g = lexer_only("var x = 1; f(x);", &Limits::wild());
        assert_eq!(g.outcome, OutcomeKind::Degraded);
        let a = g.analysis.unwrap();
        assert!(a.degraded);
        assert!(!a.tokens.is_empty());
        assert_eq!(a.program.body.len(), 0, "parse must be skipped");
        assert_eq!(g.error.unwrap().kind(), "service_degraded");

        // The input cap still applies before any work.
        let limits = Limits { max_input_bytes: 4, ..Limits::wild() };
        let g = lexer_only("var x = 1;", &limits);
        assert_eq!(g.outcome, OutcomeKind::Rejected);
    }

    #[test]
    fn trusted_preset_keeps_only_the_depth_guard() {
        let wide = "var a=0;".to_string() + &"a=a+1;".repeat(20_000);
        assert_eq!(guarded(&wide, &Limits::trusted()).outcome, OutcomeKind::Ok);
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let g = guarded(&bomb, &Limits::trusted());
        assert_eq!(g.outcome, OutcomeKind::Rejected);
        assert_eq!(g.error.unwrap().kind(), "ast_depth_exceeded");
    }
}
