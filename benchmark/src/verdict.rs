//! The correctness gate: every verdict a timed path produces must equal the
//! reference verdict for the same bytes, bit for bit.
//!
//! The reference is `classify_many_cached` with no store at all, computed
//! once per run outside any timing. Batch passes (cold or replayed from the
//! store) and daemon answers are compared against it, so all three
//! workloads are held to the same uncached verdict for every script.

use jsdetect::ScriptVerdict;
use jsdetect_corpus::wild::WildScript;
use jsdetect_serve::AnalyzeResponse;

/// What must agree between two verdicts for the same script: guard outcome,
/// the level-1 confidences as raw f32 bits, and the technique list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub outcome: String,
    pub confidences: [u32; 3],
    pub transformed: bool,
    pub techniques: Vec<String>,
}

impl Verdict {
    pub fn of(v: &ScriptVerdict) -> Verdict {
        let (r, m, o) = v.level1.map(|p| (p.regular, p.minified, p.obfuscated)).unwrap_or_default();
        Verdict {
            outcome: v.outcome.as_str().to_string(),
            confidences: [r.to_bits(), m.to_bits(), o.to_bits()],
            transformed: v.is_transformed(),
            techniques: v.techniques.iter().map(|t| t.as_str().to_string()).collect(),
        }
    }

    pub fn of_response(r: &AnalyzeResponse) -> Verdict {
        Verdict {
            outcome: r.outcome.clone(),
            confidences: [r.regular.to_bits(), r.minified.to_bits(), r.obfuscated.to_bits()],
            transformed: r.transformed,
            techniques: r.techniques.clone(),
        }
    }
}

/// Counts attempted and failed checks and keeps the first few failures.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Checks one batch verdict for script `i`.
    pub fn batch(&mut self, i: usize, got: &Verdict, want: &Verdict) {
        self.check(got == want, || format!("batch: script {i}: {got:?} != reference {want:?}"));
    }

    /// Checks one daemon answer for script `i`: status `ok`, full detector
    /// (not breaker-degraded), reference verdict.
    pub fn answer(&mut self, i: usize, resp: Option<&AnalyzeResponse>, want: &Verdict) {
        let Some(r) = resp else {
            return self.check(false, || format!("serve: request for script {i} got no answer"));
        };
        let got = Verdict::of_response(r);
        let ok = r.status == "ok" && !r.degraded_mode && got == *want;
        self.check(ok, || {
            let (status, degraded) = (&r.status, r.degraded_mode);
            format!(
                "serve: script {i}: status {status} degraded_mode {degraded}: {got:?} != {want:?}"
            )
        });
    }
}

/// Level-1 accuracy (transformed vs regular) and level-2 micro-F1 of the
/// reference verdicts against the generator's ground truth.
pub fn accuracy(scripts: &[WildScript], verdicts: &[Verdict]) -> (f64, f64) {
    let (mut correct, mut tp, mut fp, mut fneg) = (0usize, 0usize, 0usize, 0usize);
    for (s, v) in scripts.iter().zip(verdicts) {
        correct += usize::from(v.transformed == s.is_transformed());
        let truth: Vec<&str> = s.truth.iter().map(|t| t.as_str()).collect();
        let hits = v.techniques.iter().filter(|t| truth.contains(&t.as_str())).count();
        tp += hits;
        fp += v.techniques.len() - hits;
        fneg += truth.len() - hits;
    }
    let l1 = correct as f64 / scripts.len().max(1) as f64;
    let f1 = 2.0 * tp as f64 / (2 * tp + fp + fneg).max(1) as f64;
    (l1, f1)
}
