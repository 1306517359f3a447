//! Where a result came from: machine, toolchain, source, model and inputs.

use crate::env::MODEL_PATH;
use jsdetect_cache::ContentHash;
use jsdetect_features::FEATURE_SPACE_VERSION;
use serde_json::JsonValue;
use std::path::Path;

pub struct Provenance {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub git_sha: String,
    pub source_blake2s: String,
    pub model_feature_space: u32,
}

impl Provenance {
    /// Collects provenance and refuses a model whose feature space is not
    /// the one this build vectorizes into: timing a stale model would
    /// measure a pipeline nobody runs.
    pub fn collect(root: &Path) -> Result<Provenance, String> {
        let model_feature_space = model_feature_space(root)?;
        if model_feature_space != FEATURE_SPACE_VERSION {
            return Err(format!(
                "{MODEL_PATH} has feature space v{model_feature_space}, this build expects \
                 v{FEATURE_SPACE_VERSION}; retrain the model before benchmarking"
            ));
        }
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Ok(Provenance {
            cpu,
            nproc: nproc(),
            rustc: env!("BENCH_RUSTC_VERSION"),
            git_sha: git_sha(root).unwrap_or_else(|| "none (not a git checkout)".into()),
            source_blake2s: source_fingerprint(root),
            model_feature_space,
        })
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The feature-space version both detector levels of the committed model
/// were fitted in.
fn model_feature_space(root: &Path) -> Result<u32, String> {
    let path = root.join(MODEL_PATH);
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: JsonValue =
        serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    let version = |level: &str| match v
        .get(level)
        .and_then(|l| l.get("space"))
        .and_then(|s| s.get("version"))
    {
        Some(JsonValue::Int(n)) => u32::try_from(*n).ok(),
        Some(JsonValue::UInt(n)) => u32::try_from(*n).ok(),
        _ => None,
    };
    match (version("level1"), version("level2")) {
        (Some(a), Some(b)) if a == b => Ok(a),
        (a, b) => {
            Err(format!("{}: level feature spaces {a:?} / {b:?} missing or differ", path.display()))
        }
    }
}

/// The checkout's own commit; no lookup in parent directories, so a
/// checkout without `.git` never reports an enclosing repository's sha.
fn git_sha(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !sha.is_empty()).then_some(sha)
}

/// BLAKE2s over every Rust source and manifest of the measured crates, the
/// benchmark itself and the lock file, in path order: identifies the code
/// when the checkout carries no git metadata.
fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "benchmark", "src"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    ContentHash::of(&all).to_hex()
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if !p.ends_with("target") {
                collect(&p, out);
            }
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}
