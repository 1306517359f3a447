//! Offline maintenance over a cache directory: `stats`, `verify`, `gc`.
//!
//! These read the logs directly (no [`AnalysisCache`] handle needed), so
//! the CLI can inspect or repair a store regardless of which preset or
//! feature-space version wrote it. A missing directory is an empty store,
//! not an error — `jsdetect-cli cache stats` on a fresh checkout should
//! report zeros, not fail.
//!
//! The *live* frame for a key is the last one in its log: the one a lookup
//! serves. Earlier frames for the same key are superseded and only `gc`
//! reclaims them. Two-hex shard directories of the old file-per-record
//! layout are never read; `stats` counts their `.jdc` files and `gc`
//! deletes them. Run `gc` while no process has the store open: it
//! replaces each log by rename, and a handle opened earlier would keep
//! appending to the replaced file.
//!
//! [`AnalysisCache`]: crate::AnalysisCache

use crate::blake::ContentHash;
use crate::log::{log_index, parse_log_name, scan, Key, Span, FRAME_HEADER};
use crate::record::decode_embedded;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File extension of the old layout's per-record files.
const LEGACY_EXT: &str = "jdc";

/// One store log under the root.
struct LogFile {
    path: PathBuf,
    index: usize,
    preset: String,
}

/// What a store root holds.
#[derive(Default)]
struct Listing {
    logs: Vec<LogFile>,
    /// Old-layout shard directories with their record and tmp files.
    legacy: Vec<(PathBuf, Vec<PathBuf>)>,
}

fn list(dir: &Path) -> std::io::Result<Listing> {
    let mut out = Listing::default();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let kind = entry.file_type()?;
        if kind.is_file() {
            if let Some((index, preset)) = parse_log_name(&name) {
                out.logs.push(LogFile { path: entry.path(), index, preset: preset.to_string() });
            }
        } else if kind.is_dir() && name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) {
            // Only the old layout's two-hex shard directories, and only
            // its own files in them, belong to the store.
            let mut files = Vec::new();
            for f in std::fs::read_dir(entry.path())? {
                let f = f?;
                let fname = f.file_name();
                let fname = fname.to_string_lossy();
                if f.file_type()?.is_file()
                    && (fname.starts_with(".tmp-") || fname.ends_with(&format!(".{}", LEGACY_EXT)))
                {
                    files.push(f.path());
                }
            }
            out.legacy.push((entry.path(), files));
        }
    }
    out.logs.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// A scanned log: its handle, its length, and its frames in log order,
/// each with whether it is live (the last frame for its key).
struct Scanned {
    file: File,
    len: u64,
    frames: Vec<(Span, bool)>,
}

fn scan_log(log: &LogFile) -> std::io::Result<Scanned> {
    let file = File::open(&log.path)?;
    let len = file.metadata()?.len();
    let mut spans = Vec::new();
    scan(&file, 0, len, |span| spans.push(span))?;
    let mut last: HashMap<Key, usize> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        last.insert(span.key, i);
    }
    let frames = spans.into_iter().enumerate().map(|(i, s)| (s, last[&s.key] == i)).collect();
    Ok(Scanned { file, len, frames })
}

/// The verdict on one frame.
enum Check {
    /// Decodes, and sits under its own key in its own log.
    Ok { feature_version: u32, preset: String },
    /// A well-formed record under another record schema.
    Stale,
    /// Damaged or misplaced, with the reason.
    Corrupt(String),
}

fn check(file: &File, span: &Span, log: &LogFile) -> Check {
    let bytes = match span.read(file) {
        Ok(b) => b,
        Err(e) => return Check::Corrupt(format!("unreadable: {}", e)),
    };
    match decode_embedded(&bytes) {
        Ok((_, hash, feature_version, preset)) => {
            if hash.0[..ContentHash::PREFIX_LEN] != span.key {
                Check::Corrupt("frame key disagrees with embedded record".to_string())
            } else if log_index(&hash) != log.index || preset != log.preset {
                Check::Corrupt("record sits in another hash digit's or preset's log".to_string())
            } else {
                Check::Ok { feature_version, preset }
            }
        }
        Err(e) if e.is_stale() => Check::Stale,
        Err(e) => Check::Corrupt(e.to_string()),
    }
}

/// Aggregate figures for one cache directory.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Live frames that decode under the current record schema.
    pub records: u64,
    /// Frames a later frame for the same key supersedes (`gc` reclaims
    /// them).
    pub superseded: u64,
    /// Total bytes across all logs.
    pub bytes: u64,
    /// Log files in the store.
    pub logs: u64,
    /// Live record count per limits-preset tag.
    pub by_preset: BTreeMap<String, u64>,
    /// Live record count per feature-space version.
    pub by_feature_version: BTreeMap<u32, u64>,
    /// Live frames written under another record schema.
    pub stale_schema: u64,
    /// Live frames that fail checksum / structural validation or sit in
    /// the wrong log.
    pub corrupt: u64,
    /// Per-record files of the old layout (never read; `gc` deletes them).
    pub legacy_records: u64,
}

/// Scans every log under `dir` and summarizes what the store holds.
///
/// # Errors
///
/// Propagates directory-walk and log-open IO errors; unreadable frames are
/// counted as corrupt instead of failing the walk.
pub fn stats(dir: &Path) -> std::io::Result<CacheStats> {
    let mut s = CacheStats::default();
    let listing = list(dir)?;
    for (_, files) in &listing.legacy {
        s.legacy_records +=
            files.iter().filter(|f| f.extension().is_some_and(|e| e == LEGACY_EXT)).count() as u64;
    }
    for log in &listing.logs {
        let Scanned { file, len, frames } = scan_log(log)?;
        s.logs += 1;
        s.bytes += len;
        for (span, live) in &frames {
            if !live {
                s.superseded += 1;
                continue;
            }
            match check(&file, span, log) {
                Check::Ok { feature_version, preset } => {
                    s.records += 1;
                    *s.by_preset.entry(preset).or_insert(0) += 1;
                    *s.by_feature_version.entry(feature_version).or_insert(0) += 1;
                }
                Check::Stale => s.stale_schema += 1,
                Check::Corrupt(_) => s.corrupt += 1,
            }
        }
    }
    Ok(s)
}

/// Outcome of a full-store integrity pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct VerifyReport {
    /// Live frames examined.
    pub total: u64,
    /// Live frames that fully decode and sit under their own key in the
    /// log their hash digit and preset name.
    pub ok: u64,
    /// Well-formed live frames from another schema version.
    pub stale: u64,
    /// Damaged or misplaced live frames as `(log@offset, reason)`.
    pub corrupt: Vec<(String, String)>,
}

impl VerifyReport {
    /// Whether the store is fully healthy (stale records are healthy —
    /// they decode and will be replaced or collected, never served).
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Fully decodes every live frame (checksum, structure, payload) and
/// checks that it sits in the log its hash digit and preset name.
/// Superseded frames are never served and are not judged.
///
/// # Errors
///
/// Propagates directory-walk and log-open IO errors.
pub fn verify(dir: &Path) -> std::io::Result<VerifyReport> {
    let mut report = VerifyReport::default();
    for log in &list(dir)?.logs {
        let Scanned { file, frames, .. } = scan_log(log)?;
        for (span, _) in frames.iter().filter(|(_, live)| *live) {
            report.total += 1;
            match check(&file, span, log) {
                Check::Ok { .. } => report.ok += 1,
                Check::Stale => report.stale += 1,
                Check::Corrupt(why) => report.corrupt.push((
                    format!("{}@{}", log.path.display(), span.offset - FRAME_HEADER as u64),
                    why,
                )),
            }
        }
    }
    Ok(report)
}

/// Outcome of a garbage-collection pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct GcReport {
    /// Frames removed because they were written under another schema or
    /// feature-space version.
    pub removed_stale: u64,
    /// Frames removed because they fail validation or sit in the wrong
    /// log.
    pub removed_corrupt: u64,
    /// Valid frames removed because a later frame for the same key
    /// replaces them.
    pub removed_superseded: u64,
    /// Old-layout record and tmp files deleted.
    pub removed_legacy: u64,
    /// Frames kept.
    pub kept: u64,
}

/// Rewrites each log to hold only the newest valid current-version frame
/// per key, with one tmp-write + rename per log, and deletes the old
/// layout's files. Frames for *other presets* under the current versions
/// are kept — they are valid answers for their own scans.
///
/// # Errors
///
/// Propagates directory-walk and log IO errors; a legacy file that cannot
/// be removed is left for the next pass.
pub fn gc(dir: &Path, current_feature_version: u32) -> std::io::Result<GcReport> {
    let mut report = GcReport::default();
    let listing = list(dir)?;
    for (shard, files) in &listing.legacy {
        for f in files {
            if std::fs::remove_file(f).is_ok() {
                report.removed_legacy += 1;
            }
        }
        let _ = std::fs::remove_dir(shard); // only if nothing else is in it
    }
    for log in &listing.logs {
        let Scanned { file, len, frames } = scan_log(log)?;
        // Newest valid current-version frame per key.
        let mut keep: HashMap<Key, usize> = HashMap::new();
        for (i, (span, _)) in frames.iter().enumerate() {
            match check(&file, span, log) {
                Check::Ok { feature_version, .. } if feature_version == current_feature_version => {
                    if keep.insert(span.key, i).is_some() {
                        report.removed_superseded += 1;
                    }
                }
                Check::Ok { .. } | Check::Stale => report.removed_stale += 1,
                Check::Corrupt(_) => report.removed_corrupt += 1,
            }
        }
        let mut kept: Vec<usize> = keep.into_values().collect();
        kept.sort_unstable();
        report.kept += kept.len() as u64;
        let kept_bytes: u64 =
            kept.iter().map(|&i| FRAME_HEADER as u64 + u64::from(frames[i].0.len)).sum();
        if kept.len() == frames.len() && kept_bytes == len {
            continue; // nothing to reclaim
        }
        if kept.is_empty() {
            std::fs::remove_file(&log.path)?;
            continue;
        }
        let mut tmp_name = log.path.clone().into_os_string();
        tmp_name.push(".gc-tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut out = std::io::BufWriter::new(File::create(&tmp)?);
        for &i in &kept {
            let span = frames[i].0;
            out.write_all(&span.len.to_le_bytes())?;
            out.write_all(&span.key)?;
            out.write_all(&span.read(&file)?)?;
        }
        let out = out.into_inner().map_err(|e| e.into_error())?;
        out.sync_all()?;
        std::fs::rename(&tmp, &log.path)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{frame, log_name};
    use crate::record::{encode, CacheRecord};
    use crate::store::{AnalysisCache, CacheConfig};
    use jsdetect_guard::{Limits, OutcomeKind};
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "jsdetect-cache-maint-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn rec() -> CacheRecord {
        CacheRecord {
            outcome: OutcomeKind::Ok,
            error_kind: String::new(),
            error_msg: String::new(),
            payload: None,
        }
    }

    fn hash(i: usize) -> ContentHash {
        ContentHash::of(format!("var v{} = {};", i, i).as_bytes())
    }

    fn seeded(dir: &Path, n: usize) -> AnalysisCache {
        let cache = AnalysisCache::open(CacheConfig::new(dir, &Limits::wild())).unwrap();
        for i in 0..n {
            cache.put(&hash(i), &rec());
        }
        cache
    }

    /// Appends raw bytes to the log that holds `h`.
    fn append(cache: &AnalysisCache, h: &ContentHash, bytes: &[u8]) {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(cache.record_path(h))
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_store() {
        let dir = scratch().join("nope");
        assert_eq!(stats(&dir).unwrap(), CacheStats::default());
        assert_eq!(verify(&dir).unwrap(), VerifyReport::default());
        assert_eq!(gc(&dir, 2).unwrap(), GcReport::default());
    }

    #[test]
    fn stats_counts_live_and_superseded_frames_presets_and_versions() {
        let dir = scratch();
        let cache = seeded(&dir, 5);
        cache.put(&hash(0), &rec());
        let s = stats(&dir).unwrap();
        assert_eq!(s.records, 5);
        assert_eq!(s.superseded, 1);
        assert_eq!(s.by_preset.get("wild"), Some(&5));
        assert_eq!(s.by_feature_version.len(), 1);
        assert!(s.bytes > 0);
        assert!(s.logs >= 1);
        assert_eq!(s.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_corruption_and_misfiled_frames() {
        let dir = scratch();
        let cache = seeded(&dir, 3);
        assert!(verify(&dir).unwrap().is_clean());

        // Damage the last byte (the checksum) of one live frame in place.
        let victim = cache.record_path(&hash(0));
        let mut bytes = std::fs::read(&victim).unwrap();
        let log = LogFile { path: victim.clone(), index: 0, preset: String::new() };
        let span = scan_log(&log)
            .unwrap()
            .frames
            .iter()
            .find(|(s, _)| s.key[..] == hash(0).0[..16])
            .unwrap()
            .0;
        bytes[(span.offset + u64::from(span.len) - 1) as usize] ^= 1;
        std::fs::write(&victim, &bytes).unwrap();

        // A frame whose header key lies about the record inside it.
        let other = ContentHash::of(b"something else entirely");
        append(&cache, &other, &frame(&other, &encode(&rec(), &hash(1), 2, "wild")).unwrap());
        // A correct frame filed in another digit's log.
        let stray = (0..).map(hash).find(|h| log_index(h) != log_index(&other)).unwrap();
        let wrong = dir.join(log_name(log_index(&other), "wild"));
        let mut f = std::fs::OpenOptions::new().append(true).open(&wrong).unwrap();
        f.write_all(&frame(&stray, &encode(&rec(), &stray, 2, "wild")).unwrap()).unwrap();

        let report = verify(&dir).unwrap();
        assert_eq!(report.total, 5, "{:?}", report);
        assert_eq!(report.ok, 2);
        assert_eq!(report.corrupt.len(), 3, "{:?}", report.corrupt);
        assert!(!report.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_the_newest_current_frames_and_other_presets() {
        let dir = scratch();
        let cache = seeded(&dir, 2);
        let fv = cache.config().feature_version;
        cache.put(&hash(0), &rec()); // supersedes the first frame for v0

        // Another preset at the current version: must survive.
        let trusted = AnalysisCache::open(CacheConfig::new(&dir, &Limits::trusted())).unwrap();
        let keep = ContentHash::of(b"keep me");
        trusted.put(&keep, &rec());

        // A frame from another feature-space version.
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.feature_version = fv + 1;
        let future = AnalysisCache::open(cfg).unwrap();
        let stale = ContentHash::of(b"stale me");
        future.put(&stale, &rec());

        // A damaged frame, then garbage a crash left at the end of a log.
        let damaged = ContentHash::of(b"corrupt me");
        let mut bad = frame(&damaged, &encode(&rec(), &damaged, fv, "wild")).unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        append(&cache, &damaged, &bad);
        append(&cache, &hash(1), &[0; 7]);

        // The old layout: a record file and tmp litter in a shard dir.
        let legacy = dir.join("ab");
        std::fs::create_dir_all(&legacy).unwrap();
        std::fs::write(legacy.join("0123-wild.jdc"), b"old").unwrap();
        std::fs::write(legacy.join(".tmp-999-0"), b"partial").unwrap();
        assert_eq!(stats(&dir).unwrap().legacy_records, 1);

        let report = gc(&dir, fv).unwrap();
        assert_eq!(report.kept, 3, "{:?}", report);
        assert_eq!(report.removed_stale, 1);
        assert_eq!(report.removed_corrupt, 1);
        assert_eq!(report.removed_superseded, 1);
        assert_eq!(report.removed_legacy, 2);
        assert!(!legacy.exists());

        let s = stats(&dir).unwrap();
        assert_eq!((s.records, s.superseded, s.corrupt, s.legacy_records), (3, 0, 0, 0), "{:?}", s);
        assert!(verify(&dir).unwrap().is_clean());
        let fresh = AnalysisCache::open(CacheConfig::new(&dir, &Limits::wild())).unwrap();
        assert!(fresh.get(&hash(0)).is_some() && fresh.get(&hash(1)).is_some());
        assert!(fresh.get(&damaged).is_none());
        assert!(AnalysisCache::open(CacheConfig::new(&dir, &Limits::trusted()))
            .unwrap()
            .get(&keep)
            .is_some());
        // A second pass finds nothing to do.
        let again = gc(&dir, fv).unwrap();
        assert_eq!(again, GcReport { kept: 3, ..GcReport::default() });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
