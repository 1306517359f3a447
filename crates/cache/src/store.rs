//! The log-structured on-disk store with an in-memory LRU front.
//!
//! Layout: `<dir>/<h>-<preset>.jdl`, [`N_SHARDS`] append-only logs per
//! limits preset keyed by the first hex digit of the content hash (the
//! `log` module documents the frame layout). A put appends one frame —
//! one `write(2)` on an `O_APPEND` handle the cache opens once per log — so
//! writers in this process and in others never interleave inside a frame.
//! A lookup goes through a per-log index `hash prefix → (offset, len)` and
//! one positioned read. A log is indexed on the first lookup that touches
//! it, in bounded chunks; when a lookup misses, the handle re-checks the
//! log's length and indexes the new tail, so a record another handle or
//! process published before the lookup is a hit. A per-log mutex guards
//! the handle and index; the last frame for a key wins.
//!
//! Every failure mode degrades to a recompute, never an abort: every hit
//! goes through `decode` (checksum, full embedded hash, schema,
//! feature-space version, preset), so a torn or damaged frame is never
//! served. A frame that fails decode leaves the index and is counted under
//! `cache/corrupt_evicted`; the recomputed verdict appends a frame that
//! supersedes it. A frame from another feature-space or schema version is
//! counted under `cache/stale_version` and left for `gc`. Both count a
//! `cache/miss` so hit-rate math stays honest.

use crate::blake::ContentHash;
use crate::log::{frame, key_of, log_index, log_name, scan, Key, Span, FRAME_HEADER, N_SHARDS};
use crate::lru::LruMap;
use crate::record::{decode, encode, CacheRecord};
use jsdetect_guard::Limits;
use jsdetect_obs::names;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default in-memory LRU capacity (records).
pub const DEFAULT_LRU_CAPACITY: usize = 4096;

/// Stable tag naming the limits a cached verdict was produced under.
///
/// Named presets map to themselves; any other [`Limits`] value gets a
/// content-derived `custom-<12 hex>` tag, so two different custom budgets
/// can never replay each other's verdicts.
pub fn preset_tag(limits: &Limits) -> String {
    for (name, preset) in [
        ("wild", Limits::wild()),
        ("trusted", Limits::trusted()),
        ("interactive", Limits::interactive()),
        ("unbounded", Limits::unbounded()),
    ] {
        if *limits == preset {
            return name.to_string();
        }
    }
    let json = serde_json::to_string(limits).unwrap_or_default();
    let digest = ContentHash::of(json.as_bytes()).to_hex();
    format!("custom-{}", &digest[..12])
}

/// Configuration for one opened cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Root directory of the store.
    pub dir: PathBuf,
    /// Feature-space version the cached payloads must match
    /// (`jsdetect_features::FEATURE_SPACE_VERSION` in production; tests
    /// inject other values to exercise invalidation).
    pub feature_version: u32,
    /// Limits preset tag (see [`preset_tag`]) baked into every key.
    pub preset: String,
    /// When set, lookups work but misses are never published back.
    pub readonly: bool,
    /// Capacity of the in-memory LRU front, in records.
    pub lru_capacity: usize,
}

impl CacheConfig {
    /// A read-write config for `dir` under the current feature-space
    /// version and the given limits.
    pub fn new(dir: impl Into<PathBuf>, limits: &Limits) -> CacheConfig {
        CacheConfig {
            dir: dir.into(),
            feature_version: jsdetect_features::FEATURE_SPACE_VERSION,
            preset: preset_tag(limits),
            readonly: false,
            lru_capacity: DEFAULT_LRU_CAPACITY,
        }
    }
}

/// Number of *extra* publish attempts after the first failure.
pub const PUBLISH_RETRIES: u32 = 2;

/// A fault hook for publish: called with the attempt index (0-based); a
/// `true` return makes that attempt fail without touching disk. Tests and
/// the serve chaos layer inject these to exercise the retry path.
pub type PublishInjector = Box<dyn Fn(u32) -> bool + Send + Sync>;

/// One log: its path, the handle opened on first use, and its index.
struct Log {
    path: PathBuf,
    file: Option<File>,
    index: HashMap<Key, Span>,
    /// Every frame before this offset is indexed.
    resume: u64,
    /// The log's length when it was last scanned.
    seen: u64,
}

impl Log {
    /// The log's handle, opened on first use: read-only for readonly
    /// caches, read + append otherwise, created only when `create`.
    fn file(&mut self, readonly: bool, create: bool) -> std::io::Result<&File> {
        if self.file.is_none() {
            let file = if readonly {
                File::open(&self.path)?
            } else {
                OpenOptions::new().read(true).append(true).create(create).open(&self.path)?
            };
            self.file = Some(file);
        }
        Ok(self.file.as_ref().expect("opened above"))
    }

    /// Indexes whatever was appended since the last scan.
    fn catch_up(&mut self) -> std::io::Result<()> {
        let file = self.file.as_ref().expect("catch_up runs on an open log");
        let len = file.metadata()?.len();
        if len == self.seen {
            return Ok(());
        }
        let index = &mut self.index;
        self.resume = scan(file, self.resume, len, |span| {
            index.insert(span.key, span);
        })?;
        self.seen = len;
        Ok(())
    }

    /// The bytes of the last frame filed under `key`, or `None` on a miss.
    /// A frame that cannot be read whole comes back empty, so `decode`
    /// counts it as damage.
    fn read(&mut self, key: &Key, readonly: bool) -> Option<(Span, Vec<u8>)> {
        self.file(readonly, false).ok()?;
        let span = match self.index.get(key) {
            Some(span) => *span,
            None => {
                self.catch_up().ok()?;
                *self.index.get(key)?
            }
        };
        let file = self.file.as_ref().expect("opened above");
        Some((span, span.read(file).unwrap_or_default()))
    }

    /// Appends one frame with a single write and indexes it.
    fn append(&mut self, key: Key, frame: &[u8]) -> std::io::Result<()> {
        let mut file = self.file(false, true)?;
        if file.write(frame)? != frame.len() {
            return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "short append"));
        }
        // The mutex keeps this process's appends apart, so the handle's
        // offset is the end of the frame just written.
        let end = file.stream_position()?;
        let start = end - frame.len() as u64;
        let len = (frame.len() - FRAME_HEADER) as u32;
        self.index.insert(key, Span { key, offset: start + FRAME_HEADER as u64, len });
        if self.resume == self.seen && start == self.seen {
            self.resume = end;
            self.seen = end;
        }
        Ok(())
    }
}

/// A content-addressed feature-vector cache:
/// `(content hash, feature-space version, limits preset) → CacheRecord`.
pub struct AnalysisCache {
    config: CacheConfig,
    /// The preset's logs; index = first hex digit of the hash.
    logs: Vec<Mutex<Log>>,
    lru: Mutex<LruMap<Key, Arc<CacheRecord>>>,
    publish_injector: Mutex<Option<PublishInjector>>,
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache").field("config", &self.config).finish_non_exhaustive()
    }
}

impl AnalysisCache {
    /// Opens (creating if needed) the store rooted at `config.dir`. No log
    /// is opened or read here; each is indexed on first use.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the root directory cannot be
    /// created (readonly opens tolerate a missing directory: every lookup
    /// just misses).
    pub fn open(config: CacheConfig) -> std::io::Result<AnalysisCache> {
        if !config.readonly {
            std::fs::create_dir_all(&config.dir)?;
        }
        let logs = (0..N_SHARDS)
            .map(|i| {
                Mutex::new(Log {
                    path: config.dir.join(log_name(i, &config.preset)),
                    file: None,
                    index: HashMap::new(),
                    resume: 0,
                    seen: 0,
                })
            })
            .collect();
        let lru = Mutex::new(LruMap::new(config.lru_capacity));
        Ok(AnalysisCache { config, logs, lru, publish_injector: Mutex::new(None) })
    }

    /// Installs (or clears) a publish fault injector; see
    /// [`PublishInjector`].
    pub fn set_publish_injector(&self, injector: Option<PublishInjector>) {
        *self.publish_injector.lock().unwrap_or_else(|e| e.into_inner()) = injector;
    }

    /// The configuration this cache was opened with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The path of the log that holds `hash`'s record.
    pub fn record_path(&self, hash: &ContentHash) -> PathBuf {
        self.config.dir.join(log_name(log_index(hash), &self.config.preset))
    }

    fn log(&self, hash: &ContentHash) -> std::sync::MutexGuard<'_, Log> {
        self.logs[log_index(hash)].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks one content hash up. `None` is always a recompute signal; the
    /// reason (plain miss, stale version, corrupt record) is reported
    /// through the `cache/*` counters.
    pub fn get(&self, hash: &ContentHash) -> Option<Arc<CacheRecord>> {
        let _t = jsdetect_obs::span(names::SPAN_CACHE_GET);
        let key = key_of(hash);
        if let Some(rec) = self.lru.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            jsdetect_obs::counter_add(names::CTR_CACHE_HIT, 1);
            return Some(rec);
        }
        let Some((span, bytes)) = self.log(hash).read(&key, self.config.readonly) else {
            jsdetect_obs::counter_add(names::CTR_CACHE_MISS, 1);
            return None;
        };
        match decode(&bytes, hash, self.config.feature_version, &self.config.preset) {
            Ok(rec) => {
                jsdetect_obs::counter_add(names::CTR_CACHE_HIT, 1);
                let rec = Arc::new(rec);
                self.lru.lock().unwrap_or_else(|e| e.into_inner()).insert(key, rec.clone());
                Some(rec)
            }
            Err(e) if e.is_stale() => {
                // Valid record from another version: recompute (the new
                // frame supersedes it; `gc` collects it).
                jsdetect_obs::counter_add(names::CTR_CACHE_STALE_VERSION, 1);
                jsdetect_obs::counter_add(names::CTR_CACHE_MISS, 1);
                None
            }
            Err(_) => {
                // Damaged frame: drop it from the index (unless a newer
                // frame replaced it meanwhile) and from memory, so the
                // recompute's frame is the one served next.
                jsdetect_obs::counter_add(names::CTR_CACHE_CORRUPT_EVICTED, 1);
                jsdetect_obs::counter_add(names::CTR_CACHE_MISS, 1);
                let mut log = self.log(hash);
                if log.index.get(&key) == Some(&span) {
                    log.index.remove(&key);
                }
                drop(log);
                self.lru.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
                None
            }
        }
    }

    /// Publishes one record under `hash`. A transient write failure is
    /// retried up to [`PUBLISH_RETRIES`] times with a short jittered
    /// backoff (counted under `cache/publish_retried`); a publish that
    /// still fails is counted (`cache/publish_failed`) and swallowed: a
    /// cache that cannot write degrades to a slower scan, never a failed
    /// one.
    pub fn put(&self, hash: &ContentHash, record: &CacheRecord) {
        if self.config.readonly {
            return;
        }
        let _t = jsdetect_obs::span(names::SPAN_CACHE_PUT);
        let bytes = encode(record, hash, self.config.feature_version, &self.config.preset);
        let Some(frame) = frame(hash, &bytes) else {
            // Larger than any frame may hold: never stored.
            jsdetect_obs::counter_add(names::CTR_CACHE_PUBLISH_FAILED, 1);
            return;
        };
        for attempt in 0..=PUBLISH_RETRIES {
            if attempt > 0 {
                jsdetect_obs::counter_add(names::CTR_CACHE_PUBLISH_RETRIED, 1);
                // Deterministic jitter: the cache carries no RNG, but the
                // content hash is uniform — derive the stagger from it so
                // two workers retrying the same log don't collide in
                // lockstep.
                let jitter = u64::from(hash.0[attempt as usize % hash.0.len()]) % 3;
                std::thread::sleep(std::time::Duration::from_millis(
                    (1u64 << (attempt - 1)) + jitter,
                ));
            }
            if self.publish_attempt(hash, &frame, attempt) {
                jsdetect_obs::counter_add(names::CTR_CACHE_PUT, 1);
                self.lru
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key_of(hash), Arc::new(record.clone()));
                return;
            }
        }
        jsdetect_obs::counter_add(names::CTR_CACHE_PUBLISH_FAILED, 1);
    }

    /// One append attempt; returns success.
    fn publish_attempt(&self, hash: &ContentHash, frame: &[u8], attempt: u32) -> bool {
        if let Some(injector) =
            self.publish_injector.lock().unwrap_or_else(|e| e.into_inner()).as_ref()
        {
            if injector(attempt) {
                return false;
            }
        }
        self.log(hash).append(key_of(hash), frame).is_ok()
    }

    /// Drops the in-memory front (disk records stay). Tests use this to
    /// force disk reads; long-running services can use it to bound memory.
    pub fn drop_memory(&self) {
        self.lru.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Root directory of this store.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::{stats, verify};
    use jsdetect_features::FeaturePayload;
    use jsdetect_guard::OutcomeKind;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique scratch dir per test (no tempfile crate offline).
    fn scratch() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "jsdetect-cache-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample() -> CacheRecord {
        CacheRecord {
            outcome: OutcomeKind::Ok,
            error_kind: String::new(),
            error_msg: String::new(),
            payload: Some(FeaturePayload {
                handpicked: vec![1.0, 2.0],
                lint: vec![0.5],
                normalize: vec![1.0],
                ngrams: vec![([1, 2, 3, 4], 9)],
                degraded: false,
            }),
        }
    }

    fn open(dir: &Path) -> AnalysisCache {
        AnalysisCache::open(CacheConfig::new(dir, &Limits::wild())).unwrap()
    }

    /// Every file under `dir` with its length.
    fn listing(dir: &Path) -> Vec<(String, u64)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), e.metadata().unwrap().len())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn put_then_get_roundtrips_via_disk_and_memory() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"var x = 1;");
        assert!(cache.get(&h).is_none());
        cache.put(&h, &sample());
        assert_eq!(*cache.get(&h).unwrap(), sample());
        // Force the disk path.
        cache.drop_memory();
        assert_eq!(*cache.get(&h).unwrap(), sample());
        // A second instance (fresh process, cold memory) sees it too.
        let cache2 = open(&dir);
        assert_eq!(*cache2.get(&h).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_and_misses_touch_no_log() {
        let dir = scratch();
        let cache = open(&dir);
        assert!(cache.get(&ContentHash::of(b"absent();")).is_none());
        assert!(listing(&dir).is_empty(), "open and a miss must create nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_append_to_one_of_sixteen_logs_per_preset() {
        let dir = scratch();
        let cache = open(&dir);
        for i in 0..64 {
            cache.put(&ContentHash::of(format!("f{}();", i).as_bytes()), &sample());
        }
        let h = ContentHash::of(b"f0();");
        let path = cache.record_path(&h);
        assert_eq!(path.parent(), Some(dir.as_path()));
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(name, format!("{}-wild.jdl", &h.to_hex()[..1]));
        let files = listing(&dir);
        assert!(files.len() <= N_SHARDS, "{:?}", files);
        assert!(files.iter().all(|(n, _)| n.ends_with("-wild.jdl")), "{:?}", files);
        assert!(files.iter().any(|(n, _)| *n == name));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_presets_do_not_share_records() {
        let dir = scratch();
        let wild = open(&dir);
        let trusted = AnalysisCache::open(CacheConfig::new(&dir, &Limits::trusted())).unwrap();
        let h = ContentHash::of(b"g();");
        wild.put(&h, &sample());
        assert!(trusted.get(&h).is_none(), "trusted must not replay a wild verdict");
        assert!(wild.get(&h).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feature_version_bump_is_a_stale_miss_and_put_supersedes() {
        let dir = scratch();
        let h = ContentHash::of(b"h();");
        open(&dir).put(&h, &sample());
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.feature_version += 1;
        let bumped = AnalysisCache::open(cfg).unwrap();
        assert!(bumped.get(&h).is_none());
        // The stale frame survives the miss (gc's job); a publish under
        // the new version appends a frame that supersedes it.
        bumped.put(&h, &sample());
        bumped.drop_memory();
        assert!(bumped.get(&h).is_some());
        let s = stats(&dir).unwrap();
        assert_eq!((s.records, s.superseded), (1, 1), "{:?}", s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_evicted_and_recovers_on_next_put() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"k();");
        cache.put(&h, &sample());
        let path = cache.record_path(&h);
        // Bit-flip the stored record.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = FRAME_HEADER + (bytes.len() - FRAME_HEADER) / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        cache.drop_memory();
        assert!(cache.get(&h).is_none());
        assert!(
            !cache.log(&h).index.contains_key(&key_of(&h)),
            "damaged frame must leave the index"
        );
        cache.put(&h, &sample());
        cache.drop_memory();
        assert_eq!(*cache.get(&h).unwrap(), sample());
        assert_eq!(*open(&dir).get(&h).unwrap(), sample(), "the new frame wins on replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_publish_failure_is_retried_then_succeeds() {
        let dir = scratch();
        let cache = open(&dir);
        // First attempt fails, first retry succeeds.
        cache.set_publish_injector(Some(Box::new(|attempt| attempt == 0)));
        let h = ContentHash::of(b"retry();");
        cache.put(&h, &sample());
        cache.drop_memory();
        assert_eq!(*cache.get(&h).unwrap(), sample(), "record must land despite one failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_publish_failure_gives_up_after_bounded_retries() {
        let dir = scratch();
        let cache = open(&dir);
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        cache.set_publish_injector(Some(Box::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            true
        })));
        let h = ContentHash::of(b"never();");
        cache.put(&h, &sample());
        assert_eq!(
            attempts.load(Ordering::Relaxed),
            1 + PUBLISH_RETRIES,
            "put must stop after the bounded retry budget"
        );
        cache.drop_memory();
        assert!(cache.get(&h).is_none(), "nothing may be published");
        // Clearing the injector restores normal publishing.
        cache.set_publish_injector(None);
        cache.put(&h, &sample());
        assert!(cache.get(&h).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readonly_cache_reads_but_never_writes() {
        let dir = scratch();
        let rw = open(&dir);
        let h = ContentHash::of(b"m();");
        rw.put(&h, &sample());
        let before = listing(&dir);
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.readonly = true;
        let ro = AnalysisCache::open(cfg).unwrap();
        assert!(ro.get(&h).is_some());
        for i in 0..32 {
            ro.put(&ContentHash::of(format!("n{}();", i).as_bytes()), &sample());
        }
        assert_eq!(listing(&dir), before, "a readonly cache must not write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readonly_open_tolerates_missing_directory() {
        let dir = scratch().join("never-created");
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.readonly = true;
        let ro = AnalysisCache::open(cfg).unwrap();
        assert!(ro.get(&ContentHash::of(b"x")).is_none());
        assert!(!dir.exists());
    }

    #[test]
    fn preset_tags_are_stable_and_collision_free() {
        assert_eq!(preset_tag(&Limits::wild()), "wild");
        assert_eq!(preset_tag(&Limits::trusted()), "trusted");
        assert_eq!(preset_tag(&Limits::interactive()), "interactive");
        assert_eq!(preset_tag(&Limits::unbounded()), "unbounded");
        let custom_a = Limits { max_tokens: 123, ..Limits::wild() };
        let custom_b = Limits { max_tokens: 124, ..Limits::wild() };
        let tag_a = preset_tag(&custom_a);
        assert!(tag_a.starts_with("custom-"), "{}", tag_a);
        assert_eq!(tag_a, preset_tag(&custom_a.clone()));
        assert_ne!(tag_a, preset_tag(&custom_b));
    }

    #[test]
    fn concurrent_writers_on_one_key_converge() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"r();");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..16 {
                        cache.put(&h, &sample());
                        if let Some(rec) = cache.get(&h) {
                            assert_eq!(*rec, sample());
                        }
                    }
                });
            }
        });
        assert_eq!(*cache.get(&h).unwrap(), sample());
        assert_eq!(*open(&dir).get(&h).unwrap(), sample());
        assert!(verify(&dir).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
