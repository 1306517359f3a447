//! Integration tests pinning the analysis cache's contract: a warm rescan
//! replays verdicts and vectors *bit-identically*, version changes
//! invalidate observably, and on-disk damage degrades to recomputation —
//! never to a failed batch or a wrong answer.

use jsdetect_suite::cache::{AnalysisCache, CacheConfig, CacheRecord, ContentHash};
use jsdetect_suite::detector::{analyze_many_opt_cached, AnalysisConfig};
use jsdetect_suite::features::{FeatureConfig, FeaturePayload, VectorSpace};
use jsdetect_suite::guard::OutcomeKind;
use jsdetect_suite::obs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Barrier, Mutex};

/// The telemetry registry is process-global; tests that enable/reset it
/// must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn scratch() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "jsdetect-cache-it-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The committed fixture corpus (the same files CI scans).
fn fixture_sources() -> Vec<(String, String)> {
    let dir = std::path::Path::new("examples/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/corpus fixture directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "js"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "fixture corpus unexpectedly small: {:?}", entries);
    entries
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("fixture readable");
            (p.display().to_string(), src)
        })
        .collect()
}

fn open(dir: &std::path::Path, config: &AnalysisConfig) -> AnalysisCache {
    AnalysisCache::open(CacheConfig::new(dir, &config.limits)).expect("open cache")
}

/// Scans `srcs` through a fresh registry window and returns the results
/// plus the cache counters observed during the scan.
fn counted_scan(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: &AnalysisCache,
) -> (Vec<jsdetect_suite::detector::CachedScript>, u64, u64, u64, u64) {
    obs::set_enabled(true);
    obs::reset();
    let results = analyze_many_opt_cached(srcs, config, Some(cache));
    let snap = obs::snapshot();
    obs::set_enabled(false);
    (
        results,
        snap.counter("cache/hit"),
        snap.counter("cache/miss"),
        snap.counter("cache/stale_version"),
        snap.counter("cache/corrupt_evicted"),
    )
}

#[test]
fn warm_rescan_is_bit_identical_to_cold_over_the_fixture_corpus() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();

    let (cold, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(hits, 0);
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, 0);
    assert_eq!(corrupt, 0);
    assert!(cold.iter().all(|c| !c.from_cache));

    // A fresh handle: in-memory LRU cold, everything must come off disk.
    let (warm, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(hits, srcs.len() as u64, "100% hit rate expected on the second pass");
    assert_eq!(misses, 0);
    assert_eq!(stale, 0);
    assert_eq!(corrupt, 0);
    assert!(warm.iter().all(|c| c.from_cache));

    // Outcomes and payloads replay exactly; vectors are bit-identical in
    // any space fitted over the corpus.
    let fresh = analyze_many_opt_cached(&srcs, &config, None);
    let space = VectorSpace::fit(
        fresh.iter().filter_map(|f| f.payload.as_ref()),
        120,
        FeatureConfig::default(),
    );
    for ((c, w), f) in cold.iter().zip(&warm).zip(&fresh) {
        assert_eq!(c.outcome, OutcomeKind::Ok);
        assert_eq!(c.outcome, w.outcome);
        assert_eq!(c.outcome, f.outcome);
        assert_eq!(c.payload, w.payload);
        assert_eq!(c.payload, f.payload);
        let v = f.vectorize(&space).expect("ok scripts carry a payload");
        assert_eq!(c.vectorize(&space).as_deref(), Some(v.as_slice()));
        assert_eq!(w.vectorize(&space).as_deref(), Some(v.as_slice()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feature_space_version_bump_forces_observable_stale_misses() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();
    counted_scan(&srcs, &config, &open(&dir, &config));

    // Same store, bumped feature-space version: every lookup must be a
    // stale miss (recorded under cache/stale_version), then republish.
    let mut bumped_cfg = CacheConfig::new(&dir, &config.limits);
    bumped_cfg.feature_version += 1;
    let bumped = AnalysisCache::open(bumped_cfg.clone()).expect("open cache");
    let (results, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &bumped);
    assert_eq!(hits, 0);
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, srcs.len() as u64, "each record must be observed as stale");
    assert_eq!(corrupt, 0);
    assert!(results.iter().all(|c| !c.from_cache));

    // The republished records now serve the bumped version...
    let bumped2 = AnalysisCache::open(bumped_cfg).expect("open cache");
    let (_, hits, misses, _, _) = counted_scan(&srcs, &config, &bumped2);
    assert_eq!(hits, srcs.len() as u64);
    assert_eq!(misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
// The constant comparison is the point: pin that the version the cache
// keys by is the one the normalization-delta block shipped in.
#[allow(clippy::assertions_on_constants)]
fn the_current_feature_space_bump_invalidates_previous_era_records() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();

    // Pin that the bump actually shipped end to end: the default cache
    // keys records under the current feature-space version, and that
    // version covers the normalization-delta block (v3+).
    assert_eq!(
        CacheConfig::new(&dir, &config.limits).feature_version,
        jsdetect_suite::features::FEATURE_SPACE_VERSION,
        "cache must key records under the live feature-space version"
    );
    assert!(
        jsdetect_suite::features::FEATURE_SPACE_VERSION >= 3,
        "normalization deltas shipped in feature-space v3"
    );

    // Populate the store the way a session from the previous feature
    // era would have (one version behind the live constant).
    let mut old_cfg = CacheConfig::new(&dir, &config.limits);
    old_cfg.feature_version -= 1;
    let old = AnalysisCache::open(old_cfg).expect("open cache");
    counted_scan(&srcs, &config, &old);

    // A default-configured session over the same store must observe
    // every previous-era record as a stale miss — never replay it.
    let (results, hits, misses, stale, corrupt) =
        counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(hits, 0, "previous-era records must never replay");
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, srcs.len() as u64, "each record must surface under cache/stale_version");
    assert_eq!(corrupt, 0);
    assert!(results.iter().all(|c| !c.from_cache));

    // The rescan republished under the live version: warm from here on.
    let (_, hits, misses, _, _) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preset_change_forces_plain_misses_not_cross_replay() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let wild = AnalysisConfig::default();
    let dir = scratch();
    counted_scan(&srcs, &wild, &open(&dir, &wild));

    // Same store, trusted limits: records exist only under the wild
    // preset, so every lookup is a plain miss (no stale, no corrupt).
    let trusted = AnalysisConfig::trusted();
    let (results, hits, misses, stale, corrupt) =
        counted_scan(&srcs, &trusted, &open(&dir, &trusted));
    assert_eq!(hits, 0);
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, 0);
    assert_eq!(corrupt, 0);
    assert!(results.iter().all(|c| !c.from_cache));

    // Both presets now coexist and each replays its own verdicts.
    let (_, hits, misses, _, _) = counted_scan(&srcs, &wild, &open(&dir, &wild));
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    let (_, hits, misses, _, _) = counted_scan(&srcs, &trusted, &open(&dir, &trusted));
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The frames of one log as `(key, frame start, frame end)`, read by
/// walking the documented frame layout (`len u32 | 16-byte key | record`)
/// of an undamaged log.
fn frames_of(log: &Path) -> Vec<([u8; 16], usize, usize)> {
    let bytes = std::fs::read(log).expect("log readable");
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let key: [u8; 16] = bytes[pos + 4..pos + 20].try_into().unwrap();
        out.push((key, pos, pos + 20 + len));
        pos += 20 + len;
    }
    assert_eq!(pos, bytes.len(), "undamaged log must end on a frame boundary");
    out
}

fn key(hash: &ContentHash) -> [u8; 16] {
    hash.0[..16].try_into().unwrap()
}

#[test]
fn corrupted_records_are_evicted_recomputed_and_rewritten() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    assert!(srcs.len() >= 3, "need three records to damage three ways");
    let config = AnalysisConfig::default();
    let dir = scratch();
    let store = open(&dir, &config);
    let (cold, ..) = counted_scan(&srcs, &config, &store);

    // Damage three frames three different ways. Cut a log short in the
    // middle of its last frame (a crash mid-append)...
    let cut_log = store.record_path(&cold[0].hash);
    let (cut_key, start, end) = *frames_of(&cut_log).last().unwrap();
    let bytes = std::fs::read(&cut_log).unwrap();
    std::fs::write(&cut_log, &bytes[..(start + end) / 2]).unwrap();
    let others: Vec<&ContentHash> =
        cold.iter().map(|c| &c.hash).filter(|h| key(h) != cut_key).take(2).collect();
    let frame_of = |hash: &ContentHash| {
        let log = store.record_path(hash);
        let (_, start, end) =
            frames_of(&log).into_iter().find(|(k, ..)| *k == key(hash)).expect("frame present");
        (log, start, end)
    };
    // ...flip one byte inside another frame's record...
    let (log, start, end) = frame_of(others[0]);
    let mut flipped = std::fs::read(&log).unwrap();
    flipped[(start + 20 + end) / 2] ^= 0x01;
    std::fs::write(&log, &flipped).unwrap();
    // ...and zero a third frame's record in place.
    let (log, start, end) = frame_of(others[1]);
    let mut zeroed = std::fs::read(&log).unwrap();
    zeroed[start + 20..end].fill(0);
    std::fs::write(&log, &zeroed).unwrap();

    // The rescan still succeeds, evicts all three, and recomputes.
    let (warm, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(corrupt, 3, "each damaged record must count one eviction");
    assert_eq!(stale, 0);
    assert_eq!(misses, 3);
    assert_eq!(hits, srcs.len() as u64 - 3);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.outcome, w.outcome);
        assert_eq!(c.payload, w.payload, "recomputed payloads must match the originals");
    }

    // The recomputed frames supersede the damaged ones: a third pass is
    // all hits and the store verifies clean.
    let (_, hits, misses, _, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!((hits, misses, corrupt), (srcs.len() as u64, 0, 0));
    let report = jsdetect_suite::cache::verify(&dir).expect("verify walk");
    assert!(report.is_clean(), "corrupt after repair: {:?}", report.corrupt);
    assert_eq!(report.ok, srcs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A distinct record per index, so a replay of the wrong frame shows.
fn record(i: usize) -> CacheRecord {
    CacheRecord {
        outcome: OutcomeKind::Degraded,
        error_kind: format!("kind-{}", i),
        error_msg: "x".repeat(i % 97),
        payload: Some(FeaturePayload {
            handpicked: vec![i as f32, 0.5],
            lint: vec![],
            normalize: vec![1.0],
            ngrams: (0..i % 13).map(|g| ([g as u8, 1, 2, 3], i as u32)).collect(),
            degraded: true,
        }),
    }
}

fn script_hash(i: usize) -> ContentHash {
    ContentHash::of(format!("script({});", i).as_bytes())
}

fn wild_store(dir: &Path) -> AnalysisCache {
    AnalysisCache::open(CacheConfig::new(dir, &AnalysisConfig::default().limits)).expect("open")
}

#[test]
fn torn_frame_followed_by_later_appends_keeps_every_later_frame() {
    let _g = locked();
    let dir = scratch();
    let first = wild_store(&dir);
    for i in 0..40 {
        first.put(&script_hash(i), &record(i));
    }
    let log = first.record_path(&script_hash(0));
    // The first half of a frame for a new script, as a crash mid-append
    // leaves it (copied from a store that holds only that frame).
    let torn_hash = (1000..).map(script_hash).find(|h| first.record_path(h) == log).unwrap();
    let solo = scratch();
    wild_store(&solo).put(&torn_hash, &record(1000));
    let frame = std::fs::read(wild_store(&solo).record_path(&torn_hash)).unwrap();
    let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
    f.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(f);

    // A restarted writer keeps appending, to the torn log among others.
    let later: Vec<usize> = (40..400).collect();
    let second = wild_store(&dir);
    for &i in &later {
        second.put(&script_hash(i), &record(i));
    }
    assert!(
        later.iter().filter(|&&i| second.record_path(&script_hash(i)) == log).count() >= 5,
        "the torn log must receive later frames"
    );

    // Every frame before and after the tear replays; the torn one misses.
    let fresh = wild_store(&dir);
    for i in (0..40).chain(later.iter().copied()) {
        assert_eq!(fresh.get(&script_hash(i)).as_deref(), Some(&record(i)), "script {}", i);
    }
    assert!(fresh.get(&torn_hash).is_none());
    let report = jsdetect_suite::cache::verify(&dir).expect("verify");
    assert_eq!(report.ok, 400);
    assert_eq!(report.corrupt.len(), 1, "only the torn frame is damage: {:?}", report.corrupt);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&solo);
}

#[test]
fn two_handles_appending_concurrently_lose_no_record() {
    let _g = locked();
    let dir = scratch();
    let handles = [wild_store(&dir), wild_store(&dir)];
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (t, store) in handles.iter().enumerate() {
            let start = &start;
            s.spawn(move || {
                start.wait();
                // Disjoint scripts per handle, plus a shared set both
                // publish (the same verdict, as two scanners would).
                for i in (t * 300..t * 300 + 300).chain(1000..1050) {
                    store.put(&script_hash(i), &record(i));
                }
            });
        }
    });
    let fresh = wild_store(&dir);
    for i in (0..600).chain(1000..1050) {
        assert_eq!(fresh.get(&script_hash(i)).as_deref(), Some(&record(i)), "script {}", i);
    }
    let report = jsdetect_suite::cache::verify(&dir).expect("verify");
    assert!(report.is_clean(), "{:?}", report.corrupt);
    assert_eq!(report.ok, 650);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_appended_after_a_log_was_indexed_is_a_hit() {
    let _g = locked();
    let dir = scratch();
    let writer = wild_store(&dir);
    let reader = wild_store(&dir);
    writer.put(&script_hash(0), &record(0));
    // The reader indexes the log now...
    assert_eq!(reader.get(&script_hash(0)).as_deref(), Some(&record(0)));
    let log = reader.record_path(&script_hash(0));
    let later = (1..).find(|&i| reader.record_path(&script_hash(i)) == log).unwrap();
    assert!(reader.get(&script_hash(later)).is_none());
    // ...and sees what another handle appended afterwards.
    writer.put(&script_hash(later), &record(later));
    assert_eq!(reader.get(&script_hash(later)).as_deref(), Some(&record(later)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small deterministic generator (SplitMix64) for the mutation test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random truncation, splice, duplication or bit flip of `log`.
fn mutate(log: &mut Vec<u8>, rng: &mut Rng) {
    let n = log.len();
    match rng.below(5) {
        0 => log.truncate(rng.below(n + 1)),
        1 => {
            // Splice a random slice of the log in at a random position.
            let from = rng.below(n + 1);
            let piece = log[from..(from + rng.below(200)).min(n)].to_vec();
            let at = rng.below(n + 1);
            log.splice(at..at, piece);
        }
        2 => {
            // Duplicate a random range in place.
            let from = rng.below(n + 1);
            let to = (from + rng.below(400)).min(n);
            let piece = log[from..to].to_vec();
            log.splice(to..to, piece);
        }
        3 => {
            // Cut a random range out.
            let from = rng.below(n + 1);
            let to = (from + rng.below(100)).min(n);
            log.drain(from..to);
        }
        _ => {
            if n > 0 {
                log[rng.below(n)] ^= 1 << rng.below(8);
            }
        }
    }
}

#[test]
fn log_mutations_never_panic_and_never_serve_a_wrong_record() {
    let _g = locked();
    const ITERS: usize = 300;
    let base = scratch();
    let seed = wild_store(&base);
    let n = 48;
    for i in 0..n {
        seed.put(&script_hash(i), &record(i));
    }
    seed.put(&script_hash(0), &record(0)); // a superseded frame too
                                           // Mutate the busiest log; the rest of the store stays intact.
    let log = (0..n)
        .map(|i| seed.record_path(&script_hash(i)))
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .unwrap();
    let original = std::fs::read(&log).unwrap();
    let dir = scratch();
    let check_gets = |store: &AnalysisCache, round: usize| {
        for i in 0..n {
            if let Some(got) = store.get(&script_hash(i)) {
                assert_eq!(*got, record(i), "round {}: wrong record for script {}", round, i);
            }
        }
    };
    let mut rng = Rng(0x6A64_6C6F_6766_757A);
    for round in 0..ITERS {
        let mut bytes = original.clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut bytes, &mut rng);
        }
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&base).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        std::fs::write(dir.join(log.file_name().unwrap()), &bytes).unwrap();

        let store = wild_store(&dir);
        check_gets(&store, round);
        // Recompute-and-append on top of the damage, then replay.
        for i in 0..n {
            if store.get(&script_hash(i)).is_none() {
                store.put(&script_hash(i), &record(i));
            }
        }
        check_gets(&wild_store(&dir), round);
        let _ = jsdetect_suite::cache::stats(&dir);
        let _ = jsdetect_suite::cache::verify(&dir);
        let _ = jsdetect_suite::cache::gc(&dir, jsdetect_suite::features::FEATURE_SPACE_VERSION);
        check_gets(&wild_store(&dir), round);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn readonly_mode_replays_hits_but_never_writes() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();

    // Cold scan in readonly mode: misses compute but publish nothing.
    let mut ro_cfg = CacheConfig::new(&dir, &config.limits);
    ro_cfg.readonly = true;
    let ro = AnalysisCache::open(ro_cfg.clone()).expect("open cache");
    let (results, hits, misses, _, _) = counted_scan(&srcs, &config, &ro);
    assert_eq!((hits, misses), (0, srcs.len() as u64));
    assert!(results.iter().all(|c| !c.from_cache));
    assert_eq!(jsdetect_suite::cache::stats(&dir).expect("stats").records, 0);

    // Seed read-write, then readonly replays every verdict.
    counted_scan(&srcs, &config, &open(&dir, &config));
    let ro = AnalysisCache::open(ro_cfg).expect("open cache");
    let (results, hits, misses, _, _) = counted_scan(&srcs, &config, &ro);
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    assert!(results.iter().all(|c| c.from_cache));
    let _ = std::fs::remove_dir_all(&dir);
}
