//! The append-only log container: log naming, the frame layout, and the
//! resynchronising frame scanner that lookups and maintenance share.
//!
//! A store holds [`N_SHARDS`] logs per limits preset,
//! `<dir>/<h>-<preset>.jdl`, where `h` is the first hex digit of the
//! content hash. Each log is a sequence of frames (integers
//! little-endian):
//!
//! ```text
//! len     u32   byte length of the record that follows
//! key     16    the content hash prefix the record is filed under
//! record  len   one record in the `record` module's layout (starts with MAGIC)
//! ```
//!
//! The scanner indexes a log through a bounded read window without decoding
//! or keeping record bodies: it follows the length chain and accepts a
//! frame only when its end is the end of the log or the start of another
//! frame (a header followed by the record magic). A frame that breaks the
//! chain — torn by a crash, cut short, or with a damaged length field — is
//! reported as one damaged span, and scanning resumes at the next record
//! magic, so damage never hides the intact frames behind it. Spans are only *located* here; every
//! span still goes through the record checksum before anything trusts it.

use crate::blake::ContentHash;
use crate::record::MAGIC;
use std::fs::File;
use std::os::unix::fs::FileExt;

/// Number of logs per preset, keyed by the first hex digit of the hash.
pub const N_SHARDS: usize = 16;

/// File extension of store logs.
const LOG_EXT: &str = "jdl";

/// Bytes before the record in every frame: length plus key.
pub(crate) const FRAME_HEADER: usize = 4 + ContentHash::PREFIX_LEN;

/// Smallest record `decode` can accept (fixed prefix plus checksum).
const MIN_RECORD_LEN: u32 = 18;

/// Largest record a frame may hold; a length field above it is damage.
const MAX_RECORD_LEN: u32 = 1 << 26;

/// Bytes the scanner reads per positioned read.
const CHUNK: usize = 128 * 1024;

/// The index key of a record: its content hash prefix.
pub(crate) type Key = [u8; ContentHash::PREFIX_LEN];

/// The key `hash` is filed under.
pub(crate) fn key_of(hash: &ContentHash) -> Key {
    hash.0[..ContentHash::PREFIX_LEN].try_into().expect("prefix length")
}

/// The log (`0..N_SHARDS`) that holds `hash`.
pub(crate) fn log_index(hash: &ContentHash) -> usize {
    usize::from(hash.0[0] >> 4)
}

/// File name of log `index` for `preset`.
pub(crate) fn log_name(index: usize, preset: &str) -> String {
    format!("{:x}-{}.{}", index, preset, LOG_EXT)
}

/// Splits a log file name into its `(log index, preset tag)`, or `None`
/// when the name is not a store log.
pub(crate) fn parse_log_name(name: &str) -> Option<(usize, &str)> {
    let stem = name.strip_suffix(LOG_EXT)?.strip_suffix('.')?;
    let (digit, preset) = stem.split_once('-')?;
    if digit.len() != 1 || preset.is_empty() {
        return None;
    }
    Some((usize::from_str_radix(digit, 16).ok()?, preset))
}

/// One frame, ready for a single append: header plus `record`.
pub(crate) fn frame(hash: &ContentHash, record: &[u8]) -> Option<Vec<u8>> {
    let len = u32::try_from(record.len()).ok().filter(|&n| n <= MAX_RECORD_LEN)?;
    let mut out = Vec::with_capacity(FRAME_HEADER + record.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&key_of(hash));
    out.extend_from_slice(record);
    Some(out)
}

/// Where one frame's record sits in a log, as far as the scanner can tell.
/// Damaged spans carry the key from their header; `decode` decides whether
/// the bytes are a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// The key from the frame header.
    pub key: Key,
    /// Offset of the record's first byte.
    pub offset: u64,
    /// Record length (for a damaged span, the bytes up to the next frame).
    pub len: u32,
}

impl Span {
    /// Reads this span's bytes. A span that runs past the end of the log
    /// (a frame cut short) is an error.
    pub(crate) fn read(&self, file: &File) -> std::io::Result<Vec<u8>> {
        let mut buf = vec![0; self.len as usize];
        file.read_exact_at(&mut buf, self.offset)?;
        Ok(buf)
    }
}

/// A bounded read window over one log.
struct Window<'f> {
    file: &'f File,
    end: u64,
    base: u64,
    buf: Vec<u8>,
}

impl Window<'_> {
    /// The `n` bytes at `at` (`n <= CHUNK`), or `None` past the end.
    fn get(&mut self, at: u64, n: usize) -> std::io::Result<Option<&[u8]>> {
        if at + n as u64 > self.end {
            return Ok(None);
        }
        if at < self.base || at + n as u64 > self.base + self.buf.len() as u64 {
            let want = (self.end - at).min(CHUNK as u64) as usize;
            self.buf.resize(want.max(n), 0);
            self.file.read_exact_at(&mut self.buf, at)?;
            self.base = at;
        }
        let start = (at - self.base) as usize;
        Ok(Some(&self.buf[start..start + n]))
    }

    /// Whether a frame starts at `at`: a header followed by the magic.
    fn frame_starts(&mut self, at: u64) -> std::io::Result<bool> {
        let magic = self.get(at + FRAME_HEADER as u64, MAGIC.len())?;
        Ok(magic == Some(&MAGIC[..]))
    }

    /// The first record magic at or after `at`.
    fn find_magic(&mut self, mut at: u64) -> std::io::Result<Option<u64>> {
        let m = MAGIC.len();
        while at + m as u64 <= self.end {
            let n = (self.end - at).min(CHUNK as u64) as usize;
            let bytes = self.get(at, n)?.expect("range checked above");
            if let Some(i) = bytes.windows(m).position(|w| w == MAGIC) {
                return Ok(Some(at + i as u64));
            }
            // Overlap by `m - 1` so a magic across chunks is not missed.
            at += (n - (m - 1)) as u64;
        }
        Ok(None)
    }
}

/// Scans `file` from `from` (a frame start) to `end`, calling `visit` for
/// every span in log order. Returns where a later scan must resume: `end`,
/// or the start of a trailing frame that is still incomplete (cut short by
/// a crash or still being written).
pub(crate) fn scan(
    file: &File,
    from: u64,
    end: u64,
    mut visit: impl FnMut(Span),
) -> std::io::Result<u64> {
    let head = FRAME_HEADER as u64;
    let mut w = Window { file, end, base: 0, buf: Vec::new() };
    let mut pos = from;
    loop {
        let Some(header) = w.get(pos, FRAME_HEADER)? else {
            return Ok(pos);
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
        let key: Key = header[4..].try_into().expect("key-sized slice");
        let plausible = (MIN_RECORD_LEN..=MAX_RECORD_LEN).contains(&len);
        let next = pos + head + u64::from(len);
        // The chain holds when the frame ends at the log's end, where a
        // later frame starts, or inside a next header still being written.
        let chained = next == end
            || (next < end && next + head + MAGIC.len() as u64 > end)
            || w.frame_starts(next)?;
        if plausible && chained {
            visit(Span { key, offset: pos + head, len });
            pos = next;
            continue;
        }
        match w.find_magic(pos + head + 1)? {
            Some(magic) => {
                // Intact frames resume at `resume`. Trust the length field
                // if the frame it describes fits before them (the damage
                // is behind this frame); otherwise the record is whatever
                // lies between.
                let resume = magic - head;
                if resume > pos + head {
                    let region = resume - pos - head;
                    let len = if plausible && next <= resume { len } else { clamp(region) };
                    visit(Span { key, offset: pos + head, len });
                }
                pos = resume;
            }
            None if plausible && next > end => {
                visit(Span { key, offset: pos + head, len });
                return Ok(pos);
            }
            None => {
                // Damage up to the end of the log. A frame appended later
                // starts at or after `end`, or is a partial frame whose
                // magic is not written yet, in the last header's width.
                if end > pos + head {
                    visit(Span { key, offset: pos + head, len: clamp(end - pos - head) });
                }
                return Ok((pos + 1).max(end.saturating_sub(head + MAGIC.len() as u64 - 1)));
            }
        }
    }
}

fn clamp(n: u64) -> u32 {
    n.min(u64::from(MAX_RECORD_LEN)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicU32, Ordering};

    static SEQ: AtomicU32 = AtomicU32::new(0);

    /// A record-shaped body: the magic, filler, and no checksum (the
    /// scanner never checks one).
    fn body(tag: u8, len: usize) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.resize(len, tag);
        b
    }

    fn log_of(bytes: &[u8]) -> (File, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "jsdetect-log-scan-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        (File::open(&path).unwrap(), path)
    }

    fn spans(bytes: &[u8]) -> (Vec<Span>, u64) {
        let (file, path) = log_of(bytes);
        let mut out = Vec::new();
        let resume = scan(&file, 0, bytes.len() as u64, |s| out.push(s)).unwrap();
        let _ = std::fs::remove_file(path);
        (out, resume)
    }

    fn hash(i: u8) -> ContentHash {
        ContentHash::of(&[i])
    }

    #[test]
    fn log_names_roundtrip() {
        assert_eq!(log_name(10, "wild"), "a-wild.jdl");
        assert_eq!(parse_log_name("a-wild.jdl"), Some((10, "wild")));
        assert_eq!(parse_log_name("f-custom-0123abcd.jdl"), Some((15, "custom-0123abcd")));
        assert_eq!(parse_log_name("ab-wild.jdl"), None);
        assert_eq!(parse_log_name("a-.jdl"), None);
        assert_eq!(parse_log_name("a-wild.jdc"), None);
        assert!(log_index(&hash(1)) < N_SHARDS);
    }

    #[test]
    fn clean_log_yields_every_frame() {
        let mut log = Vec::new();
        for i in 0..5u8 {
            log.extend(frame(&hash(i), &body(i, 40 + i as usize)).unwrap());
        }
        let (found, resume) = spans(&log);
        assert_eq!(resume, log.len() as u64);
        let keys: Vec<Key> = found.iter().map(|s| s.key).collect();
        assert_eq!(keys, (0..5).map(|i| key_of(&hash(i))).collect::<Vec<_>>());
        assert!(found.iter().enumerate().all(|(i, s)| s.len == 40 + i as u32));
    }

    #[test]
    fn damaged_length_does_not_hide_later_frames() {
        let frames: Vec<Vec<u8>> =
            (0..4u8).map(|i| frame(&hash(i), &body(i, 64)).unwrap()).collect();
        for bad in [0u32, 7, 1000, u32::MAX] {
            let mut log = frames.concat();
            let at = frames[0].len();
            log[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            let (found, resume) = spans(&log);
            assert_eq!(resume, log.len() as u64, "len {}", bad);
            let keys: Vec<Key> = found.iter().map(|s| s.key).collect();
            assert_eq!(keys, (0..4).map(|i| key_of(&hash(i))).collect::<Vec<_>>(), "len {}", bad);
            // The record between the damaged header and the next frame is
            // still located exactly.
            assert_eq!(found[1].len, 64, "len {}", bad);
        }
    }

    #[test]
    fn torn_frame_followed_by_appends_resyncs() {
        let a = frame(&hash(0), &body(0, 64)).unwrap();
        let torn = frame(&hash(1), &body(1, 64)).unwrap();
        let c = frame(&hash(2), &body(2, 64)).unwrap();
        let log = [&a[..], &torn[..30], &c[..]].concat();
        let (found, _) = spans(&log);
        let keys: Vec<Key> = found.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec![key_of(&hash(0)), key_of(&hash(1)), key_of(&hash(2))]);
        assert_eq!(found[1].len, 10, "the torn span covers only what was written");
        assert_eq!(found[2].len, 64);
    }

    #[test]
    fn incomplete_tail_is_reported_and_resumed() {
        let a = frame(&hash(0), &body(0, 64)).unwrap();
        let b = frame(&hash(1), &body(1, 64)).unwrap();
        for cut in [1, 10, FRAME_HEADER, FRAME_HEADER + 2, FRAME_HEADER + 30] {
            let log = [&a[..], &b[..cut]].concat();
            let (found, resume) = spans(&log);
            assert_eq!(resume, a.len() as u64, "cut {}", cut);
            assert_eq!(found[0].key, key_of(&hash(0)));
        }
    }
}
