//! BLAKE2s-256 (RFC 7693, unkeyed, sequential mode) — the content hash
//! underneath every cache key.
//!
//! Implemented from the RFC rather than pulled in as a dependency because
//! the workspace builds offline. Only the subset the cache needs is
//! provided: one-shot hashing of a byte slice. Correctness is pinned by
//! the RFC/reference-implementation test vectors below.

/// A 256-bit BLAKE2s digest of one script's source bytes.
///
/// The first [`ContentHash::PREFIX_LEN`] bytes key the record in its log
/// (whose name carries the first hex digit); the full digest is stored
/// inside the record and re-checked on read, so a prefix collision
/// degrades to a cache miss instead of serving the wrong script's
/// features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash(pub [u8; 32]);

impl ContentHash {
    /// Bytes of the digest that key a record in its log (16 bytes = 32 hex
    /// characters).
    pub const PREFIX_LEN: usize = 16;

    /// Hashes `src` with BLAKE2s-256.
    pub fn of(src: &[u8]) -> ContentHash {
        ContentHash(blake2s256(src))
    }

    /// Lower-case hex of the full 32-byte digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(HEX[(b >> 4) as usize]);
            s.push_str(HEX[(b & 0xf) as usize]);
        }
        s
    }
}

const HEX: [&str; 16] =
    ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "a", "b", "c", "d", "e", "f"];

/// SHA-256 initialization vector, shared by BLAKE2s (RFC 7693 §2.6).
const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

/// Message word schedule (RFC 7693 §2.7).
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

#[inline]
fn g(v: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, x: u32, y: u32) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(12);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(8);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(7);
}

/// The compression function F (RFC 7693 §3.2). `t` is the total byte
/// counter *including* this block; `last` marks the final block.
fn compress(h: &mut [u32; 8], block: &[u8; 64], t: u64, last: bool) {
    let mut m = [0u32; 16];
    for (i, w) in m.iter_mut().enumerate() {
        *w = u32::from_le_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    let mut v = [0u32; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u32;
    v[13] ^= (t >> 32) as u32;
    if last {
        v[14] ^= 0xFFFF_FFFF;
    }
    for s in &SIGMA {
        g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
        g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
        g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
        g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
        g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
        g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
        g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
        g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for i in 0..8 {
        h[i] ^= v[i] ^ v[i + 8];
    }
}

/// One-shot BLAKE2s-256 of `data` (no key).
pub fn blake2s256(data: &[u8]) -> [u8; 32] {
    let mut h = IV;
    // Parameter block: digest_length = 32, key_length = 0, fanout = 1,
    // depth = 1 (RFC 7693 §2.5 XOR'd into h[0]).
    h[0] ^= 0x0101_0020;

    let mut t: u64 = 0;
    let n_full = if data.is_empty() { 0 } else { (data.len() - 1) / 64 };
    for chunk in data.chunks(64).take(n_full) {
        let mut block = [0u8; 64];
        block.copy_from_slice(chunk);
        t += 64;
        compress(&mut h, &block, t, false);
    }
    let tail = &data[n_full * 64..];
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    t += tail.len() as u64;
    compress(&mut h, &block, t, true);

    let mut out = [0u8; 32];
    for (i, w) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// 64-bit record checksum: the first 8 bytes of the BLAKE2s digest of the
/// payload, little-endian. Detects truncation and bit flips in on-disk
/// records far more reliably than a length check.
pub fn checksum64(data: &[u8]) -> u64 {
    let d = blake2s256(data);
    u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    #[test]
    fn rfc_vector_empty_input() {
        // BLAKE2s-256("") from the reference implementation's test vectors.
        assert_eq!(
            hex(&blake2s256(b"")),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn rfc_vector_abc() {
        // RFC 7693 Appendix B.
        assert_eq!(
            hex(&blake2s256(b"abc")),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
    }

    #[test]
    fn multi_block_inputs_differ_from_prefixes() {
        // Exercise the full-block loop: 64, 65, 128, 129 bytes.
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in [0, 1, 63, 64, 65, 127, 128, 129, 200] {
            assert!(seen.insert(blake2s256(&data[..len])), "collision at len {}", len);
        }
    }

    #[test]
    fn exact_block_boundary_uses_final_flag() {
        // A 64-byte message must be compressed as one *final* block, not a
        // full block plus an empty final block.
        let a = blake2s256(&[7u8; 64]);
        let b = blake2s256(&[7u8; 65]);
        assert_ne!(a, b);
        assert_ne!(a, blake2s256(&[7u8; 63]));
    }

    #[test]
    fn content_hash_hex_is_full_width() {
        let h = ContentHash::of(b"var x = 1;");
        assert_eq!(h.to_hex().len(), 64);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        assert_ne!(checksum64(b""), 0);
    }
}
