//! Packed code streams and the cross-request encode memo — the
//! representation layer of encode-once execution.
//!
//! A LUT-GEMM code is an index into `c` centroids, yet the engine
//! historically carried every code as a full `u16`. [`PackedCodes`] stores
//! a batch of code rows at the minimal width for the centroid count
//! ([`CodeWidth`]: 4-bit nibbles for `c ≤ 16`, bytes for `c ≤ 256`, `u16`
//! otherwise) in fixed-size row blocks padded to a 32-byte multiple — the
//! cache-line-conscious record discipline that keeps one row's codes in a
//! predictable, constant-stride block. The engine's lookup loops stream
//! the packed form directly (see `LutEngine::run_from_packed`), and the
//! fixed-size row block doubles as the value stored by the cross-request
//! [`EncodeMemo`].
//!
//! The memo fronts the encode phase on the serving path: a bounded,
//! sharded map from the bit pattern of a quantized input row to its packed
//! code block. Encoding is the expensive similarity walk; for duplicate or
//! hot rows the memo replaces it with a hash probe plus a ≤ 32·`k`-bit
//! copy. All counters (hit/miss/evict) are lock-free atomics so the
//! serving layer can surface them through `StageStats` without touching
//! the shard locks.
//!
//! This module is on the lint panic-discipline hot-path list: lookups and
//! packs run inside serving flushes, so nothing here may panic on
//! malformed sizes — callers get structural errors from the engine's
//! validation instead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Storage width of one packed code, chosen from the centroid count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeWidth {
    /// 4-bit nibbles, two codes per byte (`c ≤ 16`).
    W4,
    /// One byte per code (`c ≤ 256`).
    W8,
    /// Little-endian `u16` per code (fallback for `c > 256`).
    W16,
}

impl CodeWidth {
    /// The minimal width able to store codes `0..c`.
    pub fn for_centroids(c: usize) -> CodeWidth {
        if c <= 16 {
            CodeWidth::W4
        } else if c <= 256 {
            CodeWidth::W8
        } else {
            CodeWidth::W16
        }
    }

    /// Bits per stored code.
    pub fn bits(self) -> usize {
        match self {
            CodeWidth::W4 => 4,
            CodeWidth::W8 => 8,
            CodeWidth::W16 => 16,
        }
    }

    /// One past the largest code this width can represent.
    pub fn capacity(self) -> usize {
        1usize << self.bits()
    }

    /// Bytes needed for `n_sub` codes at this width, before row padding.
    pub fn packed_bytes(self, n_sub: usize) -> usize {
        match self {
            CodeWidth::W4 => n_sub.div_ceil(2),
            CodeWidth::W8 => n_sub,
            CodeWidth::W16 => n_sub * 2,
        }
    }
}

/// Row blocks are padded to a multiple of this (micro-blossom's 32-byte
/// record discipline): every row starts at a fixed, predictable offset and
/// short rows don't share their tail bytes with the next row.
pub const ROW_BLOCK_ALIGN: usize = 32;

/// A batch of encoded rows stored at minimal code width in fixed-stride,
/// 32-byte-aligned row blocks.
///
/// Layout: row `r` occupies `bytes[r·row_stride .. (r+1)·row_stride]`;
/// within the row, code `s` lives at nibble/byte/word `s` depending on
/// [`CodeWidth`]. Padding bytes (and the high nibble of an odd-`n_sub`
/// [`CodeWidth::W4`] row) are zero for freshly packed streams, but
/// consumers never read them — which is what lets one row block serve as a
/// self-contained memo value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCodes {
    bytes: Vec<u8>,
    width: CodeWidth,
    rows: usize,
    n_sub: usize,
    row_stride: usize,
}

/// Fixed row stride in bytes for `n_sub` codes at `width`.
pub fn row_stride(n_sub: usize, width: CodeWidth) -> usize {
    width
        .packed_bytes(n_sub)
        .next_multiple_of(ROW_BLOCK_ALIGN)
        .max(ROW_BLOCK_ALIGN)
}

/// Packs one row of codes into `dst` (`dst.len() ≥ packed_bytes`). Codes
/// are masked to the width; callers guarantee they fit (the engine encodes
/// `code < c ≤ capacity` by construction, and [`PackedCodes::pack`]
/// asserts it for external streams).
#[inline]
pub(crate) fn pack_row(codes: &[u16], width: CodeWidth, dst: &mut [u8]) {
    match width {
        CodeWidth::W4 => {
            for (pair, byte) in codes.chunks(2).zip(dst.iter_mut()) {
                let lo = (pair[0] & 0xf) as u8;
                let hi = if pair.len() == 2 {
                    (pair[1] & 0xf) as u8
                } else {
                    0
                };
                *byte = lo | (hi << 4);
            }
        }
        CodeWidth::W8 => {
            for (&code, byte) in codes.iter().zip(dst.iter_mut()) {
                *byte = code as u8;
            }
        }
        CodeWidth::W16 => {
            for (&code, pair) in codes.iter().zip(dst.chunks_exact_mut(2)) {
                pair.copy_from_slice(&code.to_le_bytes());
            }
        }
    }
}

/// Decodes code `s` from one packed row block.
#[inline(always)]
pub(crate) fn code_in_row(row: &[u8], s: usize, width: CodeWidth) -> u16 {
    match width {
        CodeWidth::W4 => ((row[s / 2] >> ((s & 1) * 4)) & 0xf) as u16,
        CodeWidth::W8 => row[s] as u16,
        CodeWidth::W16 => u16::from_le_bytes([row[2 * s], row[2 * s + 1]]),
    }
}

impl PackedCodes {
    /// An all-zero stream of `rows × n_sub` codes at `width` (code 0 is
    /// always valid). The engine's encode paths fill this in place.
    pub fn zeroed(rows: usize, n_sub: usize, width: CodeWidth) -> Self {
        let row_stride = row_stride(n_sub, width);
        Self {
            bytes: vec![0u8; rows * row_stride],
            width,
            rows,
            n_sub,
            row_stride,
        }
    }

    /// Packs a row-major `u16` code buffer (`rows × n_sub` entries, the
    /// `ProductQuantizer::encode` layout) into a minimal-width stream.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows · n_sub` or any code exceeds what
    /// `width` can represent — a packed stream silently truncating codes
    /// would corrupt every later lookup.
    pub fn pack(codes: &[u16], rows: usize, n_sub: usize, width: CodeWidth) -> Self {
        assert_eq!(codes.len(), rows * n_sub, "code buffer is not rows × n_sub");
        let cap = width.capacity();
        assert!(
            codes.iter().all(|&code| (code as usize) < cap),
            "code exceeds {}-bit width",
            width.bits()
        );
        let mut packed = Self::zeroed(rows, n_sub, width);
        let stride = packed.row_stride;
        for (r, row_codes) in codes.chunks_exact(n_sub).enumerate() {
            pack_row(
                row_codes,
                width,
                &mut packed.bytes[r * stride..(r + 1) * stride],
            );
        }
        packed
    }

    /// Reconstructs a stream from raw bytes without validating the byte
    /// length against `rows × row_stride` — deliberately, so tests (and
    /// the engine's error paths) can represent truncated or corrupt
    /// streams. `LutEngine::run_from_packed` performs the validation and
    /// reports a structural [`EngineError`](crate::EngineError).
    pub fn from_bytes(bytes: Vec<u8>, rows: usize, n_sub: usize, width: CodeWidth) -> Self {
        let row_stride = row_stride(n_sub, width);
        Self {
            bytes,
            width,
            rows,
            n_sub,
            row_stride,
        }
    }

    /// Number of encoded rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Codes per row (the quantizer's subspace count).
    pub fn n_sub(&self) -> usize {
        self.n_sub
    }

    /// Storage width of each code.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// Bytes from one row's first code to the next row's (32-byte
    /// multiple).
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// The raw packed stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total heap footprint of the stream in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The byte length a well-formed `rows`-row stream must have.
    pub fn expected_bytes(&self) -> usize {
        self.rows * self.row_stride
    }

    /// Mutable raw stream, for the engine's parallel encode+pack.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// One row's fixed-stride block.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or the stream is truncated.
    pub fn row_bytes(&self, row: usize) -> &[u8] {
        &self.bytes[row * self.row_stride..(row + 1) * self.row_stride]
    }

    /// Mutable row block, for per-row memo fills.
    pub(crate) fn row_bytes_mut(&mut self, row: usize) -> &mut [u8] {
        &mut self.bytes[row * self.row_stride..(row + 1) * self.row_stride]
    }

    /// Decodes the code at (`row`, `s`).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range of a well-formed stream.
    #[inline(always)]
    pub fn code(&self, row: usize, s: usize) -> u16 {
        code_in_row(self.row_bytes(row), s, self.width)
    }

    /// Unpacks the whole stream back into the row-major `u16` layout
    /// consumed by `run_from_codes` — the round-trip inverse of
    /// [`PackedCodes::pack`].
    pub fn unpack(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.rows * self.n_sub);
        for r in 0..self.rows {
            let row = self.row_bytes(r);
            for s in 0..self.n_sub {
                out.push(code_in_row(row, s, self.width));
            }
        }
        out
    }
}

/// Shard count of the [`EncodeMemo`]: bounds lock contention when many
/// collector threads front their stages with one memo. Power of two so the
/// shard pick is a mask.
const MEMO_SHARDS: usize = 8;

/// One memoized row: the input row's exact bit pattern (for verification —
/// a 64-bit hash alone could silently alias two rows) plus its packed code
/// block.
struct MemoEntry {
    row_bits: Box<[u32]>,
    packed: Box<[u8]>,
}

/// Snapshot of the memo's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that returned a cached code block (similarity walk skipped).
    pub hits: u64,
    /// Lookups that fell through to the encoder.
    pub misses: u64,
    /// Entries dropped to stay within the row capacity.
    pub evictions: u64,
}

/// A bounded, sharded memo in front of the encode phase: the bit pattern
/// of a quantized input row maps to its [`PackedCodes`] row block, so
/// duplicate or hot rows skip the similarity walk entirely.
///
/// Correctness does not rest on the 64-bit hash: every hit verifies the
/// stored row bits against the probe row, so an aliased hash degrades to a
/// miss (and is overwritten on the next insert), never to wrong codes.
/// Encoding is deterministic for a fixed engine, so a verified hit is
/// bit-identical to re-encoding — the serving path stays exact.
///
/// Eviction is per-shard and arbitrary-victim (whatever the map yields
/// first): the memo is a working-set filter, not an LRU, and the O(1)
/// policy keeps the shard lock hold time flat. Hit/miss/evict counters are
/// atomics, readable without locking via [`EncodeMemo::stats`].
pub struct EncodeMemo {
    shards: Vec<Mutex<HashMap<u64, MemoEntry>>>,
    per_shard_rows: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EncodeMemo {
    /// A memo bounded to roughly `capacity_rows` cached rows (rounded up
    /// to the shard grain; at least one row per shard).
    pub fn new(capacity_rows: usize) -> Self {
        let mut shards = Vec::with_capacity(MEMO_SHARDS);
        shards.resize_with(MEMO_SHARDS, || Mutex::new(HashMap::new()));
        Self {
            shards,
            per_shard_rows: capacity_rows.div_ceil(MEMO_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum rows the memo will hold across all shards.
    pub fn capacity_rows(&self) -> usize {
        self.per_shard_rows * MEMO_SHARDS
    }

    /// Rows currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// Whether the memo holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss/evict counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Probes the memo for `row`'s packed code block. On a verified hit
    /// the block is copied into `dst` (the caller's fixed-stride row
    /// block) and `true` is returned; any mismatch — absent, aliased hash,
    /// or a block length that doesn't match `dst` — counts a miss and
    /// leaves `dst` untouched.
    pub fn lookup(&self, row: &[f32], dst: &mut [u8]) -> bool {
        let h = hash_row(row);
        let shard = lock_shard(&self.shards[(h as usize) & (MEMO_SHARDS - 1)]);
        if let Some(entry) = shard.get(&h) {
            if entry.packed.len() == dst.len() && row_bits_match(&entry.row_bits, row) {
                dst.copy_from_slice(&entry.packed);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Stores `row → packed` (one fixed-stride row block), evicting an
    /// arbitrary same-shard victim if the shard is at capacity.
    pub fn insert(&self, row: &[f32], packed: &[u8]) {
        let h = hash_row(row);
        let mut shard = lock_shard(&self.shards[(h as usize) & (MEMO_SHARDS - 1)]);
        let mut evicted = false;
        if !shard.contains_key(&h) && shard.len() >= self.per_shard_rows {
            if let Some(&victim) = shard.keys().next() {
                shard.remove(&victim);
                evicted = true;
            }
        }
        shard.insert(
            h,
            MemoEntry {
                row_bits: row.iter().map(|v| v.to_bits()).collect(),
                packed: packed.into(),
            },
        );
        drop(shard);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for EncodeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodeMemo")
            .field("capacity_rows", &self.capacity_rows())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Recovers the shard map from a poisoned lock: the memo holds plain data,
/// so a panicking peer (which cannot happen on the panic-free serving
/// path, but the pool is shared with user code) leaves it structurally
/// intact — at worst a half-written insert is overwritten later.
fn lock_shard(
    shard: &Mutex<HashMap<u64, MemoEntry>>,
) -> std::sync::MutexGuard<'_, HashMap<u64, MemoEntry>> {
    shard
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a over the row's f32 bit patterns, finished with a 64-bit
/// avalanche mixer. Bit patterns — not values — so `-0.0`/`0.0` and NaN
/// payloads key distinct entries and a hit implies the exact input bits
/// the cached codes were produced from. The finalizer matters for the
/// shard pick: raw FNV's low bits depend only on the low bits of the
/// inputs (xor-multiply never propagates downward), which skews shard
/// load for structured rows.
fn hash_row(row: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in row {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Exact bit-pattern comparison between a stored key and a probe row.
fn row_bits_match(bits: &[u32], row: &[f32]) -> bool {
    bits.len() == row.len() && bits.iter().zip(row).all(|(&b, v)| b == v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_selection_matches_centroid_count() {
        assert_eq!(CodeWidth::for_centroids(2), CodeWidth::W4);
        assert_eq!(CodeWidth::for_centroids(16), CodeWidth::W4);
        assert_eq!(CodeWidth::for_centroids(17), CodeWidth::W8);
        assert_eq!(CodeWidth::for_centroids(256), CodeWidth::W8);
        assert_eq!(CodeWidth::for_centroids(257), CodeWidth::W16);
        assert_eq!(CodeWidth::W4.capacity(), 16);
        assert_eq!(CodeWidth::W8.capacity(), 256);
        assert_eq!(CodeWidth::W16.capacity(), 65536);
    }

    #[test]
    fn row_blocks_are_32_byte_multiples() {
        for n_sub in [1, 2, 63, 64, 65, 129] {
            for width in [CodeWidth::W4, CodeWidth::W8, CodeWidth::W16] {
                let stride = row_stride(n_sub, width);
                assert_eq!(stride % ROW_BLOCK_ALIGN, 0, "{n_sub} {width:?}");
                assert!(stride >= width.packed_bytes(n_sub));
                assert!(stride < width.packed_bytes(n_sub) + ROW_BLOCK_ALIGN);
            }
        }
    }

    #[test]
    fn pack_unpack_round_trips_all_widths() {
        for (n_sub, c) in [(1, 2), (5, 16), (7, 200), (9, 1000)] {
            let width = CodeWidth::for_centroids(c);
            let rows = 4;
            let codes: Vec<u16> = (0..rows * n_sub).map(|i| (i * 37 % c) as u16).collect();
            let packed = PackedCodes::pack(&codes, rows, n_sub, width);
            assert_eq!(packed.unpack(), codes, "n_sub={n_sub} c={c}");
            for r in 0..rows {
                for s in 0..n_sub {
                    assert_eq!(packed.code(r, s), codes[r * n_sub + s]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 4-bit width")]
    fn pack_rejects_overflowing_codes() {
        let _ = PackedCodes::pack(&[16], 1, 1, CodeWidth::W4);
    }

    #[test]
    fn from_bytes_permits_truncated_streams() {
        let packed = PackedCodes::from_bytes(vec![0u8; 5], 4, 8, CodeWidth::W4);
        assert_eq!(packed.expected_bytes(), 4 * 32);
        assert_eq!(packed.size_bytes(), 5);
    }

    #[test]
    fn memo_hits_verify_and_misses_fall_through() {
        let memo = EncodeMemo::new(64);
        let row = [1.0f32, -2.5, 3.25];
        let block = [7u8; 32];
        let mut dst = [0u8; 32];
        assert!(!memo.lookup(&row, &mut dst), "cold lookup must miss");
        memo.insert(&row, &block);
        assert!(memo.lookup(&row, &mut dst));
        assert_eq!(dst, block);
        // Different row bits (even a sign flip) never alias.
        assert!(!memo.lookup(&[1.0f32, 2.5, 3.25], &mut dst));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 0));
    }

    #[test]
    fn memo_is_bounded_and_counts_evictions() {
        let memo = EncodeMemo::new(1); // 1 row per shard after rounding
        let cap = memo.capacity_rows();
        for i in 0..(cap * 4) {
            memo.insert(&[i as f32], &[i as u8; 32]);
        }
        assert!(memo.len() <= cap, "{} > {cap}", memo.len());
        assert!(memo.stats().evictions > 0);
    }

    #[test]
    fn memo_rejects_mismatched_block_len_as_miss() {
        let memo = EncodeMemo::new(8);
        let row = [4.0f32];
        memo.insert(&row, &[1u8; 32]);
        let mut dst = [0u8; 64];
        assert!(!memo.lookup(&row, &mut dst), "stale stride must miss");
    }
}
