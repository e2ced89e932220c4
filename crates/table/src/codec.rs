//! Pluggable record codecs — the paper's succinct count-table encoding.
//!
//! Motivo's headline memory win (§3.1 and the extended version's "succinct
//! color coding") comes from *not* storing each record entry as a fixed
//! `(u64 key, u128 cumulative count)` pair. Keys within a record are sorted,
//! so consecutive keys are close and their differences fit in a byte or two;
//! per-entry counts are mostly tiny. [`RecordCodec`] names the two
//! representations a [`crate::Record`] can take:
//!
//! * [`RecordCodec::Plain`] — the original fixed-width layout (176 bits per
//!   pair). Fast, simple, and the default.
//! * [`RecordCodec::Succinct`] — ascending keys stored as LEB128 varint
//!   deltas plus LEB128 per-entry counts, with a sparse anchor every
//!   [`ANCHOR_BLOCK`] entries so point queries stay logarithmic.
//!
//! The codec changes *bytes, never counts*: every query (`total`,
//! `count_of`, `tree_total`, `select`, `select_in_tree`, iteration) returns
//! bit-identical answers under either codec, so sampling from a succinct
//! table is deterministic-equal to sampling from a plain one.
//!
//! ## The succinct stream
//!
//! Entries are grouped in blocks of [`ANCHOR_BLOCK`]. In the byte stream,
//! the first entry of a block stores its *absolute* key as a varint; every
//! other entry stores the strictly-positive delta from its predecessor.
//! Each key is followed by the entry's (non-cumulative) count as a varint.
//! For records spanning more than one block, three parallel anchor arrays —
//! first key, cumulative count before the block, and byte offset of the
//! block start — are kept decoded in memory. A query binary-searches the
//! anchors (`O(log(n/B))`) and then decodes at most one block (`O(B)`),
//! so nothing ever decompresses the whole record. Single-block records
//! carry no anchors at all: the block trivially starts at offset 0.
//!
//! The set of codecs is sealed: `RecordCodec` is a plain enum, every match
//! in the table/build/persist/store stack is exhaustive, and on-disk format
//! tags are assigned here and nowhere else.

use bytes::{Buf, BufMut};
use std::fmt;
use std::str::FromStr;

/// Largest value a packed colored-treelet key may take (48 significant
/// bits); decoded keys beyond this are rejected as corruption.
const MAX_KEY: u64 = 0xFFFF_FFFF_FFFF;

/// Entries per anchor block of the succinct encoding. 32 keeps the anchor
/// overhead under one byte per entry while bounding every point query to
/// one block decode.
pub const ANCHOR_BLOCK: usize = 32;

/// Which byte-level representation a record (and, uniformly, a whole count
/// table) uses. This is the closed, sealed set of codecs — the on-disk
/// format tag ([`RecordCodec::tag`]) is part of the `table.meta` and
/// store-manifest formats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RecordCodec {
    /// Fixed-width layout: `u64` key plus `u128` cumulative count per
    /// entry (24 bytes/pair). The default.
    #[default]
    Plain,
    /// Varint key deltas + varint counts with sparse cumulative anchors
    /// every [`ANCHOR_BLOCK`] entries (typically 4–8 bytes/pair).
    Succinct,
}

impl RecordCodec {
    /// Every codec, in tag order.
    pub const ALL: [RecordCodec; 2] = [RecordCodec::Plain, RecordCodec::Succinct];

    /// Stable one-byte format tag used by `table.meta` and the store
    /// manifest.
    pub fn tag(self) -> u8 {
        match self {
            RecordCodec::Plain => 0,
            RecordCodec::Succinct => 1,
        }
    }

    /// Inverse of [`RecordCodec::tag`].
    pub fn from_tag(tag: u8) -> Option<RecordCodec> {
        match tag {
            0 => Some(RecordCodec::Plain),
            1 => Some(RecordCodec::Succinct),
            _ => None,
        }
    }

    /// Lower-case name, as accepted by the CLI's `--codec` flag.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordCodec::Plain => "plain",
            RecordCodec::Succinct => "succinct",
        }
    }
}

impl fmt::Display for RecordCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for RecordCodec {
    type Err = String;

    fn from_str(s: &str) -> Result<RecordCodec, String> {
        match s {
            "plain" => Ok(RecordCodec::Plain),
            "succinct" => Ok(RecordCodec::Succinct),
            other => Err(format!("unknown codec `{other}` (plain|succinct)")),
        }
    }
}

// ---------------------------------------------------------------------------
// LEB128 varints
// ---------------------------------------------------------------------------

pub(crate) fn put_varint_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_varint_u128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn read_varint_u64(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        let chunk = (b & 0x7F) as u64;
        if shift >= 64 || (chunk << shift) >> shift != chunk {
            return None; // overflow: more than 64 significant bits
        }
        v |= chunk << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

pub(crate) fn read_varint_u128(data: &[u8], pos: &mut usize) -> Option<u128> {
    let mut v = 0u128;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        let chunk = (b & 0x7F) as u128;
        if shift >= 128 || (chunk << shift) >> shift != chunk {
            return None;
        }
        v |= chunk << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Reads one varint from a stream that already passed
/// [`SuccinctRepr::parse`]. The overwhelmingly common one-byte encoding
/// (values `< 128`) is decoded inline; longer encodings fall back to the
/// full loop from the unadvanced position.
#[inline(always)]
fn read_varint_u64_trusted(data: &[u8], pos: &mut usize) -> u64 {
    let b = data[*pos];
    if b < 0x80 {
        *pos += 1;
        return b as u64;
    }
    read_varint_u64(data, pos).expect("invariant: validated stream")
}

/// `u128` twin of [`read_varint_u64_trusted`].
#[inline(always)]
fn read_varint_u128_trusted(data: &[u8], pos: &mut usize) -> u128 {
    let b = data[*pos];
    if b < 0x80 {
        *pos += 1;
        return b as u128;
    }
    read_varint_u128(data, pos).expect("invariant: validated stream")
}

// ---------------------------------------------------------------------------
// The succinct representation
// ---------------------------------------------------------------------------

/// One anchor block, fully materialized: absolute keys (deltas already
/// prefix-summed) and per-entry counts, decoded in a single pass. All
/// point queries and iteration work over these flat arrays instead of
/// chasing a per-entry varint call chain.
#[derive(Clone, Debug)]
pub(crate) struct DecodedBlock {
    /// Absolute keys of the block's entries (`[..len]` valid).
    keys: [u64; ANCHOR_BLOCK],
    /// Per-entry (non-cumulative) counts (`[..len]` valid).
    counts: [u128; ANCHOR_BLOCK],
    /// Global index of the block's first entry.
    first_idx: usize,
    /// Decoded entries (a full `ANCHOR_BLOCK` except for the last block).
    len: usize,
    /// Byte offset one past the block — where the next block starts.
    end_pos: usize,
}

impl DecodedBlock {
    fn new() -> DecodedBlock {
        DecodedBlock {
            keys: [0; ANCHOR_BLOCK],
            counts: [0; ANCHOR_BLOCK],
            first_idx: 0,
            len: 0,
            end_pos: 0,
        }
    }
}

/// A sealed, immutable record in the succinct encoding. Constructed either
/// from sorted pairs ([`SuccinctRepr::from_sorted`]) or by validating a
/// decoded stream ([`SuccinctRepr::parse`]); all query methods assume the
/// stream invariants and are panic-free on any value that passed one of
/// those constructors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SuccinctRepr {
    len: u32,
    total: u128,
    /// First key of each block; empty for records of at most one block.
    anchor_keys: Vec<u64>,
    /// Cumulative count before each block.
    anchor_cumul: Vec<u128>,
    /// Byte offset of each block start in `data`.
    anchor_offs: Vec<u32>,
    data: Vec<u8>,
}

impl SuccinctRepr {
    /// Builds from strictly-ascending `(key, count)` pairs with nonzero
    /// counts (the post-`from_counts` invariant).
    pub fn from_sorted(pairs: &[(u64, u128)]) -> SuccinctRepr {
        let nblocks = pairs.len().div_ceil(ANCHOR_BLOCK);
        let anchored = nblocks > 1;
        let mut repr = SuccinctRepr {
            len: pairs.len() as u32,
            ..SuccinctRepr::default()
        };
        if anchored {
            repr.anchor_keys.reserve(nblocks);
            repr.anchor_cumul.reserve(nblocks);
            repr.anchor_offs.reserve(nblocks);
        }
        let mut prev = 0u64;
        for (i, &(key, count)) in pairs.iter().enumerate() {
            debug_assert!(i == 0 || key > prev, "keys must be strictly ascending");
            debug_assert!(count > 0, "zero counts must be dropped before freezing");
            debug_assert!(key <= MAX_KEY, "key exceeds the 48-bit packing");
            if i.is_multiple_of(ANCHOR_BLOCK) {
                if anchored {
                    repr.anchor_keys.push(key);
                    repr.anchor_cumul.push(repr.total);
                    repr.anchor_offs.push(repr.data.len() as u32);
                }
                put_varint_u64(&mut repr.data, key);
            } else {
                put_varint_u64(&mut repr.data, key - prev);
            }
            put_varint_u128(&mut repr.data, count);
            repr.total = repr
                .total
                .checked_add(count)
                .expect("record total overflows u128");
            prev = key;
        }
        repr
    }

    /// Validates a stream of `len` entries and rebuilds the anchors.
    /// Rejects truncated or trailing bytes, zero deltas/counts, overflow,
    /// and keys beyond the 48-bit packing.
    pub fn parse(len: u32, data: Vec<u8>) -> Option<SuccinctRepr> {
        let n = len as usize;
        let nblocks = n.div_ceil(ANCHOR_BLOCK);
        let anchored = nblocks > 1;
        let mut anchor_keys = Vec::new();
        let mut anchor_cumul = Vec::new();
        let mut anchor_offs = Vec::new();
        let mut pos = 0usize;
        let mut total = 0u128;
        let mut prev = 0u64;
        for i in 0..n {
            let block_start = i.is_multiple_of(ANCHOR_BLOCK);
            if block_start && anchored {
                anchor_cumul.push(total);
                anchor_offs.push(u32::try_from(pos).ok()?);
            }
            let key = if block_start {
                let key = read_varint_u64(&data, &mut pos)?;
                if i > 0 && key <= prev {
                    return None;
                }
                key
            } else {
                let delta = read_varint_u64(&data, &mut pos)?;
                if delta == 0 {
                    return None;
                }
                prev.checked_add(delta)?
            };
            if key > MAX_KEY {
                return None;
            }
            if block_start && anchored {
                anchor_keys.push(key);
            }
            let count = read_varint_u128(&data, &mut pos)?;
            if count == 0 {
                return None;
            }
            total = total.checked_add(count)?;
            prev = key;
        }
        if pos != data.len() {
            return None; // trailing garbage
        }
        Some(SuccinctRepr {
            len,
            total,
            anchor_keys,
            anchor_cumul,
            anchor_offs,
            data,
        })
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Heap bytes of the representation: stream plus anchor arrays.
    pub fn byte_size(&self) -> usize {
        self.data.len()
            + self.anchor_keys.len() * 8
            + self.anchor_cumul.len() * 16
            + self.anchor_offs.len() * 4
    }

    /// The raw stream (appended verbatim by the encoder).
    pub fn stream(&self) -> &[u8] {
        &self.data
    }

    /// Decodes the block whose first entry is `first_idx` (stream offset
    /// `pos`) into `out`, materializing absolute keys and counts in one
    /// pass — the deltas are prefix-summed here, so no caller ever walks
    /// a per-entry `read_varint` chain again.
    fn decode_block_into(&self, first_idx: usize, pos: usize, out: &mut DecodedBlock) {
        let n = (self.len() - first_idx).min(ANCHOR_BLOCK);
        let data = &self.data[..];
        let mut p = pos;
        let mut prev = 0u64;
        for j in 0..n {
            let d = read_varint_u64_trusted(data, &mut p);
            // The block's first entry stores an absolute key; the rest
            // store deltas. `prev` is 0 at j == 0, so the sum is uniform.
            let key = prev + d;
            out.keys[j] = key;
            out.counts[j] = read_varint_u128_trusted(data, &mut p);
            prev = key;
        }
        out.first_idx = first_idx;
        out.len = n;
        out.end_pos = p;
    }

    /// Start `(first_idx, stream offset)` of the last block whose first
    /// key is `<= x` (block 0 when every anchor key exceeds `x`, or when
    /// unanchored).
    fn block_start_by_key(&self, x: u64) -> (usize, usize) {
        if self.anchor_keys.is_empty() {
            return (0, 0);
        }
        let b = self
            .anchor_keys
            .partition_point(|&k| k <= x)
            .saturating_sub(1);
        (b * ANCHOR_BLOCK, self.anchor_offs[b] as usize)
    }

    /// Index of the first entry with key `>= x` (or `len` when every key
    /// is smaller), paired with the cumulative count of entries before it.
    pub fn index_of_key_ge(&self, x: u64) -> (usize, u128) {
        if self.len == 0 {
            return (0, 0);
        }
        let (first_idx, pos) = self.block_start_by_key(x);
        let cum_before = if self.anchor_cumul.is_empty() {
            0
        } else {
            self.anchor_cumul[first_idx / ANCHOR_BLOCK]
        };
        let mut block = DecodedBlock::new();
        self.decode_block_into(first_idx, pos, &mut block);
        let j = block.keys[..block.len].partition_point(|&k| k < x);
        let cum = cum_before + block.counts[..j].iter().sum::<u128>();
        (first_idx + j, cum)
    }

    /// The count stored under `x`, or 0.
    pub fn count_of(&self, x: u64) -> u128 {
        if self.len == 0 {
            return 0;
        }
        let (first_idx, pos) = self.block_start_by_key(x);
        let mut block = DecodedBlock::new();
        self.decode_block_into(first_idx, pos, &mut block);
        match block.keys[..block.len].binary_search(&x) {
            Ok(j) => block.counts[j],
            Err(_) => 0,
        }
    }

    /// The key whose cumulative range contains `r`, for `r ∈ 1..=total`.
    pub fn select(&self, r: u128) -> u64 {
        debug_assert!(r >= 1 && r <= self.total);
        let (mut first_idx, mut pos, mut cum) = if self.anchor_cumul.is_empty() {
            (0, 0, 0u128)
        } else {
            // `anchor_cumul[0] == 0 < r`, so the partition point is >= 1.
            let b = self.anchor_cumul.partition_point(|&c| c < r) - 1;
            (
                b * ANCHOR_BLOCK,
                self.anchor_offs[b] as usize,
                self.anchor_cumul[b],
            )
        };
        let mut block = DecodedBlock::new();
        loop {
            self.decode_block_into(first_idx, pos, &mut block);
            for j in 0..block.len {
                cum += block.counts[j];
                if cum >= r {
                    return block.keys[j];
                }
            }
            first_idx += ANCHOR_BLOCK;
            pos = block.end_pos;
        }
    }

    /// Iterates `(key, count)` for entries `start_idx..end_idx`.
    pub fn iter_from(&self, start_idx: usize, end_idx: usize) -> SuccinctIter<'_> {
        let end = end_idx.min(self.len());
        let mut it = SuccinctIter {
            repr: self,
            block: DecodedBlock::new(),
            j: 0,
            idx: start_idx,
            end,
        };
        if start_idx < end {
            let b = start_idx / ANCHOR_BLOCK;
            let pos = if self.anchor_offs.is_empty() {
                0
            } else {
                self.anchor_offs[b] as usize
            };
            self.decode_block_into(b * ANCHOR_BLOCK, pos, &mut it.block);
            it.j = start_idx - b * ANCHOR_BLOCK;
        }
        it
    }

    /// Iterates every `(key, count)` in key order.
    pub fn iter(&self) -> SuccinctIter<'_> {
        self.iter_from(0, self.len())
    }
}

/// Streaming decoder over a slice of a succinct record: holds one
/// materialized [`DecodedBlock`] and refills it block-at-a-time as the
/// walk crosses an anchor boundary.
pub(crate) struct SuccinctIter<'a> {
    repr: &'a SuccinctRepr,
    block: DecodedBlock,
    /// In-block offset of the next entry to yield.
    j: usize,
    /// Global index of the next entry.
    idx: usize,
    end: usize,
}

impl Iterator for SuccinctIter<'_> {
    type Item = (u64, u128);

    #[inline]
    fn next(&mut self) -> Option<(u64, u128)> {
        if self.idx >= self.end {
            return None;
        }
        if self.j >= self.block.len {
            // A short block is always the record's last, so running past
            // one implies `idx >= end` above — refills only see full
            // blocks behind them.
            let first = self.block.first_idx + ANCHOR_BLOCK;
            let pos = self.block.end_pos;
            self.repr.decode_block_into(first, pos, &mut self.block);
            self.j = 0;
        }
        let out = (self.block.keys[self.j], self.block.counts[self.j]);
        self.j += 1;
        self.idx += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end.saturating_sub(self.idx);
        (n, Some(n))
    }
}

impl ExactSizeIterator for SuccinctIter<'_> {}

/// Writes a succinct record's serialized form: `len: u32 LE | stream`.
pub(crate) fn encode_succinct<B: BufMut>(repr: &SuccinctRepr, buf: &mut B) {
    buf.put_u32_le(repr.len() as u32);
    buf.put_slice(repr.stream());
}

/// Reads a record serialized by [`encode_succinct`]. The stream is
/// externally length-delimited (the level index frames each record), so
/// everything remaining in `buf` must belong to this record.
pub(crate) fn decode_succinct<B: Buf>(buf: &mut B) -> Option<SuccinctRepr> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le();
    let mut data = vec![0u8; buf.remaining()];
    buf.copy_to_slice(&mut data);
    SuccinctRepr::parse(len, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0u128, 1, 127, 128, u64::MAX as u128 + 1, u128::MAX] {
            let mut buf = Vec::new();
            put_varint_u128(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint_u128(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes overflow a u64.
        let over = vec![0xFF; 10];
        let mut pos = 0;
        assert_eq!(read_varint_u64(&over, &mut pos), None);
        let mut pos = 0;
        assert_eq!(read_varint_u64(&[0x80, 0x80], &mut pos), None); // truncated
    }

    fn pairs(n: u64) -> Vec<(u64, u128)> {
        // Irregular gaps and counts, enough entries to span several blocks.
        (0..n)
            .map(|i| (i * i + 3 * i + 1, (i % 7 + 1) as u128 * (1 + i as u128)))
            .collect()
    }

    #[test]
    fn anchors_only_for_multi_block_records() {
        let small = SuccinctRepr::from_sorted(&pairs(ANCHOR_BLOCK as u64));
        assert!(small.anchor_keys.is_empty());
        let big = SuccinctRepr::from_sorted(&pairs(ANCHOR_BLOCK as u64 + 1));
        assert_eq!(big.anchor_keys.len(), 2);
    }

    #[test]
    fn queries_match_reference_across_blocks() {
        for n in [0u64, 1, 2, 31, 32, 33, 100, 257] {
            let ps = pairs(n);
            let repr = SuccinctRepr::from_sorted(&ps);
            let total: u128 = ps.iter().map(|&(_, c)| c).sum();
            assert_eq!(repr.total(), total, "n={n}");
            assert_eq!(repr.len(), ps.len());
            assert_eq!(repr.iter().collect::<Vec<_>>(), ps, "n={n}");
            // Point lookups, hits and misses.
            for &(k, c) in &ps {
                assert_eq!(repr.count_of(k), c);
                assert_eq!(repr.count_of(k + 1), 0, "gap after {k}");
            }
            assert_eq!(repr.count_of(0), 0);
            // Selection partitions 1..=total exactly like the counts.
            let mut cum = 0u128;
            for &(k, c) in &ps {
                assert_eq!(repr.select(cum + 1), k);
                assert_eq!(repr.select(cum + c), k);
                cum += c;
            }
            // index_of_key_ge: index and cumulative-before for every boundary.
            let mut cum = 0u128;
            for (i, &(k, c)) in ps.iter().enumerate() {
                assert_eq!(repr.index_of_key_ge(k), (i, cum), "key {k}");
                assert_eq!(repr.index_of_key_ge(k + 1), (i + 1, cum + c));
                cum += c;
            }
            // Sliced iteration stays consistent with the full walk for
            // every in-block and anchor-boundary start.
            for lo in 0..ps.len() {
                let got: Vec<_> = repr.iter_from(lo, ps.len()).collect();
                assert_eq!(got, ps[lo..], "n={n} lo={lo}");
            }
        }
    }

    /// Decodes a validated stream entry-by-entry with the raw varint
    /// readers — the pre-batching reference the block decoder must match.
    fn per_entry_reference(len: usize, data: &[u8]) -> Vec<(u64, u128)> {
        let mut out = Vec::with_capacity(len);
        let mut pos = 0;
        let mut prev = 0u64;
        for i in 0..len {
            let v = read_varint_u64(data, &mut pos).expect("validated stream");
            let key = if i.is_multiple_of(ANCHOR_BLOCK) {
                v
            } else {
                prev + v
            };
            let count = read_varint_u128(data, &mut pos).expect("validated stream");
            out.push((key, count));
            prev = key;
        }
        assert_eq!(pos, data.len());
        out
    }

    /// Validates a stream exactly as the format spec dictates, using only
    /// the per-entry varint readers — an independent twin of `parse` for
    /// corruption-rejection parity checks.
    fn per_entry_validate(len: usize, data: &[u8]) -> bool {
        let mut pos = 0;
        let mut total = 0u128;
        let mut prev = 0u64;
        for i in 0..len {
            let key = if i.is_multiple_of(ANCHOR_BLOCK) {
                match read_varint_u64(data, &mut pos) {
                    Some(k) if i == 0 || k > prev => k,
                    _ => return false,
                }
            } else {
                match read_varint_u64(data, &mut pos) {
                    Some(d) if d > 0 => match prev.checked_add(d) {
                        Some(k) => k,
                        None => return false,
                    },
                    _ => return false,
                }
            };
            if key > MAX_KEY {
                return false;
            }
            match read_varint_u128(data, &mut pos) {
                Some(c) if c > 0 => match total.checked_add(c) {
                    Some(t) => total = t,
                    None => return false,
                },
                _ => return false,
            }
            prev = key;
        }
        pos == data.len()
    }

    mod batched_decoder_props {
        use super::*;
        use proptest::prelude::*;

        /// Strictly-ascending `(key, count)` pairs whose length sweeps
        /// single-block, exact-boundary, and multi-block records.
        fn pairs_strategy() -> impl Strategy<Value = Vec<(u64, u128)>> {
            let len = (0usize..6).prop_flat_map(|sel| match sel {
                0 => (0usize..3).boxed(),
                1 => Just(ANCHOR_BLOCK - 1).boxed(),
                2 => Just(ANCHOR_BLOCK).boxed(),
                3 => Just(ANCHOR_BLOCK + 1).boxed(),
                4 => Just(2 * ANCHOR_BLOCK).boxed(),
                _ => (3usize..5 * ANCHOR_BLOCK).boxed(),
            });
            // Counts mix the one-byte varint fast path (tiny values) with
            // multi-chunk encodings (beyond u64).
            len.prop_flat_map(|n| {
                (
                    proptest::collection::vec(1u64..2000, n),
                    proptest::collection::vec(
                        (any::<bool>(), 1u128..200, (1u128 << 70)..(1u128 << 90))
                            .prop_map(|(big, small, huge)| if big { huge } else { small }),
                        n,
                    ),
                )
            })
            .prop_map(|(gaps, counts)| {
                let mut key = 0u64;
                gaps.into_iter()
                    .zip(counts)
                    .map(|(gap, c)| {
                        key += gap;
                        (key, c)
                    })
                    .collect()
            })
        }

        proptest! {
            /// The batched block decoder yields exactly the sequence the
            /// per-entry varint walk produces, from every start index.
            #[test]
            fn batched_decode_matches_per_entry_walk(ps in pairs_strategy()) {
                let repr = SuccinctRepr::from_sorted(&ps);
                let reference = per_entry_reference(ps.len(), &repr.data);
                prop_assert_eq!(&reference, &ps);
                let batched: Vec<_> = repr.iter().collect();
                prop_assert_eq!(&batched, &reference);
                // Anchor-boundary and mid-block starts agree too.
                for lo in [0, 1, ANCHOR_BLOCK - 1, ANCHOR_BLOCK, ANCHOR_BLOCK + 1] {
                    let lo = lo.min(ps.len());
                    let got: Vec<_> = repr.iter_from(lo, ps.len()).collect();
                    prop_assert_eq!(&got[..], &reference[lo..]);
                }
            }

            /// Point queries over the batched decoder agree with naive
            /// scans of the reference sequence.
            #[test]
            fn batched_queries_match_reference(ps in pairs_strategy()) {
                let repr = SuccinctRepr::from_sorted(&ps);
                let keys: std::collections::BTreeSet<u64> =
                    ps.iter().map(|&(k, _)| k).collect();
                let mut cum = 0u128;
                for (i, &(k, c)) in ps.iter().enumerate() {
                    prop_assert_eq!(repr.count_of(k), c);
                    if !keys.contains(&(k + 1)) {
                        prop_assert_eq!(repr.count_of(k + 1), 0);
                    }
                    prop_assert_eq!(repr.index_of_key_ge(k), (i, cum));
                    prop_assert_eq!(repr.select(cum + 1), k);
                    cum += c;
                    prop_assert_eq!(repr.select(cum), k);
                }
            }

            /// Truncations and random byte corruptions are rejected (or
            /// accepted, with identical content) by `parse` exactly when
            /// the per-entry reference validator says so.
            #[test]
            fn corruption_rejection_matches_per_entry_validator(
                ps in pairs_strategy(),
                cut_pmil in 0u64..=1000,
                do_poke in any::<bool>(),
                at in 0usize..4096,
                byte in 0u8..=255,
            ) {
                let repr = SuccinctRepr::from_sorted(&ps);
                let mut data = repr.data.clone();
                let cut = (data.len() as u64 * cut_pmil / 1000) as usize;
                data.truncate(cut);
                if do_poke && !data.is_empty() {
                    let at = at % data.len();
                    data[at] = byte;
                }
                let reference_ok = per_entry_validate(ps.len(), &data);
                let parsed = SuccinctRepr::parse(ps.len() as u32, data.clone());
                prop_assert_eq!(parsed.is_some(), reference_ok);
                if let Some(p) = parsed {
                    let batched: Vec<_> = p.iter().collect();
                    prop_assert_eq!(batched, per_entry_reference(ps.len(), &data));
                }
            }
        }
    }

    #[test]
    fn parse_rejects_corruption() {
        let repr = SuccinctRepr::from_sorted(&pairs(80));
        let mut buf = Vec::new();
        encode_succinct(&repr, &mut buf);
        assert_eq!(decode_succinct(&mut &buf[..]).as_ref(), Some(&repr));
        // Every truncation fails.
        for cut in 0..buf.len() {
            assert!(
                decode_succinct(&mut &buf[..cut]).is_none(),
                "cut at {cut} accepted"
            );
        }
        // Trailing garbage fails.
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_succinct(&mut &long[..]).is_none());
        // A zero delta (duplicate key) fails: entry 1 starts right after the
        // first absolute key + count; force its delta byte to 0.
        let mut dup = buf.clone();
        let mut pos = 0;
        read_varint_u64(&repr.data, &mut pos).unwrap();
        read_varint_u128(&repr.data, &mut pos).unwrap();
        dup[4 + pos] = 0;
        assert!(decode_succinct(&mut &dup[..]).is_none());
    }
}
