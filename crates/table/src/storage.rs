//! Storage backends for the count table.
//!
//! The paper's **greedy flushing** (§3.1): while level `h` is being built,
//! each record is accumulated in a hash table, but "immediately after
//! completion it is stored on disk in the compact form … The hash table is
//! then emptied and memory released", so the table never fully resides in
//! main memory; lower levels are later read back through memory-mapped I/O
//! (§3.3). A level therefore has two phases, and each is its own type:
//!
//! - a [`LevelBuilder`] only takes records: either the in-memory record
//!   vector, or [`crate::block`]'s byte-budgeted memtable, which spills
//!   sorted runs — the paper's external sort pass;
//! - [`LevelBuilder::seal`] consumes it and returns a read-only [`Level`]:
//!   the same records in memory, or the merged block file, mapped for
//!   point reads. A block file is written once, when its level seals.
//!
//! `CountTable::open_dir` reads exactly what `save_dir` writes:
//! `table.meta` v3 and one block file per level. A directory of an older
//! version is refused with an error naming that version; rebuild it.
//! `save_dir` leaves a level that is already sealed at its destination
//! as it is.
//!
//! Every level and the assembled [`CountTable`] carry the [`RecordCodec`]
//! their records are sealed under; `byte_size` reports the true encoded
//! footprint, so the succinct codec's savings are visible all the way up
//! to the store's LRU budget. All storage operations are fallible
//! (`io::Result`): an I/O error propagates to the build/persist caller
//! instead of aborting the process.

use crate::block::{BlockBuilder, BlockWriter, SealedBlocks};
use crate::codec::RecordCodec;
use crate::record::Record;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A record obtained from a store: borrowed from memory or decoded from
/// disk.
pub enum RecordHandle<'a> {
    /// Borrowed from an in-memory level.
    Borrowed(&'a Record),
    /// Decoded from a disk level (or the canonical empty record).
    Owned(Record),
}

impl Deref for RecordHandle<'_> {
    type Target = Record;

    fn deref(&self) -> &Record {
        match self {
            RecordHandle::Borrowed(r) => r,
            RecordHandle::Owned(r) => r,
        }
    }
}

/// A streaming pass over a level: `(vertex, record)` pairs in ascending
/// vertex order, skipping empty records. Replaces the old
/// `vertices() -> Vec<u32>` API, which allocated a fresh vector per call
/// and forced a second lookup per vertex.
pub type LevelScan<'a> = Box<dyn Iterator<Item = io::Result<(u32, RecordHandle<'a>)>> + 'a>;

/// Build-shape telemetry of one level, surfaced by `motivo table stats`
/// and the bench gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelProfile {
    /// Number of storage blocks (0 for in-memory levels).
    pub blocks: u32,
    /// Budget-triggered memtable spills during the build.
    pub spill_runs: u32,
    /// High-water mark of the build memtable in bytes.
    pub peak_mem_bytes: u64,
}

/// In-memory records of one level: a dense vector sealed under one codec.
/// The same value is first the builder and then the sealed level.
pub struct MemoryLevel {
    records: Vec<Option<Record>>,
    codec: RecordCodec,
    bytes: usize,
    count: usize,
}

impl MemoryLevel {
    fn new(n: u32, codec: RecordCodec) -> MemoryLevel {
        MemoryLevel {
            records: vec![None; n as usize],
            codec,
            bytes: 0,
            count: 0,
        }
    }

    fn put(&mut self, v: u32, rec: Record) {
        if rec.is_empty() {
            return;
        }
        // Re-seal a record arriving under the wrong codec, as the block
        // builder does: otherwise the level's byte accounting (and the
        // table's advertised codec) would silently disagree with its
        // contents. The common same-codec case passes through untouched.
        let rec = if rec.codec() == self.codec {
            rec
        } else {
            rec.recode(self.codec)
        };
        self.bytes += rec.byte_size();
        self.count += 1;
        debug_assert!(self.records[v as usize].is_none(), "record stored twice");
        self.records[v as usize] = Some(rec);
    }
}

/// One level (treelet size) under construction. It only takes records;
/// [`LevelBuilder::seal`] turns it into the read-only [`Level`].
pub enum LevelBuilder {
    /// Records held in RAM.
    Memory(MemoryLevel),
    /// A byte-budgeted memtable with its spill runs (`crate::block`).
    Block(BlockBuilder),
}

impl LevelBuilder {
    /// Stores the completed record of `v` (called once per vertex).
    pub fn put(&mut self, v: u32, rec: Record) -> io::Result<()> {
        match self {
            LevelBuilder::Memory(m) => {
                m.put(v, rec);
                Ok(())
            }
            LevelBuilder::Block(b) => b.put(v, rec),
        }
    }

    /// Completes the level: no more records arrive. A block builder
    /// merges its memtable and spill runs into the level file here.
    pub fn seal(self) -> io::Result<Level> {
        match self {
            LevelBuilder::Memory(m) => Ok(Level::Memory(m)),
            LevelBuilder::Block(b) => b.seal(),
        }
    }
}

/// One sealed level of the count table: read-only.
pub enum Level {
    /// Records held in RAM.
    Memory(MemoryLevel),
    /// A mapped block file, with the spill history of the build that
    /// sealed it (zeros for a file reopened from disk).
    Block {
        blocks: SealedBlocks,
        spill_runs: u32,
        peak_mem_bytes: u64,
    },
}

impl Level {
    /// Opens the block file at `path`, written under `codec`.
    pub(crate) fn open(path: &Path, codec: RecordCodec) -> io::Result<Level> {
        Ok(Level::Block {
            blocks: SealedBlocks::open(path, codec)?,
            spill_runs: 0,
            peak_mem_bytes: 0,
        })
    }

    /// Fetches the record of `v`; an empty record if `v` stored none.
    #[inline]
    pub fn get(&self, v: u32) -> io::Result<RecordHandle<'_>> {
        match self {
            Level::Memory(m) => Ok(match &m.records[v as usize] {
                Some(r) => RecordHandle::Borrowed(r),
                None => RecordHandle::Owned(Record::default()),
            }),
            Level::Block { blocks, .. } => blocks.get(v),
        }
    }

    /// Streams non-empty `(vertex, record)` pairs in ascending vertex
    /// order.
    pub fn scan(&self) -> LevelScan<'_> {
        match self {
            Level::Memory(m) => Box::new(m.records.iter().enumerate().filter_map(|(v, r)| {
                r.as_ref()
                    .map(|rec| Ok((v as u32, RecordHandle::Borrowed(rec))))
            })),
            Level::Block { blocks, .. } => blocks.scan(),
        }
    }

    /// Total size of the level's payload in bytes (encoded form).
    pub fn byte_size(&self) -> usize {
        match self {
            Level::Memory(m) => m.bytes,
            Level::Block { blocks, .. } => blocks.payload_bytes as usize,
        }
    }

    /// Number of non-empty records.
    pub fn record_count(&self) -> usize {
        match self {
            Level::Memory(m) => m.count,
            Level::Block { blocks, .. } => blocks.records as usize,
        }
    }

    /// Number of vertices the level was sized for.
    pub fn num_vertices(&self) -> u32 {
        match self {
            Level::Memory(m) => m.records.len() as u32,
            Level::Block { blocks, .. } => blocks.n,
        }
    }

    /// Block count and build history; all zeros for an in-memory level.
    pub fn profile(&self) -> LevelProfile {
        match self {
            Level::Memory(_) => LevelProfile::default(),
            Level::Block {
                blocks,
                spill_runs,
                peak_mem_bytes,
            } => LevelProfile {
                blocks: blocks.blocks(),
                spill_runs: *spill_runs,
                peak_mem_bytes: *peak_mem_bytes,
            },
        }
    }
}

/// Which backend new levels use.
#[derive(Clone, Debug)]
pub enum StorageKind {
    /// Everything in RAM.
    Memory,
    /// Sorted-block levels in `dir/level-<h>.mtvb`, built through a
    /// byte-budgeted memtable with spill-and-merge (DESIGN.md §1.5), so
    /// peak build memory is bounded regardless of graph size. The only
    /// on-disk backend.
    Block {
        /// Directory for the block files (created if missing).
        dir: PathBuf,
        /// Memtable budget in bytes per level; `0` means unbudgeted.
        mem_budget: usize,
    },
}

impl StorageKind {
    /// Starts an empty level for treelet size `h` over `n` vertices,
    /// storing records sealed under `codec`.
    pub fn create_level(&self, h: u32, n: u32, codec: RecordCodec) -> io::Result<LevelBuilder> {
        match self {
            StorageKind::Memory => Ok(LevelBuilder::Memory(MemoryLevel::new(n, codec))),
            StorageKind::Block { dir, mem_budget } => Ok(LevelBuilder::Block(
                BlockBuilder::create(dir.join(format!("level-{h}.mtvb")), n, codec, *mem_budget)?,
            )),
        }
    }
}

/// The assembled per-size count tables for sizes `1..=k`.
pub struct CountTable {
    k: u32,
    codec: RecordCodec,
    levels: Vec<Level>,
    /// Budget-triggered memtable spills per level during the build
    /// (index 0 = size 1); all zeros for in-memory builds.
    spill_runs: Vec<u32>,
    /// High-water mark of any level's build memtable, in bytes.
    peak_mem_bytes: u64,
}

impl CountTable {
    /// Assembles a table from sealed per-size levels (index 0 = size 1),
    /// all holding records sealed under `codec`. Build history (spills,
    /// peak memtable) is collected from the levels' [`Level::profile`].
    pub fn from_levels(levels: Vec<Level>, codec: RecordCodec) -> CountTable {
        assert!(!levels.is_empty());
        let spill_runs = levels.iter().map(|l| l.profile().spill_runs).collect();
        let peak_mem_bytes = levels
            .iter()
            .map(|l| l.profile().peak_mem_bytes)
            .max()
            .unwrap_or(0);
        CountTable {
            k: levels.len() as u32,
            codec,
            levels,
            spill_runs,
            peak_mem_bytes,
        }
    }

    /// Budget-triggered memtable spills per level during the build.
    pub fn spill_runs(&self) -> &[u32] {
        &self.spill_runs
    }

    /// Total budget-triggered spills across all levels.
    pub fn total_spill_runs(&self) -> u64 {
        self.spill_runs.iter().map(|&s| s as u64).sum()
    }

    /// High-water mark of any level's build memtable, in bytes.
    pub fn peak_mem_bytes(&self) -> u64 {
        self.peak_mem_bytes
    }

    /// The treelet size bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The codec every record in this table is sealed under.
    pub fn codec(&self) -> RecordCodec {
        self.codec
    }

    /// Record of vertex `v` at treelet size `h`.
    #[inline]
    pub fn get(&self, h: u32, v: u32) -> io::Result<RecordHandle<'_>> {
        self.levels[h as usize - 1].get(v)
    }

    /// The sealed level for size `h`.
    pub fn level(&self, h: u32) -> &Level {
        &self.levels[h as usize - 1]
    }

    /// Total payload bytes across all levels (encoded form — what the
    /// codec actually costs in memory or on disk).
    pub fn byte_size(&self) -> usize {
        self.levels.iter().map(|l| l.byte_size()).sum()
    }

    /// Total number of stored records.
    pub fn record_count(&self) -> usize {
        self.levels.iter().map(|l| l.record_count()).sum()
    }

    /// Persists the whole table into `dir` (one sorted-block file per
    /// level, plus `table.meta` v3), so it can be reopened with
    /// [`CountTable::open_dir`]. A level whose sealed block file already
    /// is `dir/level-<h>.mtvb` (the same device and inode, sealed for the
    /// same `n` under the table's codec) — a block build into `dir`
    /// itself — is left as it is: that file holds exactly the bytes a
    /// rewrite would produce. Every other level streams through
    /// [`Level::scan`] into a block writer; records are re-sealed under
    /// the table's codec if a level disagrees.
    pub fn save_dir<P: AsRef<Path>>(&self, dir: P) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let n = self.levels[0].num_vertices();
        for (h, level) in (1u32..).zip(&self.levels) {
            let path = dir.join(format!("level-{h}.mtvb"));
            if let Level::Block { blocks, .. } = level {
                if blocks.n == n && blocks.codec == self.codec && blocks.is_at(&path) {
                    continue;
                }
            }
            // The source level may be block-backed in this directory
            // under another inode; the writer renames its output over it
            // only at `finish`, and the open source handle keeps its own.
            let mut writer = BlockWriter::create(&path, n, self.codec)?;
            for item in level.scan() {
                let (v, rec) = item?;
                writer.add(v, &rec)?;
            }
            writer.finish()?;
        }
        use bytes::BufMut;
        let mut meta = Vec::new();
        meta.put_slice(b"MTVT");
        meta.put_u32_le(TABLE_META_VERSION);
        meta.put_u32_le(self.k);
        meta.put_u32_le(n);
        meta.put_u8(self.codec.tag());
        meta.put_u64_le(self.peak_mem_bytes);
        for i in 0..self.k as usize {
            meta.put_u32_le(self.spill_runs.get(i).copied().unwrap_or(0));
        }
        std::fs::write(dir.join("table.meta"), meta)
    }

    /// Converts every level into an in-memory level. This is the "enough
    /// memory is available" fast path of the paper's memory-mapped reads
    /// (§3.3): after preloading, record access never touches the disk.
    pub fn preload(self) -> io::Result<CountTable> {
        let mut levels = Vec::with_capacity(self.levels.len());
        for lvl in &self.levels {
            let mut mem = MemoryLevel::new(lvl.num_vertices(), self.codec);
            for item in lvl.scan() {
                let (v, rec) = item?;
                mem.put(v, (*rec).clone());
            }
            levels.push(Level::Memory(mem));
        }
        Ok(CountTable {
            k: self.k,
            codec: self.codec,
            levels,
            spill_runs: self.spill_runs,
            peak_mem_bytes: self.peak_mem_bytes,
        })
    }

    /// Reopens a table persisted by [`CountTable::save_dir`]: `table.meta`
    /// v3 and one block file per level, each sized for the meta's `n`.
    /// Anything else is refused with `InvalidData`.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> io::Result<CountTable> {
        use bytes::Buf;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let dir = dir.as_ref();
        let raw = std::fs::read(dir.join("table.meta"))?;
        let mut buf = &raw[..];
        if buf.remaining() < 8 {
            return Err(bad("truncated meta"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"MTVT" {
            return Err(bad("bad table meta"));
        }
        let version = buf.get_u32_le();
        if version != TABLE_META_VERSION {
            return Err(bad(&format!(
                "unsupported table.meta version {version}; rebuild the table"
            )));
        }
        if buf.remaining() < 9 {
            return Err(bad("truncated meta"));
        }
        let k = buf.get_u32_le();
        let n = buf.get_u32_le();
        let codec = RecordCodec::from_tag(buf.get_u8()).ok_or_else(|| bad("unknown codec tag"))?;
        if k == 0 || buf.remaining() != 8 + 4 * k as usize {
            return Err(bad("table.meta k is 0 or disagrees with its build history"));
        }
        let peak_mem_bytes = buf.get_u64_le();
        let spill_runs = (0..k).map(|_| buf.get_u32_le()).collect();
        let mut levels = Vec::with_capacity(k as usize);
        for h in 1..=k {
            let level = Level::open(&dir.join(format!("level-{h}.mtvb")), codec)?;
            if level.num_vertices() != n {
                return Err(bad(&format!(
                    "level-{h}.mtvb is sized for {} vertices, table.meta for {n}",
                    level.num_vertices()
                )));
            }
            levels.push(level);
        }
        Ok(CountTable {
            k,
            codec,
            levels,
            spill_runs,
            peak_mem_bytes,
        })
    }
}

/// The only `table.meta` format version, written by `save_dir` and read
/// by `open_dir`: the header, `k`, `n` and the [`RecordCodec::tag`] byte,
/// then the build history (`peak_mem_bytes: u64`, then `k × spill_runs:
/// u32`).
pub const TABLE_META_VERSION: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use motivo_treelet::{path_treelet, star_treelet, ColorSet, ColoredTreelet};

    fn record(seed: u64) -> Record {
        record_in(RecordCodec::Plain, seed)
    }

    fn record_in(codec: RecordCodec, seed: u64) -> Record {
        let s3 = star_treelet(3);
        let p3 = path_treelet(3);
        Record::from_counts_in(
            codec,
            vec![
                (
                    ColoredTreelet::new(s3, ColorSet(0b0111)).code(),
                    seed as u128 + 1,
                ),
                (
                    ColoredTreelet::new(p3, ColorSet(0b1101)).code(),
                    2 * seed as u128 + 3,
                ),
            ],
        )
    }

    #[test]
    fn memory_level_roundtrip() {
        let mut lvl = StorageKind::Memory
            .create_level(1, 10, RecordCodec::Plain)
            .unwrap();
        lvl.put(3, record(5)).unwrap();
        lvl.put(7, record(9)).unwrap();
        lvl.put(1, Record::default()).unwrap(); // empty: dropped
        let lvl = lvl.seal().unwrap();
        assert_eq!(lvl.record_count(), 2);
        assert_eq!(lvl.get(3).unwrap().total(), record(5).total());
        assert!(lvl.get(0).unwrap().is_empty());
        assert!(lvl.get(1).unwrap().is_empty());
    }

    #[test]
    fn count_table_assembly() {
        let kind = StorageKind::Memory;
        let mut l1 = kind.create_level(1, 5, RecordCodec::Plain).unwrap();
        let mut l2 = kind.create_level(2, 5, RecordCodec::Plain).unwrap();
        l1.put(0, record(1)).unwrap();
        l2.put(4, record(2)).unwrap();
        let levels = vec![l1.seal().unwrap(), l2.seal().unwrap()];
        let table = CountTable::from_levels(levels, RecordCodec::Plain);
        assert_eq!(table.k(), 2);
        assert_eq!(table.codec(), RecordCodec::Plain);
        assert_eq!(table.get(1, 0).unwrap().total(), record(1).total());
        assert_eq!(table.get(2, 4).unwrap().total(), record(2).total());
        assert!(table.get(2, 0).unwrap().is_empty());
        assert_eq!(table.record_count(), 2);
        assert!(table.byte_size() > 0);
    }

    #[test]
    fn save_and_reopen_roundtrip() {
        for codec in RecordCodec::ALL {
            let dir = std::env::temp_dir().join(format!("motivo-table-test-save-{codec}"));
            std::fs::remove_dir_all(&dir).ok();
            let kind = StorageKind::Memory;
            let mut l1 = kind.create_level(1, 8, codec).unwrap();
            let mut l2 = kind.create_level(2, 8, codec).unwrap();
            for v in [0u32, 3, 7] {
                l1.put(v, record_in(codec, v as u64)).unwrap();
            }
            l2.put(5, record_in(codec, 42)).unwrap();
            let table =
                CountTable::from_levels(vec![l1.seal().unwrap(), l2.seal().unwrap()], codec);
            table.save_dir(&dir).unwrap();
            let back = CountTable::open_dir(&dir).unwrap();
            assert_eq!(back.k(), 2);
            assert_eq!(back.codec(), codec);
            for h in 1..=2u32 {
                for v in 0..8u32 {
                    let (a, b) = (table.get(h, v).unwrap(), back.get(h, v).unwrap());
                    assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
                }
            }
            assert_eq!(back.record_count(), 4);
            // Reopened level knows its vertex set (streamed, ascending).
            let ids: Vec<u32> = back
                .level(1)
                .scan()
                .map(|r| r.map(|(v, _)| v))
                .collect::<io::Result<_>>()
                .unwrap();
            assert_eq!(ids, vec![0, 3, 7]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Saving a plain-built table under a succinct-tagged table re-seals
    /// every record, and the reopened table serves identical contents.
    #[test]
    fn save_dir_recodes_to_table_codec() {
        let dir = std::env::temp_dir().join("motivo-table-test-recode");
        std::fs::remove_dir_all(&dir).ok();
        let mut l1 = StorageKind::Memory
            .create_level(1, 6, RecordCodec::Succinct)
            .unwrap();
        for v in 0..6 {
            l1.put(v, record(v as u64 + 1)).unwrap(); // plain records
        }
        let table = CountTable::from_levels(vec![l1.seal().unwrap()], RecordCodec::Succinct);
        table.save_dir(&dir).unwrap();
        let back = CountTable::open_dir(&dir).unwrap();
        assert_eq!(back.codec(), RecordCodec::Succinct);
        for v in 0..6 {
            assert_eq!(
                back.get(1, v).unwrap().iter().collect::<Vec<_>>(),
                record(v as u64 + 1).iter().collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `table.meta` v1 and v2 (per-vertex-index level files) are refused
    /// with `InvalidData` naming the version, and so is a v3 meta with
    /// `k = 0`, which would otherwise open a table with no levels.
    #[test]
    fn unreadable_meta_is_refused() {
        use bytes::BufMut;
        let dir = std::env::temp_dir().join("motivo-table-test-badmeta");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for (version, k, want) in [
            (1u32, 1u32, "version 1"),
            (2, 1, "version 2"),
            (3, 0, "k is 0"),
        ] {
            let mut meta = Vec::new();
            meta.put_slice(b"MTVT");
            meta.put_u32_le(version);
            meta.put_u32_le(k);
            meta.put_u32_le(4); // n
            if version != 1 {
                meta.put_u8(RecordCodec::Plain.tag());
            }
            if version == 3 {
                meta.put_u64_le(0); // peak_mem_bytes, then k = 0 spill counts
            }
            std::fs::write(dir.join("table.meta"), meta).unwrap();
            let err = CountTable::open_dir(&dir)
                .err()
                .expect("an unreadable table.meta must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(want), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The succinct codec's table-level footprint is a large fraction
    /// smaller than plain on identical contents.
    #[test]
    fn succinct_table_is_smaller() {
        let make = |codec: RecordCodec| {
            let mut lvl = StorageKind::Memory.create_level(1, 64, codec).unwrap();
            for v in 0..64u32 {
                lvl.put(v, record_in(codec, v as u64)).unwrap();
            }
            CountTable::from_levels(vec![lvl.seal().unwrap()], codec)
        };
        let plain = make(RecordCodec::Plain);
        let succ = make(RecordCodec::Succinct);
        assert_eq!(plain.record_count(), succ.record_count());
        assert!(
            succ.byte_size() * 10 < plain.byte_size() * 6,
            "succinct {} vs plain {}",
            succ.byte_size(),
            plain.byte_size()
        );
    }
}
