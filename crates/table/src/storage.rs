//! Storage backends for the count table.
//!
//! The paper's **greedy flushing** (§3.1): while level `h` is being built,
//! each record is accumulated in a hash table, but "immediately after
//! completion it is stored on disk in the compact form … The hash table is
//! then emptied and memory released", so the table never fully resides in
//! main memory; lower levels are later read back through memory-mapped I/O
//! (§3.3). There are two backends: [`MemoryLevel`], and [`crate::block`],
//! the only writer of level files. A block level's byte-budgeted memtable
//! spills sorted runs and merges them into the sealed file — the paper's
//! external sort pass — and a sealed level maps its data region and
//! serves point reads in place.
//!
//! `CountTable::open_dir` still reads the v1/v2 directory layout (one
//! `level-<h>.mtvt` data file plus a per-vertex `(offset, len)` index per
//! level, DESIGN.md §1.2) through a private read-only reader; saving such
//! a table rewrites it as block files.
//!
//! Every level and the assembled [`CountTable`] carry the [`RecordCodec`]
//! their records are sealed under; `byte_size` reports the true encoded
//! footprint, so the succinct codec's savings are visible all the way up
//! to the store's LRU budget. All storage operations are fallible
//! (`io::Result`): an I/O error propagates to the build/persist caller
//! instead of aborting the process.

use crate::codec::RecordCodec;
use crate::record::Record;
use std::fs::File;
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
    /// Number of storage blocks (0 for non-block backends).
    pub blocks: u32,
    /// Budget-triggered memtable spills during the build.
    pub spill_runs: u32,
    /// High-water mark of the build memtable in bytes.
    pub peak_mem_bytes: u64,
}

/// One level (treelet size) of the count table.
pub trait LevelStore: Send + Sync {
    /// Stores the completed record of vertex `v` (called once per vertex).
    fn put(&mut self, v: u32, rec: Record) -> io::Result<()>;

    /// Fetches the record of `v`; an empty record if `v` stored none.
    fn get(&self, v: u32) -> io::Result<RecordHandle<'_>>;

    /// Marks the level complete: no more puts will arrive. Backends that
    /// stage writes (the block level's memtable and spill runs) compact
    /// here; for everything else this is a no-op. Idempotent.
    fn seal(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Total size of the level's payload in bytes (encoded form).
    fn byte_size(&self) -> usize;

    /// Number of non-empty records.
    fn record_count(&self) -> usize;

    /// Number of vertices the level was sized for.
    fn num_vertices(&self) -> u32;

    /// Streams non-empty `(vertex, record)` pairs in ascending vertex
    /// order.
    fn scan(&self) -> LevelScan<'_>;

    /// Build-shape telemetry; defaults to all-zeros for backends without
    /// blocks or spills.
    fn profile(&self) -> LevelProfile {
        LevelProfile::default()
    }
}

/// In-memory level: a dense vector of records sealed under one codec.
pub struct MemoryLevel {
    records: Vec<Option<Record>>,
    codec: RecordCodec,
    bytes: usize,
    count: usize,
}

impl MemoryLevel {
    /// An empty level for `n` vertices whose records are sealed under
    /// `codec`.
    pub fn new(n: u32, codec: RecordCodec) -> MemoryLevel {
        MemoryLevel {
            records: vec![None; n as usize],
            codec,
            bytes: 0,
            count: 0,
        }
    }

    /// Codec the level's records are sealed under.
    pub fn codec(&self) -> RecordCodec {
        self.codec
    }
}

impl LevelStore for MemoryLevel {
    fn put(&mut self, v: u32, rec: Record) -> io::Result<()> {
        if rec.is_empty() {
            return Ok(());
        }
        // Re-seal a record arriving under the wrong codec, mirroring
        // BlockLevel: otherwise the level's byte accounting (and the
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
        Ok(())
    }

    fn get(&self, v: u32) -> io::Result<RecordHandle<'_>> {
        Ok(match &self.records[v as usize] {
            Some(r) => RecordHandle::Borrowed(r),
            None => RecordHandle::Owned(Record::default()),
        })
    }

    fn byte_size(&self) -> usize {
        self.bytes
    }

    fn record_count(&self) -> usize {
        self.count
    }

    fn num_vertices(&self) -> u32 {
        self.records.len() as u32
    }

    fn scan(&self) -> LevelScan<'_> {
        Box::new(self.records.iter().enumerate().filter_map(|(v, r)| {
            r.as_ref()
                .map(|rec| Ok((v as u32, RecordHandle::Borrowed(rec))))
        }))
    }
}

/// Read-only view of one v1/v2 level (DESIGN.md §1.2): a data file of
/// concatenated encoded records plus a per-vertex `(offset, len)` index
/// in `<path>.idx`. Kept so `CountTable::open_dir` can open directories
/// written before block storage; nothing writes this layout any more, and
/// `save_dir` migrates it.
struct DiskLevel {
    file: File,
    path: PathBuf,
    codec: RecordCodec,
    /// `(offset, len)` per vertex; `len == 0` means no record.
    index: Vec<(u64, u32)>,
    payload_bytes: u64,
    count: usize,
}

impl DiskLevel {
    /// Opens the level at `path` (and its index at `<path>.idx`),
    /// decoding records under `codec` (recorded in the table's
    /// `table.meta`).
    fn open(path: PathBuf, codec: RecordCodec) -> io::Result<DiskLevel> {
        use bytes::Buf;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let file = File::open(&path)?;
        let raw = std::fs::read(legacy_index_path(&path))?;
        let mut buf = &raw[..];
        if buf.remaining() < 16 {
            return Err(bad("truncated index"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"MTVI" || buf.get_u32_le() != 1 {
            return Err(bad("bad index header"));
        }
        let n = buf.get_u64_le() as usize;
        if n.checked_mul(12) != Some(buf.remaining()) {
            return Err(bad("index length mismatch"));
        }
        let mut index = Vec::with_capacity(n);
        let mut count = 0;
        let mut payload_bytes = 0u64;
        for _ in 0..n {
            let off = buf.get_u64_le();
            let len = buf.get_u32_le();
            if len > 0 {
                count += 1;
                payload_bytes = payload_bytes.max(off + len as u64);
            }
            index.push((off, len));
        }
        Ok(DiskLevel {
            file,
            path,
            codec,
            index,
            payload_bytes,
            count,
        })
    }
}

/// Index file of a v1/v2 level: the data file's name plus `.idx`.
fn legacy_index_path(data: &Path) -> PathBuf {
    let mut os = data.as_os_str().to_owned();
    os.push(".idx");
    PathBuf::from(os)
}

impl LevelStore for DiskLevel {
    fn put(&mut self, _v: u32, _rec: Record) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "put on a read-only legacy level",
        ))
    }

    fn get(&self, v: u32) -> io::Result<RecordHandle<'_>> {
        let (off, len) = self.index[v as usize];
        if len == 0 {
            return Ok(RecordHandle::Owned(Record::default()));
        }
        let mut buf = vec![0u8; len as usize];
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(&mut buf, off)?;
        let rec = Record::decode(self.codec, &mut &buf[..]).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt record for vertex {v} in {}", self.path.display()),
            )
        })?;
        Ok(RecordHandle::Owned(rec))
    }

    fn byte_size(&self) -> usize {
        self.payload_bytes as usize
    }

    fn record_count(&self) -> usize {
        self.count
    }

    fn num_vertices(&self) -> u32 {
        self.index.len() as u32
    }

    fn scan(&self) -> LevelScan<'_> {
        Box::new(
            (0..self.index.len() as u32)
                .filter(|&v| self.index[v as usize].1 > 0)
                .map(|v| self.get(v).map(|h| (v, h))),
        )
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
    /// Creates an empty level for treelet size `h` over `n` vertices,
    /// storing records sealed under `codec`.
    pub fn create_level(
        &self,
        h: u32,
        n: u32,
        codec: RecordCodec,
    ) -> io::Result<Box<dyn LevelStore>> {
        match self {
            StorageKind::Memory => Ok(Box::new(MemoryLevel::new(n, codec))),
            StorageKind::Block { dir, mem_budget } => {
                std::fs::create_dir_all(dir)?;
                Ok(Box::new(crate::block::BlockLevel::create(
                    dir.join(format!("level-{h}.mtvb")),
                    n,
                    codec,
                    *mem_budget,
                )?))
            }
        }
    }
}

/// The assembled per-size count tables for sizes `1..=k`.
pub struct CountTable {
    k: u32,
    codec: RecordCodec,
    levels: Vec<Box<dyn LevelStore>>,
    /// Budget-triggered memtable spills per level during the build
    /// (index 0 = size 1); all zeros for non-block backends.
    spill_runs: Vec<u32>,
    /// High-water mark of any level's build memtable, in bytes.
    peak_mem_bytes: u64,
}

impl CountTable {
    /// Assembles a table from per-size levels (index 0 = size 1), all
    /// holding records sealed under `codec`. Build history (spills, peak
    /// memtable) is collected from the levels' [`LevelStore::profile`].
    pub fn from_levels(levels: Vec<Box<dyn LevelStore>>, codec: RecordCodec) -> CountTable {
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

    /// The level store for size `h`.
    pub fn level(&self, h: u32) -> &dyn LevelStore {
        self.levels[h as usize - 1].as_ref()
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
    /// [`CountTable::open_dir`]. Every level streams through
    /// [`LevelStore::scan`] into a block writer; records are re-sealed
    /// under the table's codec if a level disagrees. Stale v2 level files
    /// (`level-<h>.mtvt` + `.idx`) left by an older writer are removed.
    pub fn save_dir<P: AsRef<Path>>(&self, dir: P) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let n = self.levels[0].num_vertices();
        for (i, level) in self.levels.iter().enumerate() {
            let h = i as u32 + 1;
            // The source level may be block-backed *in this very
            // directory*; the writer renames its output over it only at
            // `finish`, and the open source handle keeps the old inode.
            let mut writer = crate::block::BlockWriter::create(
                dir.join(format!("level-{h}.mtvb")),
                n,
                self.codec,
            )?;
            for item in level.scan() {
                let (v, rec) = item?;
                writer.add(v, &rec)?;
            }
            writer.finish()?;
            // Clean up files from the pre-block v2 layout so the directory
            // has a single source of truth.
            std::fs::remove_file(dir.join(format!("level-{h}.mtvt"))).ok();
            std::fs::remove_file(dir.join(format!("level-{h}.mtvt.idx"))).ok();
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
        let mut levels: Vec<Box<dyn LevelStore>> = Vec::with_capacity(self.levels.len());
        for lvl in &self.levels {
            let mut mem = MemoryLevel::new(lvl.num_vertices(), self.codec);
            for item in lvl.scan() {
                let (v, rec) = item?;
                mem.put(v, (*rec).clone())?;
            }
            levels.push(Box::new(mem));
        }
        Ok(CountTable {
            k: self.k,
            codec: self.codec,
            levels,
            spill_runs: self.spill_runs,
            peak_mem_bytes: self.peak_mem_bytes,
        })
    }

    /// Reopens a table persisted by [`CountTable::save_dir`]. Reads the
    /// sorted-block v3 format, the v2 format (per-level data + index file
    /// pairs, with a codec tag), and the pre-codec v1 format, whose
    /// records are always plain.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> io::Result<CountTable> {
        use bytes::Buf;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let dir = dir.as_ref();
        let raw = std::fs::read(dir.join("table.meta"))?;
        let mut buf = &raw[..];
        if buf.remaining() < 16 {
            return Err(bad("truncated meta"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"MTVT" {
            return Err(bad("bad table meta"));
        }
        let version = buf.get_u32_le();
        if !(1..=TABLE_META_VERSION).contains(&version) {
            return Err(bad("unsupported table meta version"));
        }
        if version >= 2 && buf.remaining() < 9 {
            return Err(bad("truncated meta"));
        }
        let k = buf.get_u32_le();
        let _n = buf.get_u32_le();
        let codec = if version >= 2 {
            RecordCodec::from_tag(buf.get_u8()).ok_or_else(|| bad("unknown codec tag"))?
        } else {
            // v1 predates the codec column: every record is plain.
            RecordCodec::Plain
        };
        let (peak_mem_bytes, spill_runs) = if version >= 3 {
            if buf.remaining() != 8 + 4 * k as usize {
                return Err(bad("truncated meta build history"));
            }
            let peak = buf.get_u64_le();
            let spills = (0..k).map(|_| buf.get_u32_le()).collect();
            (peak, spills)
        } else {
            (0, vec![0; k as usize])
        };
        let mut levels: Vec<Box<dyn LevelStore>> = Vec::with_capacity(k as usize);
        for h in 1..=k {
            if version >= 3 {
                levels.push(Box::new(crate::block::BlockLevel::open(
                    dir.join(format!("level-{h}.mtvb")),
                    codec,
                )?));
            } else {
                levels.push(Box::new(DiskLevel::open(
                    dir.join(format!("level-{h}.mtvt")),
                    codec,
                )?));
            }
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

/// Current `table.meta` format version. v1 had no codec tag (plain
/// records); v2 appended one byte with [`RecordCodec::tag`]; v3 switches
/// levels to sorted-block files (`level-<h>.mtvb`) and appends the build
/// history: `peak_mem_bytes: u64`, then `k × spill_runs: u32`.
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
        let mut lvl = MemoryLevel::new(10, RecordCodec::Plain);
        lvl.put(3, record(5)).unwrap();
        lvl.put(7, record(9)).unwrap();
        lvl.put(1, Record::default()).unwrap(); // empty: dropped
        assert_eq!(lvl.record_count(), 2);
        assert_eq!(lvl.get(3).unwrap().total(), record(5).total());
        assert!(lvl.get(0).unwrap().is_empty());
        assert!(lvl.get(1).unwrap().is_empty());
    }

    /// Writes one v1/v2 level pair (`<path>` + `<path>.idx`, DESIGN.md
    /// §1.2) as the greedy-flushing writer of those versions did: records
    /// appended in put order, then the per-vertex `(offset, len)` index.
    /// Returns the data file's length.
    fn write_legacy_level(path: &Path, n: u32, records: &[(u32, Record)]) -> usize {
        use bytes::BufMut;
        let mut data = Vec::new();
        let mut index = vec![(0u64, 0u32); n as usize];
        for (v, rec) in records {
            let off = data.len();
            rec.encode(&mut data);
            index[*v as usize] = (off as u64, (data.len() - off) as u32);
        }
        let mut idx = Vec::new();
        idx.put_slice(b"MTVI");
        idx.put_u32_le(1);
        idx.put_u64_le(n as u64);
        for (off, len) in index {
            idx.put_u64_le(off);
            idx.put_u32_le(len);
        }
        std::fs::write(path, &data).unwrap();
        std::fs::write(legacy_index_path(path), idx).unwrap();
        data.len()
    }

    #[test]
    fn count_table_assembly() {
        let kind = StorageKind::Memory;
        let mut l1 = kind.create_level(1, 5, RecordCodec::Plain).unwrap();
        let mut l2 = kind.create_level(2, 5, RecordCodec::Plain).unwrap();
        l1.put(0, record(1)).unwrap();
        l2.put(4, record(2)).unwrap();
        let table = CountTable::from_levels(vec![l1, l2], RecordCodec::Plain);
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
            let table = CountTable::from_levels(vec![l1, l2], codec);
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

    /// A pre-codec v1 `table.meta` (no codec byte, `.mtvt` level files)
    /// opens as plain.
    #[test]
    fn v1_meta_opens_as_plain() {
        use bytes::BufMut;
        let dir = std::env::temp_dir().join("motivo-table-test-v1meta");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // The old layout: one legacy level pair plus a v1 meta.
        write_legacy_level(&dir.join("level-1.mtvt"), 4, &[(2, record(6))]);
        let mut meta = Vec::new();
        meta.put_slice(b"MTVT");
        meta.put_u32_le(1);
        meta.put_u32_le(1); // k
        meta.put_u32_le(4); // n
        std::fs::write(dir.join("table.meta"), meta).unwrap();
        let back = CountTable::open_dir(&dir).unwrap();
        assert_eq!(back.codec(), RecordCodec::Plain);
        assert_eq!(
            back.get(1, 2).unwrap().iter().collect::<Vec<_>>(),
            record(6).iter().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v2 directory (per-level `.mtvt` + `.idx` pairs, codec byte in the
    /// meta) still opens under the v3 reader and serves exactly what an
    /// in-memory level holds; the reader refuses writes; and re-saving the
    /// table migrates the directory to block files, removing the stale v2
    /// pair.
    #[test]
    fn v2_dir_opens_and_resave_migrates_to_v3() {
        use bytes::BufMut;
        for codec in RecordCodec::ALL {
            let dir = std::env::temp_dir().join(format!("motivo-table-test-v2meta-{codec}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            // Out-of-order puts, as a parallel build flushed them.
            let puts: Vec<(u32, Record)> = [0u32, 5, 19, 7]
                .into_iter()
                .map(|v| (v, record_in(codec, v as u64)))
                .collect();
            let data_len = write_legacy_level(&dir.join("level-1.mtvt"), 20, &puts);
            let mut mem = MemoryLevel::new(20, codec);
            for (v, rec) in &puts {
                mem.put(*v, rec.clone()).unwrap();
            }
            let mut meta = Vec::new();
            meta.put_slice(b"MTVT");
            meta.put_u32_le(2);
            meta.put_u32_le(1); // k
            meta.put_u32_le(20); // n
            meta.put_u8(codec.tag());
            std::fs::write(dir.join("table.meta"), meta).unwrap();

            let matches_memory = |table: &CountTable| {
                assert_eq!(table.codec(), codec);
                assert_eq!(table.record_count(), 4);
                for v in 0..20 {
                    let (d, m) = (table.get(1, v).unwrap(), mem.get(v).unwrap());
                    assert_eq!(d.total(), m.total(), "{codec}: vertex {v}");
                    assert_eq!(d.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
                }
                let ids: Vec<u32> = table
                    .level(1)
                    .scan()
                    .map(|r| r.map(|(v, _)| v))
                    .collect::<io::Result<_>>()
                    .unwrap();
                assert_eq!(ids, vec![0, 5, 7, 19], "{codec}: scan is ascending");
            };
            let back = CountTable::open_dir(&dir).unwrap();
            matches_memory(&back);
            assert_eq!(back.byte_size(), data_len);
            let mut reader = DiskLevel::open(dir.join("level-1.mtvt"), codec).unwrap();
            assert!(reader.put(3, record_in(codec, 3)).is_err(), "read-only");

            // Re-save: the directory converts to the v3 block layout.
            back.save_dir(&dir).unwrap();
            assert!(dir.join("level-1.mtvb").exists());
            assert!(!dir.join("level-1.mtvt").exists());
            assert!(!dir.join("level-1.mtvt.idx").exists());
            matches_memory(&CountTable::open_dir(&dir).unwrap());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Saving a plain-built table under a succinct-tagged table re-seals
    /// every record, and the reopened table serves identical contents.
    #[test]
    fn save_dir_recodes_to_table_codec() {
        let dir = std::env::temp_dir().join("motivo-table-test-recode");
        std::fs::remove_dir_all(&dir).ok();
        let mut l1 = MemoryLevel::new(6, RecordCodec::Succinct);
        for v in 0..6 {
            l1.put(v, record(v as u64 + 1)).unwrap(); // plain records
        }
        let table = CountTable::from_levels(vec![Box::new(l1)], RecordCodec::Succinct);
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

    #[test]
    fn open_rejects_corrupt_index() {
        let dir = std::env::temp_dir().join("motivo-table-test-badidx");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        write_legacy_level(&dir.join("l.mtvt"), 4, &[(1, record(3))]);
        assert!(DiskLevel::open(dir.join("l.mtvt"), RecordCodec::Plain).is_ok());
        // Truncate the index.
        let idx = dir.join("l.mtvt.idx");
        let data = std::fs::read(&idx).unwrap();
        std::fs::write(&idx, &data[..data.len() - 4]).unwrap();
        assert!(DiskLevel::open(dir.join("l.mtvt"), RecordCodec::Plain).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A truncated data file turns `get` into an `Err`, not a panic — the
    /// fallible `LevelStore` contract.
    #[test]
    fn corrupt_data_file_is_an_error_not_a_panic() {
        for codec in RecordCodec::ALL {
            let dir = std::env::temp_dir().join(format!("motivo-table-test-baddata-{codec}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let data_path = dir.join("l.mtvt");
            write_legacy_level(&data_path, 4, &[(1, record_in(codec, 3))]);
            // Truncate the data file after the level was persisted.
            let data = std::fs::read(&data_path).unwrap();
            std::fs::write(&data_path, &data[..data.len() - 1]).unwrap();
            let lvl = DiskLevel::open(data_path, codec).unwrap();
            assert!(lvl.get(1).is_err(), "truncated record must error");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The succinct codec's table-level footprint is a large fraction
    /// smaller than plain on identical contents.
    #[test]
    fn succinct_table_is_smaller() {
        let make = |codec: RecordCodec| {
            let mut lvl = MemoryLevel::new(64, codec);
            for v in 0..64u32 {
                lvl.put(v, record_in(codec, v as u64)).unwrap();
            }
            CountTable::from_levels(vec![Box::new(lvl)], codec)
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
