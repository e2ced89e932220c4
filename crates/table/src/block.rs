//! Sorted immutable block storage for one table level.
//!
//! A sealed level is a single file of ~1 KiB *blocks*, each
//! holding consecutive vertices' encoded records with delta-compressed
//! vertex ids, followed by a per-block index (`first vertex, entry count,
//! offset, length`) and a checksummed footer. The data region is mapped
//! read-only, as the paper reads lower levels back (§3.3): a point read is
//! an `O(log blocks)` binary search over the in-memory index plus a walk
//! of one block *in place* in the mapping, and the hit payload decodes
//! straight from the mapped bytes — no syscall and no copy, the
//! `O(log n + B)` contract of DESIGN.md §1.5. Full scans instead use
//! positioned reads of runs of blocks, so one pass over a level does not
//! fault the whole file into the resident set.
//!
//! A sealed file is never modified in place: [`BlockWriter`] writes under
//! a temporary name and renames over the final path in
//! [`BlockWriter::finish`], so a handle opened earlier keeps serving its
//! own inode. A file truncated by some other writer while mapped raises
//! `SIGBUS` on the next read of a lost page, not an I/O error.
//!
//! The build path is LSM-shaped: [`BlockBuilder::put`] appends to a
//! byte-budgeted memtable; when the budget would be exceeded the memtable
//! is sorted and spilled to a run file (see [`crate::merge`]);
//! [`BlockBuilder::seal`] consumes the builder, k-way-merges every run
//! plus the in-memory tail into the final block file, and returns the
//! read-only [`Level`]. Peak build memory is therefore bounded by the
//! budget no matter how large the level grows.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! block*   — entries: varint Δvertex | varint payload_len | payload
//! index    — per block: u32 first_v | u32 entries | u64 offset | u32 len
//! footer   — u32 n | u32 records | u64 payload_bytes | u32 blocks
//!            | u32 crc32(index) | "MTVB"                       (28 bytes)
//! ```
//!
//! The first entry of a block has Δ = 0 from the indexed `first_v`;
//! later entries delta from their predecessor. Payloads are exactly the
//! bytes [`Record::encode`] produces, so block storage composes with both
//! codecs unchanged. Readers accept any block size, so files written with
//! an older, larger target keep opening.

use crate::checksum::crc32;
use crate::codec::{read_varint_u64, RecordCodec};
use crate::merge::{MergeIter, RunItem, RunReader, RunWriter};
use crate::record::Record;
use crate::storage::{Level, LevelScan, RecordHandle};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Soft cap on a block's body: a block closes once it would grow past
/// this. A single oversized record still gets a (larger) block of its own.
/// Small blocks keep a point read's in-block walk short; the in-memory
/// index costs 24 bytes per block, about 2% of the level.
pub const BLOCK_TARGET_BYTES: usize = 1024;

/// Memtable budget per level of a block build whose caller set none: the
/// store's background build and `motivo count --disk`. The memtable then
/// holds at most 1 MiB of the level under construction instead of all of
/// it (DESIGN.md §1.5 has the measurement).
pub const DEFAULT_BUILD_MEM_BYTES: usize = 1 << 20;

/// Granularity of sequential I/O: the writer's buffer, and the minimum
/// run of consecutive blocks one positioned read of a scan covers — so
/// small blocks do not multiply syscalls.
const IO_RUN_BYTES: usize = 64 * 1024;

const FOOTER_LEN: u64 = 28;
const INDEX_ENTRY_LEN: u64 = 20;
const BLOCK_MAGIC: &[u8; 4] = b"MTVB";

/// Memtable accounting charge per buffered entry beyond the payload
/// itself (the `(u32, Vec<u8>)` bookkeeping).
const ENTRY_OVERHEAD: usize = 32;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The two calls behind [`Mmap`], through thin `extern "C"` shims against
/// the libc std already links (the reactor's discipline for epoll). The
/// constants agree across Linux and the BSDs.
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_SHARED: c_int = 0x1;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only mapping of a file's first `len` bytes, unmapped on drop.
/// A zero-length region is never mapped; it reads as the empty slice.
struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: `ptr` and `len` describe a read-only mapping that this value
// alone owns and unmaps, so it behaves like a `Box<[u8]>`: it may move to
// another thread, and shared references only read it. Its bytes do not
// change under a reader because a sealed block file is never modified in
// place (module docs).
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    fn map(file: &File, len: u64) -> io::Result<Mmap> {
        use std::os::fd::AsRawFd;
        let len = usize::try_from(len)
            .map_err(|_| invalid("block data region exceeds the address space"))?;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        // SAFETY: a fresh mapping at a kernel-chosen address aliases no
        // Rust memory; failure is reported through the return value.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is readable for `len` bytes until drop (or
        // dangling, which is valid for the empty slice), and the file
        // behind it is never modified in place, so the bytes stay fixed
        // for the borrow.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: unmaps exactly the region `map` created, once.
            unsafe { sys::munmap(self.ptr as *mut _, self.len) };
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct BlockMeta {
    first_v: u32,
    entries: u32,
    offset: u64,
    len: u32,
}

/// Streams ascending `(vertex, encoded record)` pairs into a block file.
pub struct BlockWriter {
    out: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    target: usize,
    n: u32,
    index: Vec<BlockMeta>,
    cur: Vec<u8>,
    cur_first: u32,
    cur_last: u32,
    cur_entries: u32,
    offset: u64,
    records: u32,
    payload_bytes: u64,
    last_v: Option<u32>,
    codec: RecordCodec,
}

impl BlockWriter {
    /// Starts a block file for `path`. The bytes go to `<path>.new` until
    /// [`BlockWriter::finish`] renames them into place, so a file already
    /// at `path` — and every handle still reading it — is left untouched.
    pub fn create<P: AsRef<Path>>(path: P, n: u32, codec: RecordCodec) -> io::Result<BlockWriter> {
        let path = path.as_ref().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".new");
        let tmp = PathBuf::from(tmp);
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        Ok(BlockWriter {
            out: BufWriter::with_capacity(IO_RUN_BYTES, file),
            tmp,
            path,
            target: BLOCK_TARGET_BYTES,
            n,
            index: Vec::new(),
            cur: Vec::with_capacity(BLOCK_TARGET_BYTES),
            cur_first: 0,
            cur_last: 0,
            cur_entries: 0,
            offset: 0,
            records: 0,
            payload_bytes: 0,
            last_v: None,
            codec,
        })
    }

    /// Closes blocks near `target` bytes instead of [`BLOCK_TARGET_BYTES`],
    /// to write files in an older layout.
    #[cfg(test)]
    fn with_target(mut self, target: usize) -> BlockWriter {
        self.target = target;
        self
    }

    /// Appends one record's encoded bytes. Vertices must arrive strictly
    /// ascending — the writer is fed by sorted memtables or the merge.
    pub fn add_encoded(&mut self, v: u32, payload: &[u8]) -> io::Result<()> {
        if self.last_v.is_some_and(|p| v <= p) {
            return Err(invalid(format!(
                "block writer fed out of order: {v} after {:?}",
                self.last_v
            )));
        }
        self.last_v = Some(v);
        // Close the open block if this entry would push it past target.
        if self.cur_entries > 0 && self.cur.len() + payload.len() + 10 > self.target {
            self.flush_block()?;
        }
        let delta = if self.cur_entries == 0 {
            self.cur_first = v;
            0
        } else {
            (v - self.cur_last) as u64
        };
        crate::codec::put_varint_u64(&mut self.cur, delta);
        crate::codec::put_varint_u64(&mut self.cur, payload.len() as u64);
        self.cur.extend_from_slice(payload);
        self.cur_last = v;
        self.cur_entries += 1;
        self.records += 1;
        self.payload_bytes += payload.len() as u64;
        Ok(())
    }

    /// Encodes and appends a record (re-sealing it under the writer's
    /// codec if needed).
    pub fn add(&mut self, v: u32, rec: &Record) -> io::Result<()> {
        if rec.is_empty() {
            return Ok(());
        }
        let recoded;
        let rec = if rec.codec() == self.codec {
            rec
        } else {
            recoded = rec.recode(self.codec);
            &recoded
        };
        let mut payload = Vec::with_capacity(rec.encoded_len());
        rec.encode(&mut payload);
        self.add_encoded(v, &payload)
    }

    fn flush_block(&mut self) -> io::Result<()> {
        self.out.write_all(&self.cur)?;
        self.index.push(BlockMeta {
            first_v: self.cur_first,
            entries: self.cur_entries,
            offset: self.offset,
            len: self.cur.len() as u32,
        });
        self.offset += self.cur.len() as u64;
        self.cur.clear();
        self.cur_entries = 0;
        Ok(())
    }

    /// Writes the index and footer, renames the file into place, and
    /// returns the sealed read handle.
    pub fn finish(mut self) -> io::Result<SealedBlocks> {
        if self.cur_entries > 0 {
            self.flush_block()?;
        }
        let mut idx = Vec::with_capacity(self.index.len() * INDEX_ENTRY_LEN as usize);
        for m in &self.index {
            idx.extend_from_slice(&m.first_v.to_le_bytes());
            idx.extend_from_slice(&m.entries.to_le_bytes());
            idx.extend_from_slice(&m.offset.to_le_bytes());
            idx.extend_from_slice(&m.len.to_le_bytes());
        }
        self.out.write_all(&idx)?;
        self.out.write_all(&self.n.to_le_bytes())?;
        self.out.write_all(&self.records.to_le_bytes())?;
        self.out.write_all(&self.payload_bytes.to_le_bytes())?;
        self.out
            .write_all(&(self.index.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(&idx).to_le_bytes())?;
        self.out.write_all(BLOCK_MAGIC)?;
        self.out.flush()?;
        let file = self.out.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&self.tmp, &self.path)?;
        let data = Mmap::map(&file, self.offset)?;
        Ok(SealedBlocks {
            file,
            data,
            path: self.path,
            codec: self.codec,
            n: self.n,
            index: self.index,
            records: self.records,
            payload_bytes: self.payload_bytes,
        })
    }
}

/// Read handle over a finished block file: point reads from the mapped
/// data region, scans through positioned reads of the file.
pub struct SealedBlocks {
    file: File,
    data: Mmap,
    path: PathBuf,
    pub(crate) codec: RecordCodec,
    /// Vertices the file was written for (its footer's `n`).
    pub(crate) n: u32,
    index: Vec<BlockMeta>,
    pub(crate) records: u32,
    pub(crate) payload_bytes: u64,
}

impl SealedBlocks {
    /// Opens and validates a block file: footer magic, index checksum,
    /// and contiguous in-bounds block extents. Any truncation or
    /// corruption is rejected here, before a single record is served.
    /// Only then is the data region mapped.
    pub fn open<P: AsRef<Path>>(path: P, codec: RecordCodec) -> io::Result<SealedBlocks> {
        use std::os::unix::fs::FileExt;
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < FOOTER_LEN {
            return Err(invalid("block file shorter than its footer"));
        }
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN)?;
        if &footer[24..28] != BLOCK_MAGIC {
            return Err(invalid("bad block file magic"));
        }
        let n = u32::from_le_bytes(footer[0..4].try_into().unwrap());
        let records = u32::from_le_bytes(footer[4..8].try_into().unwrap());
        let payload_bytes = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let nblocks = u32::from_le_bytes(footer[16..20].try_into().unwrap()) as u64;
        let index_crc = u32::from_le_bytes(footer[20..24].try_into().unwrap());
        let index_len = nblocks * INDEX_ENTRY_LEN;
        if file_len < FOOTER_LEN + index_len {
            return Err(invalid("block index extends past file start"));
        }
        let data_len = file_len - FOOTER_LEN - index_len;
        let mut idx = vec![0u8; index_len as usize];
        file.read_exact_at(&mut idx, data_len)?;
        if crc32(&idx) != index_crc {
            return Err(invalid("block index fails its checksum"));
        }
        let mut index = Vec::with_capacity(nblocks as usize);
        let mut expect_offset = 0u64;
        let mut prev_first: Option<u32> = None;
        for chunk in idx.chunks_exact(INDEX_ENTRY_LEN as usize) {
            let m = BlockMeta {
                first_v: u32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                entries: u32::from_le_bytes(chunk[4..8].try_into().unwrap()),
                offset: u64::from_le_bytes(chunk[8..16].try_into().unwrap()),
                len: u32::from_le_bytes(chunk[16..20].try_into().unwrap()),
            };
            if m.offset != expect_offset || m.entries == 0 {
                return Err(invalid("block index entries not contiguous"));
            }
            if prev_first.is_some_and(|p| m.first_v <= p) {
                return Err(invalid("block index not sorted by vertex"));
            }
            prev_first = Some(m.first_v);
            expect_offset += m.len as u64;
            index.push(m);
        }
        if expect_offset != data_len {
            return Err(invalid("block data region length mismatch"));
        }
        let data = Mmap::map(&file, data_len)?;
        Ok(SealedBlocks {
            file,
            data,
            path,
            codec,
            n,
            index,
            records,
            payload_bytes,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of blocks in the file.
    pub(crate) fn blocks(&self) -> u32 {
        self.index.len() as u32
    }

    /// Whether `path` names the very file this handle reads: the same
    /// device and inode, not merely an equal path string. `false` when
    /// either side cannot be inspected.
    pub(crate) fn is_at(&self, path: &Path) -> bool {
        use std::os::unix::fs::MetadataExt;
        match (self.file.metadata(), std::fs::metadata(path)) {
            (Ok(open), Ok(named)) => open.dev() == named.dev() && open.ino() == named.ino(),
            _ => false,
        }
    }

    /// Walks a block body, calling `f(vertex, payload)` per entry until it
    /// returns `false`. Payloads borrow from `body`. A vertex id at or
    /// above the footer's `n` is refused: no checksum covers the footer,
    /// and a reader must never hand out a vertex the level was not sized
    /// for.
    fn walk<'b>(
        &self,
        m: &BlockMeta,
        body: &'b [u8],
        mut f: impl FnMut(u32, &'b [u8]) -> io::Result<bool>,
    ) -> io::Result<()> {
        let mut pos = 0usize;
        let mut v = m.first_v;
        for i in 0..m.entries {
            let delta = read_varint_u64(body, &mut pos)
                .ok_or_else(|| invalid("corrupt block entry delta"))?;
            let len = read_varint_u64(body, &mut pos)
                .ok_or_else(|| invalid("corrupt block entry length"))?
                as usize;
            if len > body.len() - pos {
                return Err(invalid("block entry payload overruns block"));
            }
            if i > 0 {
                v = v
                    .checked_add(delta as u32)
                    .ok_or_else(|| invalid("block vertex overflow"))?;
            }
            if v >= self.n {
                return Err(invalid(format!(
                    "block vertex {v} out of range for {} vertices in {}",
                    self.n,
                    self.path.display()
                )));
            }
            if !f(v, &body[pos..pos + len])? {
                return Ok(());
            }
            pos += len;
        }
        Ok(())
    }

    fn decode(&self, v: u32, payload: &[u8]) -> io::Result<Record> {
        Record::decode(self.codec, &mut &payload[..]).ok_or_else(|| {
            invalid(format!(
                "corrupt record for vertex {v} in {}",
                self.path.display()
            ))
        })
    }

    /// One lookup: binary search of the index, then a walk of the block
    /// in place in the mapping (extents were checked when the handle was
    /// made).
    pub(crate) fn get(&self, v: u32) -> io::Result<RecordHandle<'_>> {
        let at = self.index.partition_point(|m| m.first_v <= v);
        if at == 0 {
            return Ok(RecordHandle::Owned(Record::default()));
        }
        let m = self.index[at - 1];
        let body = &self.data.bytes()[m.offset as usize..][..m.len as usize];
        let mut hit = None;
        self.walk(&m, body, |ev, payload| {
            if ev == v {
                hit = Some(payload);
            }
            Ok(ev < v)
        })?;
        Ok(RecordHandle::Owned(match hit {
            Some(payload) => self.decode(v, payload)?,
            None => Record::default(),
        }))
    }

    /// Streams `(vertex, record)` ascending, decoding one block at a
    /// time. Each positioned read covers a run of consecutive blocks of at
    /// least [`IO_RUN_BYTES`]. Scans do not go through the mapping: a
    /// mapped pass would leave every page of the file resident in this
    /// process.
    pub(crate) fn scan(&self) -> LevelScan<'_> {
        use std::os::unix::fs::FileExt;
        let mut next_block = 0usize;
        // The bytes of blocks up to `run_end`, read from file offset
        // `run_start`.
        let mut run = Vec::new();
        let (mut run_start, mut run_end) = (0u64, 0usize);
        let mut pending = Vec::new().into_iter();
        Box::new(std::iter::from_fn(move || loop {
            if let Some((v, rec)) = pending.next() {
                return Some(Ok((v, RecordHandle::Owned(rec))));
            }
            if next_block == self.index.len() {
                return None;
            }
            if next_block == run_end {
                run_start = self.index[next_block].offset;
                let mut len = 0usize;
                while run_end < self.index.len() && len < IO_RUN_BYTES {
                    len += self.index[run_end].len as usize;
                    run_end += 1;
                }
                run.resize(len, 0);
                if let Err(e) = self.file.read_exact_at(&mut run, run_start) {
                    next_block = self.index.len();
                    return Some(Err(e));
                }
            }
            let m = self.index[next_block];
            next_block += 1;
            let body = &run[(m.offset - run_start) as usize..][..m.len as usize];
            let mut entries = Vec::with_capacity(m.entries as usize);
            let walked = self.walk(&m, body, |v, payload| {
                entries.push((v, self.decode(v, payload)?));
                Ok(true)
            });
            if let Err(e) = walked {
                return Some(Err(e));
            }
            pending = entries.into_iter();
        }))
    }
}

/// One level under construction on block storage: a byte-budgeted
/// memtable that spills sorted runs next to the level file (module docs).
/// It only takes records; [`BlockBuilder::seal`] turns it into the
/// read-only level.
pub struct BlockBuilder {
    path: PathBuf,
    codec: RecordCodec,
    n: u32,
    mem_budget: usize,
    mem: Vec<(u32, Vec<u8>)>,
    mem_bytes: usize,
    runs: Vec<PathBuf>,
    peak_mem_bytes: u64,
}

impl BlockBuilder {
    /// Starts a level that seals into `path`. `mem_budget == 0` means
    /// unbudgeted (a single sorted run in memory, no spills).
    pub fn create<P: AsRef<Path>>(
        path: P,
        n: u32,
        codec: RecordCodec,
        mem_budget: usize,
    ) -> io::Result<BlockBuilder> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(BlockBuilder {
            path,
            codec,
            n,
            mem_budget: if mem_budget == 0 {
                usize::MAX
            } else {
                mem_budget
            },
            mem: Vec::new(),
            mem_bytes: 0,
            runs: Vec::new(),
            peak_mem_bytes: 0,
        })
    }

    /// Stores the completed record of `v`, re-sealed under the level's
    /// codec if needed; empty records are dropped.
    pub fn put(&mut self, v: u32, rec: Record) -> io::Result<()> {
        if rec.is_empty() {
            return Ok(());
        }
        let rec = if rec.codec() == self.codec {
            rec
        } else {
            rec.recode(self.codec)
        };
        let mut payload = Vec::with_capacity(rec.encoded_len());
        rec.encode(&mut payload);
        let cost = payload.len() + ENTRY_OVERHEAD;
        if !self.mem.is_empty() && self.mem_bytes + cost > self.mem_budget {
            self.spill()?;
        }
        self.mem_bytes += cost;
        self.peak_mem_bytes = self.peak_mem_bytes.max(self.mem_bytes as u64);
        self.mem.push((v, payload));
        Ok(())
    }

    /// Sorts the memtable into the next run file `<path>.run<i>`. The run
    /// is listed before a byte is written, so even a half-written run is
    /// removed with the builder.
    fn spill(&mut self) -> io::Result<()> {
        let mut os = self.path.clone().into_os_string();
        os.push(format!(".run{}", self.runs.len()));
        let run = PathBuf::from(os);
        self.runs.push(run.clone());
        self.mem.sort_unstable_by_key(|e| e.0);
        let mut w = RunWriter::create(run)?;
        for (v, payload) in &self.mem {
            w.push(*v, payload)?;
        }
        w.finish()?;
        self.mem.clear();
        self.mem_bytes = 0;
        Ok(())
    }

    /// Merges every spilled run plus the in-memory tail into the final
    /// block file and returns it as a read-only level carrying this
    /// build's spill history.
    pub fn seal(mut self) -> io::Result<Level> {
        let mut mem = std::mem::take(&mut self.mem);
        mem.sort_unstable_by_key(|e| e.0);
        let mut writer = BlockWriter::create(&self.path, self.n, self.codec)?;
        if self.runs.is_empty() {
            for (v, payload) in &mem {
                writer.add_encoded(*v, payload)?;
            }
        } else {
            let mut runs: Vec<Box<dyn Iterator<Item = RunItem>>> =
                Vec::with_capacity(self.runs.len() + 1);
            for p in &self.runs {
                runs.push(Box::new(RunReader::open(p)?));
            }
            runs.push(Box::new(mem.into_iter().map(Ok)));
            for item in MergeIter::new(runs)? {
                let (v, payload) = item?;
                writer.add_encoded(v, &payload)?;
            }
        }
        Ok(Level::Block {
            blocks: writer.finish()?,
            spill_runs: self.runs.len() as u32,
            peak_mem_bytes: self.peak_mem_bytes,
        })
    }
}

impl Drop for BlockBuilder {
    fn drop(&mut self) {
        // Sealed or abandoned, a builder leaves no run files behind.
        for p in &self.runs {
            std::fs::remove_file(p).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageKind;
    use motivo_treelet::{path_treelet, star_treelet, ColorSet, ColoredTreelet};

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

    /// A record whose encoding outgrows a block on both codecs: every
    /// colored treelet on 2–4 of 6 colors, with ~100-bit counts.
    fn big_record_in(codec: RecordCodec, seed: u64) -> Record {
        use motivo_treelet::all_treelets;
        let mut keys = Vec::new();
        for h in 2..=4u32 {
            for &t in all_treelets(h).iter() {
                for colors in ColorSet::full(6).subsets_of_size(h) {
                    keys.push(ColoredTreelet::new(t, colors).code());
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let counts = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, (1u128 << 100) + seed as u128 * 1000 + i as u128))
            .collect();
        Record::from_counts_in(codec, counts)
    }

    /// A block level builder sealing into `path`.
    fn builder(path: &Path, n: u32, codec: RecordCodec, budget: usize) -> BlockBuilder {
        BlockBuilder::create(path, n, codec, budget).unwrap()
    }

    fn open(path: &Path, codec: RecordCodec) -> Level {
        Level::open(path, codec).unwrap()
    }

    /// The in-memory reference level holding `records`.
    fn memory(n: u32, codec: RecordCodec, records: &[(u32, Record)]) -> Level {
        let mut mem = StorageKind::Memory.create_level(1, n, codec).unwrap();
        for (v, rec) in records {
            mem.put(*v, rec.clone()).unwrap();
        }
        mem.seal().unwrap()
    }

    fn contents(level: &Level) -> Vec<(u32, Vec<(ColoredTreelet, u128)>)> {
        level
            .scan()
            .map(|item| {
                let (v, rec) = item.unwrap();
                (v, rec.iter().collect())
            })
            .collect()
    }

    /// `level` answers every point read and its scan exactly like `mem`.
    fn assert_reads_like(level: &Level, mem: &Level) {
        for v in 0..mem.num_vertices() {
            assert_eq!(
                level.get(v).unwrap().iter().collect::<Vec<_>>(),
                mem.get(v).unwrap().iter().collect::<Vec<_>>(),
                "vertex {v}"
            );
        }
        assert_eq!(contents(level), contents(mem));
        assert_eq!(level.record_count(), mem.record_count());
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("motivo-block-test-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unbudgeted_build_roundtrips_and_matches_memory() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("rt-{codec}"));
            let mut blk = builder(&dir.join("l.mtvb"), 40, codec, 0);
            let mut recs = Vec::new();
            for v in [3u32, 0, 17, 39, 9] {
                blk.put(v, record_in(codec, v as u64)).unwrap();
                recs.push((v, record_in(codec, v as u64)));
            }
            let blk = blk.seal().unwrap();
            assert_reads_like(&blk, &memory(40, codec, &recs));
            assert_eq!(blk.record_count(), 5);
            assert_eq!(blk.profile().spill_runs, 0);
            assert!(blk.profile().blocks >= 1);
            let ids: Vec<u32> = blk.scan().map(|r| r.unwrap().0).collect();
            assert_eq!(ids, vec![0, 3, 9, 17, 39]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn tiny_budget_spills_and_serves_identical_records() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("spill-{codec}"));
            // ~100 B budget on ~60 B entries: spills every other put.
            let mut blk = builder(&dir.join("l.mtvb"), 200, codec, 100);
            let mut recs = Vec::new();
            // Unsorted arrival order exercises run-sorting and the merge.
            for v in (0..200u32).map(|i| (i * 73) % 200) {
                blk.put(v, record_in(codec, v as u64)).unwrap();
                recs.push((v, record_in(codec, v as u64)));
            }
            let blk = blk.seal().unwrap();
            let spills = blk.profile().spill_runs;
            assert!(spills >= 2, "want ≥2 spills, got {spills}");
            assert!(blk.profile().peak_mem_bytes <= 200, "budget respected");
            assert_reads_like(&blk, &memory(200, codec, &recs));
            // Run files are cleaned up after the merge.
            let runs: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(".run"))
                .collect();
            assert!(runs.is_empty(), "leftover runs: {runs:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A builder dropped before it seals (a failed build) removes the runs
    /// it spilled, and writes no level file.
    #[test]
    fn abandoned_builder_leaves_no_runs() {
        let dir = tmp("abandoned");
        let codec = RecordCodec::Plain;
        let mut blk = builder(&dir.join("l.mtvb"), 50, codec, 100);
        for v in 0..50u32 {
            blk.put(v, record_in(codec, v as u64)).unwrap();
        }
        assert!(std::fs::read_dir(&dir).unwrap().count() >= 2, "spilled");
        drop(blk);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budgeted_and_unbudgeted_block_files_are_byte_identical() {
        let dir = tmp("identical");
        for codec in RecordCodec::ALL {
            let a_path = dir.join(format!("a-{codec}.mtvb"));
            let b_path = dir.join(format!("b-{codec}.mtvb"));
            let mut a = builder(&a_path, 300, codec, 0);
            let mut b = builder(&b_path, 300, codec, 128);
            for v in (0..300u32).rev() {
                a.put(v, record_in(codec, v as u64 * 7)).unwrap();
                b.put(v, record_in(codec, v as u64 * 7)).unwrap();
            }
            a.seal().unwrap();
            assert!(b.seal().unwrap().profile().spill_runs >= 2);
            let (fa, fb) = (
                std::fs::read(&a_path).unwrap(),
                std::fs::read(&b_path).unwrap(),
            );
            assert_eq!(fa, fb, "{codec}: spilled build must be byte-identical");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_matches_and_torn_files_are_rejected() {
        let dir = tmp("reopen");
        let path = dir.join("l.mtvb");
        let codec = RecordCodec::Succinct;
        let mut blk = builder(&path, 50, codec, 0);
        for v in 0..50u32 {
            blk.put(v, record_in(codec, v as u64)).unwrap();
        }
        let blk = blk.seal().unwrap();
        let back = open(&path, codec);
        assert_eq!(back.record_count(), 50);
        assert_reads_like(&back, &blk);
        drop(back);
        let full = std::fs::read(&path).unwrap();
        for cut in [1usize, 10, full.len() / 2] {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            assert!(
                SealedBlocks::open(&path, codec).is_err(),
                "truncated by {cut} must be rejected"
            );
        }
        // Flip one index byte: checksum must catch it.
        let mut flipped = full.clone();
        let idx_start = flipped.len() - 28 - 20; // one block min
        flipped[idx_start] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(SealedBlocks::open(&path, codec).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// No checksum covers the footer, so a lowered vertex count `n` opens;
    /// every read that meets a vertex at or above it is then an error,
    /// never a vertex the level was not sized for.
    #[test]
    fn vertices_beyond_the_footer_count_are_refused() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("footer-n-{codec}"));
            let path = dir.join("l.mtvb");
            let mut blk = builder(&path, 40, codec, 0);
            for v in 0..40u32 {
                blk.put(v, record_in(codec, v as u64)).unwrap();
            }
            drop(blk.seal().unwrap());
            let mut bytes = std::fs::read(&path).unwrap();
            let footer = bytes.len() - FOOTER_LEN as usize;
            bytes[footer..footer + 4].copy_from_slice(&4u32.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let level = open(&path, codec);
            assert_eq!(level.num_vertices(), 4);
            assert!(level.get(39).is_err(), "{codec}: vertex 39 of 4");
            let scan: Vec<_> = level.scan().collect();
            assert!(scan.iter().any(Result::is_err), "{codec}: scan");
            assert!(scan.iter().flatten().all(|(v, _)| *v < 4));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn multi_block_levels_split_and_search() {
        // Big records force several blocks; lookups must hit the right one.
        let dir = tmp("multiblock");
        let codec = RecordCodec::Plain;
        let mut blk = builder(&dir.join("l.mtvb"), 5000, codec, 0);
        let big: Vec<(u64, u128)> = {
            use motivo_treelet::all_treelets;
            let mut keys = Vec::new();
            for h in 2..=4u32 {
                for &t in all_treelets(h).iter() {
                    for colors in ColorSet::full(6).subsets_of_size(h) {
                        keys.push(ColoredTreelet::new(t, colors).code());
                    }
                }
            }
            keys.sort_unstable();
            keys.dedup();
            keys.into_iter().take(60).map(|k| (k, 5u128)).collect()
        };
        assert_eq!(big.len(), 60);
        for v in (0..5000u32).step_by(3) {
            blk.put(v, Record::from_counts_in(codec, big.clone()))
                .unwrap();
        }
        let blk = blk.seal().unwrap();
        assert!(
            blk.profile().blocks > 10,
            "blocks: {}",
            blk.profile().blocks
        );
        for v in [0u32, 1, 2, 3, 2499, 2500, 4998, 4999] {
            let rec = blk.get(v).unwrap();
            if v % 3 == 0 {
                assert_eq!(rec.len(), big.len(), "vertex {v}");
            } else {
                assert!(rec.is_empty(), "vertex {v}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resealing_a_path_leaves_open_handles_on_their_own_records() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("reseal-{codec}"));
            let path = dir.join("l.mtvb");
            let mut first = builder(&path, 100, codec, 0);
            let mut recs = Vec::new();
            for v in 0..100u32 {
                first.put(v, record_in(codec, v as u64)).unwrap();
                recs.push((v, record_in(codec, v as u64)));
            }
            let first = first.seal().unwrap();
            let reopened = open(&path, codec);
            // Seal other records at the same path while both handles live.
            let mut second = builder(&path, 100, codec, 0);
            let mut recs2 = Vec::new();
            for v in (0..100u32).step_by(3) {
                second.put(v, big_record_in(codec, v as u64)).unwrap();
                recs2.push((v, big_record_in(codec, v as u64)));
            }
            let second = second.seal().unwrap();
            let (mem, mem2) = (memory(100, codec, &recs), memory(100, codec, &recs2));
            assert_reads_like(&first, &mem);
            assert_reads_like(&reopened, &mem);
            assert_reads_like(&second, &mem2);
            assert_reads_like(&open(&path, codec), &mem2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn empty_level_maps_nothing_and_reads_like_memory() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("empty-{codec}"));
            let path = dir.join("l.mtvb");
            let mut blk = builder(&path, 30, codec, 0);
            blk.put(4, Record::default()).unwrap(); // empty records are dropped
            let blk = blk.seal().unwrap();
            let mem = memory(30, codec, &[]);
            assert_eq!(blk.profile().blocks, 0);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), FOOTER_LEN);
            assert_reads_like(&blk, &mem);
            assert_reads_like(&open(&path, codec), &mem);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn records_larger_than_a_block_read_like_memory() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("oversized-{codec}"));
            let path = dir.join("l.mtvb");
            let mut blk = builder(&path, 60, codec, 0);
            let mut recs = Vec::new();
            for v in 0..60u32 {
                // Oversized records between runs of small ones, and two
                // oversized neighbours at the end.
                let rec = if v % 7 == 3 || v >= 58 {
                    big_record_in(codec, v as u64)
                } else {
                    record_in(codec, v as u64)
                };
                assert!(v % 7 != 3 || rec.encoded_len() > BLOCK_TARGET_BYTES);
                blk.put(v, rec.clone()).unwrap();
                recs.push((v, rec));
            }
            let blk = blk.seal().unwrap();
            let mem = memory(60, codec, &recs);
            assert_reads_like(&blk, &mem);
            assert_reads_like(&open(&path, codec), &mem);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The footer CRC covers only the index, so a sealed file with damaged
    /// data still opens. Every point read and the scan must then answer
    /// `Ok` or `Err`, never panic, and the damage must show as errors.
    #[test]
    fn flipped_data_bytes_read_as_errors_not_panics() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("flip-{codec}"));
            let path = dir.join("l.mtvb");
            let n = 30u32;
            let mut blk = builder(&path, n, codec, 0);
            for v in 0..n {
                let rec = if v % 10 == 4 {
                    big_record_in(codec, v as u64)
                } else {
                    record_in(codec, v as u64)
                };
                blk.put(v, rec).unwrap();
            }
            let blk = blk.seal().unwrap();
            let index_len = blk.profile().blocks as u64 * INDEX_ENTRY_LEN;
            drop(blk);
            let clean = std::fs::read(&path).unwrap();
            let data_len = (clean.len() as u64 - FOOTER_LEN - index_len) as usize;
            // About 100 flips per codec, spread over the whole data region.
            let mut errors = 0;
            for (i, at) in (0..data_len).step_by(data_len / 100 + 1).enumerate() {
                let mask = [0x01u8, 0x80, 0xff][i % 3];
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                std::fs::write(&path, &bytes).unwrap();
                let reads = std::panic::catch_unwind(|| {
                    let level = open(&path, codec);
                    let gets = (0..n).map(|v| level.get(v).map(drop));
                    let scan = level.scan().map(|item| item.map(drop));
                    gets.chain(scan).filter(Result::is_err).count()
                });
                match reads {
                    Ok(e) => errors += e,
                    Err(_) => panic!("{codec}: flip {mask:#04x} at data byte {at} panicked"),
                }
            }
            assert!(errors > 0, "{codec}: no flip was reported");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn levels_written_with_16_kib_blocks_still_read() {
        for codec in RecordCodec::ALL {
            let dir = tmp(&format!("16k-{codec}"));
            let old = dir.join("old.mtvb");
            let cur = dir.join("cur.mtvb");
            let mut w_old = BlockWriter::create(&old, 3000, codec)
                .unwrap()
                .with_target(16 * 1024);
            let mut w_cur = BlockWriter::create(&cur, 3000, codec).unwrap();
            let mut recs = Vec::new();
            for v in (0..3000u32).filter(|v| v % 5 != 1) {
                let rec = if v % 97 == 0 {
                    big_record_in(codec, v as u64)
                } else {
                    record_in(codec, v as u64)
                };
                w_old.add(v, &rec).unwrap();
                w_cur.add(v, &rec).unwrap();
                recs.push((v, rec));
            }
            let (old_blocks, cur_blocks) = (
                w_old.finish().unwrap().index.len(),
                w_cur.finish().unwrap().index.len(),
            );
            assert!(
                old_blocks * 8 < cur_blocks,
                "{codec}: {old_blocks} old vs {cur_blocks} current blocks"
            );
            let mem = memory(3000, codec, &recs);
            let reopened = open(&old, codec);
            assert_eq!(reopened.profile().blocks as usize, old_blocks);
            assert_reads_like(&reopened, &mem);
            assert_reads_like(&open(&cur, codec), &mem);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
