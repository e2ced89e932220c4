//! Sorted-run files and the k-way streaming merge that compacts them.
//!
//! When a [`crate::BlockBuilder`] exceeds its memtable budget it spills
//! the sorted memtable to a *run file* and continues; sealing the level
//! merges every run (plus the final in-memory tail) into the immutable
//! block file with [`MergeIter`], a streaming k-way merge. Peak memory is
//! therefore one memtable plus one in-flight frame per run, never the
//! whole level.
//!
//! Run file layout (all integers little-endian):
//!
//! ```text
//! "MTVR" | u32 version=1
//! frame*  :=  u32 vertex | u32 len | u32 crc32(payload) | payload bytes
//! end     :=  u32 0xFFFF_FFFF | u32 frame_count | u32 crc32(frame_count LE)
//! ```
//!
//! The end marker is mandatory: a reader that hits EOF without it reports
//! the run as torn, so a crash mid-spill can never serve partial data.

use crate::checksum::crc32;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

pub(crate) const RUN_MAGIC: &[u8; 4] = b"MTVR";
pub(crate) const RUN_VERSION: u32 = 1;
const END_SENTINEL: u32 = u32::MAX;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One run frame as the merge sees it: a vertex and its encoded record,
/// or the I/O error that ended the run.
pub type RunItem = io::Result<(u32, Vec<u8>)>;

/// Writes one sorted run: `(vertex, encoded record)` frames in ascending
/// vertex order, finished by an end marker.
pub struct RunWriter {
    out: BufWriter<File>,
    frames: u32,
    last_v: Option<u32>,
}

impl RunWriter {
    pub fn create(path: impl AsRef<Path>) -> io::Result<RunWriter> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(RUN_MAGIC)?;
        out.write_all(&RUN_VERSION.to_le_bytes())?;
        Ok(RunWriter {
            out,
            frames: 0,
            last_v: None,
        })
    }

    /// Appends one frame. Vertices must arrive strictly ascending.
    pub fn push(&mut self, v: u32, payload: &[u8]) -> io::Result<()> {
        if v == END_SENTINEL {
            return Err(invalid("vertex id u32::MAX is reserved"));
        }
        if self.last_v.is_some_and(|p| v <= p) {
            return Err(invalid(format!(
                "run frames out of order: {v} after {:?}",
                self.last_v
            )));
        }
        self.last_v = Some(v);
        self.out.write_all(&v.to_le_bytes())?;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.frames += 1;
        Ok(())
    }

    /// Writes the end marker and flushes; without it the run reads as torn.
    pub fn finish(mut self) -> io::Result<()> {
        let count = self.frames;
        self.out.write_all(&END_SENTINEL.to_le_bytes())?;
        self.out.write_all(&count.to_le_bytes())?;
        self.out
            .write_all(&crc32(&count.to_le_bytes()).to_le_bytes())?;
        self.out.flush()
    }
}

/// Sequential reader over one run file; validates the header, every frame
/// CRC, and the end marker. Any truncation or corruption surfaces as an
/// `Err` item — a torn run is never silently served as a short run.
pub struct RunReader {
    input: BufReader<File>,
    frames_seen: u32,
    state: RunState,
}

enum RunState {
    Reading,
    Finished,
    Failed,
}

impl RunReader {
    pub fn open(path: &Path) -> io::Result<RunReader> {
        let file = File::open(path)?;
        let mut input = BufReader::new(file);
        let mut header = [0u8; 8];
        input
            .read_exact(&mut header)
            .map_err(|_| invalid("run file shorter than its header"))?;
        if &header[..4] != RUN_MAGIC {
            return Err(invalid("bad run magic"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != RUN_VERSION {
            return Err(invalid(format!("unsupported run version {version}")));
        }
        Ok(RunReader {
            input,
            frames_seen: 0,
            state: RunState::Reading,
        })
    }

    fn next_frame(&mut self) -> io::Result<Option<(u32, Vec<u8>)>> {
        let mut head = [0u8; 12];
        self.input
            .read_exact(&mut head)
            .map_err(|_| invalid("torn run file: EOF before end marker"))?;
        let v = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(head[4..8].try_into().unwrap());
        let crc = u32::from_le_bytes(head[8..12].try_into().unwrap());
        if v == END_SENTINEL {
            if len != self.frames_seen {
                return Err(invalid(format!(
                    "run end marker counts {len} frames, read {}",
                    self.frames_seen
                )));
            }
            if crc != crc32(&len.to_le_bytes()) {
                return Err(invalid("run end marker checksum mismatch"));
            }
            let mut rest = [0u8; 1];
            if self.input.read(&mut rest)? != 0 {
                return Err(invalid("trailing bytes after run end marker"));
            }
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        self.input
            .read_exact(&mut payload)
            .map_err(|_| invalid("torn run file: frame payload truncated"))?;
        if crc32(&payload) != crc {
            return Err(invalid(format!("run frame for vertex {v} fails its CRC")));
        }
        self.frames_seen += 1;
        Ok(Some((v, payload)))
    }
}

impl Iterator for RunReader {
    type Item = io::Result<(u32, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.state {
            RunState::Reading => match self.next_frame() {
                Ok(Some(item)) => Some(Ok(item)),
                Ok(None) => {
                    self.state = RunState::Finished;
                    None
                }
                Err(e) => {
                    self.state = RunState::Failed;
                    Some(Err(e))
                }
            },
            RunState::Finished | RunState::Failed => None,
        }
    }
}

/// Streaming k-way merge over ascending `(vertex, payload)` runs.
///
/// Yields vertices in ascending order exactly once each. When the same
/// vertex appears in several runs — or several times within one run — the
/// *latest* occurrence wins (highest run index; within a run, the last
/// frame), matching "concatenate runs in order, stable-sort by key, keep
/// the last duplicate". An `Err` from any run is yielded once and fuses
/// the iterator.
pub struct MergeIter<I> {
    runs: Vec<I>,
    // Min-heap emulated with a sorted-descending Vec: (vertex, run index,
    // payload) — run counts are small (one per spill), so O(runs) inserts
    // beat heap bookkeeping complexity.
    heads: Vec<(u32, usize, Vec<u8>)>,
    failed: bool,
}

impl<I> MergeIter<I>
where
    I: Iterator<Item = io::Result<(u32, Vec<u8>)>>,
{
    pub fn new(mut runs: Vec<I>) -> io::Result<MergeIter<I>> {
        let mut heads = Vec::with_capacity(runs.len());
        for (idx, run) in runs.iter_mut().enumerate() {
            if let Some(first) = run.next() {
                let (v, payload) = first?;
                heads.push((v, idx, payload));
            }
        }
        let mut merge = MergeIter {
            runs,
            heads,
            failed: false,
        };
        merge.sort_heads();
        Ok(merge)
    }

    /// Descending (vertex, run) order so the minimum lives at the tail.
    fn sort_heads(&mut self) {
        self.heads
            .sort_unstable_by_key(|h| std::cmp::Reverse((h.0, h.1)));
    }

    /// Pulls the next frame of `run` back into the head set.
    fn refill(&mut self, run: usize) -> io::Result<()> {
        if let Some(item) = self.runs[run].next() {
            let (v, payload) = item?;
            let at = self
                .heads
                .partition_point(|h| (h.0, h.1) > (v, run))
                .min(self.heads.len());
            self.heads.insert(at, (v, run, payload));
        }
        Ok(())
    }

    fn next_merged(&mut self) -> io::Result<Option<(u32, Vec<u8>)>> {
        let Some((v, run, payload)) = self.heads.pop() else {
            return Ok(None);
        };
        let mut winner = (run, payload);
        self.refill(run)?;
        // Later runs (and later frames within a run) override earlier ones.
        while self.heads.last().is_some_and(|h| h.0 == v) {
            let (_, run, payload) = self.heads.pop().unwrap();
            if run >= winner.0 {
                winner = (run, payload);
            }
            self.refill(run)?;
        }
        Ok(Some((v, winner.1)))
    }
}

impl<I> Iterator for MergeIter<I>
where
    I: Iterator<Item = io::Result<(u32, Vec<u8>)>>,
{
    type Item = io::Result<(u32, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_merged() {
            Ok(Some(item)) => Some(Ok(item)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Convenience: merge in-memory runs (used by tests and the sealed tail).
pub fn mem_run(entries: Vec<(u32, Vec<u8>)>) -> std::vec::IntoIter<io::Result<(u32, Vec<u8>)>> {
    entries.into_iter().map(Ok).collect::<Vec<_>>().into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(m: MergeIter<impl Iterator<Item = io::Result<(u32, Vec<u8>)>>>) -> Vec<(u32, u8)> {
        m.map(|r| r.unwrap()).map(|(v, p)| (v, p[0])).collect()
    }

    #[test]
    fn merges_disjoint_runs_in_order() {
        let a = mem_run(vec![(0, vec![1]), (4, vec![2])]);
        let b = mem_run(vec![(1, vec![3]), (9, vec![4])]);
        let m = MergeIter::new(vec![a, b]).unwrap();
        assert_eq!(collect(m), vec![(0, 1), (1, 3), (4, 2), (9, 4)]);
    }

    #[test]
    fn later_run_wins_on_duplicate_vertex() {
        let a = mem_run(vec![(3, vec![10]), (5, vec![11])]);
        let b = mem_run(vec![(3, vec![20])]);
        let m = MergeIter::new(vec![a, b]).unwrap();
        assert_eq!(collect(m), vec![(3, 20), (5, 11)]);
    }

    #[test]
    fn empty_and_single_runs() {
        let m = MergeIter::new(vec![mem_run(vec![]), mem_run(vec![(2, vec![7])])]).unwrap();
        assert_eq!(collect(m), vec![(2, 7)]);
        let m: MergeIter<std::vec::IntoIter<RunItem>> = MergeIter::new(vec![]).unwrap();
        assert_eq!(collect(m), vec![]);
    }

    #[test]
    fn run_file_roundtrip_and_torn_detection() {
        let dir = std::env::temp_dir().join(format!("motivo-run-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.run");
        let mut w = RunWriter::create(&path).unwrap();
        w.push(1, b"alpha").unwrap();
        w.push(7, b"beta").unwrap();
        w.finish().unwrap();
        let got: Vec<_> = RunReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![(1, b"alpha".to_vec()), (7, b"beta".to_vec())]);

        // Truncate off the end marker: the reader must error, not succeed.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 6]).unwrap();
        let items: Vec<_> = RunReader::open(&path).unwrap().collect();
        assert!(
            items.last().unwrap().is_err(),
            "torn run must surface an Err"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_out_of_order_frames() {
        let dir = std::env::temp_dir().join(format!("motivo-run-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = RunWriter::create(dir.join("b.run")).unwrap();
        w.push(5, b"x").unwrap();
        assert!(w.push(5, b"y").is_err());
        assert!(w.push(4, b"z").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
