//! Journal-shipping replication (DESIGN.md §8): the store-side halves of
//! the leader/replica protocol.
//!
//! The CRC32 journal *is* the replication log. A replica's `journal.log`
//! is maintained as a **byte-identical prefix** of the leader's: the
//! leader hands out decoded frame payloads from a byte offset
//! ([`UrnStore::journal_segment`]), and the replica re-appends them
//! through the same framing code ([`UrnStore::apply_replicated`]), which
//! deterministically reproduces the exact frame bytes (`len:u32le`
//! `crc:u32le` `payload`). A replica's replication offset is therefore
//! just its own journal length — after a crash, `Journal::open`'s
//! torn-tail truncation lands it back on its last durable offset with no
//! extra bookkeeping.
//!
//! Two things identify a leader's log lineage:
//!
//! - **`log_id`** — CRC32 of the leader's `MANIFEST` snapshot bytes (0
//!   while no snapshot exists). A `gc` folds the journal into a fresh
//!   snapshot and resets the journal, changing the `log_id`; a replica
//!   presenting the old one is told it is stale and re-bootstraps.
//! - **`prefix_crc`** — CRC32 of the replica's own journal bytes, checked
//!   by the leader against its first `offset` bytes. Matching offsets on
//!   divergent logs (say, a replica re-pointed at a different leader)
//!   cannot silently stream garbage.
//!
//! Sealed urn payloads and host graphs travel as plain files
//! ([`UrnStore::urn_file_list`] + chunked reads), installed on the
//! replica via temp-file + rename *before* the journal record that makes
//! them visible is applied — a crash between the two leaves an invisible
//! file, never a visible urn with missing bytes, and files already
//! present (matched by length + CRC32) are never fetched again.

use motivo_core::checksum::crc32;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::Instant;

use crate::error::StoreError;
use crate::manifest::{self, ManifestRecord, ManifestState, UrnId};
use crate::store::UrnStore;

/// Cap on raw journal bytes returned by one [`UrnStore::journal_segment`]
/// call; hex encoding on the wire doubles it, comfortably inside the
/// 8 MiB frame cap.
pub const SEGMENT_MAX_BYTES: usize = 1 << 20;

/// Cap on raw bytes of one file chunk served to a replica.
pub const FILE_CHUNK_BYTES: usize = 1 << 20;

/// One leader response to a journal poll.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalSegment {
    /// The offset the segment starts at (the replica's request offset).
    pub from: u64,
    /// Decoded frame payloads from `from` onward, in append order
    /// (empty when the replica is caught up, or when `stale`).
    pub payloads: Vec<Vec<u8>>,
    /// The leader's total journal length, for lag accounting.
    pub leader_len: u64,
    /// CRC32 of the leader's `MANIFEST` bytes (0 if absent).
    pub log_id: u32,
    /// The requested offset is not a prefix of this log (journal reset by
    /// gc, divergent lineage, or a mid-frame offset): the replica must
    /// re-bootstrap from the snapshot instead of applying `payloads`.
    pub stale: bool,
}

/// One file a replica may need to mirror: name, length, and content CRC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    pub name: String,
    pub len: u64,
    pub crc: u32,
}

/// Rejects file names that could escape the store directory: replication
/// moves plain files within known directories, so a name with a path
/// separator (or a relative component) is corrupt or hostile.
pub fn check_plain_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(StoreError::Corrupt(format!(
            "replication file name `{name}` is not a plain file name"
        )));
    }
    Ok(())
}

fn file_meta(path: &Path) -> Result<FileMeta, StoreError> {
    let bytes = std::fs::read(path)?;
    Ok(FileMeta {
        name: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
        len: bytes.len() as u64,
        crc: crc32(&bytes),
    })
}

fn read_chunk(path: &Path, offset: u64, max: usize) -> Result<(Vec<u8>, u64), StoreError> {
    let mut f = std::fs::File::open(path)?;
    let total = f.metadata()?.len();
    let mut data = Vec::new();
    if offset < total {
        f.seek(SeekFrom::Start(offset))?;
        let want = ((total - offset) as usize).min(max);
        data.resize(want, 0);
        f.read_exact(&mut data)?;
    }
    Ok((data, total))
}

impl UrnStore {
    /// This store's replication offset: the length of its valid journal
    /// prefix. On a replica this is exactly how much of the leader's log
    /// it holds durably.
    pub fn replication_offset(&self) -> u64 {
        let state = self.inner.state.lock().expect("store state poisoned");
        state.journal.len_bytes()
    }

    /// The replication offset together with the CRC32 of the journal
    /// bytes up to it — the `(offset, prefix_crc)` pair a replica sends
    /// with every fetch. Reads both under one lock hold so the crc always
    /// matches the offset.
    pub fn replication_cursor(&self) -> Result<(u64, u32), StoreError> {
        let state = self.inner.state.lock().expect("store state poisoned");
        let len = state.journal.len_bytes();
        let raw = match std::fs::read(state.journal.path()) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        if (len as usize) > raw.len() {
            return Err(StoreError::Corrupt(format!(
                "journal shorter on disk ({}) than its valid prefix ({len})",
                raw.len()
            )));
        }
        Ok((len, crc32(&raw[..len as usize])))
    }

    /// The log lineage id: CRC32 of the `MANIFEST` snapshot bytes, 0 if
    /// no snapshot has been written yet. Changes whenever `gc` compacts
    /// the journal into a fresh snapshot.
    pub fn log_id(&self) -> Result<u32, StoreError> {
        let _state = self.inner.state.lock().expect("store state poisoned");
        self.log_id_locked()
    }

    fn log_id_locked(&self) -> Result<u32, StoreError> {
        match std::fs::read(self.inner.dir.join("MANIFEST")) {
            Ok(bytes) => Ok(crc32(&bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// The raw `MANIFEST` snapshot bytes (empty if none exists): what
    /// bootstraps an empty or stale replica.
    pub fn manifest_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let _state = self.inner.state.lock().expect("store state poisoned");
        match std::fs::read(self.inner.dir.join("MANIFEST")) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Serves the journal suffix starting at byte `from`, provided
    /// `prefix_crc` (the CRC32 of the replica's first `from` journal
    /// bytes) proves the replica's log is a prefix of this one. At most
    /// `max_bytes` of raw frame bytes are returned per call; the replica
    /// polls again for more. Runs under the state lock so it cannot race
    /// an append or a gc journal reset.
    pub fn journal_segment(
        &self,
        from: u64,
        prefix_crc: u32,
        max_bytes: usize,
    ) -> Result<JournalSegment, StoreError> {
        let state = self.inner.state.lock().expect("store state poisoned");
        let log_id = self.log_id_locked()?;
        let leader_len = state.journal.len_bytes();
        let raw = match std::fs::read(state.journal.path()) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        drop(state);

        let stale_segment = |from: u64| JournalSegment {
            from,
            payloads: Vec::new(),
            leader_len,
            log_id,
            stale: true,
        };
        if from > leader_len
            || from as usize > raw.len()
            || crc32(&raw[..from as usize]) != prefix_crc
        {
            return Ok(stale_segment(from));
        }

        let mut payloads = Vec::new();
        let mut at = from as usize;
        let end = leader_len as usize;
        let mut served = 0usize;
        while at + 8 <= end && served < max_bytes {
            let len = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(raw[at + 4..at + 8].try_into().unwrap());
            if at + 8 + len > end {
                // `from` was inside a frame — not a boundary of this log.
                return Ok(stale_segment(from));
            }
            let payload = raw[at + 8..at + 8 + len].to_vec();
            if crc32(&payload) != crc {
                return Ok(stale_segment(from));
            }
            served += 8 + len;
            at += 8 + len;
            payloads.push(payload);
        }
        if served < max_bytes && at < end {
            // The parse stopped short of the end with less than a frame
            // header remaining. Every frame is ≥ 8 bytes and the log ends
            // on a frame boundary, so `from` was inside the tail frame.
            return Ok(stale_segment(from));
        }
        Ok(JournalSegment {
            from,
            payloads,
            leader_len,
            log_id,
            stale: false,
        })
    }

    /// Applies a batch of leader journal payloads to this replica:
    /// each record is **decoded first** (a corrupt payload is rejected
    /// before anything is journaled), then appended to the local journal
    /// (fsynced — this is what makes the offset durable), then folded
    /// into the in-memory manifest; `Removed` records also drop the urn
    /// from the cache and delete its directory. An I/O failure stops the
    /// batch at a record boundary: the journal keeps a clean prefix and
    /// no record is ever half-applied. Returns the new offset.
    pub fn apply_replicated(&self, payloads: &[Vec<u8>]) -> Result<u64, StoreError> {
        let hist = self.inner.obs.histogram("store.repl.apply");
        let applied = self.inner.obs.counter("store.repl.applied");
        let mut state = self.inner.state.lock().expect("store state poisoned");
        for payload in payloads {
            let rec = ManifestRecord::decode(payload)?;
            let t0 = Instant::now();
            state.journal.append(payload)?;
            state.manifest.apply(&rec);
            if let ManifestRecord::Removed { id } = rec {
                state.cache.remove(id);
                match std::fs::remove_dir_all(self.inner.urn_dir(id)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(StoreError::Io(e)),
                }
            }
            applied.inc();
            hist.record_duration(t0.elapsed());
        }
        let offset = state.journal.len_bytes();
        drop(state);
        // A BuildFinished may have unblocked `BuildHandle::wait`ers.
        self.inner.built.notify_all();
        Ok(offset)
    }

    /// Installs a leader `MANIFEST` snapshot on this replica (the
    /// re-bootstrap path after a stale poll): validates the bytes, writes
    /// them atomically, resets the local journal (its lineage just
    /// changed), and swaps in the decoded manifest. The urn cache and
    /// resident graphs are dropped — ids are stable across a leader gc,
    /// but entries removed by the compaction must not stay servable.
    /// Files already on disk are left in place; the caller re-verifies
    /// them against the leader's file lists (matching files are *not*
    /// re-fetched).
    pub fn install_manifest(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let fresh = if bytes.is_empty() {
            ManifestState::default()
        } else {
            manifest::decode_snapshot(bytes)?
        };
        let mut state = self.inner.state.lock().expect("store state poisoned");
        let path = self.inner.dir.join("MANIFEST");
        if bytes.is_empty() {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(StoreError::Io(e)),
            }
        } else {
            motivo_obs::atomic_write(&path, bytes)?;
        }
        state.journal.reset()?;
        state.manifest = fresh;
        state.cache.clear();
        state.graphs.clear();
        Ok(())
    }

    /// Lists the files of one urn's sealed directory (empty if the
    /// directory doesn't exist), with length and content CRC so a replica
    /// can diff against what it already holds.
    pub fn urn_file_list(&self, id: UrnId) -> Result<Vec<FileMeta>, StoreError> {
        let dir = self.inner.urn_dir(id);
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(file_meta(&entry.path())?);
            }
        }
        files.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(files)
    }

    /// Reads up to `max` bytes of one urn file at `offset`; returns the
    /// chunk and the file's total length.
    pub fn read_urn_file(
        &self,
        id: UrnId,
        name: &str,
        offset: u64,
        max: usize,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        check_plain_name(name)?;
        read_chunk(&self.inner.urn_dir(id).join(name), offset, max)
    }

    /// Installs one urn file on this replica, atomically (temp + rename).
    pub fn install_urn_file(&self, id: UrnId, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        check_plain_name(name)?;
        let dir = self.inner.urn_dir(id);
        std::fs::create_dir_all(&dir)?;
        motivo_obs::atomic_write(&dir.join(name), bytes)?;
        Ok(())
    }

    /// The metadata of one registered host-graph file, `None` if the file
    /// is absent.
    pub fn graph_file_meta(&self, fingerprint: u64) -> Result<Option<FileMeta>, StoreError> {
        let path = self.inner.graph_path(fingerprint);
        match file_meta(&path) {
            Ok(meta) => Ok(Some(meta)),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads up to `max` bytes of one host-graph file at `offset`.
    pub fn read_graph_file(
        &self,
        fingerprint: u64,
        offset: u64,
        max: usize,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        read_chunk(&self.inner.graph_path(fingerprint), offset, max)
    }

    /// Installs one host-graph file on this replica, atomically.
    pub fn install_graph_file(&self, fingerprint: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.inner.graph_path(fingerprint);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        motivo_obs::atomic_write(&path, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreOptions;
    use crate::BuildStatus;
    use motivo_core::BuildConfig;

    fn workdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("motivo-store-repl-tests")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_graph() -> motivo_graph::Graph {
        motivo_graph::generators::barabasi_albert(60, 2, 11)
    }

    #[test]
    fn plain_name_guard_rejects_traversal() {
        for bad in ["", ".", "..", "a/b", "..\\up", "/etc/passwd"] {
            assert!(check_plain_name(bad).is_err(), "{bad:?} must be rejected");
        }
        check_plain_name("table.bin").unwrap();
    }

    /// The byte-mirror invariant in one process: re-appending the decoded
    /// payloads reproduces the leader's journal bytes exactly, and the
    /// replica's manifest converges to the leader's.
    #[test]
    fn segment_payloads_reproduce_leader_bytes_exactly() {
        let leader_dir = workdir("mirror-leader");
        let replica_dir = workdir("mirror-replica");
        let leader = UrnStore::open(&leader_dir).unwrap();
        let g = tiny_graph();
        let handle = leader
            .build_or_get(&g, &BuildConfig::new(3).seed(5))
            .unwrap();
        handle.wait().unwrap();

        let replica = UrnStore::open_replica(&replica_dir, StoreOptions::default()).unwrap();
        let seg = leader
            .journal_segment(0, crc32(&[]), SEGMENT_MAX_BYTES)
            .unwrap();
        assert!(!seg.stale);
        assert!(!seg.payloads.is_empty());
        let offset = replica.apply_replicated(&seg.payloads).unwrap();
        assert_eq!(offset, seg.leader_len);

        let leader_bytes = std::fs::read(leader_dir.join("journal.log")).unwrap();
        let replica_bytes = std::fs::read(replica_dir.join("journal.log")).unwrap();
        assert_eq!(
            leader_bytes, replica_bytes,
            "journals must be byte-identical"
        );
        assert_eq!(replica.replication_offset(), leader.replication_offset());
        let metas = replica.list();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].status, BuildStatus::Built);
    }

    /// A divergent or out-of-range offset is reported stale, never served.
    #[test]
    fn stale_offsets_and_divergent_prefixes_are_flagged() {
        let leader = UrnStore::open(workdir("stale-leader")).unwrap();
        let g = tiny_graph();
        leader
            .build_or_get(&g, &BuildConfig::new(3).seed(5))
            .unwrap()
            .wait()
            .unwrap();
        let len = leader.replication_offset();
        assert!(len > 0);
        // Beyond the end: stale.
        let seg = leader
            .journal_segment(len + 8, 0, SEGMENT_MAX_BYTES)
            .unwrap();
        assert!(seg.stale);
        // Right length, wrong prefix CRC (a different log lineage): stale.
        let seg = leader
            .journal_segment(len, 0xBAD0_BAD0, SEGMENT_MAX_BYTES)
            .unwrap();
        assert!(seg.stale);
        // Mid-frame offset (with a *correct* prefix CRC, so the boundary
        // check itself is what trips): stale, not garbage frames.
        let raw = std::fs::read(leader.dir().join("journal.log")).unwrap();
        let seg = leader
            .journal_segment(2, crc32(&raw[..2]), SEGMENT_MAX_BYTES)
            .unwrap();
        assert!(seg.stale);
    }

    /// Read-only gating: replica stores refuse every local mutation until
    /// promoted, and promotion sweeps builds the dead leader left pending.
    #[test]
    fn replica_refuses_mutations_until_promoted() {
        let replica = UrnStore::open_replica(workdir("gate"), StoreOptions::default()).unwrap();
        assert!(replica.is_read_only());
        let g = tiny_graph();
        assert!(matches!(
            replica.build_or_get(&g, &BuildConfig::new(3).seed(5)),
            Err(StoreError::ReadOnly)
        ));
        assert!(matches!(replica.gc(), Err(StoreError::ReadOnly)));
        assert!(matches!(
            replica.remove(UrnId(0)),
            Err(StoreError::UnknownUrn(_)) | Err(StoreError::ReadOnly)
        ));
        assert_eq!(replica.promote().unwrap(), 0);
        assert!(!replica.is_read_only());
        let handle = replica
            .build_or_get(&g, &BuildConfig::new(3).seed(5))
            .unwrap();
        handle.wait().unwrap();
    }

    /// Promotion fails a build the leader never finished (a replicated
    /// `BuildStarted` without its finish record).
    #[test]
    fn promote_sweeps_pending_replicated_builds() {
        let leader = UrnStore::open(workdir("sweep-leader")).unwrap();
        let g = tiny_graph();
        leader
            .build_or_get(&g, &BuildConfig::new(3).seed(5))
            .unwrap()
            .wait()
            .unwrap();
        let seg = leader
            .journal_segment(0, crc32(&[]), SEGMENT_MAX_BYTES)
            .unwrap();
        // Replicate everything but the final BuildFinished record.
        let n = seg.payloads.len();
        assert!(n >= 3, "GraphAdded + BuildStarted + BuildFinished");
        let replica =
            UrnStore::open_replica(workdir("sweep-replica"), StoreOptions::default()).unwrap();
        replica.apply_replicated(&seg.payloads[..n - 1]).unwrap();
        assert_eq!(replica.list()[0].status, BuildStatus::Pending);
        assert_eq!(replica.promote().unwrap(), 1);
        assert_eq!(replica.list()[0].status, BuildStatus::Failed);
    }

    /// A gc on the leader resets its journal and rewrites MANIFEST: the
    /// replica's old offset goes stale, and a snapshot install restores
    /// convergence with ids intact.
    #[test]
    fn gc_goes_stale_and_snapshot_reinstall_recovers() {
        let leader_dir = workdir("gc-leader");
        let leader = UrnStore::open(&leader_dir).unwrap();
        let g = tiny_graph();
        leader
            .build_or_get(&g, &BuildConfig::new(3).seed(5))
            .unwrap()
            .wait()
            .unwrap();

        // Replica fully caught up.
        let replica =
            UrnStore::open_replica(workdir("gc-replica"), StoreOptions::default()).unwrap();
        let seg = leader
            .journal_segment(0, crc32(&[]), SEGMENT_MAX_BYTES)
            .unwrap();
        replica.apply_replicated(&seg.payloads).unwrap();
        let old_offset = replica.replication_offset();
        let old_log_id = leader.log_id().unwrap();

        leader.gc().unwrap();
        assert_ne!(
            leader.log_id().unwrap(),
            old_log_id,
            "gc changes the log id"
        );
        let replica_journal = std::fs::read(replica.dir().join("journal.log")).unwrap();
        let seg = leader
            .journal_segment(old_offset, crc32(&replica_journal), SEGMENT_MAX_BYTES)
            .unwrap();
        assert!(seg.stale, "pre-gc offset must be stale");

        replica
            .install_manifest(&leader.manifest_bytes().unwrap())
            .unwrap();
        assert_eq!(replica.replication_offset(), 0);
        assert_eq!(replica.log_id().unwrap(), leader.log_id().unwrap());
        let metas = replica.list();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].status, BuildStatus::Built);
    }

    /// A built urn directory holds exactly the urn's files — no spill run,
    /// `.new` or legacy level file for a replica to fetch — whether the
    /// build used the store's default budget or a tiny one that spills;
    /// and each file survives a chunked copy to a replica.
    #[test]
    fn urn_files_roundtrip_with_chunked_reads() {
        let g = tiny_graph();
        let default_cfg = BuildConfig::new(3).seed(5);
        let spilling_cfg = BuildConfig::new(3)
            .seed(5)
            .build_mem_bytes(std::path::PathBuf::new(), 256);
        for (name, cfg, spills) in [
            ("default", default_cfg, false),
            ("spill", spilling_cfg, true),
        ] {
            let leader = UrnStore::open(workdir(&format!("files-leader-{name}"))).unwrap();
            let handle = leader.build_or_get(&g, &cfg).unwrap();
            let urn = handle.wait().unwrap();
            assert_eq!(urn.urn().build_stats().spill_runs > 0, spills, "{name}");
            let id = handle.id();

            let files = leader.urn_file_list(id).unwrap();
            let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "coloring.mtvc",
                    "level-1.mtvb",
                    "level-2.mtvb",
                    "level-3.mtvb",
                    "table.meta",
                    "urn.meta"
                ],
                "{name}"
            );
            let replica = UrnStore::open_replica(
                workdir(&format!("files-replica-{name}")),
                StoreOptions::default(),
            )
            .unwrap();
            for f in &files {
                // Deliberately tiny chunks to exercise reassembly.
                let mut bytes = Vec::new();
                loop {
                    let (chunk, total) = leader
                        .read_urn_file(id, &f.name, bytes.len() as u64, 7)
                        .unwrap();
                    bytes.extend_from_slice(&chunk);
                    if bytes.len() as u64 >= total {
                        break;
                    }
                }
                assert_eq!(bytes.len() as u64, f.len);
                assert_eq!(crc32(&bytes), f.crc);
                replica.install_urn_file(id, &f.name, &bytes).unwrap();
            }
            assert_eq!(replica.urn_file_list(id).unwrap(), files);
        }
    }
}
