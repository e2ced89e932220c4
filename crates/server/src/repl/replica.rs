//! The replica's sync session: a [`SyncDriver`] owned by a replica's
//! serve loop that keeps its read-only store converging toward the
//! leader. The driver is **stepped**, not looped — the reactor arms a
//! timer, a pool worker calls [`SyncDriver::step`], and the returned
//! delay arms the next timer — so tailing the leader occupies a worker
//! slot only while a round is actually running, and no dedicated sync
//! thread exists.
//!
//! Each session connects (through the typed [`Client`]), heals (fetches
//! any file the local manifest references but the disk lacks — a crash
//! can land between a file fetch and the journal append that needed it),
//! then tails the leader one round per step:
//!
//! 1. send `ReplFetch` with the local `(offset, prefix_crc, log_id)`
//!    cursor ([`motivo_store::UrnStore::replication_cursor`]);
//! 2. if the leader flags the cursor `stale` (it gc-compacted, or this
//!    replica's log is from another lineage), re-bootstrap: install its
//!    `ReplManifest` snapshot, then heal files again — files already on
//!    disk with matching length+crc are **not** refetched, so a
//!    bootstrap after gc moves metadata, not tables;
//! 3. otherwise, for each returned journal frame: fetch the files the
//!    record will reference *first* (`BuildFinished` → the urn's sealed
//!    tables, `GraphAdded` → the cached graph), then append+apply it.
//!    Files-before-journal is the crash-safety order — if the process
//!    dies mid-fetch the journal hasn't advanced, and the re-fetch after
//!    restart skips everything already on disk.
//!
//! Connection errors tear the session down; the next step reconnects
//! after a delay from [`super::backoff::Backoff`]. A `Promote` (or
//! server shutdown) simply stops the stepping and the serve loop calls
//! [`SyncDriver::finish`].

use crate::client::Client;
use crate::proto::ReplTarget;
use crate::repl::backoff::Backoff;
use crate::repl::ReplShared;
use motivo_core::checksum::crc32;
use motivo_store::{BuildStatus, FileMeta, ManifestRecord, StoreError, UrnId, UrnStore};
use std::time::Duration;

/// How a replica server reaches its leader.
pub struct SyncOptions {
    /// The leader's `host:port`.
    pub leader: String,
    /// This replica's name in the leader's registry (its own serve
    /// address, so `ReplStatus` on the leader reads like a topology map).
    pub name: String,
    /// Delay between fetches once caught up.
    pub poll: Duration,
}

wire_replies! {
    /// The sync session's self-reported state, served by `ReplStatus` on the
    /// replica.
    #[derive(Default)]
    pub struct SyncStatus {
        /// A session to the leader is currently up.
        pub connected: bool,
        /// The last fetch found nothing left to pull.
        pub caught_up: bool,
        /// Local durable journal offset after the last apply.
        pub offset: u64,
        /// The leader's journal length at the last fetch.
        pub leader_len: u64,
        /// Snapshot installs (1 for a clean start; +1 per gc re-bootstrap).
        pub bootstraps: u64,
        /// `ReplFetch` round-trips made.
        pub fetches: u64,
        /// Files actually downloaded (heals that found everything present
        /// don't move this — the no-refetch invariant, observable here).
        pub files_fetched: u64,
        /// Journal records applied locally.
        pub records_applied: u64,
        /// The most recent session-ending error, kept after reconnect until
        /// a session succeeds.
        pub last_error: Option<String>,
    }
}

fn estore(e: StoreError) -> String {
    format!("store: {e}")
}

fn with_status(shared: &ReplShared, f: impl FnOnce(&mut SyncStatus)) {
    let mut st = shared.sync.lock().expect("sync status poisoned");
    f(&mut st);
}

/// The replica sync state machine: one leader session plus reconnect
/// backoff, advanced one fetch/apply round at a time by the serve loop's
/// timer jobs. Every failure is recorded in [`SyncStatus::last_error`]
/// and turns into a delayed retry, never a crash.
pub struct SyncDriver<'s> {
    store: &'s UrnStore,
    shared: &'s ReplShared,
    opts: SyncOptions,
    client: Option<Client>,
    backoff: Backoff,
}

impl<'s> SyncDriver<'s> {
    pub fn new(store: &'s UrnStore, shared: &'s ReplShared, opts: SyncOptions) -> SyncDriver<'s> {
        SyncDriver {
            store,
            shared,
            opts,
            client: None,
            backoff: Backoff::new(Duration::from_millis(100), Duration::from_secs(5)),
        }
    }

    /// Runs one round — connect + heal if no session is up, then one
    /// fetch/apply — and returns how long to wait before the next step:
    /// zero while catching up, the configured poll interval once caught
    /// up, the backoff delay after a failure.
    pub fn step(&mut self) -> Duration {
        match self.try_step() {
            Ok(caught_up) => {
                self.backoff.reset();
                if caught_up {
                    self.opts.poll
                } else {
                    Duration::ZERO
                }
            }
            Err(e) => {
                // Tear the session down; the next step reconnects and
                // heals from scratch.
                self.client = None;
                with_status(self.shared, |st| {
                    st.connected = false;
                    st.caught_up = false;
                    st.last_error = Some(e);
                });
                self.backoff.next_delay()
            }
        }
    }

    fn try_step(&mut self) -> Result<bool, String> {
        if self.client.is_none() {
            let mut client = Client::connect(&self.opts.leader)
                .map_err(|e| format!("connect {}: {e}", self.opts.leader))?;
            // Heal before tailing: a crash mid-bootstrap or mid-fetch may
            // have left manifest entries whose files never fully landed.
            ensure_all_files(&mut client, self.store, self.shared, &self.opts)?;
            with_status(self.shared, |st| {
                st.connected = true;
                st.last_error = None;
            });
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("connected above");
        poll_once(client, self.store, self.shared, &self.opts)
    }

    /// Ends the session (promotion or server shutdown): drops the leader
    /// connection and reports disconnected.
    pub fn finish(&mut self) {
        self.client = None;
        with_status(self.shared, |st| {
            st.connected = false;
        });
    }
}

/// One fetch/apply round; returns whether the replica is caught up.
fn poll_once(
    client: &mut Client,
    store: &UrnStore,
    shared: &ReplShared,
    opts: &SyncOptions,
) -> Result<bool, String> {
    let (offset, prefix_crc) = store.replication_cursor().map_err(estore)?;
    let log_id = store.log_id().map_err(estore)?;
    let fetch = client
        .repl_fetch(opts.name.clone(), offset, prefix_crc, log_id)
        .map_err(|e| format!("ReplFetch: {e}"))?;
    with_status(shared, |st| st.fetches += 1);

    if fetch.stale {
        bootstrap(client, store, shared, opts)?;
        return Ok(false);
    }

    for bytes in &fetch.payloads {
        let rec = ManifestRecord::decode(bytes).map_err(estore)?;
        ensure_record_files(client, store, shared, opts, &rec)?;
        store
            .apply_replicated(std::slice::from_ref(bytes))
            .map_err(estore)?;
        with_status(shared, |st| st.records_applied += 1);
    }

    let new_offset = store.replication_offset();
    let caught_up = new_offset >= fetch.leader_len;
    with_status(shared, |st| {
        st.offset = new_offset;
        st.leader_len = fetch.leader_len;
        st.caught_up = caught_up;
    });
    Ok(caught_up)
}

/// Installs the leader's manifest snapshot (resetting the local journal
/// to offset 0) and heals files against the new manifest. Urn ids are
/// stable across gc, so tables already fetched survive a re-bootstrap.
fn bootstrap(
    client: &mut Client,
    store: &UrnStore,
    shared: &ReplShared,
    opts: &SyncOptions,
) -> Result<(), String> {
    let snap = client
        .repl_manifest()
        .map_err(|e| format!("ReplManifest: {e}"))?;
    store.install_manifest(&snap.manifest).map_err(estore)?;
    with_status(shared, |st| {
        st.bootstraps += 1;
        st.offset = 0;
    });
    ensure_all_files(client, store, shared, opts)
}

/// Fetches every file the local manifest references but the local disk
/// lacks (or holds with the wrong length/crc). Files already present and
/// matching are skipped — asserted by the resume tests via the leader's
/// `files_served` counter.
fn ensure_all_files(
    client: &mut Client,
    store: &UrnStore,
    shared: &ReplShared,
    opts: &SyncOptions,
) -> Result<(), String> {
    for g in store.graphs() {
        ensure_graph_file(client, store, shared, opts, g.fingerprint)?;
    }
    for m in store.list() {
        if m.status == BuildStatus::Built {
            ensure_urn_files(client, store, shared, opts, m.id)?;
        }
    }
    Ok(())
}

/// Fetches what one journal record is about to reference.
fn ensure_record_files(
    client: &mut Client,
    store: &UrnStore,
    shared: &ReplShared,
    opts: &SyncOptions,
    rec: &ManifestRecord,
) -> Result<(), String> {
    match rec {
        ManifestRecord::GraphAdded(g) => {
            ensure_graph_file(client, store, shared, opts, g.fingerprint)
        }
        ManifestRecord::BuildFinished { id, .. } => {
            ensure_urn_files(client, store, shared, opts, *id)
        }
        _ => Ok(()),
    }
}

fn ensure_urn_files(
    client: &mut Client,
    store: &UrnStore,
    shared: &ReplShared,
    opts: &SyncOptions,
    id: UrnId,
) -> Result<(), String> {
    let leader_files = client
        .repl_files(ReplTarget::Urn(id), Some(opts.name.clone()))
        .map_err(|e| format!("ReplFiles urn-{}: {e}", id.0))?;
    let local = store.urn_file_list(id).map_err(estore)?;
    for meta in leader_files {
        if local
            .iter()
            .any(|l| l.name == meta.name && l.len == meta.len && l.crc == meta.crc)
        {
            continue;
        }
        let bytes = fetch_file(client, shared, opts, ReplTarget::Urn(id), &meta)?;
        store
            .install_urn_file(id, &meta.name, &bytes)
            .map_err(estore)?;
    }
    Ok(())
}

fn ensure_graph_file(
    client: &mut Client,
    store: &UrnStore,
    shared: &ReplShared,
    opts: &SyncOptions,
    fingerprint: u64,
) -> Result<(), String> {
    let leader_files = client
        .repl_files(ReplTarget::Graph(fingerprint), Some(opts.name.clone()))
        .map_err(|e| format!("ReplFiles graph {fingerprint:016x}: {e}"))?;
    // Zero rows: the leader has no cached graph file (graphs are an
    // optimization for re-builds, not required to serve) — nothing to do.
    let Some(meta) = leader_files.into_iter().next() else {
        return Ok(());
    };
    let local = store.graph_file_meta(fingerprint).map_err(estore)?;
    if local.is_some_and(|l| l.len == meta.len && l.crc == meta.crc) {
        return Ok(());
    }
    let bytes = fetch_file(client, shared, opts, ReplTarget::Graph(fingerprint), &meta)?;
    store
        .install_graph_file(fingerprint, &bytes)
        .map_err(estore)?;
    Ok(())
}

/// Downloads one file in chunks and verifies its length and crc against
/// the inventory row before handing it back for an atomic install.
fn fetch_file(
    client: &mut Client,
    shared: &ReplShared,
    opts: &SyncOptions,
    target: ReplTarget,
    meta: &FileMeta,
) -> Result<Vec<u8>, String> {
    let mut bytes: Vec<u8> = Vec::with_capacity(meta.len as usize);
    loop {
        let chunk = client
            .repl_file(
                target,
                meta.name.clone(),
                bytes.len() as u64,
                Some(opts.name.clone()),
            )
            .map_err(|e| format!("ReplFile {}: {e}", meta.name))?;
        if chunk.data.is_empty() && (bytes.len() as u64) < chunk.total {
            return Err(format!("ReplFile {}: empty chunk before EOF", meta.name));
        }
        bytes.extend_from_slice(&chunk.data);
        if bytes.len() as u64 >= chunk.total {
            break;
        }
    }
    if bytes.len() as u64 != meta.len || crc32(&bytes) != meta.crc {
        // The leader's file changed under us (a gc, a re-build): fail the
        // session; the reconnect heal sees the new inventory.
        return Err(format!(
            "ReplFile {}: fetched {} bytes crc {:#010x}, inventory said {} bytes crc {:#010x}",
            meta.name,
            bytes.len(),
            crc32(&bytes),
            meta.len,
            meta.crc
        ));
    }
    with_status(shared, |st| st.files_fetched += 1);
    Ok(bytes)
}
