//! [`UrnStore`]: the repository. Owns a directory of built urns the way an
//! LSM engine owns its SSTables — a manifest snapshot plus journal for
//! durability, a background worker for builds, and an LRU cache for
//! serving.
//!
//! Directory layout (documented in DESIGN.md):
//!
//! ```text
//! store/
//!   MANIFEST            checksummed snapshot of the manifest state
//!   journal.log         length-prefixed CRC32 records since the snapshot
//!   graphs/<fp>.mtvg    host graphs, keyed by fingerprint
//!   urns/urn-<id>/      one save_urn directory per built urn
//! ```

use motivo_core::{build_urn, graph_fingerprint, load_urn, save_urn, BuildConfig};
use motivo_graph::{io as graph_io, Graph};
use motivo_obs::{Counter, Histogram, Obs, Registry};
use motivo_table::{storage::StorageKind, DEFAULT_BUILD_MEM_BYTES};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cache::{CacheStats, UrnCache};
use crate::error::StoreError;
use crate::journal::Journal;
use crate::manifest::{
    self, BuildKey, BuildStatus, GraphMeta, ManifestRecord, ManifestState, UrnId, UrnMeta,
};
use crate::owned::StoreUrn;

/// Store tuning knobs. A build's thread count is the caller's
/// [`BuildConfig::threads`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Byte budget of the loaded-urn LRU cache.
    pub cache_bytes: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            cache_bytes: 256 << 20,
        }
    }
}

/// What `gc` did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Urn directories on disk that no live manifest entry claims.
    pub orphan_dirs_removed: usize,
    /// Graph files no live urn references.
    pub orphan_graphs_removed: usize,
    /// Journal bytes folded into the snapshot.
    pub journal_bytes_compacted: u64,
}

/// What `open` found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Builds that were in flight at crash time, now failed + swept.
    pub interrupted_builds: usize,
    /// Torn journal tail bytes dropped.
    pub torn_journal_bytes: u64,
}

pub(crate) struct State {
    pub(crate) manifest: ManifestState,
    pub(crate) journal: Journal,
    pub(crate) cache: UrnCache,
    /// Loaded host graphs by fingerprint (separate from the urn cache:
    /// several urns share one graph).
    pub(crate) graphs: HashMap<u64, Arc<Graph>>,
    /// `store.journal.appends` counter.
    pub(crate) journal_appends: Counter,
    /// `store.journal.append` latency histogram.
    pub(crate) journal_append_hist: Arc<Histogram>,
}

impl State {
    /// Journals a record (durability first), then folds it into the
    /// in-memory manifest. The in-memory state advances even if the append
    /// fails — readers must not see an urn stuck pending — and the error
    /// is reported to the caller.
    pub(crate) fn commit(&mut self, rec: &ManifestRecord) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let res = self.journal.append(&rec.encode());
        self.journal_appends.inc();
        self.journal_append_hist.record_duration(t0.elapsed());
        self.manifest.apply(rec);
        res
    }
}

pub(crate) struct Inner {
    pub(crate) dir: PathBuf,
    pub(crate) state: Mutex<State>,
    pub(crate) built: Condvar,
    /// The store's metric registry: journal, cache, build, and query
    /// metrics all land here, and a server wrapping this store registers
    /// its per-request metrics in the same registry so one `Metrics`
    /// rendering covers the full stack.
    pub(crate) obs: Arc<Registry>,
    /// Set on replica stores: every local mutation path refuses with
    /// [`StoreError::ReadOnly`]; the only writer is
    /// [`UrnStore::apply_replicated`], which mirrors the leader's journal
    /// byte-for-byte. Cleared by [`UrnStore::promote`].
    pub(crate) read_only: AtomicBool,
}

impl Inner {
    pub(crate) fn urn_dir(&self, id: UrnId) -> PathBuf {
        self.dir.join("urns").join(id.dir_name())
    }

    pub(crate) fn graph_path(&self, fingerprint: u64) -> PathBuf {
        self.dir
            .join("graphs")
            .join(format!("{fingerprint:016x}.mtvg"))
    }

    /// Serves `id` through the cache, loading from disk on miss. The disk
    /// load runs with the state lock *released* — a cache miss on one urn
    /// must not stall cache hits, listings, or the build worker — so two
    /// racing misses may both load; the loser adopts the winner's entry.
    ///
    /// The boolean reports whether *this call* was served straight from the
    /// resident cache. It is the authoritative hit/miss attribution: a
    /// racing loader that adopts the winner's entry still did the disk work
    /// and still reports a miss, exactly once (the historical
    /// check-`is_cached`-then-`get` pattern could count the same load as
    /// both a hit and a miss across the two calls).
    fn get_urn(&self, id: UrnId) -> Result<(Arc<StoreUrn>, bool), StoreError> {
        let (fingerprint, resident_graph) = {
            let mut state = self.state.lock().expect("store state poisoned");
            let meta = match state.manifest.urns.get(&id) {
                Some(m) => m.clone(),
                None => return Err(StoreError::UnknownUrn(id)),
            };
            if meta.status != BuildStatus::Built {
                return Err(StoreError::NotBuilt(id));
            }
            if let Some(urn) = state.cache.get(id) {
                return Ok((urn, true));
            }
            (
                meta.key.fingerprint,
                state.graphs.get(&meta.key.fingerprint).cloned(),
            )
        };

        let graph = match resident_graph {
            Some(g) => g,
            None => Arc::new(
                graph_io::load_binary(self.graph_path(fingerprint))
                    .map_err(|_| StoreError::GraphMissing(fingerprint))?,
            ),
        };
        let dir = self.urn_dir(id);
        let urn = Arc::new(
            StoreUrn::assemble(graph.clone(), |g| load_urn(g, &dir)).map_err(StoreError::Build)?,
        );

        let mut state = self.state.lock().expect("store state poisoned");
        state.graphs.entry(fingerprint).or_insert(graph);
        if let Some(existing) = state.cache.peek(id) {
            return Ok((existing, false)); // a racing loader published first
        }
        match state.manifest.urns.get(&id) {
            // Re-check: the urn may have been removed while we loaded.
            Some(m) if m.status == BuildStatus::Built => {
                state.cache.insert(id, urn.clone());
                Ok((urn, false))
            }
            Some(_) => Err(StoreError::NotBuilt(id)),
            None => Err(StoreError::UnknownUrn(id)),
        }
    }
}

enum Job {
    Build {
        id: UrnId,
        graph: Arc<Graph>,
        cfg: BuildConfig,
    },
    Shutdown,
}

/// A crash-safe repository of built urns with a background build worker
/// and an LRU serving cache.
pub struct UrnStore {
    pub(crate) inner: Arc<Inner>,
    tx: mpsc::Sender<Job>,
    worker: Option<JoinHandle<()>>,
    recovery: RecoveryReport,
}

impl UrnStore {
    /// Opens (creating if absent) the store at `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<UrnStore, StoreError> {
        UrnStore::open_with(dir, StoreOptions::default())
    }

    /// Opens the store, replaying the journal and garbage-collecting any
    /// build that a previous process left unfinished.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<UrnStore, StoreError> {
        UrnStore::open_impl(dir.as_ref(), opts, false)
    }

    /// Opens the store as a **read-only replica**: journal replay and
    /// torn-tail truncation happen exactly as on a leader, but the
    /// crash-recovery sweep of `Pending` urns is skipped — on a replica a
    /// `BuildStarted` without its finish record is normal mid-stream
    /// state, not an interrupted build, and sweeping it would append
    /// records the leader never wrote, breaking the invariant that the
    /// replica's journal is a byte-identical prefix of the leader's.
    /// Every local mutation path ([`UrnStore::build_or_get`],
    /// [`UrnStore::remove`], [`UrnStore::gc`]) refuses with
    /// [`StoreError::ReadOnly`] until [`UrnStore::promote`] is called.
    pub fn open_replica(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<UrnStore, StoreError> {
        UrnStore::open_impl(dir.as_ref(), opts, true)
    }

    fn open_impl(dir: &Path, opts: StoreOptions, replica: bool) -> Result<UrnStore, StoreError> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(dir.join("urns"))?;
        std::fs::create_dir_all(dir.join("graphs"))?;

        let mut manifest = manifest::load_snapshot(&dir.join("MANIFEST"))?.unwrap_or_default();
        let replay = Journal::open(dir.join("journal.log"))?;
        let mut journal = replay.journal;
        for payload in &replay.entries {
            manifest.apply(&ManifestRecord::decode(payload)?);
        }

        // Crash recovery: a Pending urn means a build was interrupted.
        // Sweep its half-written directory and record the failure. (On a
        // replica this is deferred to `promote` — see `open_replica`.)
        let interrupted: Vec<UrnId> = if replica {
            Vec::new()
        } else {
            manifest
                .urns
                .values()
                .filter(|m| m.status == BuildStatus::Pending)
                .map(|m| m.id)
                .collect()
        };
        for &id in &interrupted {
            std::fs::remove_dir_all(dir.join("urns").join(id.dir_name())).ok();
            let rec = ManifestRecord::BuildFailed { id };
            journal.append(&rec.encode())?;
            manifest.apply(&rec);
        }
        let recovery = RecoveryReport {
            interrupted_builds: interrupted.len(),
            torn_journal_bytes: replay.truncated_bytes,
        };

        let obs = Arc::new(Registry::new());
        let inner = Arc::new(Inner {
            dir,
            state: Mutex::new(State {
                manifest,
                journal,
                cache: UrnCache::new(opts.cache_bytes, &obs),
                graphs: HashMap::new(),
                journal_appends: obs.counter("store.journal.appends"),
                journal_append_hist: obs.histogram("store.journal.append"),
            }),
            built: Condvar::new(),
            obs,
            read_only: AtomicBool::new(replica),
        });

        let (tx, rx) = mpsc::channel();
        let worker_inner = inner.clone();
        let worker = std::thread::Builder::new()
            .name("motivo-store-build".into())
            .spawn(move || worker_loop(worker_inner, rx))
            .map_err(StoreError::Io)?;

        Ok(UrnStore {
            inner,
            tx,
            worker: Some(worker),
            recovery,
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Whether this store is a read-only replica (opened with
    /// [`UrnStore::open_replica`] and not yet promoted).
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only.load(Ordering::SeqCst)
    }

    /// Promotes a replica to a leader: clears the read-only flag, then
    /// runs the crash-recovery sweep that [`UrnStore::open_replica`]
    /// deferred — any urn still `Pending` was a build the dead leader
    /// never finished, so it is failed (journaled) and its half-fetched
    /// directory is removed. Returns how many such builds were swept.
    /// Idempotent; a no-op (0) on a store that is already a leader.
    pub fn promote(&self) -> Result<usize, StoreError> {
        self.inner.read_only.store(false, Ordering::SeqCst);
        let mut state = self.inner.state.lock().expect("store state poisoned");
        let interrupted: Vec<UrnId> = state
            .manifest
            .urns
            .values()
            .filter(|m| m.status == BuildStatus::Pending)
            .map(|m| m.id)
            .collect();
        for &id in &interrupted {
            std::fs::remove_dir_all(self.inner.urn_dir(id)).ok();
            state.commit(&ManifestRecord::BuildFailed { id })?;
        }
        drop(state);
        self.inner.built.notify_all();
        Ok(interrupted.len())
    }

    /// The store's metric registry. Journal appends, LRU admissions and
    /// evictions, and background build/persist spans report here; attach
    /// it to sampling configs (or a server) to fold the whole stack's
    /// metrics into one rendering.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.inner.obs
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Returns a handle to the urn for (`graph`, `cfg`): immediately ready
    /// if an identical build is already stored, joined to an in-flight
    /// build if one is running, otherwise enqueued on the build worker.
    /// The caller can [`BuildHandle::wait`] or [`BuildHandle::poll`].
    pub fn build_or_get(
        &self,
        graph: &Graph,
        cfg: &BuildConfig,
    ) -> Result<BuildHandle, StoreError> {
        if self.is_read_only() {
            return Err(StoreError::ReadOnly);
        }
        let fingerprint = graph_fingerprint(graph);
        let key = BuildKey::derive(fingerprint, cfg)?;
        let mut state = self.inner.state.lock().expect("store state poisoned");

        if let Some(m) = state.manifest.find_built(&key) {
            return Ok(self.handle(m.id));
        }
        if let Some(m) = state.manifest.find_pending(&key) {
            return Ok(self.handle(m.id));
        }

        // First sighting of this graph: persist it so the urn can be
        // served in a fresh process without the caller resupplying it.
        let graph_arc = match state.graphs.get(&fingerprint) {
            Some(g) => g.clone(),
            None => {
                let arc = Arc::new(graph.clone());
                if !state.manifest.graphs.contains_key(&fingerprint) {
                    graph_io::save_binary(graph, self.inner.graph_path(fingerprint))?;
                    state.commit(&ManifestRecord::GraphAdded(GraphMeta {
                        fingerprint,
                        nodes: graph.num_nodes(),
                        edges: graph.num_edges() as u64,
                    }))?;
                }
                state.graphs.insert(fingerprint, arc.clone());
                arc
            }
        };

        let id = UrnId(state.manifest.next_id);
        // If the start record can't be journaled, or the worker is gone,
        // fail the in-memory entry immediately — it must not linger as
        // Pending, where waiters would block forever and future requests
        // for the same key would join a build nobody is running.
        if let Err(e) = state.commit(&ManifestRecord::BuildStarted { id, key }) {
            state.manifest.apply(&ManifestRecord::BuildFailed { id });
            return Err(e);
        }
        let send = self.tx.send(Job::Build {
            id,
            graph: graph_arc,
            cfg: cfg.clone(),
        });
        if send.is_err() {
            if let Err(e) = state.commit(&ManifestRecord::BuildFailed { id }) {
                eprintln!("motivo-store: journal append for {id} failed: {e}");
            }
            return Err(StoreError::WorkerGone);
        }
        Ok(self.handle(id))
    }

    fn handle(&self, id: UrnId) -> BuildHandle {
        BuildHandle {
            inner: self.inner.clone(),
            id,
        }
    }

    /// Fetches a built urn through the cache.
    pub fn get(&self, id: UrnId) -> Result<Arc<StoreUrn>, StoreError> {
        self.inner.get_urn(id).map(|(urn, _)| urn)
    }

    /// Like [`UrnStore::get`], but also reports whether this call was
    /// served from the resident cache (`true`) or had to load the urn from
    /// disk (`false`). The query layer uses this for hit/miss accounting —
    /// unlike an [`UrnStore::is_cached`] probe followed by a `get`, the
    /// attribution cannot race with concurrent loads or evictions.
    pub fn get_traced(&self, id: UrnId) -> Result<(Arc<StoreUrn>, bool), StoreError> {
        self.inner.get_urn(id)
    }

    /// The manifest entry for one urn, if it exists.
    pub fn meta(&self, id: UrnId) -> Option<UrnMeta> {
        let state = self.inner.state.lock().expect("store state poisoned");
        state.manifest.urns.get(&id).cloned()
    }

    /// Every urn the manifest knows, ascending by id.
    pub fn list(&self) -> Vec<UrnMeta> {
        let state = self.inner.state.lock().expect("store state poisoned");
        state.manifest.urns.values().cloned().collect()
    }

    /// Registered host graphs.
    pub fn graphs(&self) -> Vec<GraphMeta> {
        let state = self.inner.state.lock().expect("store state poisoned");
        state.manifest.graphs.values().copied().collect()
    }

    /// Whether `id` is currently resident in the cache (no recency or
    /// counter update — a pure observation, used by the query layer to
    /// attribute hits and misses).
    pub fn is_cached(&self, id: UrnId) -> bool {
        let state = self.inner.state.lock().expect("store state poisoned");
        state.cache.contains(id)
    }

    /// Drops an urn from the cache (it stays on disk); returns whether it
    /// was resident.
    pub fn evict(&self, id: UrnId) -> bool {
        let mut state = self.inner.state.lock().expect("store state poisoned");
        state.cache.remove(id)
    }

    /// Deletes an urn: journaled, dropped from cache, directory removed.
    pub fn remove(&self, id: UrnId) -> Result<(), StoreError> {
        if self.is_read_only() {
            return Err(StoreError::ReadOnly);
        }
        let mut state = self.inner.state.lock().expect("store state poisoned");
        if !state.manifest.urns.contains_key(&id) {
            return Err(StoreError::UnknownUrn(id));
        }
        state.commit(&ManifestRecord::Removed { id })?;
        state.cache.remove(id);
        match std::fs::remove_dir_all(self.inner.urn_dir(id)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
        Ok(())
    }

    /// Writes a serving-stats sidecar (`server-stats.json`) into the store
    /// directory, atomically (temp file + rename). The store does not
    /// interpret the body — the server composes it from
    /// [`crate::StoreQuery::per_urn_stats`] and [`UrnStore::cache_stats`]
    /// at shutdown — but owning the write here keeps every file under the
    /// store directory written by the store itself.
    pub fn flush_stats(&self, body: &[u8]) -> Result<PathBuf, StoreError> {
        self.write_sidecar("server-stats.json", body)
    }

    /// Writes an arbitrary sidecar file into the store directory through
    /// the shared atomic temp-file+rename helper ([`motivo_obs::atomic_write`]).
    /// Used for `server-stats.json` and the periodic `metrics-<ts>.json`
    /// snapshots; a crash mid-write never shadows a previous good file.
    pub fn write_sidecar(&self, name: &str, body: &[u8]) -> Result<PathBuf, StoreError> {
        let path = self.inner.dir.join(name);
        motivo_obs::atomic_write(&path, body)?;
        Ok(path)
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.inner.state.lock().expect("store state poisoned");
        state.cache.stats()
    }

    /// Garbage-collects the directory: sweeps orphan urn dirs and graph
    /// files, then compacts the journal into a fresh MANIFEST snapshot.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        if self.is_read_only() {
            return Err(StoreError::ReadOnly);
        }
        let mut state = self.inner.state.lock().expect("store state poisoned");
        let mut report = GcReport::default();

        // Orphan urn directories: on disk but not owned by a live entry.
        let urns_root = self.inner.dir.join("urns");
        for entry in std::fs::read_dir(&urns_root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let claimed = state
                .manifest
                .urns
                .values()
                .any(|m| m.status != BuildStatus::Failed && m.dir_name() == name);
            if !claimed {
                std::fs::remove_dir_all(entry.path())?;
                report.orphan_dirs_removed += 1;
            }
        }

        // Orphan graphs: referenced by no live urn.
        let live_fps: std::collections::HashSet<u64> = state
            .manifest
            .urns
            .values()
            .filter(|m| m.status != BuildStatus::Failed)
            .map(|m| m.key.fingerprint)
            .collect();
        let dead: Vec<u64> = state
            .manifest
            .graphs
            .keys()
            .copied()
            .filter(|fp| !live_fps.contains(fp))
            .collect();
        for fp in dead {
            match std::fs::remove_file(self.inner.graph_path(fp)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(StoreError::Io(e)),
            }
            state.manifest.graphs.remove(&fp);
            state.graphs.remove(&fp);
            report.orphan_graphs_removed += 1;
        }

        // Failed urns have no directory; drop their manifest entries now
        // that the snapshot will not carry them.
        let failed: Vec<UrnId> = state
            .manifest
            .urns
            .values()
            .filter(|m| m.status == BuildStatus::Failed)
            .map(|m| m.id)
            .collect();
        for id in failed {
            state.manifest.urns.remove(&id);
        }

        report.journal_bytes_compacted = state.journal.len_bytes();
        manifest::write_snapshot(&self.inner.dir.join("MANIFEST"), &state.manifest)?;
        state.journal.reset()?;
        Ok(report)
    }
}

impl Drop for UrnStore {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl UrnMeta {
    /// Directory name of this urn under the store's `urns/` tree.
    pub fn dir_name(&self) -> String {
        self.id.dir_name()
    }
}

/// The background build worker: drains the queue, builds block levels
/// straight into the urn's directory with the caller's thread count
/// (under the caller's memtable budget, or [`DEFAULT_BUILD_MEM_BYTES`] if
/// it set none), journals the outcome, and wakes every waiter. Each level
/// file is written once, when its level seals: `save_urn` finds them in
/// place and adds only the metadata.
fn worker_loop(inner: Arc<Inner>, rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let (id, graph, cfg) = match job {
            Job::Shutdown => return,
            Job::Build { id, graph, cfg } => (id, graph, cfg),
        };
        let dir = inner.urn_dir(id);
        let started = Instant::now();
        // Panics inside the build must not kill the worker: a dead worker
        // would leave this urn Pending forever, wedging every waiter and
        // every future request for the same key. Catch, record a failure,
        // and keep draining the queue.
        let dir_for_build = dir.clone();
        let obs = Obs::enabled(inner.obs.clone());
        let outcome: Result<(u64, u64), StoreError> =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                std::fs::create_dir_all(&dir_for_build)?;
                let mut cfg = cfg;
                // The build always lands in the urn's own directory, under
                // the caller's memory budget if it set one. The budget
                // stays out of BuildKey: budgeted and unbudgeted builds
                // produce byte-identical tables.
                let mem_budget = match cfg.storage {
                    StorageKind::Block { mem_budget, .. } => mem_budget,
                    StorageKind::Memory => DEFAULT_BUILD_MEM_BYTES,
                };
                cfg.storage = StorageKind::Block {
                    dir: dir_for_build.clone(),
                    mem_budget,
                };
                // Build-phase spans and the encode histogram land in the
                // store's registry (a side channel only — the urn bytes
                // are identical with or without it).
                cfg.obs = obs.clone();
                let urn = {
                    let _span = obs.span("store.build");
                    build_urn(graph.as_ref(), &cfg)?
                };
                {
                    let _span = obs.span("store.persist");
                    save_urn(&urn, &dir_for_build)?;
                }
                let st = urn.build_stats();
                Ok((st.table_bytes as u64, st.records as u64))
            })) {
                Ok(result) => result,
                Err(_) => Err(StoreError::Corrupt("build panicked".to_string())),
            };

        let mut state = inner.state.lock().expect("store state poisoned");
        let commit_result = match outcome {
            Ok((table_bytes, records)) => state.commit(&ManifestRecord::BuildFinished {
                id,
                table_bytes,
                records,
                build_secs: started.elapsed().as_secs_f64(),
            }),
            Err(e) => {
                std::fs::remove_dir_all(&dir).ok();
                eprintln!("motivo-store: build of {id} failed: {e}");
                state.commit(&ManifestRecord::BuildFailed { id })
            }
        };
        if let Err(e) = commit_result {
            eprintln!("motivo-store: journal append for {id} failed: {e}");
        }
        drop(state);
        inner.built.notify_all();
    }
}

/// A ticket for one requested build; cheap to clone conceptually (hold the
/// store open), blocking or polling as the caller prefers.
pub struct BuildHandle {
    inner: Arc<Inner>,
    id: UrnId,
}

impl BuildHandle {
    /// The id this build was assigned.
    pub fn id(&self) -> UrnId {
        self.id
    }

    /// Non-blocking status check: `None` while the build runs.
    pub fn poll(&self) -> Option<Result<UrnId, StoreError>> {
        let state = self.inner.state.lock().expect("store state poisoned");
        match state.manifest.urns.get(&self.id).map(|m| m.status) {
            None => Some(Err(StoreError::UnknownUrn(self.id))),
            Some(BuildStatus::Pending) => None,
            Some(BuildStatus::Built) => Some(Ok(self.id)),
            Some(BuildStatus::Failed) => Some(Err(StoreError::NotBuilt(self.id))),
        }
    }

    /// Blocks until the build finishes, then returns the loaded urn.
    pub fn wait(&self) -> Result<Arc<StoreUrn>, StoreError> {
        let mut state = self.inner.state.lock().expect("store state poisoned");
        loop {
            match state.manifest.urns.get(&self.id).map(|m| m.status) {
                None => return Err(StoreError::UnknownUrn(self.id)),
                Some(BuildStatus::Pending) => {
                    state = self.inner.built.wait(state).expect("store state poisoned");
                }
                Some(BuildStatus::Built) => break,
                Some(BuildStatus::Failed) => return Err(StoreError::NotBuilt(self.id)),
            }
        }
        drop(state);
        self.inner.get_urn(self.id).map(|(urn, _)| urn)
    }
}
