//! The daemon: a single-threaded poll-based **reactor** owning every
//! connection, feeding a fixed-size worker pool through a bounded queue,
//! serving the wire protocol of [`crate::proto`] over a shared
//! [`UrnStore`] + [`StoreQuery`].
//!
//! Event model (DESIGN.md §6.2) — the serve thread *is* the reactor; the
//! only other threads are the workers:
//!
//! ```text
//! serve thread ── reactor: epoll over {listener, wakeup pipe, conns}
//!   ├─ accept  ── readiness → non-blocking accept → register conn
//!   ├─ read    ── readiness → FrameReader → parse → try_send(job) ┐
//!   │             inline: Ping, Hello, Shutdown,                  │ bounded
//!   │             Busy / ShuttingDown replies                     ▼ queue
//!   ├─ write   ── readiness → WriteBuf::flush            crossbeam bounded
//!   └─ timers  ── replica sync step, metrics snapshot (queued as jobs)
//! worker × N ──── recv job → Engine::answer → Handback → wake reactor
//! ```
//!
//! Workers never touch sockets: a finished response is handed back to the
//! reactor through the `Handback` list plus a wakeup-pipe poke, and the
//! reactor appends it to the connection's [`WriteBuf`]. A connection
//! therefore costs a table entry and two byte buffers — not a thread —
//! which is what lets one server hold thousands of idle connections on a
//! fixed thread count (the `idle_conns_held` CI gate).
//!
//! **Backpressure**, both directions: the job queue is bounded — when it
//! is full the reactor answers `Busy` immediately instead of buffering —
//! and each connection may have at most [`proto::MAX_PIPELINE`] requests
//! in flight before further pipelined frames bounce as `Busy` too. On the
//! write side, a socket that stops accepting bytes parks the response in
//! its `WriteBuf` under write-interest re-registration; a consumer whose
//! backlog passes `WBUF_CAP` is dropped as dead.
//!
//! **Graceful shutdown:** a `Shutdown` request (or [`Server::shutdown`])
//! sets the signal and wakes the reactor. The listener is deregistered,
//! reads stop, frames that had already fully arrived are answered
//! `ShuttingDown`, workers drain every job already accepted — a request
//! that was not rejected with `Busy` always gets its real response — and
//! the reactor lingers (bounded by `WRITE_TIMEOUT`) until every
//! response byte is flushed, then the serve thread writes the store's
//! serving statistics to `server-stats.json` before returning.
//!
//! **Replication:** a replica runs no dedicated sync thread. Its sync
//! session lives in a [`SyncDriver`] stepped as a timer-driven job on the
//! same worker pool: each step does one fetch/apply round and reports the
//! delay until the next, so tailing the leader shares the pool and the
//! reactor with query serving.
//!
//! **Handlers** answer with the typed reply structs of the
//! [`crate::proto`] schema and encode them with the schema's code — the
//! same code the client decodes with. A request's `threads` is clamped
//! to the machine's cores before it reaches a sampler; sample counts were
//! already capped when the request parsed.
//!
//! **Determinism:** request handlers build a fresh [`GraphletRegistry`]
//! per request and never put run-dependent values in payloads, so a seeded
//! request's payload is byte-identical to the equivalent in-process
//! [`StoreQuery`] call at any pool size (the seed-splitting guarantee of
//! DESIGN.md §5 carried across the wire).
//!
//! **Serving throughput:** workers answer through an `Engine` that puts
//! a [`QueryCache`] in front of the estimators — an exact result cache
//! (determinism makes replayed bytes indistinguishable from recomputed
//! ones) with singleflight dedup of concurrent identical requests — and
//! expands `Batch` frames into per-sub-request envelopes in request
//! order, all within the one queue slot the batch occupied.

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use motivo_core::{AgsConfig, BuildConfig, SampleConfig};
use motivo_graph::io as graph_io;
use motivo_graphlet::GraphletRegistry;
use motivo_obs::Obs;
use motivo_store::{BuildStatus, FileMeta, StoreError, StoreQuery, UrnStore};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crate::cache::{QueryCache, QueryCacheStats};
use crate::metrics::{KindStats, ServerMetrics, INVALID};
use crate::proto::{
    self, AgsReply, BuildReply, ErrorKind, EstimatesReply, Pong, PromoteReply, ReplFetchReply,
    ReplFileReply, ReplFilesReply, ReplManifestReply, ReplTarget, Request, ShuttingDown,
    TallyReply, UrnRow, UrnsReply,
};
use crate::reactor::{self, drain_readable, FrameReader, Interest, Poller, WriteBuf};
use crate::repl::{self, replica::SyncDriver, ReplShared};
use crate::wire::Wire;

/// Retry delay when a timer job finds the worker queue full, and the
/// backoff after a failed accept.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How long a draining reactor waits for stalled clients to accept their
/// final response bytes before closing on them.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default query-result cache budget (`ServeOptions::default`): enough
/// for tens of thousands of typical estimate payloads.
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Hard cap on the configured worker-pool size (builder validation).
const MAX_WORKERS: usize = 4096;

/// A connection whose unflushed response backlog passes this is a dead or
/// pathologically slow consumer; it is dropped rather than buffered for.
const WBUF_CAP: usize = 64 << 20;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the wakeup pipe's read end.
const TOKEN_WAKER: u64 = 1;
/// First connection token; monotonically increasing, never reused, so a
/// late completion for a dead connection can never hit its successor.
const TOKEN_FIRST_CONN: u64 = 2;

/// Server tuning knobs. The fields are private: construct through
/// [`ServeOptions::builder`], which validates them, or take the
/// defaults with `ServeOptions::default()`. The zeroed default for the
/// pool knobs means "resolve from the machine": workers from the core
/// count, queue depth from the workers. The cache budget defaults to
/// [`DEFAULT_CACHE_BYTES`]; there `0` means "no result caching"
/// (singleflight dedup of concurrent identical requests stays active).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker-pool size (`0` = available cores, at least 2).
    workers: usize,
    /// Bounded queue depth before requests bounce as `Busy`
    /// (`0` = `4 × workers`).
    queue_depth: usize,
    /// Byte budget of the deterministic query-result cache
    /// (`0` = disabled).
    cache_bytes: u64,
    /// Seconds between periodic metrics snapshots written to
    /// `<store>/metrics-<unix-millis>.json` (`0` = periodic snapshots
    /// off). A final snapshot is always written at shutdown.
    snapshot_secs: u64,
    /// Serve as a read-only **replica** of the leader at this address:
    /// drive a sync session tailing its journal, refuse `Build` and wire
    /// `Shutdown` with `ReadOnly` until a `Promote` request arrives. The
    /// store should have been opened with
    /// [`motivo_store::UrnStore::open_replica`].
    replica_of: Option<String>,
    /// Milliseconds between replication polls once caught up
    /// (`0` = 100 ms). Only meaningful with `replica_of`.
    repl_poll_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 0,
            queue_depth: 0,
            cache_bytes: DEFAULT_CACHE_BYTES,
            snapshot_secs: 0,
            replica_of: None,
            repl_poll_ms: 0,
        }
    }
}

impl ServeOptions {
    /// Starts a [`ServeOptionsBuilder`] seeded with the defaults.
    pub fn builder() -> ServeOptionsBuilder {
        ServeOptionsBuilder {
            opts: ServeOptions::default(),
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2)
        }
    }

    fn resolved_queue_depth(&self, workers: usize) -> usize {
        if self.queue_depth > 0 {
            self.queue_depth
        } else {
            workers * 4
        }
    }
}

/// Validating builder for [`ServeOptions`] — the supported construction
/// path. Every setter keeps the "0 means resolve from the machine"
/// convention of the underlying knobs; [`ServeOptionsBuilder::build`]
/// rejects combinations a serve loop cannot honor, at configuration time
/// instead of as runtime surprises.
///
/// ```
/// use motivo_server::ServeOptions;
/// let opts = ServeOptions::builder()
///     .workers(2)
///     .queue_depth(64)
///     .build()
///     .unwrap();
/// assert!(ServeOptions::builder()
///     .repl_poll_ms(50) // needs replica_of
///     .build()
///     .is_err());
/// ```
#[derive(Clone, Debug)]
pub struct ServeOptionsBuilder {
    opts: ServeOptions,
}

impl ServeOptionsBuilder {
    /// Worker-pool size (`0` = available cores, at least 2).
    pub fn workers(mut self, workers: usize) -> ServeOptionsBuilder {
        self.opts.workers = workers;
        self
    }

    /// Bounded queue depth before requests bounce as `Busy`
    /// (`0` = `4 × workers`).
    pub fn queue_depth(mut self, queue_depth: usize) -> ServeOptionsBuilder {
        self.opts.queue_depth = queue_depth;
        self
    }

    /// Byte budget of the query-result cache (`0` = disabled).
    pub fn cache_bytes(mut self, cache_bytes: u64) -> ServeOptionsBuilder {
        self.opts.cache_bytes = cache_bytes;
        self
    }

    /// Seconds between periodic metrics snapshots (`0` = off).
    pub fn snapshot_secs(mut self, snapshot_secs: u64) -> ServeOptionsBuilder {
        self.opts.snapshot_secs = snapshot_secs;
        self
    }

    /// Serve as a read-only replica of the leader at `leader`.
    pub fn replica_of(mut self, leader: impl Into<String>) -> ServeOptionsBuilder {
        self.opts.replica_of = Some(leader.into());
        self
    }

    /// Milliseconds between replication polls once caught up
    /// (`0` = 100 ms). Requires [`ServeOptionsBuilder::replica_of`].
    pub fn repl_poll_ms(mut self, repl_poll_ms: u64) -> ServeOptionsBuilder {
        self.opts.repl_poll_ms = repl_poll_ms;
        self
    }

    /// Validates and produces the options.
    pub fn build(self) -> Result<ServeOptions, String> {
        let o = &self.opts;
        if o.workers > MAX_WORKERS {
            return Err(format!(
                "workers = {} exceeds the {MAX_WORKERS}-thread cap",
                o.workers
            ));
        }
        if o.workers > 0 && o.queue_depth > 0 && o.queue_depth < o.workers {
            return Err(format!(
                "queue_depth = {} is below workers = {}; a queue shallower than \
                 the pool guarantees idle workers",
                o.queue_depth, o.workers
            ));
        }
        if o.repl_poll_ms > 0 && o.replica_of.is_none() {
            return Err("repl_poll_ms is set but replica_of is not; the poll \
                        interval only applies to a replica's sync session"
                .into());
        }
        Ok(self.opts)
    }
}

/// What a serve loop did, returned by [`Server::join`].
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Frames parsed as requests (including ones answered `Busy`).
    pub requests: u64,
    /// Requests bounced by backpressure (full queue or a connection past
    /// its pipelining cap).
    pub busy_rejections: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Final counters of the query-result cache (`misses` = estimator
    /// runs that went through it).
    pub query_cache: QueryCacheStats,
    /// Per-request-kind counters and latency quantiles (ascending by
    /// kind name; kinds that never saw a request are omitted).
    pub per_kind: Vec<KindStats>,
    /// Where the shutdown stat flush landed, if it succeeded.
    pub stats_path: Option<PathBuf>,
    /// Where the final metrics snapshot landed, if it succeeded.
    pub metrics_path: Option<PathBuf>,
}

/// The shutdown signal: a flag plus the reactor's wakeup pipe, so a
/// trigger from any thread interrupts a blocked poll exactly once.
struct Signal {
    flag: AtomicBool,
    waker: reactor::Waker,
}

impl Signal {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// Serving tallies. Plain integers: only the reactor thread writes them.
#[derive(Default)]
struct Tallies {
    requests: u64,
    busy: u64,
    connections: u64,
}

/// One unit of pool work. Timer-driven work (replica sync, metrics
/// snapshots) rides the same queue as requests so the pool is the only
/// place anything blocks.
enum Job {
    /// An accepted wire request.
    Request {
        /// The connection the response belongs to.
        token: u64,
        /// The client's `"id"`, echoed into the response.
        id: Value,
        req: Request,
        /// When the reactor queued this job — the queue-wait side of the
        /// `server.queue_wait` / `server.service` latency split.
        enqueued: Instant,
    },
    /// One fetch/apply round of the replica's sync session.
    SyncStep,
    /// One periodic metrics snapshot.
    Snapshot,
}

/// What a worker hands back to the reactor when a job finishes.
enum Completion {
    /// A response ready to be queued on its connection's write buffer.
    Response {
        token: u64,
        text: String,
    },
    /// The sync step finished; re-arm the sync timer after `delay`.
    SyncDone {
        delay: Duration,
    },
    SnapshotDone,
}

/// The worker → reactor return path: completed jobs pile up under a
/// mutex and the wakeup pipe interrupts the reactor's poll. Workers
/// never touch sockets — ownership of every fd stays with the reactor.
struct Handback {
    done: Mutex<Vec<Completion>>,
    waker: reactor::Waker,
}

impl Handback {
    fn complete(&self, c: Completion) {
        self.done.lock().expect("handback poisoned").push(c);
        self.waker.wake();
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().expect("handback poisoned"))
    }
}

/// One connection's reactor state: the socket plus the read and write
/// halves of its frame state machine.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    wbuf: WriteBuf,
    /// The interest set currently registered in the poller, reconciled
    /// against the desired set after every event round.
    registered: Interest,
    /// Requests accepted from this connection whose responses are still
    /// owed — the pipelining counter behind [`proto::MAX_PIPELINE`].
    in_flight: usize,
    /// The peer closed its write side (EOF); what it is still owed gets
    /// flushed, then the connection closes.
    peer_closed: bool,
}

/// A running daemon. Dropping the handle shuts it down and joins it.
pub struct Server {
    addr: SocketAddr,
    signal: Arc<Signal>,
    main: Option<JoinHandle<ServeReport>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — read it back with
    /// [`Server::addr`]) and starts serving `store` on a background
    /// thread.
    pub fn bind(
        store: Arc<UrnStore>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = reactor::wake_pair()?;
        let signal = Arc::new(Signal {
            flag: AtomicBool::new(false),
            waker,
        });
        let loop_signal = signal.clone();
        let main = std::thread::Builder::new()
            .name("motivo-serve".into())
            .spawn(move || serve_loop(store, listener, wake_rx, loop_signal, opts))?;
        Ok(Server {
            addr,
            signal,
            main: Some(main),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.signal.trigger();
    }

    /// Blocks until the serve loop exits — on a wire `Shutdown` request or
    /// a [`Server::shutdown`] call — and returns its report.
    pub fn join(mut self) -> ServeReport {
        let main = self.main.take().expect("join called once");
        main.join().expect("serve loop panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(main) = self.main.take() {
            self.signal.trigger();
            let _ = main.join();
        }
    }
}

fn serve_loop(
    store: Arc<UrnStore>,
    listener: TcpListener,
    wake_rx: reactor::WakeReader,
    signal: Arc<Signal>,
    opts: ServeOptions,
) -> ServeReport {
    let workers = opts.resolved_workers();
    let queue_depth = opts.resolved_queue_depth(workers);
    let metrics = ServerMetrics::new(store.obs().clone());
    let repl = match &opts.replica_of {
        Some(leader) => ReplShared::replica(leader.clone(), store.obs().clone()),
        None => ReplShared::leader(store.obs().clone()),
    };
    let engine = Engine::new(&store, opts.cache_bytes, &metrics, &repl);
    let mut tallies = Tallies::default();
    let handback = Handback {
        done: Mutex::new(Vec::new()),
        waker: signal.waker.clone(),
    };
    let snapshot_period = (opts.snapshot_secs > 0).then(|| Duration::from_secs(opts.snapshot_secs));
    // The replica's sync session is a driver stepped on the worker pool,
    // not a thread. It names itself after its own serve address, so the
    // leader's `ReplStatus` reads like a topology map.
    let sync_driver = opts.replica_of.clone().map(|leader| {
        let name = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "replica".into());
        let poll = Duration::from_millis(if opts.repl_poll_ms > 0 {
            opts.repl_poll_ms
        } else {
            100
        });
        Mutex::new(SyncDriver::new(
            &store,
            &repl,
            repl::replica::SyncOptions { leader, name, poll },
        ))
    });

    std::thread::scope(|s| {
        let (tx, rx) = channel::bounded::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = rx.clone();
            let (engine, handback) = (&engine, &handback);
            let sync = sync_driver.as_ref();
            std::thread::Builder::new()
                .name(format!("motivo-serve-worker-{i}"))
                .spawn_scoped(s, move || worker_loop(&rx, engine, handback, sync))
                .expect("spawn worker");
        }
        reactor_loop(
            listener,
            &wake_rx,
            tx,
            &signal,
            &mut tallies,
            &metrics,
            &repl,
            &handback,
            snapshot_period,
            sync_driver.is_some(),
        );
        // `tx` was consumed by the reactor and dropped when it returned;
        // the workers drain the accepted backlog, then exit.
    });
    if let Some(driver) = &sync_driver {
        driver.lock().expect("sync driver poisoned").finish();
    }

    // Every worker has exited; flush serving stats: the aggregate `Stats`
    // answer plus the serve loop's own tallies.
    let query_cache = engine.cache.stats();
    let per_kind = metrics.kind_stats();
    let per_kind_json: Vec<Value> = per_kind.iter().map(Wire::encode).collect();
    let mut body = engine.stats_json();
    body.set("requests", json!(tallies.requests));
    body.set("busy_rejections", json!(tallies.busy));
    body.set("connections", json!(tallies.connections));
    body.set("per_kind", json!(per_kind_json));
    let text = serde_json::to_string_pretty(&body).expect("stats serialize");
    let stats_path = match store.flush_stats(text.as_bytes()) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("motivo-serve: stat flush failed: {e}");
            None
        }
    };
    let metrics_path = match write_metrics_snapshot(&store, &metrics) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("motivo-serve: metrics snapshot failed: {e}");
            None
        }
    };

    ServeReport {
        requests: tallies.requests,
        busy_rejections: tallies.busy,
        connections: tallies.connections,
        query_cache,
        per_kind,
        stats_path,
        metrics_path,
    }
}

/// Writes the registry's JSON snapshot to `<store>/metrics-<millis>.json`
/// (atomic temp-file + rename, like every store sidecar). The timestamp
/// names the file so successive snapshots are retained, not overwritten.
fn write_metrics_snapshot(
    store: &UrnStore,
    metrics: &ServerMetrics,
) -> Result<PathBuf, StoreError> {
    let millis = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let body = metrics.registry().snapshot_json();
    store.write_sidecar(&format!("metrics-{millis}.json"), body.as_bytes())
}

/// The readiness loop. Owns the listener, the wakeup pipe's read end, and
/// every connection; returns once a drain completes (every accepted job
/// answered and flushed, or [`WRITE_TIMEOUT`] elapsed on the stragglers).
#[allow(clippy::too_many_arguments)] // the reactor is the meeting point of every serve-loop concern
fn reactor_loop(
    listener: TcpListener,
    wake_rx: &reactor::WakeReader,
    tx: Sender<Job>,
    signal: &Signal,
    tallies: &mut Tallies,
    metrics: &ServerMetrics,
    repl: &ReplShared,
    handback: &Handback,
    snapshot_period: Option<Duration>,
    sync: bool,
) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("motivo-serve: cannot create poller: {e}");
            return;
        }
    };
    if let Err(e) = listener
        .set_nonblocking(true)
        .and_then(|()| poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ))
        .and_then(|()| poller.add(wake_rx.fd(), TOKEN_WAKER, Interest::READ))
    {
        eprintln!("motivo-serve: cannot register reactor fds: {e}");
        return;
    }

    let mut events: Vec<reactor::Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    // Jobs queued minus completions taken — the drain's exit ledger.
    let mut outstanding: u64 = 0;
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut tx = Some(tx);
    let mut listener = Some(listener);

    let now = Instant::now();
    let mut next_sync = sync.then_some(now);
    let mut sync_inflight = false;
    let mut next_snapshot = snapshot_period.map(|p| now + p);
    let mut snapshot_inflight = false;

    loop {
        let now = Instant::now();

        // Fire due timers by queueing jobs; a full queue retries shortly.
        if !draining {
            if repl.sync_stopped() {
                next_sync = None; // promotion: the sync timer dies with the session
            }
            if let Some(due) = next_sync {
                if due <= now && !sync_inflight {
                    next_sync = if tx
                        .as_ref()
                        .is_some_and(|t| t.try_send(Job::SyncStep).is_ok())
                    {
                        sync_inflight = true;
                        outstanding += 1;
                        None // re-armed by the SyncDone completion
                    } else {
                        Some(now + POLL_INTERVAL)
                    };
                }
            }
            if let Some(due) = next_snapshot {
                if due <= now && !snapshot_inflight {
                    next_snapshot = if tx
                        .as_ref()
                        .is_some_and(|t| t.try_send(Job::Snapshot).is_ok())
                    {
                        snapshot_inflight = true;
                        outstanding += 1;
                        snapshot_period.map(|p| now + p)
                    } else {
                        Some(now + POLL_INTERVAL)
                    };
                }
            }
        }

        // Sleep until readiness, a wakeup, or the nearest timer.
        let mut timeout = Duration::from_secs(1);
        for t in [next_sync, next_snapshot, drain_deadline]
            .into_iter()
            .flatten()
        {
            timeout = timeout.min(t.saturating_duration_since(now));
        }
        if let Err(e) = poller.wait(&mut events, Some(timeout)) {
            eprintln!("motivo-serve: poll failed: {e}");
            std::thread::sleep(POLL_INTERVAL); // don't spin on a broken poller
        }

        for ev in &events {
            match ev.token {
                TOKEN_WAKER => wake_rx.drain(),
                TOKEN_LISTENER => {
                    let Some(l) = listener.as_ref() else { continue };
                    loop {
                        match l.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                // Response frames must not sit in Nagle's
                                // buffer waiting for an ACK; serving
                                // latency is the product here.
                                stream.set_nodelay(true).ok();
                                tallies.connections += 1;
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .add(stream.as_raw_fd(), token, Interest::READ)
                                    .is_err()
                                {
                                    continue; // kernel refused; drop the connection
                                }
                                conns.insert(
                                    token,
                                    Conn {
                                        stream,
                                        frames: FrameReader::new(),
                                        wbuf: WriteBuf::new(),
                                        registered: Interest::READ,
                                        in_flight: 0,
                                        peer_closed: false,
                                    },
                                );
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) => {
                                eprintln!("motivo-serve: accept failed: {e}");
                                break;
                            }
                        }
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let fd = conn.stream.as_raw_fd();
                    let mut failed = false;
                    if ev.readable && !conn.peer_closed && !draining {
                        match drain_readable(&mut conn.stream, &mut scratch, &mut conn.frames) {
                            Ok(eof) => {
                                loop {
                                    match conn.frames.next_frame() {
                                        Ok(Some(payload)) => {
                                            tallies.requests += 1;
                                            handle_frame(
                                                &payload,
                                                token,
                                                conn,
                                                tx.as_ref(),
                                                signal,
                                                metrics,
                                                repl,
                                                tallies,
                                                &mut outstanding,
                                            );
                                        }
                                        Ok(None) => break,
                                        // Oversized announcement: protocol
                                        // error, fatal to the connection.
                                        Err(_) => {
                                            failed = true;
                                            break;
                                        }
                                    }
                                }
                                if eof {
                                    conn.peer_closed = true;
                                }
                            }
                            Err(_) => failed = true,
                        }
                    }
                    if !failed && ev.writable && !conn.wbuf.is_empty() {
                        failed = conn.wbuf.flush(&mut conn.stream).is_err();
                    }
                    if failed {
                        let _ = poller.remove(fd);
                        conns.remove(&token);
                    }
                }
            }
        }

        // Collect finished jobs from the workers.
        for c in handback.take() {
            match c {
                Completion::Response { token, text } => {
                    outstanding -= 1;
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.in_flight -= 1;
                        conn.wbuf.push_frame(text.as_bytes());
                    }
                    // A vanished token means the connection died first;
                    // its response is droppable by definition.
                }
                Completion::SyncDone { delay } => {
                    outstanding -= 1;
                    sync_inflight = false;
                    if !draining && !repl.sync_stopped() {
                        next_sync = Some(Instant::now() + delay);
                    }
                }
                Completion::SnapshotDone => {
                    outstanding -= 1;
                    snapshot_inflight = false;
                }
            }
        }

        // Drain transition: stop accepting and reading, answer what had
        // already fully arrived, let the pool finish what it accepted.
        if signal.is_set() && !draining {
            draining = true;
            drain_deadline = Some(Instant::now() + WRITE_TIMEOUT);
            if let Some(l) = listener.take() {
                let _ = poller.remove(l.as_raw_fd());
            }
            next_sync = None;
            next_snapshot = None;
            for (&token, conn) in conns.iter_mut() {
                while let Ok(Some(payload)) = conn.frames.next_frame() {
                    // Routed to `ShuttingDown` (or answered inline) by the
                    // signal check inside — a frame that fully arrived
                    // before the drain is answered, never ignored.
                    tallies.requests += 1;
                    handle_frame(
                        &payload,
                        token,
                        conn,
                        None,
                        signal,
                        metrics,
                        repl,
                        tallies,
                        &mut outstanding,
                    );
                }
            }
            tx = None; // workers exit once the accepted backlog drains
        }

        // Per-connection maintenance: flush what the completions queued,
        // drop dead consumers, close what is finished, reconcile interest.
        conns.retain(|&token, conn| {
            if !conn.wbuf.is_empty() && conn.wbuf.flush(&mut conn.stream).is_err() {
                let _ = poller.remove(conn.stream.as_raw_fd());
                return false;
            }
            if conn.wbuf.pending() > WBUF_CAP {
                // A consumer this far behind is indistinguishable from a
                // dead one; buffering further only converts its stall
                // into our memory.
                let _ = poller.remove(conn.stream.as_raw_fd());
                return false;
            }
            if (draining || conn.peer_closed) && conn.in_flight == 0 && conn.wbuf.is_empty() {
                let _ = poller.remove(conn.stream.as_raw_fd());
                return false;
            }
            let desired = Interest {
                readable: !draining && !conn.peer_closed,
                writable: !conn.wbuf.is_empty(),
            };
            if desired != conn.registered
                && poller
                    .modify(conn.stream.as_raw_fd(), token, desired)
                    .is_ok()
            {
                conn.registered = desired;
            }
            true
        });

        if draining {
            if outstanding == 0 && conns.is_empty() {
                break; // every accepted job answered and flushed
            }
            if drain_deadline.is_some_and(|d| now >= d) {
                break; // stalled clients cannot wedge shutdown
            }
        }
    }
}

/// Queues one response document on the connection's write buffer.
fn push_response(conn: &mut Conn, response: &Value) {
    let text = serde_json::to_string(response).expect("response serialize");
    conn.wbuf.push_frame(text.as_bytes());
}

/// Handles one frame on the reactor thread: answers `Ping`, `Hello`,
/// `Shutdown`, and every error path inline, queues real work without ever
/// blocking on the queue. Every frame lands in exactly one
/// `server.requests.<kind>` counter — frames that never parse into a
/// request count under the pseudo-kind `Invalid`.
#[allow(clippy::too_many_arguments)] // one frame touches every reactor concern
fn handle_frame(
    payload: &[u8],
    token: u64,
    conn: &mut Conn,
    tx: Option<&Sender<Job>>,
    signal: &Signal,
    metrics: &ServerMetrics,
    repl: &ReplShared,
    tallies: &mut Tallies,
    outstanding: &mut u64,
) {
    let parsed = std::str::from_utf8(payload)
        .map_err(|_| "frame is not UTF-8".to_string())
        .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
        .map_err(|msg| (json!(null), msg))
        .and_then(|doc| {
            let id = proto::request_id(&doc);
            match Request::parse(&doc) {
                Ok(req) => Ok((id, req)),
                Err(msg) => Err((id, msg)),
            }
        });
    let (id, req) = match parsed {
        Ok(parsed) => parsed,
        Err((id, msg)) => {
            let invalid = metrics.kind(INVALID);
            invalid.requests.inc();
            invalid.errors.inc();
            return push_response(
                conn,
                &proto::error_response(&id, ErrorKind::BadRequest, &msg),
            );
        }
    };
    let kind = req.kind();
    metrics.kind(kind).requests.inc();

    match req {
        // Answered inline: must work even with a saturated queue.
        Request::Ping => {
            let t0 = Instant::now();
            push_response(conn, &proto::ok_response(&id, Pong { pong: true }.encode()));
            metrics.record_inline(kind, t0.elapsed());
        }
        // The handshake is inline for the same reason: a client probing
        // what this server speaks deserves an answer before the pool does.
        Request::Hello { .. } => {
            let t0 = Instant::now();
            push_response(conn, &proto::ok_response(&id, proto::hello_payload()));
            metrics.record_inline(kind, t0.elapsed());
        }
        Request::Shutdown => {
            let t0 = Instant::now();
            if repl.is_replica() {
                // A replica's lifecycle belongs to its operator: any wire
                // peer reaching a read replica must not be able to take it
                // down. Promotion lifts this along with the write gate.
                metrics.kind(kind).errors.inc();
                push_response(
                    conn,
                    &proto::error_response(
                        &id,
                        ErrorKind::ReadOnly,
                        "replica refuses wire shutdown; promote it first or stop its process",
                    ),
                );
            } else {
                let ack = ShuttingDown {
                    shutting_down: true,
                };
                push_response(conn, &proto::ok_response(&id, ack.encode()));
                signal.trigger();
            }
            metrics.record_inline(kind, t0.elapsed());
        }
        req => {
            if signal.is_set() || tx.is_none() {
                metrics.kind(kind).errors.inc();
                return push_response(
                    conn,
                    &proto::error_response(
                        &id,
                        ErrorKind::ShuttingDown,
                        "server is draining; no new work accepted",
                    ),
                );
            }
            if conn.in_flight >= proto::MAX_PIPELINE {
                tallies.busy += 1;
                metrics.kind(kind).errors.inc();
                return push_response(
                    conn,
                    &proto::error_response(
                        &id,
                        ErrorKind::Busy,
                        &format!(
                            "pipelining cap of {} in-flight requests reached; \
                             read responses before sending more",
                            proto::MAX_PIPELINE
                        ),
                    ),
                );
            }
            match tx.expect("checked above").try_send(Job::Request {
                token,
                id: id.clone(),
                req,
                enqueued: Instant::now(),
            }) {
                Ok(()) => {
                    *outstanding += 1;
                    conn.in_flight += 1;
                }
                Err(TrySendError::Full(_)) => {
                    tallies.busy += 1;
                    metrics.kind(kind).errors.inc();
                    push_response(
                        conn,
                        &proto::error_response(
                            &id,
                            ErrorKind::Busy,
                            "worker queue is full; retry later",
                        ),
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    metrics.kind(kind).errors.inc();
                    push_response(
                        conn,
                        &proto::error_response(
                            &id,
                            ErrorKind::ShuttingDown,
                            "worker pool has shut down",
                        ),
                    );
                }
            }
        }
    }
}

/// Pool worker: multi-consumer over the bounded queue (receivers are
/// single-consumer in std, so workers take turns holding the lock while
/// blocked in `recv`). Exits when every sender is gone **and** the queue
/// is empty — that ordering is the drain guarantee. Results go back to
/// the reactor through the handback, never to a socket.
fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    engine: &Engine<'_>,
    handback: &Handback,
    sync: Option<&Mutex<SyncDriver<'_>>>,
) {
    loop {
        let job = match rx.lock().expect("job queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed and drained
        };
        match job {
            Job::Request {
                token,
                id,
                req,
                enqueued,
            } => {
                engine
                    .metrics
                    .queue_wait
                    .record_duration(enqueued.elapsed());
                let t0 = Instant::now();
                let (text, is_error) = engine.answer(&id, &req);
                // Service time is compute time: the response write belongs
                // to the reactor, so one stalled client can't skew every
                // kind's latency histogram.
                engine
                    .metrics
                    .record_served(req.kind(), t0.elapsed(), is_error);
                handback.complete(Completion::Response { token, text });
            }
            Job::SyncStep => {
                let delay = match sync {
                    Some(driver) => driver.lock().expect("sync driver poisoned").step(),
                    None => POLL_INTERVAL, // a leader never queues SyncStep
                };
                handback.complete(Completion::SyncDone { delay });
            }
            Job::Snapshot => {
                if let Err(e) = write_metrics_snapshot(engine.store, engine.metrics) {
                    eprintln!("motivo-serve: metrics snapshot failed: {e}");
                }
                handback.complete(Completion::SnapshotDone);
            }
        }
    }
}

fn store_err(e: StoreError) -> (ErrorKind, String) {
    (ErrorKind::of_store(&e), e.to_string())
}

/// Byte budget for one batch's assembled `responses` payload: the frame
/// cap minus slack for the outer envelope and for the short per-sub
/// error envelopes that replace sub-responses once the budget is spent
/// (≤ `MAX_BATCH` of them, ~150 bytes each).
const BATCH_PAYLOAD_BUDGET: usize = proto::MAX_FRAME - (512 << 10);

/// Assembles `{"responses":[…]}` from at most `count` sub-response
/// texts, spending at most ~`budget` bytes on real sub-responses. Once
/// the budget is exhausted the iterator is **not** advanced further —
/// sub-requests that could not be answered are not executed — and every
/// remaining slot gets a `BadRequest` envelope telling the client to
/// split the batch. Without this cap a legal batch of large payloads
/// could assemble a frame beyond [`proto::MAX_FRAME`], which the
/// client's own `read_frame` would reject after all the work was done.
fn assemble_batch(count: usize, mut parts: impl Iterator<Item = String>, budget: usize) -> String {
    let mut out = String::from("{\"responses\":[");
    let mut used = 0usize;
    for i in 0..count {
        if i > 0 {
            out.push(',');
        }
        let part = if used <= budget { parts.next() } else { None };
        match part {
            Some(part) if used + part.len() <= budget => {
                used += part.len();
                out.push_str(&part);
            }
            // Either over budget (the just-computed oversized part is
            // dropped; if cacheable it was cached, so a split retry is
            // cheap) or the budget was already spent.
            _ => {
                used = budget + 1;
                out.push_str(&proto::error_envelope_text(
                    "null",
                    ErrorKind::BadRequest,
                    &format!(
                        "batch response exceeds the frame budget at sub-request {i}; \
                         split the batch"
                    ),
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

/// The request-execution layer one serve loop shares across its workers:
/// the store's query front-end plus the deterministic result cache
/// (DESIGN.md §6.5). Responses travel as *text* from here on — a cached
/// payload is spliced into its envelope byte-for-byte, never re-parsed,
/// which is what makes warm responses provably identical to cold ones.
struct Engine<'s> {
    query: StoreQuery<'s>,
    store: &'s UrnStore,
    cache: QueryCache,
    metrics: &'s ServerMetrics,
    repl: &'s ReplShared,
    /// The machine's cores: the ceiling on a request's `threads`.
    cores: usize,
}

impl<'s> Engine<'s> {
    fn new(
        store: &'s UrnStore,
        cache_bytes: u64,
        metrics: &'s ServerMetrics,
        repl: &'s ReplShared,
    ) -> Engine<'s> {
        Engine {
            query: StoreQuery::new(store),
            store,
            cache: QueryCache::new(cache_bytes),
            metrics,
            repl,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The sampling config of one request. Wire `threads` is clamped to
    /// the machine's cores: seeded results are identical at any thread
    /// count, so the clamp changes only wall-clock, and no frame can ask
    /// for thousands of OS threads. `0` (all cores) passes through.
    fn sample_config(&self, seed: u64, threads: usize) -> SampleConfig {
        SampleConfig::seeded(seed)
            .threads(threads.min(self.cores))
            .with_obs(Obs::enabled(self.store.obs().clone()))
    }

    /// Answers one queued request, returning the full response envelope
    /// as wire-ready text plus whether it carries an error (what the
    /// worker feeds `server.errors.<kind>`; a batch envelope itself is
    /// never an error — its sub-requests fail individually).
    fn answer(&self, id: &Value, req: &Request) -> (String, bool) {
        let id_text = serde_json::to_string(id).expect("id serialize");
        match req {
            Request::Batch { requests: subs } => {
                // One frame, one worker slot, N sub-responses in request
                // order — each with its own ok/error envelope. Assembly
                // is budgeted: a payload the client's own frame cap would
                // reject must not be built (or computed) at all.
                let payload = assemble_batch(
                    subs.len(),
                    subs.iter().map(|doc| self.answer_sub(doc)),
                    BATCH_PAYLOAD_BUDGET,
                );
                (proto::ok_envelope_text(&id_text, &payload), false)
            }
            req => self.answer_single(&id_text, req),
        }
    }

    /// Answers one raw sub-request of a batch: parse failures and
    /// disallowed types become this sub-request's error envelope (its own
    /// `id` echoed), leaving its siblings untouched.
    fn answer_sub(&self, doc: &Value) -> String {
        let id_text = serde_json::to_string(&proto::request_id(doc)).expect("id serialize");
        match Request::parse(doc) {
            Err(msg) => proto::error_envelope_text(&id_text, ErrorKind::BadRequest, &msg),
            Ok(Request::Shutdown) | Ok(Request::Batch { .. }) => proto::error_envelope_text(
                &id_text,
                ErrorKind::BadRequest,
                "this request type is not allowed inside a batch",
            ),
            Ok(req) => self.answer_single(&id_text, &req).0,
        }
    }

    /// One request's envelope text and whether it carries an error.
    fn answer_single(&self, id_text: &str, req: &Request) -> (String, bool) {
        match self.payload(req) {
            Ok(payload) => (proto::ok_envelope_text(id_text, &payload), false),
            Err((kind, msg)) => (proto::error_envelope_text(id_text, kind, &msg), true),
        }
    }

    /// Produces one request's payload text, through the result cache when
    /// the request is deterministic: an LRU hit replays the exact bytes,
    /// a concurrent duplicate coalesces onto the in-flight leader, and
    /// only a true miss runs the estimator.
    fn payload(&self, req: &Request) -> Result<Arc<str>, (ErrorKind, String)> {
        let key = req
            .cached_urn()
            .and_then(|urn| self.query.content_id(urn))
            .and_then(|cid| req.cache_key(cid));
        match key {
            Some(key) => self.cache.serve(&key, || self.compute(req)).0,
            // Unknown urn or uncacheable type: compute directly (the
            // handler produces the right error for the former).
            None => self.compute(req).map(Arc::from),
        }
    }

    fn compute(&self, req: &Request) -> Result<String, (ErrorKind, String)> {
        self.handle(req)
            .map(|v| serde_json::to_string(&v).expect("payload serialize"))
    }

    /// The aggregate serving counters: every urn's, the store's LRU, and
    /// the result cache's.
    fn stats_json(&self) -> Value {
        let per_urn: Vec<Value> = self
            .query
            .per_urn_stats()
            .iter()
            .map(|(id, st)| proto::urn_stats_json(*id, st))
            .collect();
        json!({
            "total": proto::query_stats_json(&self.query.total_stats()),
            "per_urn": per_urn,
            "cache": self.store.cache_stats().encode(),
            "query_cache": self.cache.stats().encode(),
        })
    }

    /// Executes one request against the store and query layer.
    fn handle(&self, req: &Request) -> Result<Value, (ErrorKind, String)> {
        let (query, store) = (&self.query, self.store);
        let registry = |urn| {
            store
                .meta(urn)
                .map(|meta| GraphletRegistry::new(meta.key.k as u8))
                .ok_or_else(|| store_err(StoreError::UnknownUrn(urn)))
        };
        Ok(match req {
            // Answered inline by the reactor, but also allowed in a batch.
            Request::Ping => Pong { pong: true }.encode(),
            Request::Hello { .. } => proto::hello_payload(),
            Request::Shutdown => unreachable!("handled inline, refused in a batch"),
            Request::Batch { .. } => unreachable!("expanded by Engine::answer"),
            Request::ListUrns => UrnsReply {
                urns: store.list().iter().map(UrnRow::of).collect(),
                graphs: store.graphs().len() as u64,
            }
            .encode(),
            Request::NaiveEstimates {
                urn,
                samples,
                seed,
                threads,
            } => {
                let mut registry = registry(*urn)?;
                let cfg = self.sample_config(*seed, *threads);
                let est = query
                    .naive_estimates(*urn, &mut registry, *samples, &cfg)
                    .map_err(store_err)?;
                EstimatesReply::of(&est, &registry).encode()
            }
            Request::Ags {
                urn,
                max_samples,
                seed,
                threads,
                c_bar,
                epoch,
                idle_limit,
            } => {
                let mut registry = registry(*urn)?;
                let defaults = AgsConfig::default();
                let cfg = AgsConfig {
                    max_samples: *max_samples,
                    c_bar: c_bar.unwrap_or(defaults.c_bar),
                    epoch: epoch.unwrap_or(defaults.epoch),
                    idle_limit: idle_limit.unwrap_or(defaults.idle_limit),
                    sample: self.sample_config(*seed, *threads),
                };
                let res = query.ags(*urn, &mut registry, &cfg).map_err(store_err)?;
                AgsReply::of(&res, &registry).encode()
            }
            Request::Sample {
                urn,
                samples,
                seed,
                threads,
            } => {
                let cfg = self.sample_config(*seed, *threads);
                let tally = query
                    .sample_tally(*urn, *samples, &cfg)
                    .map_err(store_err)?;
                TallyReply::of(&tally, *samples).encode()
            }
            // Not deterministic (timings, uptime) — and correctly
            // uncacheable: `Request::cache_key` returns `None` for it.
            Request::Metrics => self.metrics.metrics_json(),
            Request::Stats { urn: Some(urn) } => proto::urn_stats_json(*urn, &query.stats(*urn)),
            Request::Stats { urn: None } => self.stats_json(),
            Request::Build {
                graph,
                k,
                seed,
                codec,
                wait,
                lambda,
            } => {
                let loaded = if graph.ends_with(".mtvg") {
                    graph_io::load_binary(graph)
                } else {
                    graph_io::load_edge_list(graph)
                };
                let g = loaded.map_err(|e| {
                    (
                        ErrorKind::BadRequest,
                        format!("cannot load graph {graph}: {e}"),
                    )
                })?;
                let mut cfg = BuildConfig::new(*k).seed(*seed).codec(*codec);
                if let Some(lambda) = lambda {
                    cfg = cfg.biased(*lambda);
                }
                let handle = store.build_or_get(&g, &cfg).map_err(store_err)?;
                if *wait {
                    handle.wait().map_err(store_err)?;
                }
                let status = match store.meta(handle.id()).map(|m| m.status) {
                    Some(BuildStatus::Built) => "built",
                    Some(BuildStatus::Failed) => "failed",
                    _ => "pending",
                };
                BuildReply {
                    urn: handle.id().to_string(),
                    status: status.into(),
                }
                .encode()
            }
            Request::ReplFetch {
                replica,
                offset,
                prefix_crc,
                log_id,
            } => {
                let seg = store
                    .journal_segment(*offset, *prefix_crc, motivo_store::SEGMENT_MAX_BYTES)
                    .map_err(store_err)?;
                // A prefix mismatch and a lineage (gc) mismatch both mean
                // the same thing to the replica: re-bootstrap.
                let stale = seg.stale || seg.log_id != *log_id;
                self.repl
                    .registry
                    .on_fetch(replica, *offset, seg.leader_len);
                ReplFetchReply {
                    payloads: if stale { Vec::new() } else { seg.payloads },
                    leader_len: seg.leader_len,
                    log_id: seg.log_id,
                    stale,
                }
                .encode()
            }
            Request::ReplManifest => ReplManifestReply {
                manifest: store.manifest_bytes().map_err(store_err)?,
                log_id: store.log_id().map_err(store_err)?,
            }
            .encode(),
            Request::ReplFiles { target, replica: _ } => {
                let files: Vec<FileMeta> = match target {
                    ReplTarget::Urn(id) => store.urn_file_list(*id).map_err(store_err)?,
                    ReplTarget::Graph(fp) => store
                        .graph_file_meta(*fp)
                        .map_err(store_err)?
                        .into_iter()
                        .collect(),
                };
                ReplFilesReply { files }.encode()
            }
            Request::ReplFile {
                name,
                offset,
                target,
                replica,
            } => {
                let (data, total) = match target {
                    ReplTarget::Urn(id) => store
                        .read_urn_file(*id, name, *offset, motivo_store::FILE_CHUNK_BYTES)
                        .map_err(store_err)?,
                    ReplTarget::Graph(fp) => store
                        .read_graph_file(*fp, *offset, motivo_store::FILE_CHUNK_BYTES)
                        .map_err(store_err)?,
                };
                self.repl.registry.on_file(replica.as_deref());
                ReplFileReply { data, total }.encode()
            }
            Request::ReplStatus => {
                let sync = self.repl.sync.lock().expect("sync status poisoned");
                json!({
                    "role": if self.repl.is_replica() { "replica" } else { "leader" },
                    "offset": store.replication_offset(),
                    "log_id": store.log_id().map_err(store_err)?,
                    "leader": self.repl.leader,
                    "replicas": self.repl.registry.snapshot_json(),
                    "sync": sync.encode(),
                })
            }
            Request::Promote => {
                if !self.repl.is_replica() {
                    return Err((
                        ErrorKind::BadRequest,
                        "this server is already a leader".into(),
                    ));
                }
                let swept = store.promote().map_err(store_err)?;
                // Order matters: the store accepts writes before the role
                // flips, never the reverse — a request racing the
                // promotion sees `ReadOnly`, not a half-promoted server.
                self.repl.set_leader();
                self.repl.stop_sync();
                PromoteReply {
                    promoted: true,
                    swept: swept as u64,
                }
                .encode()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_batch_joins_within_budget() {
        let parts = vec![r#"{"ok":1}"#.to_string(), r#"{"ok":2}"#.to_string()];
        let out = assemble_batch(2, parts.into_iter(), 1 << 20);
        assert_eq!(out, r#"{"responses":[{"ok":1},{"ok":2}]}"#);
        assert_eq!(
            assemble_batch(0, std::iter::empty(), 1 << 20),
            r#"{"responses":[]}"#
        );
    }

    /// Once the budget is spent, remaining slots become error envelopes
    /// and — crucially — the iterator is never advanced again, so
    /// unanswerable sub-requests are not executed.
    #[test]
    fn assemble_batch_stops_executing_past_the_budget() {
        let big = format!(r#"{{"ok":"{}"}}"#, "x".repeat(100));
        let parts: Vec<String> = vec![big.clone(), big.clone(), big];
        let mut pulled = 0usize;
        let out = assemble_batch(
            4,
            parts.into_iter().inspect(|_| {
                pulled += 1;
                assert!(pulled <= 2, "sub-request executed past the budget");
            }),
            150,
        );
        // Part 0 fits; part 1 busts the budget (dropped); parts 2 and 3
        // are never pulled. Slots 1..4 carry the split-the-batch error.
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let rs = v.get("responses").unwrap().as_array().unwrap();
        assert_eq!(rs.len(), 4);
        assert!(rs[0].get("ok").is_some());
        for (i, r) in rs.iter().enumerate().skip(1) {
            let err = r.get("error").unwrap_or_else(|| panic!("slot {i}: {r:?}"));
            assert_eq!(err.get("kind").unwrap().as_str(), Some("BadRequest"));
            assert!(
                err.get("message")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("split the batch"),
                "{r:?}"
            );
        }
        assert_eq!(pulled, 2);
    }

    /// The worst case — every slot an error envelope — still fits the
    /// frame cap with the slack chosen for `BATCH_PAYLOAD_BUDGET`.
    #[test]
    fn assemble_batch_worst_case_fits_the_frame() {
        let out = assemble_batch(proto::MAX_BATCH, std::iter::empty(), BATCH_PAYLOAD_BUDGET);
        assert!(
            out.len() < proto::MAX_FRAME - (64 << 10),
            "{} bytes",
            out.len()
        );
    }

    /// Wire `threads` is clamped to the machine before any sampler sees
    /// it, and `0` (all cores) passes through. Only configs are built
    /// here; no thread starts.
    #[test]
    fn wire_threads_are_clamped_to_the_cores() {
        let dir = std::env::temp_dir().join("motivo-server-unit-threads");
        std::fs::remove_dir_all(&dir).ok();
        let store = UrnStore::open(&dir).unwrap();
        let metrics = ServerMetrics::new(store.obs().clone());
        let repl = ReplShared::leader(store.obs().clone());
        let engine = Engine::new(&store, 0, &metrics, &repl);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (wire, used) in [(65_536, cores), (usize::MAX, cores), (0, 0), (1, 1)] {
            let cfg = engine.sample_config(7, wire);
            assert_eq!((cfg.seed, cfg.threads), (7, used), "threads: {wire}");
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_sets_fields_and_validates() {
        let opts = ServeOptions::builder()
            .workers(3)
            .queue_depth(12)
            .cache_bytes(1 << 20)
            .snapshot_secs(5)
            .replica_of("127.0.0.1:9999")
            .repl_poll_ms(25)
            .build()
            .unwrap();
        assert_eq!((opts.workers, opts.queue_depth), (3, 12));
        assert_eq!((opts.cache_bytes, opts.snapshot_secs), (1 << 20, 5));
        assert_eq!(opts.replica_of.as_deref(), Some("127.0.0.1:9999"));
        assert_eq!(opts.repl_poll_ms, 25);

        // Zeroes keep the resolve-from-the-machine defaults.
        let opts = ServeOptions::builder().build().unwrap();
        assert!(opts.resolved_workers() >= 2);
        assert_eq!(
            opts.resolved_queue_depth(opts.resolved_workers()),
            opts.resolved_workers() * 4
        );

        let err = ServeOptions::builder().workers(MAX_WORKERS + 1).build();
        assert!(err.unwrap_err().contains("cap"));
        let err = ServeOptions::builder().workers(8).queue_depth(4).build();
        assert!(err.unwrap_err().contains("below workers"));
        let err = ServeOptions::builder().repl_poll_ms(50).build();
        assert!(err.unwrap_err().contains("replica_of"));
        // queue_depth >= workers, or either side defaulted, is fine.
        assert!(ServeOptions::builder()
            .workers(8)
            .queue_depth(8)
            .build()
            .is_ok());
        assert!(ServeOptions::builder().queue_depth(1).build().is_ok());
    }
}
