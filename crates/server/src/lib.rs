//! # motivo-server
//!
//! A std-only, event-driven TCP daemon serving motif-count queries over
//! a shared [`motivo_store::UrnStore`] — the step from a fast
//! single-process counter to a serving system. The store already gives us
//! durable urns, an LRU cache, a background build worker, and counted
//! queries ([`motivo_store::UrnStore::query`]); this crate puts a network
//! front on them:
//!
//! - **Wire protocol** ([`proto`]): length-prefixed JSON frames, typed on
//!   both ends as [`Request`]/[`Response`], both generated from one
//!   declarative schema of every message. A `Hello` handshake announces
//!   protocol version, supported request kinds, and pipelining limits;
//!   responses carry `ok` payloads or structured errors, matched to
//!   pipelined requests by an echoed `id`. A `Batch` carries a list of
//!   sub-requests through one frame and one worker slot, answered in
//!   request order with per-sub-request envelopes.
//! - **Serving core** ([`server`]): one poll-based reactor thread
//!   ([`reactor`]) owning every socket — non-blocking accept,
//!   per-connection frame/write-buffer state machines, and timers —
//!   feeding a fixed-size worker pool through a bounded queue; workers
//!   hand completed responses back through a wakeup pipe instead of
//!   writing sockets. Thousands of idle connections cost no threads. A
//!   full queue (or a connection past its pipelining cap) answers `Busy`
//!   (backpressure, not buffering); a `Shutdown` request stops accepting,
//!   drains every accepted request, and flushes serving statistics into
//!   the store directory. Options come from [`ServeOptions::builder`].
//! - **Result cache** ([`cache`]): a byte-budgeted LRU over exact
//!   response payload bytes, keyed by the canonical request — exact
//!   because seeded responses are byte-deterministic — with singleflight
//!   dedup so N concurrent identical requests run the estimator once.
//! - **Client** ([`client`]): the typed blocking client behind `motivo
//!   client` and the integration tests — purpose-named methods like
//!   [`Client::naive_estimates`] over [`Request`]/[`Response`], with a
//!   [`Client::send_raw`] escape hatch for hand-authored JSON.
//! - **Metrics** ([`metrics`]): per-request-kind counters, error counts,
//!   and latency histograms (plus the queue-wait vs service-time split),
//!   `Busy` replies and accepted connections, registered in the store's
//!   [`motivo_obs::Registry`] next to its LRU/journal counters, per-urn
//!   query counts, per-replica fetch accounting and the core's build
//!   spans. That registry is the only place a serving count lives:
//!   `Stats`, `server-stats.json`, [`ServeReport`] and `ReplStatus` read
//!   it back. A `Metrics` request returns the quantile table and a
//!   Prometheus-style text rendering of every handle; `snapshot_secs`
//!   adds periodic JSON snapshots under the store directory.
//! - **Replication** ([`repl`]): leader/replica serving over the same
//!   wire protocol. A server started with `replica_of` tails the leader's
//!   journal into a read-only local store (mutations answer `ReadOnly`),
//!   bootstraps from its manifest snapshot, fetches sealed urn files it
//!   is missing, and — because responses are byte-deterministic — serves
//!   **identical** bytes to the leader once caught up. The sync session
//!   is a [`repl::replica::SyncDriver`] stepped by reactor timers on the
//!   worker pool, not a dedicated thread. `ReplStatus` reports role,
//!   offsets, and per-replica lag read from the registry; `Promote`
//!   turns a replica into a leader (see DESIGN.md §8).
//!
//! Determinism is preserved across the wire: a request carrying a seed
//! produces byte-identical estimate payloads to the equivalent in-process
//! estimator call on [`motivo_store::UrnStore::get`], at any worker-pool
//! size (see DESIGN.md §6).
//!
//! ```no_run
//! use motivo_server::{Client, ServeOptions, Server};
//! use motivo_store::{UrnId, UrnStore};
//! use std::sync::Arc;
//!
//! let store = Arc::new(UrnStore::open("motif-store")?);
//! let opts = ServeOptions::builder().workers(2).build()?;
//! let server = Server::bind(store, "127.0.0.1:0", opts)?;
//! let mut client = Client::connect(server.addr())?;
//! let hello = client.hello()?;
//! println!("talking to {} (proto v{})", hello.server, hello.proto_version);
//! for urn in client.list_urns()?.urns {
//!     println!("{} k={} {}", urn.id, urn.k, urn.status);
//! }
//! let est = client.naive_estimates(UrnId(0), 10_000, 7)?;
//! println!("~{:.3e} copies", est.total_count);
//! client.shutdown()?;
//! let report = server.join();
//! println!("served {} requests", report.requests);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#[macro_use]
mod wire;

pub mod cache;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod reactor;
pub mod repl;
pub mod server;

pub use cache::{QueryCache, QueryCacheStats, Served};
pub use client::{Client, ClientError};
pub use metrics::{KindStats, ServerMetrics};
pub use proto::{
    ErrorKind, HelloReply, ReplTarget, Request, Response, MAX_PIPELINE, PROTO_VERSION,
};
pub use server::{ServeOptions, ServeOptionsBuilder, ServeReport, Server, DEFAULT_CACHE_BYTES};
