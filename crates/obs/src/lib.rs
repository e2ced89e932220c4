//! # motivo-obs
//!
//! The workspace-wide observability layer: every other motivo crate
//! reports through the primitives here, and the server's `Metrics` wire
//! request, the periodic `metrics-<ts>.json` snapshots, and the CI
//! latency gate are all rendered from the same [`Registry`].
//!
//! Three primitives, all std-only and allocation-free on the hot path:
//!
//! - [`Counter`] / [`Gauge`] — single relaxed atomics behind `Arc`
//!   handles, registered by name in a global-free [`Registry`] (no
//!   process-wide singleton: a store, a server, and a test can each own
//!   an independent registry).
//! - [`Histogram`] — an HDR-style log-bucketed latency histogram:
//!   `record(ns)` is two-three relaxed `fetch_add`s, buckets cover
//!   1µs..137s with ≤ 12.5% relative quantile error, histograms merge
//!   associatively, and snapshots are wait-free reads.
//! - [`span`](Registry::span) guards — scoped timers that on drop feed a
//!   `span.<label>` histogram, so instrumenting a phase yields its
//!   latency distribution.
//!
//! [`Obs`] is the optional-handle wrapper config structs embed: a
//! disabled `Obs` makes every instrumentation site a no-op, which keeps
//! the sampling hot loops free of overhead unless a registry is attached.
//!
//! [`atomic_write`] is the shared temp-file+rename helper used for every
//! sidecar the workspace persists (store stats, metrics snapshots): a
//! crash mid-write can never shadow a previously good file.

pub mod fs;
pub mod hist;
pub mod registry;
pub mod span;

pub use fs::atomic_write;
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Obs, Registry};
pub use span::SpanGuard;
