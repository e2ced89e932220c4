//! # motivo-store
//!
//! A crash-safe repository of built urns, turning the paper's two-phase
//! design into a long-lived service: the build-up phase is the expensive
//! half of a Motivo run, and the count tables live on external storage
//! precisely so they can be built once and queried many times (§3.1,
//! §3.3). `motivo-store` owns a directory of such tables the way an LSM
//! engine owns its SSTables:
//!
//! - **Durability** ([`journal`], [`manifest`]): every mutation is a
//!   length-prefixed, CRC32-checksummed record appended to `journal.log`
//!   before it takes effect; `MANIFEST` snapshots fold the journal down.
//!   Opening a store replays the journal, truncates torn tails, and
//!   garbage-collects builds a crash left half-written.
//! - **Serving** ([`cache`], [`query`]): loaded urns live in a
//!   byte-budgeted LRU, so hot graphs answer from memory while cold ones
//!   stay on disk. [`UrnStore::query`] runs an estimator on an urn
//!   fetched through the cache and counts the query — hit or miss, and
//!   its latency — in the store's registry ([`UrnStore::obs`]), where
//!   `Metrics` shows it and [`QueryStats`] rows are read back from.
//! - **Builds** ([`store`]): [`UrnStore::build_or_get`] deduplicates on
//!   the build key (graph fingerprint, k, coloring, 0-rooting) and
//!   enqueues cache-missing builds on a background worker thread; callers
//!   poll or block on a [`BuildHandle`].
//!
//! ```no_run
//! use motivo_store::UrnStore;
//! use motivo_core::{naive_estimates, BuildConfig, SampleConfig};
//!
//! let graph = motivo_graph::generators::barabasi_albert(10_000, 3, 7);
//! let store = UrnStore::open("motif-store")?;
//! let handle = store.build_or_get(&graph, &BuildConfig::new(5).seed(1))?;
//! let id = handle.wait()?.urn().k(); // blocks until built (or instant if stored)
//!
//! let mut registry = motivo_graphlet::GraphletRegistry::new(5);
//! let est = store.query(handle.id(), |urn| {
//!     naive_estimates(urn.urn(), &mut registry, 100_000, &SampleConfig::seeded(2))
//! })?;
//! println!("~{:.3e} copies, {:?} cache", est.total_count(), store.cache_stats());
//! # Ok::<(), motivo_store::StoreError>(())
//! ```

pub mod cache;
pub mod error;
pub mod journal;
pub mod manifest;
pub mod owned;
pub mod query;
pub mod replication;
pub mod store;
pub mod testing;

pub use cache::CacheStats;
pub use error::StoreError;
pub use journal::Journal;
pub use manifest::{BuildKey, BuildStatus, GraphMeta, ManifestRecord, UrnId, UrnMeta};
pub use owned::StoreUrn;
pub use query::QueryStats;
pub use replication::{FileMeta, JournalSegment, FILE_CHUNK_BYTES, SEGMENT_MAX_BYTES};
pub use store::{BuildHandle, GcReport, RecoveryReport, StoreOptions, UrnStore};
