//! [`QueryStats`]: per-urn serving counters, read back from the store's
//! [`Registry`]. [`crate::UrnStore::query`] is the only writer: each query
//! lands in three handles named after its urn —
//! `store.query.latency.urn-<id>` (a log-bucket histogram whose count is
//! the query count and whose sum is the total latency), and the
//! `store.query.hits.urn-<id>` / `store.query.misses.urn-<id>` counters.
//! `Metrics` renders them next to every other metric; the rows here are
//! rebuilt from them without registering anything, so an urn that never
//! answered a query has no row.

use motivo_obs::{HistogramSnapshot, Registry};
use std::time::Duration;

use crate::manifest::UrnId;

/// Name prefix of the per-urn query latency histograms.
pub(crate) const LATENCY: &str = "store.query.latency.";
/// Name prefix of the per-urn counters of queries whose urn was resident.
pub(crate) const HITS: &str = "store.query.hits.";
/// Name prefix of the per-urn counters of queries that loaded their urn.
pub(crate) const MISSES: &str = "store.query.misses.";

/// Serving counters for one urn (or aggregated over all of them) — a
/// consistent-enough snapshot of the live registry handles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries answered.
    pub queries: u64,
    /// Queries whose urn was already resident.
    pub cache_hits: u64,
    /// Queries that had to load the urn from disk first.
    pub cache_misses: u64,
    /// Total wall-clock spent answering (load + sampling).
    pub total_latency: Duration,
    /// Median per-query latency (log-bucket histogram estimate, ≤ 12.5%
    /// relative error — see `motivo_obs::Histogram`).
    pub p50_latency: Duration,
    /// 90th-percentile latency (same estimator).
    pub p90_latency: Duration,
    /// 99th-percentile latency (same estimator).
    pub p99_latency: Duration,
    /// Exact maximum observed latency.
    pub max_latency: Duration,
}

impl QueryStats {
    fn of(cache_hits: u64, cache_misses: u64, latency: &HistogramSnapshot) -> QueryStats {
        QueryStats {
            queries: latency.count(),
            cache_hits,
            cache_misses,
            total_latency: Duration::from_nanos(latency.sum),
            p50_latency: Duration::from_nanos(latency.quantile(0.5)),
            p90_latency: Duration::from_nanos(latency.quantile(0.9)),
            p99_latency: Duration::from_nanos(latency.quantile(0.99)),
            max_latency: Duration::from_nanos(latency.max),
        }
    }

    /// Mean latency per query.
    pub fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.queries as u32
        }
    }
}

/// Every urn's row, ascending by id, and the total over them. The total's
/// latency quantiles come from merging the per-urn histograms (exact: the
/// bucket layout is global), not from averaging per-urn quantiles.
pub(crate) fn read(registry: &Registry) -> (Vec<(UrnId, QueryStats)>, QueryStats) {
    let hits = registry.counter_values(HITS);
    let misses = registry.counter_values(MISSES);
    let mut rows = Vec::new();
    let mut total = (0, 0, HistogramSnapshot::empty());
    for (name, latency) in registry.histogram_snapshots(LATENCY) {
        let Some(id) = name.strip_prefix("urn-").and_then(|n| n.parse().ok()) else {
            continue;
        };
        let h = hits.get(&name).copied().unwrap_or(0);
        let m = misses.get(&name).copied().unwrap_or(0);
        total.0 += h;
        total.1 += m;
        total.2.merge(&latency);
        rows.push((UrnId(id), QueryStats::of(h, m, &latency)));
    }
    rows.sort_unstable_by_key(|&(id, _)| id);
    (rows, QueryStats::of(total.0, total.1, &total.2))
}
