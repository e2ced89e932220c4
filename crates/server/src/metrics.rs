//! Per-request-kind serving metrics, registered in the store's
//! [`motivo_obs::Registry`] so one `Metrics` response (or metrics
//! snapshot file) covers the whole stack — server request counters next
//! to the store's LRU/journal counters and the core's build spans.
//!
//! Names follow a fixed scheme:
//!
//! - `server.requests.<Kind>` — frames accepted for that kind (counted
//!   when the frame parses, before the work runs);
//! - `server.errors.<Kind>` — responses that carried an error envelope,
//!   backpressure rejections (`Busy`/`ShuttingDown`) included;
//! - `server.latency.<Kind>` — service time per kind (queue wait
//!   excluded), a log-bucket histogram;
//! - `server.queue_wait` / `server.service` — the queue-wait vs
//!   service-time split over all pooled requests;
//! - `server.busy` — requests bounced with `Busy` (full queue or a
//!   connection past its pipelining cap);
//! - `server.connections` — connections accepted.
//!
//! Frames that fail to parse are attributed to the pseudo-kind
//! `Invalid`, so the counter set stays closed: every frame lands in
//! exactly one `server.requests.*` counter.

use crate::proto::Request;
use crate::wire::Wire;
use motivo_obs::{Counter, Histogram, Registry};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Duration;

/// The pseudo-kind of frames that never parsed into a request.
pub const INVALID: &str = "Invalid";

/// The handles of one kind's three metrics.
pub struct KindMetrics {
    pub requests: Counter,
    pub errors: Counter,
    pub latency: Arc<Histogram>,
}

/// All serving metrics of one serve loop, pre-registered so the hot path
/// never takes the registry's write lock.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    /// Every kind label — the request kinds plus [`INVALID`] — ascending,
    /// for binary search; `kinds[i]` holds the handles of `names[i]`.
    names: Vec<&'static str>,
    kinds: Vec<KindMetrics>,
    pub queue_wait: Arc<Histogram>,
    pub service: Arc<Histogram>,
    pub busy: Counter,
    pub connections: Counter,
}

wire_replies! {
    /// One kind's counters and latency quantiles, as reported in
    /// [`crate::ServeReport`] and `server-stats.json` (microsecond units;
    /// quantiles are log-bucket histogram estimates, `max_us` exact).
    #[derive(Default, Eq)]
    pub struct KindStats {
        pub kind: String,
        pub count: u64,
        pub errors: u64,
        pub p50_us: u64,
        pub p90_us: u64,
        pub p99_us: u64,
        pub max_us: u64,
    }
}

impl ServerMetrics {
    /// Registers the full metric set in `registry` (idempotent: the
    /// registry hands back existing handles on name collision).
    pub fn new(registry: Arc<Registry>) -> ServerMetrics {
        let mut names = Request::KINDS.to_vec();
        names.push(INVALID);
        names.sort_unstable();
        let kinds = names
            .iter()
            .map(|kind| KindMetrics {
                requests: registry.counter(&format!("server.requests.{kind}")),
                errors: registry.counter(&format!("server.errors.{kind}")),
                latency: registry.histogram(&format!("server.latency.{kind}")),
            })
            .collect();
        ServerMetrics {
            queue_wait: registry.histogram("server.queue_wait"),
            service: registry.histogram("server.service"),
            busy: registry.counter("server.busy"),
            connections: registry.counter("server.connections"),
            registry,
            names,
            kinds,
        }
    }

    /// The registry everything is registered in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The handles for `kind` (a [`Request::KINDS`] entry or [`INVALID`]).
    pub fn kind(&self, kind: &str) -> &KindMetrics {
        let i = self
            .names
            .binary_search(&kind)
            .unwrap_or_else(|_| panic!("unknown request kind `{kind}`"));
        &self.kinds[i]
    }

    /// Records one pool-answered request: service time into the kind's
    /// histogram and the global service histogram, plus an error count
    /// when the response carried an error envelope.
    pub fn record_served(&self, kind: &str, service: Duration, is_error: bool) {
        let m = self.kind(kind);
        m.latency.record_duration(service);
        self.service.record_duration(service);
        if is_error {
            m.errors.inc();
        }
    }

    /// Records an inline-answered request (`Ping`/`Shutdown`): kind
    /// latency only — the global `server.queue_wait`/`server.service`
    /// pair is reserved for pooled jobs, so its two counts stay
    /// comparable.
    pub fn record_inline(&self, kind: &str, service: Duration) {
        self.kind(kind).latency.record_duration(service);
    }

    /// Frames counted so far: the sum of every `server.requests.<Kind>`.
    pub fn requests(&self) -> u64 {
        self.kinds.iter().map(|m| m.requests.get()).sum()
    }

    /// Per-kind counters and quantiles, ascending by kind name, omitting
    /// kinds that never saw a request.
    pub fn kind_stats(&self) -> Vec<KindStats> {
        self.names
            .iter()
            .zip(&self.kinds)
            .filter(|(_, m)| m.requests.get() > 0)
            .map(|(kind, m)| {
                let h = m.latency.snapshot();
                KindStats {
                    kind: (*kind).to_string(),
                    count: m.requests.get(),
                    errors: m.errors.get(),
                    p50_us: h.quantile(0.5) / 1_000,
                    p90_us: h.quantile(0.9) / 1_000,
                    p99_us: h.quantile(0.99) / 1_000,
                    max_us: h.max / 1_000,
                }
            })
            .collect()
    }

    /// The `Metrics` response payload: per-kind rows, the queue-wait vs
    /// service-time split, uptime, and the full Prometheus-style text
    /// rendering of the registry (what `motivo stats --raw` prints).
    pub fn metrics_json(&self) -> Value {
        let kinds: Vec<Value> = self.kind_stats().iter().map(Wire::encode).collect();
        json!({
            "uptime_secs": self.registry.uptime_secs(),
            "kinds": kinds,
            "queue_wait": histogram_json(&self.queue_wait),
            "service": histogram_json(&self.service),
            "text": self.registry.render_prometheus(),
        })
    }
}

fn histogram_json(h: &Histogram) -> Value {
    let s = h.snapshot();
    json!({
        "count": s.count(),
        "mean_us": s.mean() / 1_000,
        "p50_us": s.quantile(0.5) / 1_000,
        "p90_us": s.quantile(0.9) / 1_000,
        "p99_us": s.quantile(0.99) / 1_000,
        "max_us": s.max / 1_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_label_resolves() {
        let m = ServerMetrics::new(Arc::new(Registry::new()));
        for kind in Request::KINDS.iter().chain([&INVALID]) {
            assert_eq!(m.kind(kind).requests.get(), 0); // resolves without panicking
        }
    }

    #[test]
    fn served_requests_show_up_in_kind_stats() {
        let m = ServerMetrics::new(Arc::new(Registry::new()));
        m.kind("Sample").requests.inc();
        m.kind("Sample").requests.inc();
        m.record_served("Sample", Duration::from_micros(100), false);
        m.record_served("Sample", Duration::from_micros(300), true);
        let rows = m.kind_stats();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kind, "Sample");
        assert_eq!((rows[0].count, rows[0].errors), (2, 1));
        assert!(rows[0].max_us >= 300, "{:?}", rows[0]);
        // Kinds with zero requests are omitted from the report.
        assert!(m.kind_stats().iter().all(|r| r.kind != "Ping"));
    }

    #[test]
    fn metrics_json_has_the_documented_shape() {
        let m = ServerMetrics::new(Arc::new(Registry::new()));
        m.kind("Ping").requests.inc();
        m.record_served("Ping", Duration::from_micros(5), false);
        let v = m.metrics_json();
        assert!(v.get("uptime_secs").unwrap().as_f64().unwrap() >= 0.0);
        let row = &v.get("kinds").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("kind").unwrap().as_str(), Some("Ping"));
        assert_eq!(row.get("count").unwrap().as_u64(), Some(1));
        let text = v.get("text").unwrap().as_str().unwrap().to_string();
        assert!(text.contains("motivo_server_requests_ping"), "{text}");
    }
}
