//! The metric registry: named counters, gauges, and histograms (span
//! timings among them), with deterministic plaintext (Prometheus-style)
//! and JSON renderings.
//!
//! There is deliberately no global singleton. A [`Registry`] is owned by
//! whoever needs one (a store, a server, a test) and handed around as an
//! `Arc` — usually wrapped in an [`Obs`] so call sites stay no-ops when
//! observability is off. Registration takes a lock; the returned handles
//! are `Arc`-backed atomics, so the hot path never touches the registry
//! again. Reads by name prefix ([`Registry::counter_values`] and its
//! gauge and histogram twins) register nothing, so a report rebuilt from
//! the handles never creates the metrics it looks for.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::SpanGuard;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh unregistered counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable value (e.g. current cache bytes). Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named collection of metrics (module docs have the ownership model).
pub struct Registry {
    start: Instant,
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            start: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Seconds since the registry was created (the process's metric epoch).
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. The handle is cheap to clone and lock-free to bump.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Starts a span for `label`. When the returned guard drops, the
    /// elapsed time is recorded into the `span.<label>` histogram.
    pub fn span(&self, label: impl Into<String>) -> SpanGuard {
        SpanGuard::new(self.histogram(&format!("span.{}", label.into())))
    }

    /// Current values of the counters whose names start with `prefix`,
    /// keyed by the rest of the name and sorted (`""` reads them all).
    /// Registers nothing: reading a metric never creates it.
    pub fn counter_values(&self, prefix: &str) -> BTreeMap<String, u64> {
        read_under(&self.counters, prefix, Counter::get)
    }

    /// Current values of the gauges under `prefix` (as [`Registry::counter_values`]).
    pub fn gauge_values(&self, prefix: &str) -> BTreeMap<String, u64> {
        read_under(&self.gauges, prefix, Gauge::get)
    }

    /// Snapshots of the histograms under `prefix` (as [`Registry::counter_values`]).
    pub fn histogram_snapshots(&self, prefix: &str) -> BTreeMap<String, HistogramSnapshot> {
        read_under(&self.histograms, prefix, |h| h.snapshot())
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (counters and gauges as-is, histograms as µs summaries with
    /// `quantile` labels). Output is deterministic: sorted by name.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# motivo metrics\n");
        out.push_str(&format!(
            "motivo_uptime_seconds {}\n",
            fmt_f64(self.uptime_secs())
        ));
        for (name, v) in self.counter_values("") {
            let m = metric_name(&name);
            out.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
        }
        for (name, v) in self.gauge_values("") {
            let m = metric_name(&name);
            out.push_str(&format!("# TYPE {m} gauge\n{m} {v}\n"));
        }
        for (name, s) in self.histogram_snapshots("") {
            let m = format!("{}_us", metric_name(&name));
            out.push_str(&format!("# TYPE {m} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "{m}{{quantile=\"{label}\"}} {}\n",
                    fmt_f64(ns_to_us(s.quantile(q)))
                ));
            }
            out.push_str(&format!("{m}_sum {}\n", fmt_f64(ns_to_us(s.sum))));
            out.push_str(&format!("{m}_count {}\n", s.count()));
            out.push_str(&format!("{m}_max {}\n", fmt_f64(ns_to_us(s.max))));
        }
        out
    }

    /// Renders the full registry state as one JSON object (the snapshot
    /// file format; see DESIGN.md §7). Keys are sorted, so equal states
    /// render byte-identically.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"uptime_secs\":{}", fmt_f64(self.uptime_secs())));
        out.push_str(",\"counters\":{");
        push_map(&mut out, self.counter_values(""), |v| v.to_string());
        out.push_str("},\"gauges\":{");
        push_map(&mut out, self.gauge_values(""), |v| v.to_string());
        out.push_str("},\"histograms\":{");
        push_map(&mut out, self.histogram_snapshots(""), |s| {
            format!(
                "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                s.count(),
                fmt_f64(ns_to_us(s.mean())),
                fmt_f64(ns_to_us(s.quantile(0.5))),
                fmt_f64(ns_to_us(s.quantile(0.9))),
                fmt_f64(ns_to_us(s.quantile(0.99))),
                fmt_f64(ns_to_us(s.max))
            )
        });
        out.push_str("}}");
        out
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.read().unwrap().len())
            .field("gauges", &self.gauges.read().unwrap().len())
            .field("histograms", &self.histograms.read().unwrap().len())
            .finish()
    }
}

/// `read` applied to every entry of `map` named `<prefix><rest>`, keyed
/// by `rest`.
fn read_under<V, R>(
    map: &RwLock<BTreeMap<String, V>>,
    prefix: &str,
    read: impl Fn(&V) -> R,
) -> BTreeMap<String, R> {
    map.read()
        .unwrap()
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(|(name, _)| name.starts_with(prefix))
        .map(|(name, v)| (name[prefix.len()..].to_string(), read(v)))
        .collect()
}

fn push_map<V>(out: &mut String, map: BTreeMap<String, V>, mut render: impl FnMut(V) -> String) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", json_escape(&k), render(v)));
    }
}

/// Nanoseconds to microseconds as a float.
fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Formats an f64 as a JSON-safe number literal.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// Maps a dotted metric name (`server.latency.Sample`) to a Prometheus
/// identifier (`motivo_server_latency_sample`).
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("motivo_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a string for embedding inside JSON double quotes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An optional [`Registry`] handle for embedding in config structs: all
/// instrumentation is a no-op until a registry is attached, so hot loops
/// pay nothing when observability is off.
#[derive(Clone, Default)]
pub struct Obs {
    reg: Option<Arc<Registry>>,
}

impl Obs {
    /// An enabled handle reporting into `registry`.
    pub fn enabled(registry: Arc<Registry>) -> Obs {
        Obs {
            reg: Some(registry),
        }
    }

    /// A disabled handle (every call is a no-op). Same as `Obs::default()`.
    pub fn none() -> Obs {
        Obs::default()
    }

    /// True when a registry is attached.
    pub fn is_enabled(&self) -> bool {
        self.reg.is_some()
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.reg.as_ref()
    }

    /// Registers/fetches a counter (None when disabled).
    pub fn counter(&self, name: &str) -> Option<Counter> {
        self.reg.as_ref().map(|r| r.counter(name))
    }

    /// Registers/fetches a gauge (None when disabled).
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.reg.as_ref().map(|r| r.gauge(name))
    }

    /// Registers/fetches a histogram (None when disabled).
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.reg.as_ref().map(|r| r.histogram(name))
    }

    /// Starts a span (None when disabled); hold the guard for the phase.
    pub fn span(&self, label: impl Into<String>) -> Option<SpanGuard> {
        self.reg.as_ref().map(|r| r.span(label))
    }

    /// Convenience: bump `name` by one (registry lookup per call — fine
    /// for rare events, fetch a [`Counter`] handle for hot paths).
    pub fn inc(&self, name: &str) {
        if let Some(r) = &self.reg {
            r.counter(name).inc();
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reg {
            Some(r) => write!(f, "Obs({r:?})"),
            None => write!(f, "Obs(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_registry_reads_them() {
        let reg = Registry::new();
        let c = reg.counter("store.journal.appends");
        c.inc();
        c.add(4);
        // Second lookup returns the same cell.
        assert_eq!(reg.counter("store.journal.appends").get(), 5);
        let g = reg.gauge("cache.bytes");
        g.set(100);
        g.sub(30);
        g.sub(200); // saturates
        g.add(7);
        assert_eq!(g.get(), 7);
        let h = reg.histogram("lat");
        h.record(2000);
        assert_eq!(reg.histogram("lat").count(), 1);
    }

    #[test]
    fn spans_feed_their_histogram() {
        let reg = Registry::new();
        {
            let _g = reg.span("build.level2");
        }
        {
            let _g = reg.span("build.level2");
        }
        assert_eq!(reg.histogram("span.build.level2").count(), 2);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_sorted() {
        let reg = Registry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.gauge("mem").set(9);
        reg.histogram("server.latency.Ping").record(1500);
        let text = reg.render_prometheus();
        let a = text.find("motivo_a_first 1").expect("counter a");
        let b = text.find("motivo_b_second 2").expect("counter b");
        assert!(a < b, "names must render sorted");
        assert!(text.contains("# TYPE motivo_mem gauge"));
        assert!(text.contains("# TYPE motivo_server_latency_ping_us summary"));
        assert!(text.contains("motivo_server_latency_ping_us{quantile=\"0.99\"}"));
        assert!(text.contains("motivo_server_latency_ping_us_count 1"));
        // Renders identically when nothing changed (modulo uptime line).
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("motivo_uptime_seconds"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&text), strip(&reg.render_prometheus()));
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let reg = Registry::new();
        reg.counter("c\"quoted\"").inc();
        reg.histogram("h").record(5000);
        let json = reg.snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\\\"quoted\\\"\":1"));
        assert!(json.contains("\"histograms\":{\"h\":{\"count\":1,"));
    }

    #[test]
    fn prefix_reads_strip_the_prefix_and_register_nothing() {
        let reg = Registry::new();
        reg.counter("store.query.hits.urn-1").add(3);
        reg.counter("store.query.hits.urn-10").inc();
        reg.counter("store.query.hitsx").inc();
        reg.gauge("repl.lag.127.0.0.1:9").set(5);
        reg.histogram("store.query.latency.urn-1").record(1500);
        let hits = reg.counter_values("store.query.hits.");
        assert_eq!(
            hits.into_iter().collect::<Vec<_>>(),
            vec![("urn-1".to_string(), 3), ("urn-10".to_string(), 1)]
        );
        assert_eq!(reg.gauge_values("repl.lag.")["127.0.0.1:9"], 5);
        assert_eq!(
            reg.histogram_snapshots("store.query.latency.")["urn-1"].count(),
            1
        );
        assert!(reg.counter_values("server.").is_empty());
        assert_eq!(reg.counter_values("").len(), 3, "reads registered nothing");
    }

    #[test]
    fn disabled_obs_is_a_noop() {
        let obs = Obs::none();
        assert!(!obs.is_enabled());
        assert!(obs.counter("x").is_none());
        assert!(obs.histogram("x").is_none());
        assert!(obs.span("x").is_none());
        obs.inc("x"); // must not panic
    }
}
