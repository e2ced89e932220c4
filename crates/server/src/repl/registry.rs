//! The leader's view of its replicas, kept as handles in the store's
//! [`motivo_obs::Registry`]. Nothing registers a replica explicitly: the
//! first `ReplFetch` or `ReplFile` naming it creates its handles, every
//! later one updates them. The registry is bookkeeping, not membership —
//! a replica that stops fetching simply goes stale (its `last_seen` age
//! keeps growing in `ReplStatus`), and a promoted ex-replica fetching
//! from a new leader shows up there under its own name.
//!
//! Per replica `<name>`:
//!
//! - `repl.offset.<name>` — gauge, the journal offset its latest fetch
//!   acknowledged;
//! - `repl.lag.<name>` — gauge, leader-journal bytes it had not yet
//!   fetched at that point;
//! - `repl.fetches.<name>` — counter, `ReplFetch` requests served to it;
//! - `repl.files_served.<name>` — counter, `ReplFile` chunks served to it
//!   (the count the no-refetch test watches: a replica resuming from a
//!   durable offset must not move it);
//! - `repl.last_seen.<name>` — gauge, registry uptime in milliseconds
//!   when it last fetched anything.
//!
//! `ReplStatus` rows are read back from these handles without
//! registering any, so a replica that never fetched has no row.

use motivo_obs::Registry;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

const OFFSET: &str = "repl.offset.";
const LAG: &str = "repl.lag.";
const FETCHES: &str = "repl.fetches.";
const FILES_SERVED: &str = "repl.files_served.";
const LAST_SEEN: &str = "repl.last_seen.";

/// Every replica a leader has heard from, as registry handles.
pub struct ReplRegistry {
    obs: Arc<Registry>,
}

impl ReplRegistry {
    /// Replica accounting kept in `obs`.
    pub fn new(obs: Arc<Registry>) -> ReplRegistry {
        ReplRegistry { obs }
    }

    fn uptime_ms(&self) -> u64 {
        (self.obs.uptime_secs() * 1e3) as u64
    }

    fn seen(&self, name: &str) {
        let now = self.uptime_ms();
        self.obs.gauge(&format!("{LAST_SEEN}{name}")).set(now);
    }

    /// Records a `ReplFetch` from `name` at `offset` against a journal
    /// currently `leader_len` bytes long.
    pub fn on_fetch(&self, name: &str, offset: u64, leader_len: u64) {
        let lag = leader_len.saturating_sub(offset);
        self.obs.gauge(&format!("{OFFSET}{name}")).set(offset);
        self.obs.gauge(&format!("{LAG}{name}")).set(lag);
        self.obs.counter(&format!("{FETCHES}{name}")).inc();
        self.seen(name);
    }

    /// Records a `ReplFile` chunk served to `name` (when the request
    /// carried a name — anonymous fetches are served but unattributed).
    pub fn on_file(&self, name: Option<&str>) {
        let Some(name) = name else { return };
        self.obs.counter(&format!("{FILES_SERVED}{name}")).inc();
        self.seen(name);
    }

    /// The `ReplStatus` rows: one object per replica, ascending by name.
    pub fn snapshot_json(&self) -> Vec<Value> {
        let now = self.uptime_ms();
        let (offsets, lags) = (self.obs.gauge_values(OFFSET), self.obs.gauge_values(LAG));
        let fetches = self.obs.counter_values(FETCHES);
        let files = self.obs.counter_values(FILES_SERVED);
        let value = |map: &BTreeMap<String, u64>, name: &str| map.get(name).copied().unwrap_or(0);
        self.obs
            .gauge_values(LAST_SEEN)
            .into_iter()
            .map(|(name, seen)| {
                json!({
                    "name": name,
                    "offset": value(&offsets, &name),
                    "lag": value(&lags, &name),
                    "fetches": value(&fetches, &name),
                    "files_served": value(&files, &name),
                    "last_seen_ms": now.saturating_sub(seen),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetches_create_rows_and_publish_lag() {
        let obs = Arc::new(Registry::new());
        let reg = ReplRegistry::new(obs.clone());
        reg.on_fetch("r1", 0, 96);
        reg.on_fetch("r1", 96, 96);
        reg.on_fetch("r2", 32, 96);
        reg.on_file(Some("r2"));
        reg.on_file(Some("r2"));
        reg.on_file(None); // anonymous: served, not attributed

        let rows = reg.snapshot_json();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("r1"));
        assert_eq!(rows[0].get("offset").unwrap().as_u64(), Some(96));
        assert_eq!(rows[0].get("lag").unwrap().as_u64(), Some(0));
        assert_eq!(rows[0].get("fetches").unwrap().as_u64(), Some(2));
        assert_eq!(rows[1].get("lag").unwrap().as_u64(), Some(64));
        assert_eq!(rows[1].get("files_served").unwrap().as_u64(), Some(2));

        assert_eq!(obs.gauge("repl.lag.r1").get(), 0);
        assert_eq!(obs.gauge("repl.lag.r2").get(), 64);
        assert_eq!(obs.gauge("repl.offset.r2").get(), 32);
        assert_eq!(obs.counter("repl.fetches.r1").get(), 2);
        assert_eq!(obs.counter("repl.files_served.r2").get(), 2);
    }

    /// Rows come back from the handles alone: reading registers nothing,
    /// and a replica only ever served files still gets a row.
    #[test]
    fn rows_are_read_without_registering() {
        let obs = Arc::new(Registry::new());
        let reg = ReplRegistry::new(obs.clone());
        assert!(reg.snapshot_json().is_empty());
        assert!(obs.gauge_values("").is_empty() && obs.counter_values("").is_empty());
        reg.on_file(Some("r3"));
        let rows = reg.snapshot_json();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("files_served").unwrap().as_u64(), Some(1));
        assert_eq!(rows[0].get("fetches").unwrap().as_u64(), Some(0));
        assert!(obs.gauge_values(OFFSET).is_empty(), "no offset handle made");
    }
}
