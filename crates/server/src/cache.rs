//! [`QueryCache`]: the deterministic query-result cache behind the serving
//! layer, plus its **singleflight** deduplication (DESIGN.md §6.5).
//!
//! Seeded estimate responses are byte-deterministic (the PR 2 seed-split
//! guarantee, asserted across the wire since PR 4), which makes this cache
//! *exact*: the value stored under a canonical request key is the response
//! payload text itself, and replaying it is indistinguishable from
//! recomputing it. Three mechanisms share the module:
//!
//! - a **byte-budgeted LRU** over `(key, payload)` pairs — the budget
//!   counts key bytes, payload bytes, and a fixed per-entry overhead, and
//!   eviction drops the least-recently-used entry first;
//! - **singleflight**: when N identical requests are in flight at once,
//!   one "leader" runs the estimator and every "follower" blocks on the
//!   leader's flight and receives the same `Arc`'d payload — N requests,
//!   one estimator run;
//! - **counters** ([`QueryCacheStats`]): hits, misses (= estimator runs
//!   through the cache), coalesced followers, evictions, and residency.
//!
//! Error results are published to the waiting followers of their flight
//! but never inserted into the LRU — a transient failure must not be
//! replayed forever. A zero byte budget disables residency (every request
//! recomputes) while keeping singleflight dedup active: coalescing
//! concurrent duplicates is free correctness-wise and saves work even
//! when nothing is retained.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::proto::ErrorKind;

/// A failed computation, as the worker reports it on the wire.
pub type QueryError = (ErrorKind, String);

/// Fixed accounting overhead per resident entry (map slot, recency stamp,
/// `Arc` headers) — keeps a budget of tiny entries honest.
const ENTRY_OVERHEAD: u64 = 64;

/// How a request was satisfied, for callers that want to attribute work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Replayed from the LRU; no estimator ran.
    Hit,
    /// This request led a flight and ran the estimator.
    Miss,
    /// Joined another request's in-flight computation and received its
    /// payload; no estimator ran.
    Coalesced,
}

wire_replies! {
    /// Aggregate cache counters — a consistent-enough snapshot of live
    /// atomics, plus the residency read under the LRU lock.
    #[derive(Copy, Default, Eq)]
    pub struct QueryCacheStats {
        /// Requests replayed from the LRU.
        pub hits: u64,
        /// Requests that led a flight and ran the estimator.
        pub misses: u64,
        /// Requests that joined an in-flight leader instead of recomputing.
        pub coalesced: u64,
        /// Entries dropped to respect the byte budget.
        pub evictions: u64,
        /// Bytes resident right now (keys + payloads + per-entry overhead).
        pub resident_bytes: u64,
        /// Entries resident right now.
        pub resident_entries: u64,
    }
}

struct Entry {
    payload: Arc<str>,
    last_used: u64,
}

/// Residency map plus a recency index: `order` maps each entry's
/// `last_used` tick (unique — ticks only ever increase) back to its key,
/// so the eviction victim is `order.first_key_value()` in O(log n)
/// instead of a full scan per eviction.
struct Lru {
    entries: HashMap<Arc<str>, Entry>,
    order: BTreeMap<u64, Arc<str>>,
    resident_bytes: u64,
    tick: u64,
}

impl Lru {
    fn entry_bytes(key: &str, payload: &str) -> u64 {
        key.len() as u64 + payload.len() as u64 + ENTRY_OVERHEAD
    }
}

/// One in-flight computation. Followers block on `done` until the leader
/// publishes a result into `state`.
#[derive(Default)]
struct Flight {
    state: Mutex<Option<Result<Arc<str>, QueryError>>>,
    done: Condvar,
}

impl Flight {
    fn publish(&self, result: Result<Arc<str>, QueryError>) {
        *self.state.lock().expect("flight poisoned") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<str>, QueryError> {
        let mut state = self.state.lock().expect("flight poisoned");
        while state.is_none() {
            state = self.done.wait(state).expect("flight poisoned");
        }
        state.clone().expect("loop exits on Some")
    }
}

/// Completes the leader's flight even if the computation panics: the
/// normal path marks the guard done; the drop path publishes an error so
/// followers wake instead of waiting forever, and deregisters the flight.
struct LeadGuard<'c> {
    cache: &'c QueryCache,
    key: &'c str,
    flight: Arc<Flight>,
    completed: bool,
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.flight.publish(Err((
                ErrorKind::Store,
                "query computation panicked".to_string(),
            )));
            self.cache.deregister(self.key);
        }
    }
}

/// The serving-layer result cache. Thread-safe; one per [`crate::Server`].
///
/// ```
/// use motivo_server::cache::{QueryCache, Served};
///
/// let cache = QueryCache::new(1 << 20);
/// let (first, how) = cache.serve("key", || Ok("payload".to_string()));
/// assert_eq!((first.unwrap().as_ref(), how), ("payload", Served::Miss));
/// // The second identical request replays the exact bytes — the closure
/// // never runs again.
/// let (second, how) = cache.serve("key", || panic!("must not recompute"));
/// assert_eq!((second.unwrap().as_ref(), how), ("payload", Served::Hit));
/// ```
pub struct QueryCache {
    budget_bytes: u64,
    lru: Mutex<Lru>,
    flights: Mutex<HashMap<Arc<str>, Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl QueryCache {
    /// A cache retaining at most `budget_bytes` of keys + payloads
    /// (0 = retain nothing; singleflight dedup stays active).
    pub fn new(budget_bytes: u64) -> QueryCache {
        QueryCache {
            budget_bytes,
            lru: Mutex::new(Lru {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                resident_bytes: 0,
                tick: 0,
            }),
            flights: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Serves one request: replay from the LRU, join an identical
    /// in-flight computation, or lead one by running `compute`. The
    /// returned payload is the exact text the leader computed — for a
    /// deterministic request, byte-identical no matter which path
    /// answered it.
    pub fn serve(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<String, QueryError>,
    ) -> (Result<Arc<str>, QueryError>, Served) {
        if let Some(payload) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(payload), Served::Hit);
        }
        let (flight, leads) = {
            let mut flights = self.flights.lock().expect("flights poisoned");
            // Recheck residency under the flights lock: a leader publishes
            // to the LRU *before* deregistering its flight, so "no flight
            // registered" + "not resident" here proves nobody computed
            // this key — the lookup/registration pair is race-free.
            if let Some(payload) = self.lookup(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Ok(payload), Served::Hit);
            }
            match flights.get(key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(Flight::default());
                    flights.insert(Arc::from(key), f.clone());
                    (f, true)
                }
            }
        };
        if !leads {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return (flight.wait(), Served::Coalesced);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = LeadGuard {
            cache: self,
            key,
            flight,
            completed: false,
        };
        let result: Result<Arc<str>, QueryError> = compute().map(Arc::from);
        if let Ok(payload) = &result {
            self.insert(key, payload.clone());
        }
        guard.flight.publish(result.clone());
        guard.completed = true;
        self.deregister(key);
        (result, Served::Miss)
    }

    /// Current counters.
    pub fn stats(&self) -> QueryCacheStats {
        let lru = self.lru.lock().expect("query cache poisoned");
        QueryCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: lru.resident_bytes,
            resident_entries: lru.entries.len() as u64,
        }
    }

    fn lookup(&self, key: &str) -> Option<Arc<str>> {
        let mut lru = self.lru.lock().expect("query cache poisoned");
        lru.tick += 1;
        let tick = lru.tick;
        let (stale, payload, owned_key) = match lru.entries.get_mut(key) {
            None => return None,
            Some(e) => {
                let stale = e.last_used;
                e.last_used = tick;
                (stale, e.payload.clone(), lru.order[&stale].clone())
            }
        };
        lru.order.remove(&stale);
        lru.order.insert(tick, owned_key);
        Some(payload)
    }

    /// Inserts a computed payload, evicting least-recently-used entries
    /// until the budget holds. An entry larger than the whole budget is
    /// not retained at all.
    fn insert(&self, key: &str, payload: Arc<str>) {
        let bytes = Lru::entry_bytes(key, &payload);
        if bytes > self.budget_bytes {
            return;
        }
        let mut lru = self.lru.lock().expect("query cache poisoned");
        lru.tick += 1;
        let tick = lru.tick;
        let owned_key: Arc<str> = Arc::from(key);
        if let Some(old) = lru.entries.insert(
            owned_key.clone(),
            Entry {
                payload,
                last_used: tick,
            },
        ) {
            lru.resident_bytes -= Lru::entry_bytes(key, &old.payload);
            lru.order.remove(&old.last_used);
        }
        lru.order.insert(tick, owned_key);
        lru.resident_bytes += bytes;
        while lru.resident_bytes > self.budget_bytes {
            // The coldest entry is the front of the recency index; the
            // just-inserted entry holds the newest tick, so it is only
            // the front when it is the last one left — keep it then.
            match lru.order.first_key_value() {
                Some((&t, _)) if t != tick => {
                    let k = lru.order.remove(&t).expect("index entry present");
                    let e = lru.entries.remove(&k).expect("entry present");
                    lru.resident_bytes -= Lru::entry_bytes(&k, &e.payload);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                _ => break,
            }
        }
    }

    fn deregister(&self, key: &str) {
        self.flights.lock().expect("flights poisoned").remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hit_replays_exact_bytes_without_recompute() {
        let cache = QueryCache::new(1 << 16);
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok("{\"total\":42}".to_string())
        };
        let (cold, how) = cache.serve("k1", compute);
        assert_eq!(how, Served::Miss);
        let (warm, how) = cache.serve("k1", compute);
        assert_eq!(how, Served::Hit);
        assert_eq!(cold.unwrap(), warm.unwrap(), "warm bytes == cold bytes");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one computation");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.coalesced), (1, 1, 0));
        assert_eq!(st.resident_entries, 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = QueryCache::new(1 << 16);
        let (a, _) = cache.serve("a", || Ok("payload-a".into()));
        let (b, _) = cache.serve("b", || Ok("payload-b".into()));
        assert_eq!(a.unwrap().as_ref(), "payload-a");
        assert_eq!(b.unwrap().as_ref(), "payload-b");
    }

    #[test]
    fn errors_propagate_but_are_not_cached() {
        let cache = QueryCache::new(1 << 16);
        let (err, how) = cache.serve("k", || Err((ErrorKind::NotBuilt, "pending".into())));
        assert_eq!(how, Served::Miss);
        assert_eq!(err.unwrap_err().0, ErrorKind::NotBuilt);
        // The failure is retried, not replayed.
        let (ok, how) = cache.serve("k", || Ok("fine".into()));
        assert_eq!(how, Served::Miss);
        assert_eq!(ok.unwrap().as_ref(), "fine");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // Room for exactly two of the three entries.
        let one = Lru::entry_bytes("k1", "x");
        let cache = QueryCache::new(one * 2 + one / 2);
        cache.serve("k1", || Ok("x".into())).0.unwrap();
        cache.serve("k2", || Ok("y".into())).0.unwrap();
        // Touch k1 so k2 is the coldest.
        assert_eq!(
            cache.serve("k1", || Err((ErrorKind::Store, "".into()))).1,
            Served::Hit
        );
        cache.serve("k3", || Ok("z".into())).0.unwrap();
        let st = cache.stats();
        assert_eq!((st.evictions, st.resident_entries), (1, 2));
        assert_eq!(
            cache.serve("k1", || Err((ErrorKind::Store, "".into()))).1,
            Served::Hit
        );
        assert_eq!(
            cache.serve("k2", || Ok("y".into())).1,
            Served::Miss,
            "k2 was evicted"
        );
    }

    #[test]
    fn zero_budget_disables_residency() {
        let cache = QueryCache::new(0);
        assert_eq!(cache.serve("k", || Ok("p".into())).1, Served::Miss);
        assert_eq!(cache.serve("k", || Ok("p".into())).1, Served::Miss);
        let st = cache.stats();
        assert_eq!((st.resident_entries, st.misses), (0, 2));
    }

    #[test]
    fn oversized_payload_is_not_retained() {
        let cache = QueryCache::new(32);
        let big = "x".repeat(1000);
        cache.serve("k", || Ok(big.clone())).0.unwrap();
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.serve("k", || Ok(big.clone())).1, Served::Miss);
    }

    /// The singleflight contract: 32 threads requesting one key while the
    /// leader computes produce exactly one computation, and every thread
    /// receives the same payload bytes.
    #[test]
    fn singleflight_coalesces_concurrent_identical_requests() {
        let cache = QueryCache::new(1 << 16);
        let runs = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(32);
        let payloads: Vec<Arc<str>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|_| {
                    let (cache, runs, barrier) = (&cache, &runs, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let (res, _) = cache.serve("hot", || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that the
                            // stragglers coalesce instead of hitting.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok("{\"estimate\":7}".to_string())
                        });
                        res.unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one estimator run");
        assert_eq!(payloads.len(), 32);
        assert!(
            payloads.iter().all(|p| p.as_ref() == "{\"estimate\":7}"),
            "all 32 payloads identical"
        );
        let st = cache.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits + st.coalesced, 31, "{st:?}");
    }

    /// A panicking leader must wake its followers with an error, not
    /// strand them on the condvar.
    #[test]
    fn panicking_leader_releases_followers() {
        let cache = QueryCache::new(1 << 16);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let (cache, barrier) = (&cache, &barrier);
            let leader = s.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.serve("k", || {
                        barrier.wait();
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("estimator blew up");
                    })
                }));
                assert!(result.is_err(), "panic propagates to the leader");
            });
            let follower = s.spawn(move || {
                barrier.wait();
                // By now the leader holds the flight; join it.
                let (res, _) = cache.serve("k", || Ok("recomputed".into()));
                res
            });
            leader.join().unwrap();
            let res = follower.join().unwrap();
            match res {
                // Usual case: the follower joined the doomed flight and
                // got the panic error.
                Err((kind, msg)) => {
                    assert_eq!(kind, ErrorKind::Store);
                    assert!(msg.contains("panicked"), "{msg}");
                }
                // Rare scheduling: the follower arrived after cleanup and
                // recomputed successfully. Also correct.
                Ok(p) => assert_eq!(p.as_ref(), "recomputed"),
            }
        });
    }
}
