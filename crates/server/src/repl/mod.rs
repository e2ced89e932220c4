//! Leader/replica replication over the wire protocol (DESIGN.md §8).
//!
//! Replication is **pull-based** and rides the same length-prefixed JSON
//! frames as every other request, so a replica needs nothing but a
//! [`crate::Client`] and the leader needs no extra listener:
//!
//! - the **leader** is an ordinary server whose engine additionally
//!   answers `ReplFetch` (journal frames from an offset), `ReplManifest`
//!   (snapshot bytes), `ReplFiles`/`ReplFile` (sealed urn and graph
//!   files), and `ReplStatus`; [`registry::ReplRegistry`] keeps each
//!   replica's offset, lag, fetch and served-file counts as handles in
//!   the store's metric registry, where `ReplStatus` reads them back;
//! - a **replica** is a server whose store was opened with
//!   [`motivo_store::UrnStore::open_replica`] (mutations refused with
//!   `ReadOnly`) plus a [`replica::SyncDriver`] — stepped as timer jobs
//!   on the serve loop's worker pool, no dedicated thread — that
//!   bootstraps from the leader's snapshot, fetches missing files, and
//!   tails the journal. Because query answering is deterministic
//!   (DESIGN.md §6.4),
//!   a caught-up replica returns **byte-identical** responses to the
//!   leader — replicas scale reads without weakening any guarantee.
//!
//! The replica's journal is maintained as a byte-exact prefix of the
//! leader's; its resume offset after a crash is simply whatever
//! `Journal::open`'s torn-tail truncation leaves behind, the same
//! recovery path a standalone store uses. A `Promote` request flips the
//! read-only gate, sweeps builds the dead leader left unfinished, and
//! stops the sync session — after which the server is a leader like any
//! other.

pub mod backoff;
pub mod protocol;
pub mod registry;
pub mod replica;

use motivo_obs::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Replication state shared between a serve loop's engine, its reactor,
/// and (on a replica) its sync driver.
pub struct ReplShared {
    /// True while this server is a read-only replica; cleared by
    /// `Promote`. Connection readers consult it to refuse `Shutdown`
    /// inline, the engine to refuse `Build`.
    replica: AtomicBool,
    /// The leader address a replica was started against (`None` on a
    /// server born a leader).
    pub leader: Option<String>,
    /// Per-replica fetch accounting in the store's registry (meaningful
    /// on a leader; empty on a replica unless something fetches from it —
    /// chaining is legal).
    pub registry: registry::ReplRegistry,
    /// The sync driver's self-reported status, served by `ReplStatus`.
    pub sync: Mutex<replica::SyncStatus>,
    /// Tells the sync driver to stop (promotion or server shutdown).
    stop_sync: AtomicBool,
}

impl ReplShared {
    /// State for a server born a leader.
    pub fn leader(obs: Arc<Registry>) -> ReplShared {
        ReplShared::with_role(None, obs)
    }

    /// State for a server started as a replica of `leader`.
    pub fn replica(leader: String, obs: Arc<Registry>) -> ReplShared {
        ReplShared::with_role(Some(leader), obs)
    }

    fn with_role(leader: Option<String>, obs: Arc<Registry>) -> ReplShared {
        ReplShared {
            replica: AtomicBool::new(leader.is_some()),
            leader,
            registry: registry::ReplRegistry::new(obs),
            sync: Mutex::new(replica::SyncStatus::default()),
            stop_sync: AtomicBool::new(false),
        }
    }

    /// Is this server currently serving as a read-only replica?
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::SeqCst)
    }

    /// Marks the server a leader (the `Promote` handler's flag flip).
    pub fn set_leader(&self) {
        self.replica.store(false, Ordering::SeqCst);
    }

    /// Asks the sync driver to stop at its next step.
    pub fn stop_sync(&self) {
        self.stop_sync.store(true, Ordering::SeqCst);
    }

    /// Has the sync driver been asked to stop?
    pub fn sync_stopped(&self) -> bool {
        self.stop_sync.load(Ordering::SeqCst)
    }
}
