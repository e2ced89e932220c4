//! Span timing: scoped guards that time a phase and, on drop, record the
//! elapsed time into the phase's `span.<label>` histogram, so every
//! snapshot and `Metrics` answer carries its latency distribution.

use std::sync::Arc;
use std::time::Instant;

use crate::hist::Histogram;

/// A scoped timer for one phase: created by [`crate::Registry::span`],
/// it records into the phase's `span.<label>` histogram when dropped.
pub struct SpanGuard {
    hist: Arc<Histogram>,
    started: Instant,
}

impl SpanGuard {
    pub(crate) fn new(hist: Arc<Histogram>) -> SpanGuard {
        SpanGuard {
            hist,
            started: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.hist.record(ns);
    }
}
