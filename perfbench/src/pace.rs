//! Open-loop pacing: when each batch is due, and how late the generator
//! sent it.
//!
//! Batch `i` of a paced segment is due at `start + i · B / rate`. Latency
//! is timed from that due instant, so a stall anywhere (server or client)
//! is charged to every batch it delays. Separately, the generator's own
//! lateness (send instant minus due instant) says whether the client kept
//! its schedule: a generator that fell behind did not offer the load the
//! run claims, so the run is invalid rather than slow.

use crate::stats::Tail;

/// Median lateness (ms) over the last tenth of a segment's sends above
/// which the generator counts as having fallen behind.
pub const FELL_BEHIND_MS: f64 = 20.0;

/// Delivered/offered throughput ratio below which a paced segment counts
/// as building a backlog.
pub const SUSTAINED_RATIO: f64 = 0.97;

/// A fixed-rate send schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pacing {
    /// Due instant of batch 0, ns since the run epoch.
    pub start_ns: u64,
    /// Tuples per batch.
    pub batch_tuples: usize,
    /// Offered load in tuples per second.
    pub rate_tps: f64,
}

impl Pacing {
    /// Due instant of batch `i`, ns since the run epoch.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * self.batch_tuples as f64 * 1e9 / self.rate_tps) as u64
    }
}

/// Lateness of a generator's sends, in send order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lateness {
    late_ms: Vec<f64>,
}

impl Lateness {
    /// An empty record.
    pub fn new() -> Lateness {
        Lateness::default()
    }

    /// Records one send: due and actual instants, ns since the epoch. An
    /// early send (never produced by the load generator) counts as on time.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        self.late_ms
            .push(sent_ns.saturating_sub(due_ns) as f64 / 1e6);
    }

    /// Appends another generator thread's record.
    pub fn extend(&mut self, other: &Lateness) {
        self.late_ms.extend_from_slice(&other.late_ms);
    }

    /// Sends recorded.
    pub fn len(&self) -> usize {
        self.late_ms.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.late_ms.is_empty()
    }

    /// Median and tail lateness in ms.
    pub fn tail(&self) -> Tail {
        Tail::of(&self.late_ms, 9_900)
    }

    /// Whether the generator fell behind: the median lateness over the
    /// last tenth of its sends exceeds [`FELL_BEHIND_MS`], i.e. lateness
    /// grew instead of staying bounded.
    pub fn fell_behind(&self) -> bool {
        if self.late_ms.is_empty() {
            return false;
        }
        let tenth = (self.late_ms.len() / 10).max(1);
        let last = &self.late_ms[self.late_ms.len() - tenth..];
        crate::stats::median(last) > FELL_BEHIND_MS
    }
}

/// Whether a paced segment kept up with its offered load: delivered
/// throughput at least [`SUSTAINED_RATIO`] of offered, so no backlog grew.
pub fn sustained(offered_tps: f64, delivered_tps: f64) -> bool {
    delivered_tps >= SUSTAINED_RATIO * offered_tps
}
