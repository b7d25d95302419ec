//! The per-shard batch log: the ordered record of every sub-batch a
//! leader shard accepted, and the deterministic replay that proves a
//! replica equals its leader.

use datagen::Tuple;
use ditto_core::DittoApp;

use crate::batch::BatchId;
use crate::cluster::{Cluster, ServeConfig};

/// An ordered log of the sub-batches one leader shard accepted.
///
/// Because the simulation engines are deterministic in their *state*
/// content — a PriPE buffer is a pure fold of the tuples admitted to it,
/// independent of wall-clock polling cadence — replaying this log through
/// a fresh single-shard cluster reproduces the leader's accumulated slice
/// bit for bit. That makes the log both the replication transport (every
/// appended entry was also mirrored to the followers) and the recovery
/// floor when no follower exists.
///
/// A log is *complete* while the leader's state is derivable from it
/// alone. Installing externally extracted state on the leader (the target
/// half of a handoff, or a promotion) breaks that derivation: the cluster
/// marks the log incomplete ([`is_complete`](Self::is_complete) turns
/// `false`) and [`replay`](Self::replay) refuses rather than silently
/// reconstructing a subset of the state.
#[derive(Debug, Clone, Default)]
pub struct BatchLog {
    entries: Vec<(BatchId, Vec<Tuple>)>,
    incomplete: bool,
}

impl BatchLog {
    /// An empty, complete log.
    pub fn new() -> Self {
        BatchLog::default()
    }

    /// Appends one delivered sub-batch.
    pub(crate) fn append(&mut self, batch: BatchId, tuples: Vec<Tuple>) {
        self.entries.push((batch, tuples));
    }

    /// Number of logged sub-batches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no sub-batch is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tuples covered by the log.
    pub fn tuples(&self) -> u64 {
        self.entries.iter().map(|(_, t)| t.len() as u64).sum()
    }

    /// `true` while the leader's state is a pure fold of this log.
    pub fn is_complete(&self) -> bool {
        !self.incomplete
    }

    /// Records that state not derived from this log was installed on the
    /// leader (handoff target, promotion inheritor): replay no longer
    /// reconstructs the leader.
    pub(crate) fn mark_incomplete(&mut self) {
        self.incomplete = true;
    }

    /// Clears the log and restores completeness — matching a leader whose
    /// accumulated slice was just extracted away (its state is literally
    /// fresh, which an empty log derives exactly).
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.incomplete = false;
    }

    /// Deterministically replays the log through a fresh single-shard
    /// cluster — push one sub-batch, step to its watermark, repeat — and
    /// returns the resulting post-merge PriPE slice. No wall clock enters
    /// the procedure, so two replays of the same log are bit-identical,
    /// and both equal the leader's own slice at the moment the last entry
    /// was appended.
    ///
    /// # Panics
    ///
    /// Panics if the log is no longer [complete](Self::is_complete) —
    /// replaying it would reconstruct only part of the leader's state.
    pub fn replay<A: DittoApp + Clone + 'static>(
        &self,
        app: &A,
        config: &ServeConfig,
    ) -> Vec<A::State> {
        assert!(
            self.is_complete(),
            "batch log no longer derives its leader's state \
             (externally extracted state was installed); \
             recover from a follower instead"
        );
        let mut cluster = Cluster::new(app.clone(), config);
        for (_, tuples) in &self.entries {
            if tuples.is_empty() {
                continue;
            }
            cluster.submit(tuples.clone());
            cluster.drain();
        }
        cluster
            .extract_shard(0)
            .expect("fresh local replay cluster cannot die")
            .states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::ZipfGenerator;
    use ditto_core::apps::CountPerKey;
    use ditto_core::ArchConfig;

    fn config() -> ServeConfig {
        ServeConfig::new(1, ArchConfig::new(4, 8, 3))
    }

    #[test]
    fn replay_reproduces_a_directly_served_cluster() {
        let app = CountPerKey::new(8);
        let mut log = BatchLog::new();
        let mut direct = Cluster::new(app.clone(), &config());
        for seed in 0..4u64 {
            let tuples = ZipfGenerator::new(2.0, 1 << 10, seed).take_vec(500);
            let id = direct.submit(tuples.clone());
            log.append(id, tuples);
        }
        direct.drain();
        let direct_states = direct.extract_shard(0).unwrap().states;
        assert_eq!(log.len(), 4);
        assert_eq!(log.tuples(), 2_000);
        assert_eq!(log.replay(&app, &config()), direct_states);
        // Determinism: a second replay is bit-identical.
        assert_eq!(log.replay(&app, &config()), direct_states);
    }

    #[test]
    fn reset_restores_completeness() {
        let mut log = BatchLog::new();
        assert!(log.is_complete() && log.is_empty());
        log.append(1, vec![Tuple::from_key(7)]);
        log.mark_incomplete();
        assert!(!log.is_complete());
        log.reset();
        assert!(log.is_complete() && log.is_empty());
    }

    #[test]
    #[should_panic(expected = "no longer derives")]
    fn replaying_an_incomplete_log_panics() {
        let mut log = BatchLog::new();
        log.mark_incomplete();
        log.replay(&CountPerKey::new(8), &config());
    }
}
