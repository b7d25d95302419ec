//! # ditto-ha — replicated serving is a setting of the serve cluster
//!
//! Replication, state handoff and failure recovery live in `ditto-serve`:
//! build a [`Cluster`] with [`ServeConfig::with_replicas`] and it logs and
//! mirrors every delivered sub-batch to follower replicas, moves the
//! followers' slices along with every handoff, and heals a dead shard by
//! promotion inside `submit`, `drain`, `finish` and `heal`. Both handoff
//! and promotion are the same extract → `merge`-install mechanism the
//! paper uses to fold SecPE partial states into their PriPE.
//!
//! This crate keeps [`HaCluster`], a thin compatibility wrapper over a
//! replicated [`Cluster`], and re-exports the replication types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use datagen::Tuple;
use ditto_core::DittoApp;
use ditto_serve::{BatchId, Cluster, ClusterOutcome, CompletedBatch, ServeConfig};
pub use ditto_serve::{BatchLog, Promotion, RecoverySource};

/// A serve [`Cluster`] built with [`ServeConfig::with_replicas`]; use the
/// cluster directly for anything beyond these calls.
pub struct HaCluster<A: DittoApp + Clone + 'static>(Cluster<A>);

impl<A: DittoApp + Clone + 'static> HaCluster<A> {
    /// Boots a cluster per `config` with `replicas` followers per shard.
    pub fn new(app: A, config: &ServeConfig, replicas: usize) -> Self {
        HaCluster(Cluster::new(app, &config.clone().with_replicas(replicas)))
    }

    /// See [`Cluster::submit`].
    pub fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        self.0.submit(tuples)
    }

    /// See [`Cluster::take_completed`].
    pub fn take_completed(&mut self) -> Vec<CompletedBatch> {
        self.0.take_completed()
    }

    /// See [`Cluster::replication_lag`].
    pub fn replication_lag(&mut self) -> Vec<u64> {
        self.0.replication_lag()
    }

    /// See [`Cluster::finish`].
    pub fn finish(self) -> ClusterOutcome<A::Output> {
        self.0.finish()
    }
}
