//! Replication, a setting of the serve [`Cluster`]
//! ([`ServeConfig::with_replicas`]): per-shard follower replicas and batch
//! logs, promotion of a dead shard's state onto a live inheritor, and the
//! merged completion records of work resubmitted during a promotion.
//!
//! Every leader shard is shadowed by `replicas` follower clusters —
//! single-shard deployments of the same app and architecture, fed exactly
//! the sub-batches the leader accepted, in the same order. Deterministic
//! engines make followers bit-identical mirrors, so promotion after a
//! shard death loses nothing; with no followers the batch log replays the
//! same history.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_core::DittoApp;
use ditto_obs::{LogHistogram, MetricsRegistry, MetricsSnapshot};

use super::{Cluster, ServeConfig, ShardFailure};
use crate::batch::{BatchId, CompletedBatch};
use crate::log::BatchLog;
use crate::router::SlotMove;

const OFF: &str = "replication is off: build the cluster with ServeConfig::with_replicas";

/// Where a promotion reconstructed the dead shard's state from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// A follower replica was drained and its slice promoted.
    Replica,
    /// No follower existed; the leader's batch log was replayed from
    /// scratch (only possible while the log is complete).
    LogReplay,
}

/// The record of one shard promotion.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// The shard that died.
    pub dead: usize,
    /// The live shard that inherited its state and slots.
    pub inheritor: usize,
    /// The death notice (panic payload) that triggered the promotion.
    pub failure: ShardFailure,
    /// Where the state came back from.
    pub source: RecoverySource,
    /// Routing moves applied (every slot the corpse owned).
    pub moves: Vec<SlotMove>,
    /// Tuples of history restored onto the inheritor.
    pub tuples_recovered: u64,
    /// Tuples that raced the death without reaching any engine and were
    /// resubmitted through the post-recovery routing.
    pub tuples_resubmitted: u64,
    /// Wall-clock recovery time: death observed → slots serving again.
    pub recovery: Duration,
}

/// A replicated cluster's followers, logs and promotion bookkeeping.
pub(super) struct Replication<A: DittoApp + Clone + 'static> {
    /// `replicas` follower clusters per shard (may be empty).
    followers: Vec<Vec<Cluster<A>>>,
    /// One batch log per shard.
    logs: Vec<BatchLog>,
    follower_config: ServeConfig,
    replicas: usize,
    promotions: Vec<Promotion>,
    promotions_total: u64,
    recovery_us: LogHistogram,
    /// Resubmitted batch → the root batch whose raced sub-batch it carries.
    resubmits: HashMap<BatchId, BatchId>,
    /// Root batches with resubmitted children still in flight: their
    /// completion records are held back and emitted merged, so a front-end
    /// sees one completion covering every tuple the request carried.
    outstanding: HashMap<BatchId, ResubmitAgg>,
}

/// The in-progress merge of a root batch's completion with its
/// resubmitted children's.
#[derive(Debug, Default)]
struct ResubmitAgg {
    children: usize,
    tuples: u64,
    latency_cycles: u64,
    wall: Duration,
    record: Option<CompletedBatch>,
}

impl<A: DittoApp + Clone + 'static> Replication<A> {
    /// Boots `replicas` followers per leader shard. Followers run the same
    /// architecture as a 1-shard deployment with no balancer, journal,
    /// event hook or fault injection — the `DITTO_KILL_SHARD` hook kills
    /// leaders, never the replicas that recovery depends on.
    pub(super) fn new(app: &A, config: &ServeConfig, replicas: usize) -> Self {
        let follower_config = ServeConfig::new(1, config.arch.clone())
            .with_cycles_per_poll(config.cycles_per_poll)
            .with_ingress_rate(config.ingress_rate)
            .with_journal_capacity(0);
        let followers = (0..config.shards)
            .map(|_| {
                (0..replicas)
                    .map(|_| Cluster::new(app.clone(), &follower_config))
                    .collect()
            })
            .collect();
        Replication {
            followers,
            logs: vec![BatchLog::new(); config.shards],
            follower_config,
            replicas,
            promotions: Vec::new(),
            promotions_total: 0,
            recovery_us: LogHistogram::new(),
            resubmits: HashMap::new(),
            outstanding: HashMap::new(),
        }
    }

    /// Logs one sub-batch `shard`'s leader accepted and mirrors it to the
    /// shard's followers.
    pub(super) fn mirror(&mut self, batch: BatchId, shard: usize, part: Vec<Tuple>) {
        for follower in &mut self.followers[shard] {
            follower.submit(part.clone());
        }
        self.logs[shard].append(batch, part);
    }

    /// Installs a slice the leader of `shard` just accepted on its
    /// followers, and marks its log incomplete.
    pub(super) fn install(&mut self, shard: usize, states: Vec<A::State>) {
        for follower in &mut self.followers[shard] {
            follower
                .install_shard(0, states.clone())
                .expect("local follower cluster cannot die");
        }
        self.logs[shard].mark_incomplete();
    }

    /// The followers of `shard` drop the slice its leader just handed off,
    /// and its log resets to match the now-fresh state.
    pub(super) fn discard(&mut self, shard: usize) {
        for follower in &mut self.followers[shard] {
            follower.drain();
            let _ = follower
                .extract_shard(0)
                .expect("local follower cluster cannot die");
        }
        self.logs[shard].reset();
    }

    /// Holds back the records of batches with resubmitted parts in flight
    /// and emits each once, merged, when its last part completes.
    pub(super) fn merge_resubmits(
        &mut self,
        completed: Vec<CompletedBatch>,
    ) -> Vec<CompletedBatch> {
        let mut out = Vec::new();
        for c in completed {
            let root = self.resubmits.remove(&c.id).unwrap_or(c.id);
            let Some(agg) = self.outstanding.get_mut(&root) else {
                out.push(c);
                continue;
            };
            if root == c.id {
                agg.record = Some(c);
            } else {
                agg.tuples += c.tuples;
                agg.latency_cycles = agg.latency_cycles.max(c.latency_cycles);
                agg.wall = agg.wall.max(c.wall);
                agg.children -= 1;
            }
            if agg.children == 0 && agg.record.is_some() {
                let agg = self.outstanding.remove(&root).expect("present");
                let record = agg.record.expect("checked above");
                out.push(CompletedBatch {
                    id: root,
                    tuples: record.tuples + agg.tuples,
                    latency_cycles: record.latency_cycles.max(agg.latency_cycles),
                    wall: record.wall.max(agg.wall),
                });
            }
        }
        out
    }

    /// Per-shard replication lag: the worst follower queue depth in tuples.
    fn lag(&mut self) -> Vec<u64> {
        self.followers
            .iter_mut()
            .map(|fs| fs.iter_mut().map(Cluster::queue_depth).max().unwrap_or(0))
            .collect()
    }

    /// The `ditto_ha_*` replication series: replica count, promotions,
    /// recovery time and per-shard replication lag.
    pub(super) fn metrics(&mut self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        let replicas = reg.gauge("ditto_ha_replicas", "ha", "items");
        let promotions = reg.counter("ditto_ha_promotions", "ha", "items");
        let recovery = reg.histogram("ditto_ha_recovery_us", "ha", "us");
        reg.set_gauge(replicas, self.replicas as u64);
        reg.set_counter(promotions, self.promotions_total);
        reg.set_histogram(recovery, self.recovery_us.clone());
        let mut merged = reg.snapshot();
        for (shard, lag) in self.lag().into_iter().enumerate() {
            let mut reg = MetricsRegistry::new().with_label("shard", shard);
            let g = reg.gauge("ditto_ha_replication_lag", "ha", "tuples");
            reg.set_gauge(g, lag);
            merged.merge(&reg.snapshot());
        }
        merged
    }
}

impl<A: DittoApp + Clone + 'static> Cluster<A> {
    fn replication(&mut self) -> &mut Replication<A> {
        self.replication.as_mut().expect(OFF)
    }

    /// Recovers every dead, unrecovered shard by promotion and returns the
    /// promotions performed — empty when the cluster is healthy or not
    /// replicated. A front-end calls this between requests, so failover is
    /// transparent to its clients.
    pub fn heal(&mut self) -> Vec<Promotion> {
        let mut out = Vec::new();
        if self.replication.is_some() {
            while let Some(failure) = self.failed_shards().into_iter().next() {
                out.push(self.promote(&failure));
            }
        }
        out
    }

    /// Promotes a replica of the dead shard onto a live inheritor:
    ///
    /// 1. reconstruct the corpse's slice — drain one follower and extract
    ///    it, or (with no replicas) replay the batch log;
    /// 2. install the slice on the inheritor *and its followers* (they
    ///    must stay mirrors), marking the inheritor's log incomplete;
    /// 3. reassign every slot the corpse owned and resolve its in-flight
    ///    batches (their tuples live in the promoted slice);
    /// 4. resubmit sub-batches that raced the death without reaching any
    ///    engine, attributing each to the batch that carried it (see
    ///    [`take_completed`](Self::take_completed)).
    ///
    /// # Panics
    ///
    /// Panics if replication is not configured, if every other shard is
    /// also dead, or if no follower exists and the log cannot reconstruct
    /// the state (see [`BatchLog::replay`]).
    pub fn promote(&mut self, failure: &ShardFailure) -> Promotion {
        let start = Instant::now();
        let dead = failure.shard;
        let inheritor = self.choose_inheritor(dead);
        let r = self.replication.as_mut().expect(OFF);
        let (states, source) = match r.followers[dead].pop() {
            Some(mut follower) => {
                follower.drain();
                let s = follower
                    .extract_shard(0)
                    .expect("local follower cluster cannot die");
                (s.states, RecoverySource::Replica)
            }
            None => (
                r.logs[dead].replay(&self.app, &r.follower_config),
                RecoverySource::LogReplay,
            ),
        };
        let tuples_recovered = r.logs[dead].tuples();
        // The corpse's remaining followers and log are useless now: its
        // history lives in the inheritor.
        r.followers[dead].clear();
        r.logs[dead].reset();
        self.install_replicated(inheritor, states)
            .expect("promotion inheritor died mid-install");
        let moves = self.recover_shard(dead, inheritor);
        // Sub-batches that raced the death never reached an engine;
        // resubmitting them through the post-recovery routing loses
        // nothing and doubles nothing. The root's completion record is
        // held until every child completes, then emitted merged, so a
        // front-end's per-request tuple accounting stays exact.
        let mut tuples_resubmitted = 0u64;
        for (batch, _, tuples) in self.take_lost_parts() {
            tuples_resubmitted += tuples.len() as u64;
            let child = self.dispatch(tuples);
            let r = self.replication();
            // A resubmitted child that itself raced another death is
            // attributed to the canonical root, not the intermediate child.
            let root = r.resubmits.get(&batch).copied().unwrap_or(batch);
            r.resubmits.insert(child, root);
            r.outstanding.entry(root).or_default().children += 1;
        }
        let promotion = Promotion {
            dead,
            inheritor,
            failure: failure.clone(),
            source,
            moves,
            tuples_recovered,
            tuples_resubmitted,
            recovery: start.elapsed(),
        };
        let r = self.replication();
        r.promotions_total += 1;
        r.recovery_us
            .record(u64::try_from(promotion.recovery.as_micros()).unwrap_or(u64::MAX));
        r.promotions.push(promotion.clone());
        promotion
    }

    /// The live shard inheriting a corpse's state and slots: fewest owned
    /// slots first (ties to the lowest index), so repeated failures spread
    /// instead of piling onto shard 0.
    ///
    /// # Panics
    ///
    /// Panics if no other live shard exists.
    fn choose_inheritor(&self, dead: usize) -> usize {
        (0..self.shards())
            .filter(|&s| s != dead && !self.is_shard_dead(s))
            .min_by_key(|&s| (self.router.slots_of(s).len(), s))
            .expect("every shard is dead — nothing can inherit")
    }

    /// Promotions performed since the last call.
    pub fn take_promotions(&mut self) -> Vec<Promotion> {
        self.replication
            .as_mut()
            .map_or_else(Vec::new, |r| std::mem::take(&mut r.promotions))
    }

    /// Lifetime promotion count.
    pub fn promotions_total(&self) -> u64 {
        self.replication.as_ref().map_or(0, |r| r.promotions_total)
    }

    /// Per-shard replication lag: the worst follower queue depth in tuples
    /// (0 for shards with no followers — or no backlog).
    pub fn replication_lag(&mut self) -> Vec<u64> {
        match &mut self.replication {
            Some(r) => r.lag(),
            None => vec![0; self.shards()],
        }
    }

    /// Read access to a shard's batch log.
    ///
    /// # Panics
    ///
    /// Panics if replication is not configured.
    pub fn log(&self, shard: usize) -> &BatchLog {
        &self.replication.as_ref().expect(OFF).logs[shard]
    }

    /// A point-in-time consistency check: drains `replica` of `shard` and
    /// returns its slice, then restores it (merge of a fresh buffer with an
    /// extracted slice is the slice), so the follower keeps mirroring its
    /// leader afterwards.
    ///
    /// # Panics
    ///
    /// Panics if replication is not configured or the replica is absent.
    pub fn follower_snapshot(&mut self, shard: usize, replica: usize) -> Vec<A::State> {
        let follower = &mut self.replication().followers[shard][replica];
        follower.drain();
        let states = follower
            .extract_shard(0)
            .expect("local follower cluster cannot die")
            .states;
        follower
            .install_shard(0, states.clone())
            .expect("local follower cluster cannot die");
        states
    }

    /// Replays `shard`'s batch log through a fresh single-shard cluster
    /// and returns the reconstructed slice (see [`BatchLog::replay`]).
    ///
    /// # Panics
    ///
    /// Panics if replication is not configured or the log is incomplete.
    pub fn replay_log(&self, shard: usize) -> Vec<A::State> {
        let r = self.replication.as_ref().expect(OFF);
        r.logs[shard].replay(&self.app, &r.follower_config)
    }
}
