//! Serve and HA depth: a wire workload's batch schedule replayed straight
//! into `Cluster` or `HaCluster`, with no sockets in between.
//!
//! One thread submits each batch when it is due (paced) or when a
//! window slot frees (closed loop, the same total window the wire clients
//! keep), polls `take_completed`, and ends the epoch with `finish` — the
//! in-process twin of a wire round that ends with `Finalize`. Comparing a
//! depth with the one above it on identical batches gives that layer's
//! cost.

use std::collections::HashSet;
use std::time::Duration;

use datagen::Tuple;
use ditto_apps::HistoApp;
use ditto_ha::HaCluster;
use ditto_serve::{BatchId, Cluster, ClusterOutcome, CompletedBatch};

use crate::pace::Pacing;
use crate::trace::Tracer;

/// The calls the replay makes, common to both cluster types.
pub trait Served {
    /// Admits one batch.
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId;
    /// Completions since the last call.
    fn take_completed(&mut self) -> Vec<CompletedBatch>;
    /// Worst follower backlog in tuples (0 without replication).
    fn replication_lag(&mut self) -> u64;
    /// Drains, merges and finalizes.
    fn finish(self) -> ClusterOutcome<Vec<u64>>;
}

impl Served for Cluster<HistoApp> {
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        Cluster::submit(self, tuples)
    }
    fn take_completed(&mut self) -> Vec<CompletedBatch> {
        Cluster::take_completed(self)
    }
    fn replication_lag(&mut self) -> u64 {
        0
    }
    fn finish(self) -> ClusterOutcome<Vec<u64>> {
        Cluster::finish(self)
    }
}

impl Served for HaCluster<HistoApp> {
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        HaCluster::submit(self, tuples)
    }
    fn take_completed(&mut self) -> Vec<CompletedBatch> {
        HaCluster::take_completed(self)
    }
    fn replication_lag(&mut self) -> u64 {
        HaCluster::replication_lag(self)
            .into_iter()
            .max()
            .unwrap_or(0)
    }
    fn finish(self) -> ClusterOutcome<Vec<u64>> {
        HaCluster::finish(self)
    }
}

/// What one replayed epoch observed.
#[derive(Debug, Clone, Default)]
pub struct ReplayEpoch {
    /// Completed tuples.
    pub tuples: u64,
    /// Batches submitted.
    pub batches: usize,
    /// Seconds from the first submit to the last completion seen.
    pub serve_s: f64,
    /// µs inside each `submit` call.
    pub submit_us: Vec<f64>,
    /// Per-batch admission-to-completion wall µs, as the cluster measured.
    pub batch_wall_us: Vec<f64>,
    /// Per-batch latency in simulated cycles (worst shard).
    pub batch_cycles: Vec<f64>,
    /// Host ms of `finish`.
    pub finish_ms: f64,
    /// Cluster-wide queue-depth high-watermark (tuples).
    pub queue_depth_peak: u64,
    /// Key-range migrations applied.
    pub migrations: u64,
    /// Max over shards of completed tuples, over their mean.
    pub shard_imbalance: f64,
    /// Worst replication lag sampled during the epoch (tuples).
    pub replication_lag_max: u64,
    /// The finalized histogram.
    pub output: Vec<u64>,
}

impl ReplayEpoch {
    /// Completed tuples per second.
    pub fn tuples_per_s(&self) -> f64 {
        self.tuples as f64 / self.serve_s.max(1e-9)
    }
}

/// Replays `total` batches (batch `i` is `pool[i % pool.len()]`) into a
/// freshly booted cluster, keeping at most `window` in flight and, when
/// `pacing` is given, submitting none before it is due. Spans
/// (`<layer>.submit`, `<layer>.finish`) go to `tr`.
pub fn replay<S: Served>(
    mut cluster: S,
    layer: &'static str,
    pool: &[&[Tuple]],
    total: usize,
    window: usize,
    pacing: Option<Pacing>,
    tr: &mut Tracer,
) -> ReplayEpoch {
    let (submit_name, finish_name) = match layer {
        "ha" => ("ha.submit", "ha.finish"),
        _ => ("serve.submit", "serve.finish"),
    };
    let mut ep = ReplayEpoch::default();
    let mut in_flight: HashSet<BatchId> = HashSet::new();
    let mut first_ns = None;
    let mut last_ns = 0u64;
    let mut polls = 0u64;
    for i in 0..total {
        loop {
            let due_ok = pacing.is_none_or(|p| tr.now_ns() >= p.due_ns(i));
            if due_ok && in_flight.len() < window {
                break;
            }
            if absorb(&mut cluster, &mut ep, &mut in_flight, tr, &mut last_ns) == 0 {
                let wait = pacing
                    .map(|p| p.due_ns(i).saturating_sub(tr.now_ns()))
                    .unwrap_or(u64::MAX)
                    .min(20_000);
                std::thread::sleep(Duration::from_nanos(wait));
            }
        }
        let batch = pool[i % pool.len()].to_vec();
        let t0 = tr.now_ns();
        let id = cluster.submit(batch);
        let t1 = tr.now_ns();
        first_ns.get_or_insert(t0);
        tr.record(submit_name, t0, t1, None, Some(id));
        ep.submit_us.push((t1 - t0) as f64 / 1e3);
        in_flight.insert(id);
        polls += 1;
        if polls.is_multiple_of(64) {
            ep.replication_lag_max = ep.replication_lag_max.max(cluster.replication_lag());
        }
    }
    while !in_flight.is_empty() {
        if absorb(&mut cluster, &mut ep, &mut in_flight, tr, &mut last_ns) == 0 {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    ep.batches = total;
    ep.serve_s = last_ns.saturating_sub(first_ns.unwrap_or(0)) as f64 / 1e9;
    let f0 = tr.now_ns();
    let outcome = cluster.finish();
    let f1 = tr.now_ns();
    tr.record(finish_name, f0, f1, None, None);
    ep.finish_ms = (f1 - f0) as f64 / 1e6;
    ep.queue_depth_peak = outcome.snapshot.queue_depth_peak;
    ep.migrations = outcome.snapshot.migrations;
    let shard_tuples: Vec<f64> = outcome.reports.iter().map(|r| r.tuples as f64).collect();
    let mean = shard_tuples.iter().sum::<f64>() / shard_tuples.len().max(1) as f64;
    let max = shard_tuples.iter().copied().fold(0.0, f64::max);
    ep.shard_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    ep.output = outcome.output;
    ep
}

/// Takes the cluster's completions into `ep`; returns how many arrived.
fn absorb<S: Served>(
    cluster: &mut S,
    ep: &mut ReplayEpoch,
    in_flight: &mut HashSet<BatchId>,
    tr: &Tracer,
    last_ns: &mut u64,
) -> usize {
    let done = cluster.take_completed();
    if !done.is_empty() {
        *last_ns = tr.now_ns();
    }
    for c in &done {
        in_flight.remove(&c.id);
        ep.tuples += c.tuples;
        ep.batch_wall_us.push(c.wall.as_secs_f64() * 1e6);
        ep.batch_cycles.push(c.latency_cycles as f64);
    }
    done.len()
}
