//! Sharded-vs-single equivalence: a `ditto-serve` cluster must produce the
//! same application output as a single-engine `run_dataset` over the
//! concatenated input, for all five paper applications (HISTO, DP, PR,
//! HLL, HHD) under uniform and extreme (Zipf-3) skew — plus balancer
//! behaviour under a forced hot shard. Every served run is repeated with
//! one follower replica per shard, whose output must be bit-identical
//! (DP's partitions: equal as multisets, like any two served DP runs).

use std::sync::Arc;

use datagen::{Tuple, UniformGenerator, ZipfGenerator};
use ditto_apps::{DataPartitionApp, HhdApp, HistoApp, HllApp, PageRankApp};
use ditto_core::apps::CountPerKey;
use ditto_core::{ArchConfig, DittoApp, MergeableOutput, SkewObliviousPipeline};
use ditto_serve::{split_into_batches, BalancerConfig, Cluster, ServeConfig};
use sketches::Fixed;

const TUPLES: usize = 8_000;
const BATCH: usize = 1_000;
const SHARDS: usize = 3;

fn uniform(seed: u64) -> Vec<Tuple> {
    UniformGenerator::new(1 << 16, seed).take_vec(TUPLES)
}

fn zipf3(seed: u64) -> Vec<Tuple> {
    ZipfGenerator::new(3.0, 1 << 16, seed).take_vec(TUPLES)
}

/// Serves `data` through a cluster in `BATCH`-tuple requests and returns
/// the combined output, after checking that the same run with one
/// follower replica per shard returns a bit-identical output.
fn serve<A>(app: A, data: &[Tuple], config: &ServeConfig) -> A::Output
where
    A: DittoApp + Clone + 'static,
    A::Output: PartialEq + std::fmt::Debug,
{
    let plain = serve_once(app.clone(), data, config);
    let replicated = serve_once(app, data, &config.clone().with_replicas(1));
    assert_eq!(plain, replicated, "replication changed the output");
    plain
}

fn serve_once<A: DittoApp + Clone + 'static>(
    app: A,
    data: &[Tuple],
    config: &ServeConfig,
) -> A::Output {
    let mut cluster = Cluster::new(app, config);
    for batch in split_into_batches(data, BATCH) {
        cluster.submit(batch);
    }
    cluster.drain();
    cluster.finish().output
}

fn single<A: DittoApp + 'static>(app: A, data: &[Tuple], arch: &ArchConfig) -> A::Output {
    SkewObliviousPipeline::run_dataset(app, data.to_vec(), arch).output
}

#[test]
fn histo_cluster_equals_single_engine() {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone());
    for data in [uniform(11), zipf3(12)] {
        let sharded = serve(app.clone(), &data, &config);
        let alone = single(app.clone(), &data, &arch);
        assert_eq!(sharded, alone, "HISTO sharded run diverged");
        assert_eq!(sharded, app.reference(&data), "and both match the host");
    }
}

#[test]
fn dp_cluster_equals_single_engine_as_multisets() {
    let app = DataPartitionApp::new(64, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone());
    for data in [uniform(21), zipf3(22)] {
        let mut sharded = serve_once(app.clone(), &data, &config);
        let mut replicated = serve_once(app.clone(), &data, &config.clone().with_replicas(1));
        let mut alone = single(app.clone(), &data, &arch);
        // DP is the non-decomposable app: each instance staged its share in
        // its own arrival order, so partition *contents* are compared as
        // multisets (the paper's "own memory space" semantics promise no
        // intra-partition order). The same holds between two served runs.
        for bucket in sharded
            .iter_mut()
            .chain(replicated.iter_mut())
            .chain(alone.iter_mut())
        {
            bucket.sort_unstable();
        }
        assert_eq!(sharded, alone, "DP sharded run diverged");
        assert_eq!(replicated, sharded, "replication changed the partitions");
    }
}

#[test]
fn pagerank_cluster_equals_single_engine_bit_for_bit() {
    // One superstep over a skewed graph: fixed-point adds are exact, so
    // sharding the edge list must not change a single bit.
    let graph = ditto_graph::generate::rmat(10, 8.0, 0.57, 0.19, 0.19, 0x5eed);
    let contribs: Arc<Vec<Fixed>> = Arc::new(
        (0..graph.vertex_count())
            .map(|v| Fixed::from_f64(1.0 / (graph.out_degree(v).max(1) as f64)))
            .collect(),
    );
    let app = PageRankApp::new(contribs, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone());
    let edges = PageRankApp::edge_tuples(&graph);
    let sharded = serve(app.clone(), &edges, &config);
    let alone = single(app, &edges, &arch);
    assert_eq!(sharded, alone, "PR sharded run diverged");
}

#[test]
fn hll_cluster_equals_single_engine() {
    let app = HllApp::new(10, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone());
    for data in [uniform(31), zipf3(32)] {
        let sharded = serve(app.clone(), &data, &config);
        let alone = single(app.clone(), &data, &arch);
        assert_eq!(sharded, alone, "HLL register files diverged");
    }
}

#[test]
fn hhd_cluster_equals_single_engine() {
    // The cross-shard merge makes the CMS cells identical to the single
    // engine's (sums commute); candidate tables are per-shard, so exact
    // output equality additionally needs every reported key's candidacy to
    // be detected inside its own shard — true for any key whose real count
    // reaches the candidate threshold, i.e. for these datasets (fixed
    // seeds keep this deterministic). A key reportable only through
    // cross-shard collision noise could differ; see the crate docs.
    let app = HhdApp::new(4, 512, 300, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone());
    for data in [uniform(41), zipf3(42)] {
        let sharded = serve(app.clone(), &data, &config);
        let alone = single(app.clone(), &data, &arch);
        assert_eq!(sharded, alone, "HHD reports diverged");
    }
}

#[test]
fn equivalence_holds_across_shard_counts() {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 3).with_pe_entries(app.pe_entries());
    let data = zipf3(51);
    let alone = single(app.clone(), &data, &arch);
    for shards in [1, 2, 4, 5] {
        let config = ServeConfig::new(shards, arch.clone());
        let sharded = serve(app.clone(), &data, &config);
        assert_eq!(sharded, alone, "diverged at {shards} shards");
    }
}

#[test]
fn per_shard_outputs_combine_to_the_same_result() {
    // The output-level merge path (MergeableOutput) agrees with the
    // state-level one for a decomposable app.
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 3).with_pe_entries(app.pe_entries());
    let data = zipf3(61);
    let config = ServeConfig::new(SHARDS, arch.clone());

    let mut cluster = Cluster::new(app.clone(), &config);
    for batch in split_into_batches(&data, BATCH) {
        cluster.submit(batch);
    }
    cluster.drain();
    let (outputs, reports, snapshot) = cluster.finish_per_shard();
    assert_eq!(outputs.len(), SHARDS);
    assert_eq!(reports.len(), SHARDS);
    assert_eq!(snapshot.tuples_processed(), TUPLES as u64);
    let combined = app.combine_outputs(outputs).expect("non-empty");
    assert_eq!(combined, single(app, &data, &arch));
}

#[test]
fn cluster_equivalence_survives_online_reschedules_and_migrations() {
    // The online preset: per-shard rescheduling on, balancer on, extreme
    // skew — merges must still preserve every tuple exactly.
    let data = zipf3(71);
    let arch_m = 8u32;
    let config = ServeConfig::online(SHARDS, 4, arch_m).with_balancer(BalancerConfig {
        min_window_tuples: 64,
        ..BalancerConfig::default()
    });
    let app = CountPerKey::new(arch_m);
    let mut cluster = Cluster::new(app.clone(), &config);
    for batch in split_into_batches(&data, BATCH) {
        cluster.submit(batch);
        cluster.rebalance();
    }
    cluster.drain();
    let outcome = cluster.finish();
    assert_eq!(
        outcome.output.iter().sum::<u64>(),
        TUPLES as u64,
        "tuples lost or duplicated across reschedules/migrations"
    );
    let alone = single(app, &data, &config.arch);
    assert_eq!(outcome.output, alone, "per-PE counts diverged");
}

#[test]
fn forced_hot_shard_triggers_migration() {
    // Craft traffic that lands entirely on shard 0's slots: the balancer
    // must detect the hot shard from live counters and migrate key ranges.
    let app = CountPerKey::new(8);
    let arch = ArchConfig::new(4, 8, 0);
    let config = ServeConfig::new(4, arch).with_balancer(BalancerConfig {
        min_window_tuples: 64,
        ..BalancerConfig::default()
    });
    let mut cluster = Cluster::new(app, &config);

    // Distinct keys whose slots shard 0 currently owns.
    let hot_keys: Vec<u64> = (0u64..)
        .filter(|&k| cluster.router().shard_of_key(k) == 0)
        .take(32)
        .collect();
    let mut migrations = 0;
    for round in 0..8 {
        let batch: Vec<Tuple> = hot_keys
            .iter()
            .cycle()
            .take(2_000)
            .map(|&k| Tuple::from_key(k))
            .collect();
        cluster.submit(batch);
        cluster.drain();
        migrations += cluster.rebalance().len();
        if migrations > 0 && round >= 2 {
            break;
        }
    }
    assert!(migrations > 0, "hot shard never shed a key range");
    let moved = hot_keys
        .iter()
        .filter(|&&k| cluster.router().shard_of_key(k) != 0)
        .count();
    assert!(moved > 0, "migration did not re-route any hot key");

    // Post-migration traffic spreads: serve one more round and check the
    // snapshot sees more than one shard working.
    let batch: Vec<Tuple> = hot_keys
        .iter()
        .cycle()
        .take(2_000)
        .map(|&k| Tuple::from_key(k))
        .collect();
    cluster.submit(batch);
    cluster.drain();
    let snap = cluster.snapshot();
    let busy = snap.shards.iter().filter(|s| s.tuples > 0).count();
    assert!(busy > 1, "traffic still pinned to one shard");
    assert!(snap.migrations > 0);
    let outcome = cluster.finish();
    assert!(outcome.snapshot.tuples_processed() > 0);
}
