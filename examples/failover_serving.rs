//! Failure recovery, end to end over a real loopback socket: a replicated
//! wire-served app survives a mid-run shard kill with zero lost tuples.
//!
//! ```text
//! cargo run --release --example failover_serving
//!
//! # Pick your poison (and replica budget):
//! DITTO_REPLICAS=2 DITTO_KILL_SHARD=0:3 \
//!   cargo run --release --example failover_serving
//! ```
//!
//! 1. Boot a wire server hosting one replicated HISTO cluster
//!    (`ServeConfig::with_replicas`; `DITTO_REPLICAS` sets the
//!    follower count, default 1) with a deterministic fault armed:
//!    `DITTO_KILL_SHARD=<shard>:<batches>` (default `1:2` when unset) —
//!    the shard thread panics mid-run, exactly as a real crash would.
//! 2. Serve skewed batches over loopback TCP. The server's completion
//!    pump heals the cluster between frames: it notices the death,
//!    drains a follower replica, promotes its slice onto a live shard,
//!    re-routes the dead shard's slots and resubmits anything that raced
//!    the crash. Clients never see more than the recovery pause.
//! 3. Assert every batch came back `Done`, print the promotion record
//!    from the telemetry plane, and verify the finalized output equals
//!    the host-side reference — the failure is invisible in the result.

use ditto::prelude::*;
use ditto::serve::ShardFault;
use ditto::wire::{app_id, AppRegistry, Response};

const SHARDS: usize = 3;
const TUPLES: usize = 60_000;
const BATCH_TUPLES: usize = 1_000;

fn main() {
    ditto::obs::env::log_active();

    // 1. One replicated app with a deterministic kill armed.
    let app = HistoApp::new(1_024, 8);
    let fault = ShardFault::from_env().unwrap_or(ShardFault {
        shard: 1,
        after_batches: 2,
    });
    let replicas = ditto::serve::env_replicas(1);
    let config = ServeConfig::new(
        SHARDS,
        ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries()),
    )
    .with_fault(fault)
    .with_replicas(replicas);
    println!(
        "failover_serving: {SHARDS} shards, {replicas} replica(s)/shard, \
         killing shard {} after {} served batches",
        fault.shard, fault.after_batches
    );
    let mut registry = AppRegistry::new();
    registry.register(app_id::HISTO, app.clone(), config);
    let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new())
        .expect("bind wire server");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // 2. Skewed load over the socket, pipelined.
    let data = ZipfGenerator::new(2.5, 1 << 16, 7).take_vec(TUPLES);
    let batches = split_into_batches(&data, BATCH_TUPLES);
    for batch in &batches {
        client.submit(app_id::HISTO, batch).expect("submit");
    }
    let mut done = 0u64;
    let mut tuples_acked = 0u64;
    while done < batches.len() as u64 {
        let (_, _, resp) = client.recv().expect("completion");
        match resp {
            Response::Done { tuples, .. } => {
                tuples_acked += tuples;
                done += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(tuples_acked, TUPLES as u64, "a tuple went missing");
    println!("all {done} batches Done ({tuples_acked} tuples acknowledged)");

    // 3. The recovery shows in the telemetry plane...
    let snap = client.metrics(app_id::HISTO).expect("metrics");
    let label = app_id::HISTO.to_string();
    let scalar = |name: &str| {
        snap.get(name, &[("app", &label)])
            .map_or(0, |e| e.value.scalar())
    };
    let promotions = scalar("ditto_ha_promotions");
    assert_eq!(promotions, 1, "the armed fault must fire exactly once");
    println!(
        "promotions={promotions} replicas={} recoveries_recorded={}",
        scalar("ditto_ha_replicas"),
        scalar("ditto_ha_recovery_us"),
    );

    // ...and nowhere in the result.
    let bytes = client.finalize(app_id::HISTO).expect("finalize");
    let output = app.decode_output(&bytes).expect("decode output");
    assert_eq!(output, app.reference(&data), "failover changed the result");
    println!("finalized output matches the host reference bin-for-bin");

    drop(client);
    server.shutdown();
    println!("failover_serving: OK");
}
