//! End-to-end failure recovery over real loopback sockets: a replicated
//! app whose shard thread is killed mid-run (the `DITTO_KILL_SHARD` fault
//! hook) must keep serving — every submitted batch comes back `Done`, the
//! pump's supervisor promotes the replica between frames, and the
//! finalized output over the wire equals a single-engine run that never
//! saw a failure.

use datagen::{Tuple, ZipfGenerator};
use ditto_apps::HistoApp;
use ditto_core::{ArchConfig, SkewObliviousPipeline};
use ditto_serve::{split_into_batches, ServeConfig, ShardFault};
use ditto_wire::{AppRegistry, Response, WireApp, WireClient, WireServer, WireServerConfig};

const TUPLES: usize = 8_000;
const BATCH: usize = 1_000;
const SHARDS: usize = 3;
const APP: u16 = 7;

#[test]
fn mid_run_shard_kill_is_invisible_to_wire_clients() {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone()).with_fault(ShardFault {
        shard: 1,
        after_batches: 2,
    });
    let mut registry = AppRegistry::new();
    registry.register(APP, app.clone(), config.with_replicas(1));
    let server =
        WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new()).expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let data = ZipfGenerator::new(3.0, 1 << 16, 101).take_vec(TUPLES);
    let batches = split_into_batches(&data, BATCH);
    let expected = batches.len() as u64;
    for batch in &batches {
        client.submit(APP, batch).expect("submit");
    }
    let mut done = 0u64;
    let mut tuples_acked = 0u64;
    while done < expected {
        let (_, app_id, resp) = client.recv().expect("completion");
        assert_eq!(app_id, APP);
        match resp {
            Response::Done { tuples, .. } => {
                tuples_acked += tuples;
                done += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(
        tuples_acked,
        data.len() as u64,
        "every tuple acknowledged despite the kill"
    );

    // The recovery is visible in the HA metrics plane...
    let snap = client.metrics(APP).expect("metrics");
    let label = APP.to_string();
    let promotions = snap
        .get("ditto_ha_promotions", &[("app", &label)])
        .expect("HA plane exported")
        .value
        .scalar();
    assert_eq!(promotions, 1, "the injected fault fired exactly once");
    let replicas = snap
        .get("ditto_ha_replicas", &[("app", &label)])
        .expect("replica gauge")
        .value
        .scalar();
    assert_eq!(replicas, 1);

    // ...and invisible in the result: the wire-served output equals a
    // single engine that never failed.
    let bytes = client.finalize(APP).expect("finalize");
    let output = app.decode_output(&bytes).expect("decode output");
    let alone = SkewObliviousPipeline::run_dataset(app.clone(), data.clone(), &arch).output;
    assert_eq!(output, alone, "failover changed the served result");
    assert_eq!(output, app.reference(&data), "and both match the host");

    drop(client);
    server.shutdown();
}

#[test]
fn replicated_registration_serves_identically_when_nothing_fails() {
    // A replicated host with no fault behaves exactly like a plain one.
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 3).with_pe_entries(app.pe_entries());
    let mut registry = AppRegistry::new();
    registry.register(
        APP,
        app.clone(),
        ServeConfig::new(SHARDS, arch.clone()).with_replicas(2),
    );
    let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let data: Vec<Tuple> = ZipfGenerator::new(1.5, 1 << 14, 102).take_vec(4_000);
    for batch in split_into_batches(&data, BATCH) {
        let resp = client.submit_wait(APP, &batch).expect("round-trip");
        assert!(matches!(resp, Response::Done { .. }));
    }
    let stats = client.stats(APP).expect("stats");
    assert_eq!(stats.batches_completed, 4);
    assert_eq!(stats.batches_shed, 0);

    let bytes = client.finalize(APP).expect("finalize");
    let output = app.decode_output(&bytes).expect("decode");
    let alone = SkewObliviousPipeline::run_dataset(app, data, &arch).output;
    assert_eq!(output, alone);

    drop(client);
    server.shutdown();
}
