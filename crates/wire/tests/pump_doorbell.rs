//! The completion pump is event-driven: shard completions and service
//! requests ring its doorbell, so responses never wait for the
//! `pump_interval` timeout — which only paces HA upkeep on an idle server.
//!
//! The latency tests set `pump_interval` to 10 s: a pump that still slept
//! between polls would hold every `Done` and `Stats` reply for seconds.

use std::time::{Duration, Instant};

use datagen::{Tuple, UniformGenerator};
use ditto_apps::HistoApp;
use ditto_core::ArchConfig;
use ditto_obs::MetricsSnapshot;
use ditto_serve::{ServeConfig, ShardFault};
use ditto_wire::{
    AppRegistry, Backend, Response, WireApp, WireClient, WireServer, WireServerConfig,
};

const APP: u16 = 7;
const SHARDS: usize = 2;
/// Far above any reply deadline below: a reply that waited for the
/// timeout would blow it.
const SLOW_PUMP: Duration = Duration::from_secs(10);
/// Generous for a loaded CI host, yet a tenth of `SLOW_PUMP`.
const PROMPT: Duration = Duration::from_secs(1);

fn histo() -> (HistoApp, ArchConfig) {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    (app, arch)
}

fn config(backend: Backend, pump_interval: Duration) -> WireServerConfig {
    let mut config = WireServerConfig::new().with_backend(backend);
    config.pump_interval = pump_interval;
    config
}

/// Submits `batch` and waits for its `Done`: `(tuples, wall_us)`.
fn submit_done(client: &mut WireClient, batch: &[Tuple]) -> (u64, u64) {
    match client.submit_wait(APP, batch).expect("submit") {
        Response::Done {
            tuples, wall_us, ..
        } => (tuples, wall_us),
        other => panic!("unexpected response: {other:?}"),
    }
}

fn wakeups(snap: &MetricsSnapshot, cause: &str) -> u64 {
    snap.get("ditto_wire_pump_wakeups", &[("cause", cause)])
        .unwrap_or_else(|| panic!("no ditto_wire_pump_wakeups{{cause={cause}}}"))
        .value
        .scalar()
}

fn replies_arrive_without_waiting_for_the_pump_interval(backend: Backend) {
    let (app, arch) = histo();
    let mut registry = AppRegistry::new();
    registry.register(APP, app, ServeConfig::new(SHARDS, arch));
    let server =
        WireServer::bind("127.0.0.1:0", registry, config(backend, SLOW_PUMP)).expect("bind");
    assert_eq!(server.backend(), backend);
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let batch: Vec<Tuple> = UniformGenerator::new(1 << 12, 5).take_vec(64);

    for round in 0..3 {
        let t = Instant::now();
        let (tuples, wall_us) = submit_done(&mut client, &batch);
        assert_eq!(tuples, batch.len() as u64);
        assert!(
            t.elapsed() < PROMPT,
            "{backend:?} round {round}: Done took {:?}",
            t.elapsed()
        );
        // The Done frame's own server-side wall time includes the pump's
        // wait, so it too stays far below the timeout.
        assert!(u128::from(wall_us) < PROMPT.as_micros());

        let t = Instant::now();
        let stats = client.stats(APP).expect("stats");
        assert_eq!(stats.batches_completed, round + 1);
        assert!(
            t.elapsed() < PROMPT,
            "{backend:?} round {round}: Stats took {:?}",
            t.elapsed()
        );
    }

    // An empty batch completes inside the submit itself: no shard event
    // rings the pump for it.
    let t = Instant::now();
    assert_eq!(submit_done(&mut client, &[]).0, 0);
    assert!(
        t.elapsed() < PROMPT,
        "{backend:?}: empty Done took {:?}",
        t.elapsed()
    );

    let snap = client.metrics(0).expect("metrics dump");
    assert!(
        wakeups(&snap, "completion") >= 1,
        "completions rang the pump"
    );
    assert!(wakeups(&snap, "service") >= 3, "service requests rang it");
    assert!(
        snap.get("ditto_wire_submit_lock_retries", &[("app", "7")])
            .is_some(),
        "lock-retry counter exported per app"
    );

    let t = Instant::now();
    client.finalize(APP).expect("finalize");
    assert!(
        t.elapsed() < PROMPT,
        "{backend:?}: Finalize took {:?}",
        t.elapsed()
    );

    // Pipelined submits left in flight: shutdown drains them and must not
    // wait out the pump's timeout either.
    for _ in 0..4 {
        client.submit(APP, &batch).expect("submit");
    }
    let t = Instant::now();
    let report = server.shutdown();
    assert!(
        t.elapsed() < 2 * PROMPT,
        "{backend:?}: shutdown took {:?}",
        t.elapsed()
    );
    let (_, stats) = &report.per_app[0];
    assert_eq!(stats.batches_submitted, stats.batches_completed);
}

#[test]
fn replies_are_event_driven_on_epoll() {
    if cfg!(target_os = "linux") {
        replies_arrive_without_waiting_for_the_pump_interval(Backend::Epoll);
    }
}

#[test]
fn replies_are_event_driven_on_poll() {
    replies_arrive_without_waiting_for_the_pump_interval(Backend::Poll);
}

/// HA upkeep still runs on an idle server: a replicated app's shard dies
/// right after serving the only batch, no request follows, and the pump
/// still promotes a replica within a few `pump_interval`s.
#[test]
fn idle_replicated_app_is_promoted_within_a_few_pump_intervals() {
    const INTERVAL: Duration = Duration::from_millis(50);
    let (app, arch) = histo();
    let serve = ServeConfig::new(SHARDS, arch).with_fault(ShardFault {
        shard: 1,
        after_batches: 1,
    });
    let mut registry = AppRegistry::new();
    registry.register(APP, app.clone(), serve.with_replicas(1));
    let server =
        WireServer::bind("127.0.0.1:0", registry, config(Backend::auto(), INTERVAL)).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // Enough distinct keys that both shards get part of the batch.
    let batch: Vec<Tuple> = UniformGenerator::new(1 << 16, 9).take_vec(512);
    assert_eq!(submit_done(&mut client, &batch).0, batch.len() as u64);

    // Idle: nothing reaches the server until one scrape after a few
    // intervals. A `Metrics` request is answered before the pass it wakes,
    // so the promotion it reports happened while the server was idle.
    std::thread::sleep(4 * INTERVAL);
    let snap = client.metrics(APP).expect("metrics");
    let promotions = snap
        .get("ditto_ha_promotions", &[("app", "7")])
        .expect("HA plane exported")
        .value
        .scalar();
    assert_eq!(promotions, 1, "the dead shard was promoted while idle");

    // The timeout keeps pacing upkeep with no traffic at all.
    let before = wakeups(&client.metrics(0).expect("metrics"), "upkeep");
    std::thread::sleep(6 * INTERVAL);
    let after = wakeups(&client.metrics(0).expect("metrics"), "upkeep");
    assert!(
        after >= before + 2,
        "idle upkeep passes: {before} -> {after} over 6 intervals"
    );

    // The promoted deployment keeps serving exactly.
    assert_eq!(submit_done(&mut client, &batch).0, batch.len() as u64);
    let bytes = client.finalize(APP).expect("finalize");
    let output = app.decode_output(&bytes).expect("decode");
    let mut both = batch.clone();
    both.extend_from_slice(&batch);
    assert_eq!(output, app.reference(&both));
    drop(client);
    server.shutdown();
}
