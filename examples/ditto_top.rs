//! `top` for a ditto serving fleet: poll the wire telemetry plane and
//! render live per-shard throughput, queue depth and tail latency.
//!
//! ```text
//! cargo run --release --example ditto_top
//! ```
//!
//! 1. Boot a wire server hosting two apps (HISTO and HLL) on loopback —
//!    HISTO replicated (`ServeConfig::with_replicas`, `DITTO_REPLICAS` overrides
//!    the follower count), HLL plain, so the table shows both shapes.
//! 2. Spawn a background load generator that serves skewed batches over
//!    its own connection.
//! 3. From a second connection, poll the `MetricsDump` frame on an
//!    interval — one round-trip returns the merged cross-layer snapshot —
//!    and render a top-like table: per-shard qps (from successive
//!    `ditto_serve_tuples_total` deltas), live queue depth, and the
//!    cluster's bucketed batch-latency quantiles (p50/p99/p999), plus the
//!    wire layer's completion-pump wake-ups by cause and the submits that
//!    found their app locked and were retried on its release.
//! 4. After the load drains, print the Prometheus text exposition of the
//!    same registry — what a real scraper would ingest.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ditto::obs::{MetricValue, MetricsSnapshot};
use ditto::prelude::*;
use ditto::wire::{app_id, AppRegistry, Response};

const SHARDS: usize = 2;
const BATCH_TUPLES: usize = 1_000;
const TUPLES: usize = 150_000;
const POLL_INTERVAL: Duration = Duration::from_millis(40);

fn serve_config(pe_entries: usize) -> ServeConfig {
    ServeConfig::new(SHARDS, ArchConfig::new(4, 8, 7).with_pe_entries(pe_entries))
}

/// Per-shard tuple totals for one app, keyed by shard id.
fn shard_tuples(snap: &MetricsSnapshot, app: u16) -> HashMap<usize, u64> {
    let mut out = HashMap::new();
    for shard in 0..SHARDS {
        if let Some(e) = snap.get(
            "ditto_serve_tuples_total",
            &[("app", &app.to_string()), ("shard", &shard.to_string())],
        ) {
            out.insert(shard, e.value.scalar());
        }
    }
    out
}

fn gauge(snap: &MetricsSnapshot, name: &str, app: u16, shard: usize) -> u64 {
    snap.get(
        name,
        &[("app", &app.to_string()), ("shard", &shard.to_string())],
    )
    .map_or(0, |e| e.value.scalar())
}

/// App-level gauge with no shard label (the HA plane's replica count).
fn app_gauge(snap: &MetricsSnapshot, name: &str, app: u16) -> Option<u64> {
    snap.get(name, &[("app", &app.to_string())])
        .map(|e| e.value.scalar())
}

/// Total of `name` with exactly these labels (0 when absent).
fn labelled(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.get(name, labels).map_or(0, |e| e.value.scalar())
}

fn latency(snap: &MetricsSnapshot, app: u16) -> Option<LatencyStats> {
    let e = snap.get(
        "ditto_cluster_batch_latency_cycles",
        &[("app", &app.to_string())],
    )?;
    match &e.value {
        MetricValue::Histogram(h) if h.count() > 0 => Some(h.stats()),
        _ => None,
    }
}

fn render(
    tick: usize,
    snap: &MetricsSnapshot,
    prev: &HashMap<(u16, usize), u64>,
    dt: f64,
) -> HashMap<(u16, usize), u64> {
    let mut now = HashMap::new();
    println!("── tick {tick} ──────────────────────────────────────────────");
    println!(
        "{:>5} {:>5} {:>12} {:>10} {:>7} {:>6} {:>4} {:>5} {:>5} {:>9} {:>9} {:>9}",
        "app",
        "shard",
        "tuples",
        "qps",
        "depth",
        "phase",
        "pes",
        "repl",
        "lag",
        "p50cyc",
        "p99cyc",
        "p999cyc"
    );
    for app in [app_id::HISTO, app_id::HLL] {
        let lat = latency(snap, app);
        // The HA plane: follower count per shard ("-" for plain hosts)
        // and per-shard replication lag in queued tuples.
        let replicas = app_gauge(snap, "ditto_ha_replicas", app);
        for (shard, total) in {
            let mut v: Vec<_> = shard_tuples(snap, app).into_iter().collect();
            v.sort();
            v
        } {
            let qps = prev
                .get(&(app, shard))
                .map_or(0.0, |&p| (total - p) as f64 / dt);
            let depth = gauge(snap, "ditto_serve_queue_depth", app, shard);
            // The plan plane: which execution phase the shard's engine is
            // in and how many PEs its current plan keeps active.
            let phase = gauge(snap, "ditto_plan_phase", app, shard);
            let pes = gauge(snap, "ditto_plan_active_pes", app, shard);
            let repl = replicas.map_or("-".into(), |r| r.to_string());
            let lag = if replicas.is_some() {
                gauge(snap, "ditto_ha_replication_lag", app, shard).to_string()
            } else {
                "-".into()
            };
            let (p50, p99, p999) = lat.as_ref().map_or((0, 0, 0), |s| (s.p50, s.p99, s.p999));
            println!(
                "{:>5} {:>5} {:>12} {:>10.0} {:>7} {:>6} {:>4} {:>5} {:>5} {:>9} {:>9} {:>9}",
                app, shard, total, qps, depth, phase, pes, repl, lag, p50, p99, p999
            );
            now.insert((app, shard), total);
        }
    }
    // The wire plane: why the completion pump woke, and how many submits
    // lost their app's lock and waited for its release.
    let wakeups: Vec<String> = ["completion", "service", "upkeep"]
        .iter()
        .map(|cause| {
            let n = labelled(snap, "ditto_wire_pump_wakeups", &[("cause", cause)]);
            format!("{cause}={n}")
        })
        .collect();
    let retries: Vec<String> = [app_id::HISTO, app_id::HLL]
        .iter()
        .map(|app| {
            let label = app.to_string();
            let n = labelled(snap, "ditto_wire_submit_lock_retries", &[("app", &label)]);
            format!("app {app}={n}")
        })
        .collect();
    println!(
        "pump wakeups: {} · submit lock retries: {}",
        wakeups.join(" "),
        retries.join(" ")
    );
    now
}

fn main() {
    // 1. Two hosted apps behind one socket.
    let histo = HistoApp::new(1_024, 8);
    let hll = HllApp::new(12, 8);
    let mut registry = AppRegistry::new();
    registry.register(
        app_id::HISTO,
        histo.clone(),
        serve_config(histo.pe_entries()).with_replicas(ditto::serve::env_replicas(1)),
    );
    registry.register(app_id::HLL, hll.clone(), serve_config(hll.pe_entries()));
    let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new())
        .expect("bind wire server");
    let addr = server.local_addr();
    println!("ditto_top: wire server on {addr}");

    // 2. Background load: skewed batches over a dedicated connection.
    let load = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr).expect("load connect");
        let data = ZipfGenerator::new(2.0, 1 << 18, 42).take_vec(TUPLES);
        let batches = split_into_batches(&data, BATCH_TUPLES);
        for batch in &batches {
            client.submit(app_id::HISTO, batch).expect("submit histo");
            client.submit(app_id::HLL, batch).expect("submit hll");
        }
        let mut tuples_acked = 0u64;
        for _ in 0..2 * batches.len() {
            let (_, _, resp) = client.recv().expect("completion");
            match resp {
                Response::Done { tuples, .. } => tuples_acked += tuples,
                other => panic!("unexpected response: {other:?}"),
            }
        }
        tuples_acked
    });

    // 3. The poller: one MetricsDump round-trip per tick.
    let mut poller = WireClient::connect(addr).expect("poller connect");
    let mut prev: HashMap<(u16, usize), u64> = HashMap::new();
    let mut last = Instant::now();
    for tick in 0.. {
        std::thread::sleep(POLL_INTERVAL);
        let snap = poller.metrics(0).expect("metrics dump");
        let dt = last.elapsed().as_secs_f64();
        last = Instant::now();
        prev = render(tick, &snap, &prev, dt);
        if load.is_finished() {
            break;
        }
    }
    let tuples_acked = load.join().expect("load generator");
    assert_eq!(tuples_acked, 2 * TUPLES as u64, "every tuple acknowledged");

    // 4. Final scrape, as Prometheus text.
    let text = poller.metrics_text(0).expect("prometheus scrape");
    let summary: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("ditto_cluster_batch_latency_cycles") || l.starts_with("# TYPE"))
        .collect();
    println!("── prometheus exposition (excerpt) ─────────────────────────");
    for line in summary.iter().take(16) {
        println!("{line}");
    }
    println!(
        "({} exposition lines total, {} tuples served)",
        text.lines().count(),
        tuples_acked
    );

    drop(poller);
    server.shutdown();
}
