//! Emits `BENCH_8.json`: the replication & recovery snapshot of a serve
//! `Cluster` built with `ServeConfig::with_replicas`.
//!
//! Three experiment families, all on the HISTO app over a 3-shard cluster:
//!
//! * `recovery` — a shard is killed mid-run with real accumulated state;
//!   the supervisor promotes a replica (or replays the batch log when
//!   `replicas = 0`) and the next batch serves from the survivors. Records
//!   the promotion time and the wall clock from the kill to the first
//!   served reply, and asserts the final output still equals a single
//!   engine that never saw a failure.
//! * `handoff` — hot traffic pinned to one shard forces balancer-driven
//!   *replicated* state handoffs; records the per-handoff pause (extract +
//!   install across leader and followers), catch-up cycles and tuples of
//!   history moved.
//! * `replication_cost` — a qps × skew sweep with `replicas` ∈ {0, 1, 2}:
//!   every admitted sub-batch is mirrored to each follower, so the sweep
//!   prices the replication tap against the replication-off baseline
//!   (`deltas` holds the throughput ratios).
//!
//! Size knob: `DITTO_SERVE_TUPLES` (tuples per sweep point, default
//! 40 000; shared with `serve_bench`).
//!
//! Usage: `cargo run --release -p ditto-bench --bin ha_bench [out.json]`

use std::time::{Duration, Instant};

use datagen::{Tuple, ZipfGenerator};
use ditto_apps::HistoApp;
use ditto_bench::json::{host_info, Json};
use ditto_core::{ArchConfig, SkewObliviousPipeline};
use ditto_serve::{split_into_batches, BalancerConfig, Cluster, RecoverySource, ServeConfig};

const SHARDS: usize = 3;
const BATCH_TUPLES: usize = 1_000;

fn serve_tuples() -> usize {
    std::env::var("DITTO_SERVE_TUPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000)
}

fn histo() -> (HistoApp, ServeConfig) {
    let app = HistoApp::new(1_024, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    (app.clone(), ServeConfig::new(SHARDS, arch))
}

fn single(app: HistoApp, data: &[Tuple], arch: &ArchConfig) -> Vec<u64> {
    SkewObliviousPipeline::run_dataset(app, data.to_vec(), arch).output
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One recovery drill: serve half the load, kill shard 1, heal, and time
/// both the promotion itself and kill → first served reply.
fn recovery_point(replicas: usize, tuples: usize) -> Json {
    let (app, config) = histo();
    let data = ZipfGenerator::new(2.0, 1 << 16, 29).take_vec(tuples);
    let batches = split_into_batches(&data, BATCH_TUPLES);
    let half = batches.len() / 2;
    let mut ha = Cluster::new(app.clone(), &config.clone().with_replicas(replicas));
    for batch in &batches[..half] {
        ha.submit(batch.clone());
    }
    // Drain first so the kill hits a shard with settled mid-life state and
    // the timings below measure recovery, not a queue backlog.
    ha.drain();

    let t_kill = Instant::now();
    ha.kill_shard(1, "ha_bench: operator-injected kill");
    let promotions = ha.heal();
    let heal_wall = t_kill.elapsed();
    ha.submit(batches[half].clone());
    ha.drain();
    let first_reply = t_kill.elapsed();
    assert_eq!(promotions.len(), 1, "exactly one promotion expected");
    let p = &promotions[0];

    for batch in &batches[half + 1..] {
        ha.submit(batch.clone());
    }
    let outcome = ha.finish();
    assert_eq!(
        outcome.output,
        single(app, &data, &config.arch),
        "recovery with {replicas} replica(s) changed the result"
    );
    Json::obj([
        ("replicas", Json::uint(replicas as u64)),
        (
            "source",
            Json::str(match p.source {
                RecoverySource::Replica => "replica",
                RecoverySource::LogReplay => "log_replay",
            }),
        ),
        ("dead_shard", Json::uint(p.dead as u64)),
        ("inheritor", Json::uint(p.inheritor as u64)),
        ("slots_rehomed", Json::uint(p.moves.len() as u64)),
        ("tuples_recovered", Json::uint(p.tuples_recovered)),
        ("tuples_resubmitted", Json::uint(p.tuples_resubmitted)),
        ("promotion_us", Json::uint(micros(p.recovery))),
        ("heal_wall_us", Json::uint(micros(heal_wall))),
        ("kill_to_first_reply_us", Json::uint(micros(first_reply))),
    ])
}

/// Balancer-driven replicated handoffs under pinned-hot traffic: every
/// report prices one pause (leader extract + replicated install).
fn handoff_block() -> Json {
    let app = HistoApp::new(1_024, 8);
    let arch = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone()).with_balancer(BalancerConfig {
        min_window_tuples: 64,
        ..BalancerConfig::default()
    });
    let mut ha = Cluster::new(app.clone(), &config.with_replicas(1));
    let hot_keys: Vec<u64> = (0u64..)
        .filter(|&k| ha.router().shard_of_key(k) == 0)
        .take(32)
        .collect();
    let mut all = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..8 {
        let batch: Vec<Tuple> = hot_keys
            .iter()
            .cycle()
            .take(2_000)
            .map(|&k| Tuple::from_key(k))
            .collect();
        all.extend(batch.iter().copied());
        ha.submit(batch);
        ha.drain();
        ha.rebalance();
        reports.extend(ha.take_handoffs());
    }
    assert!(!reports.is_empty(), "hot shard never handed state off");
    let outcome = ha.finish();
    assert_eq!(
        outcome.output,
        single(app, &all, &arch),
        "replicated handoff lost or doubled tuples"
    );
    let pauses: Vec<u64> = reports.iter().map(|r| micros(r.pause)).collect();
    let rows = reports
        .iter()
        .map(|r| {
            Json::obj([
                ("from", Json::uint(r.from as u64)),
                ("to", Json::uint(r.to as u64)),
                ("slots", Json::uint(r.slots.len() as u64)),
                ("pause_us", Json::uint(micros(r.pause))),
                ("catch_up_cycles", Json::uint(r.catch_up_cycles)),
                ("tuples_moved", Json::uint(r.tuples_moved)),
            ])
        })
        .collect();
    Json::obj([
        ("replicas", Json::uint(1)),
        ("handoffs", Json::uint(reports.len() as u64)),
        (
            "max_pause_us",
            Json::uint(pauses.iter().copied().max().unwrap_or(0)),
        ),
        (
            "mean_pause_us",
            Json::float(pauses.iter().sum::<u64>() as f64 / pauses.len() as f64, 1),
        ),
        ("reports", Json::arr(rows)),
    ])
}

/// One replication-cost sweep point: `tuples` of Zipf(`alpha`) through a
/// 3-shard cluster with `replicas` followers per shard, optionally
/// paced open-loop at `qps` tuples/sec.
struct SweepPoint {
    row: Json,
    tuples_per_sec: f64,
}

fn sweep_point(replicas: usize, alpha: f64, qps: Option<f64>, tuples: usize) -> SweepPoint {
    let (app, config) = histo();
    let data = ZipfGenerator::new(alpha, 1 << 16, 17).take_vec(tuples);
    let batches = split_into_batches(&data, BATCH_TUPLES);
    let mut ha = Cluster::new(app, &config.with_replicas(replicas));
    let start = Instant::now();
    for (i, batch) in batches.into_iter().enumerate() {
        if let Some(rate) = qps {
            // Open-loop pacing: batch i is due at start + i·B/rate.
            let due = start + Duration::from_secs_f64(i as f64 * BATCH_TUPLES as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        ha.submit(batch);
    }
    ha.drain();
    let wall = start.elapsed();
    let lag: u64 = ha.replication_lag().into_iter().max().unwrap_or(0);
    let outcome = ha.finish();
    assert_eq!(
        outcome.snapshot.tuples_processed(),
        tuples as u64,
        "cluster lost tuples"
    );
    let tps = tuples as f64 / wall.as_secs_f64();
    let row = Json::obj([
        ("replicas", Json::uint(replicas as u64)),
        ("alpha", Json::float(alpha, 2)),
        (
            "qps_target",
            qps.map_or(Json::str("max"), |r| Json::float(r, 0)),
        ),
        ("wall_ms", Json::float(wall.as_secs_f64() * 1e3, 1)),
        ("tuples_per_sec", Json::float(tps, 0)),
        (
            "p50_batch_wall_us",
            Json::uint(outcome.snapshot.latency_wall_us.p50),
        ),
        (
            "p99_batch_wall_us",
            Json::uint(outcome.snapshot.latency_wall_us.p99),
        ),
        ("replication_lag_at_drain", Json::uint(lag)),
    ]);
    SweepPoint {
        row,
        tuples_per_sec: tps,
    }
}

fn main() {
    ditto_obs::env::log_active();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_8.json".to_owned());
    let tuples = serve_tuples();

    eprintln!("recovery drills (replica + log replay)...");
    let recovery = vec![recovery_point(1, tuples), recovery_point(0, tuples)];

    eprintln!("replicated handoff under pinned-hot traffic...");
    let handoff = handoff_block();

    // The replication tax: unthrottled throughput over replicas × skew,
    // then paced points at half the replication-off rate to show the
    // replicated cluster holding a sustainable offered load.
    let alphas = [0.0, 3.0];
    let replica_counts = [0usize, 1, 2];
    let mut points = Vec::new();
    let mut max_tps: Vec<(usize, f64, f64)> = Vec::new();
    for &alpha in &alphas {
        for &replicas in &replica_counts {
            eprintln!("sweep point: {replicas} replica(s), alpha {alpha}, max rate...");
            let point = sweep_point(replicas, alpha, None, tuples);
            max_tps.push((replicas, alpha, point.tuples_per_sec));
            points.push(point.row);
        }
    }
    let tps_of = |replicas: usize, alpha: f64| {
        max_tps
            .iter()
            .find(|&&(r, a, _)| r == replicas && a == alpha)
            .map(|&(_, _, t)| t)
            .unwrap_or(0.0)
    };
    let paced_rate = (tps_of(0, 0.0) / 2.0).max(10_000.0);
    for &alpha in &alphas {
        for &replicas in &[0usize, 2] {
            eprintln!(
                "sweep point: {replicas} replica(s), alpha {alpha}, paced {paced_rate:.0} tps..."
            );
            points.push(sweep_point(replicas, alpha, Some(paced_rate), tuples).row);
        }
    }
    let deltas = Json::arr(
        alphas
            .iter()
            .map(|&alpha| {
                let off = tps_of(0, alpha).max(1.0);
                Json::obj([
                    ("alpha", Json::float(alpha, 2)),
                    ("off_tps", Json::float(tps_of(0, alpha), 0)),
                    ("repl1_tps", Json::float(tps_of(1, alpha), 0)),
                    ("repl2_tps", Json::float(tps_of(2, alpha), 0)),
                    ("repl1_vs_off", Json::float(tps_of(1, alpha) / off, 3)),
                    ("repl2_vs_off", Json::float(tps_of(2, alpha) / off, 3)),
                ])
            })
            .collect(),
    );

    let doc = Json::obj([
        ("bench", Json::str("BENCH_8")),
        ("host", host_info()),
        (
            "cluster",
            Json::obj([
                ("app", Json::str("HISTO")),
                ("shards", Json::uint(SHARDS as u64)),
                ("batch_tuples", Json::uint(BATCH_TUPLES as u64)),
                ("tuples_per_point", Json::uint(tuples as u64)),
            ]),
        ),
        ("recovery", Json::arr(recovery)),
        ("handoff", handoff),
        (
            "replication_cost",
            Json::obj([
                ("points", Json::arr(points)),
                ("deltas", deltas),
                (
                    "note",
                    Json::str(
                        "every follower re-executes its shard's full sub-batch stream on its \
                         own threads, so repl2_vs_off < 1.0 on core-limited runners is the \
                         replication tax, not a protocol stall; recovery rows assert the \
                         failover output equals a never-failed single engine",
                    ),
                ),
            ]),
        ),
    ]);
    doc.write(&out_path).expect("write BENCH_8.json");
    println!("{}", doc.to_pretty());
    eprintln!("wrote {out_path}");
}
