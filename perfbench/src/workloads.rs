//! The four named workloads and how each run turns into metrics.
//!
//! Every workload runs the HISTO app. Inputs come only from the seed;
//! every run checks its finalized output against a single-engine
//! `SkewObliviousPipeline::run_dataset` on the same inputs.
//!
//! An untraced run measures the workload at its own depth (the engine for
//! `offline_shift`, a wire client for the others) and reports the
//! end-to-end metrics. A traced run records spans around every call into a
//! layer and walks the depth ladder on the workload's inputs and schedule
//! — engine, serve (`Cluster`), ha (`HaCluster`), wire — so adjacent
//! depths on identical batches give each layer's cost.

use std::time::{Duration, Instant};

use datagen::{Tuple, UniformGenerator, ZipfGenerator};
use ditto_apps::HistoApp;
use ditto_core::{ArchConfig, RunOutcome, SkewObliviousPipeline};
use ditto_ha::HaCluster;
use ditto_serve::{Cluster, ServeConfig};
use ditto_wire::{
    app_id, AppRegistry, Frame, Request, Response, WireApp, WireClient, WireError, WireServer,
    WireServerConfig, WireStats,
};

use crate::engine::{engine_pass, fingerprint, EnginePass, DRAIN_SETTLE_CYCLES};
use crate::pace::{sustained, Lateness, Pacing};
use crate::served::{replay, ReplayEpoch};
use crate::stats::{best_per_step, median, round_tail, Tail};
use crate::trace::Tracer;
use crate::wireload::{drive_conn, drive_open, BatchRec, ConnOut, ConnPlan, FrameConn, TIMEOUT_MS};

/// The wire app id every workload is served under.
pub const APP: u16 = app_id::HISTO;

/// Key universe of every generated dataset.
pub const KEYS: u64 = 1 << 20;

/// Client-observed p99 batch latency limit (ms) behind `slo_tps`.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Load connections of a closed loop, one thread each: never more than
/// the host's cores, and at most two. The open loop uses one connection
/// served by two threads (a sender and a receiver).
pub fn connections(kind: Kind) -> usize {
    if kind.paced() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }
}

/// Offered rates of `wire_paced_small` (tuples/s), ascending; the middle
/// one carries the latency headline.
pub const PACED_RATES: [f64; 3] = [100_000.0, 200_000.0, 300_000.0];

/// Share of the run spent at each paced rate.
const PACED_SHARE: [f64; 3] = [0.25, 0.5, 0.25];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One paper-scale pipeline over a uniform→Zipf(2.0) shifting dataset.
    OfflineShift,
    /// 2 shards behind the wire server, closed loop, 1000-tuple batches.
    WireBulk,
    /// The same server, open loop, 32-tuple batches at fixed rates.
    WirePacedSmall,
    /// `wire_bulk` with one follower per shard.
    WireReplicated,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::OfflineShift,
        Kind::WireBulk,
        Kind::WirePacedSmall,
        Kind::WireReplicated,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflineShift => "offline_shift",
            Kind::WireBulk => "wire_bulk",
            Kind::WirePacedSmall => "wire_paced_small",
            Kind::WireReplicated => "wire_replicated",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn paced(self) -> bool {
        self == Kind::WirePacedSmall
    }
}

/// Everything about a workload except its seed.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The HISTO instance.
    pub app: HistoApp,
    /// Shape of each shard (and of the single-engine reference).
    pub arch: ArchConfig,
    /// Shards behind the server.
    pub shards: usize,
    /// Tuples per request batch.
    pub batch_tuples: usize,
    /// Batches each closed-loop connection keeps in flight.
    pub window: usize,
    /// Hosted through `register_replicated(…, 1)`.
    pub replicated: bool,
}

impl Shape {
    /// The shape of `kind`.
    pub fn of(kind: Kind) -> Shape {
        match kind {
            Kind::OfflineShift => {
                let app = HistoApp::new(1_024, 16);
                Shape {
                    arch: ArchConfig::paper(15)
                        .with_reschedule(0.5, 2_000)
                        .with_pe_entries(app.pe_entries()),
                    app,
                    shards: 1,
                    batch_tuples: 1_000,
                    window: 4,
                    replicated: false,
                }
            }
            Kind::WireBulk | Kind::WirePacedSmall | Kind::WireReplicated => {
                let app = HistoApp::new(1_024, 8);
                Shape {
                    arch: ArchConfig::new(4, 8, 7)
                        .with_reschedule(0.5, 2_000)
                        .with_pe_entries(app.pe_entries())
                        .with_steady_state_fast_forward(true),
                    app,
                    shards: 2,
                    batch_tuples: if kind.paced() { 32 } else { 1_000 },
                    window: 4,
                    replicated: kind == Kind::WireReplicated,
                }
            }
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig::new(self.shards, self.arch.clone())
    }
}

/// The workload's whole input: one pool of tuples the schedule cycles
/// through in passes.
pub fn generate(kind: Kind, seed: u64) -> Vec<Tuple> {
    let mix = |salt: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    match kind {
        Kind::OfflineShift => {
            let half = 1 << 20;
            let mut data = UniformGenerator::new(KEYS, mix(1)).take_vec(half);
            data.extend(ZipfGenerator::new(2.0, KEYS, mix(2)).take_vec(half));
            data
        }
        Kind::WireBulk | Kind::WireReplicated => {
            ZipfGenerator::new(1.5, KEYS, mix(3)).take_vec(500_000)
        }
        Kind::WirePacedSmall => ZipfGenerator::new(1.5, KEYS, mix(3)).take_vec(100_000),
    }
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output matched its reference.
    pub correct: bool,
    /// Batches (or, for `offline_shift`, passes) attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
    /// Why the run is not a measurement at all, if it is not.
    pub invalid: Option<String>,
    /// Extra JSON fields for the run's information line.
    pub info: Vec<(String, String)>,
    /// Spans recorded (traced runs).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    fn note(&mut self, key: &str, json: String) {
        self.info.push((key.to_owned(), json));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `kind` for about `seconds`, traced or not.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let shape = Shape::of(kind);
    match (kind, trace) {
        (Kind::OfflineShift, false) => offline(&shape, seed, seconds),
        (_, false) => wire_e2e(kind, &shape, seed, seconds),
        (_, true) => traced(kind, &shape, seed, seconds),
    }
}

/// Generates the inputs and runs `boot` [`SETUP_REPS`] times, handing all
/// but the last booted rig to `discard`; returns the last inputs and rig
/// with the median set-up seconds.
fn repeated_setup<T>(
    kind: Kind,
    seed: u64,
    mut boot: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (Vec<Tuple>, T, f64) {
    let mut setup = Vec::new();
    let mut last: Option<(Vec<Tuple>, T)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, rig)) = last.take() {
            discard(rig);
        }
        let t0 = Instant::now();
        let pool = generate(kind, seed);
        let rig = boot();
        setup.push(t0.elapsed().as_secs_f64());
        last = Some((pool, rig));
    }
    let (pool, rig) = last.expect("at least one set-up");
    (pool, rig, median(&setup))
}

/// The single-engine reference every output is checked against, itself
/// checked against the app's host-side histogram.
fn reference(shape: &Shape, pool: &[Tuple]) -> (RunOutcome<Vec<u64>>, bool) {
    let r = SkewObliviousPipeline::run_dataset(shape.app.clone(), pool.to_vec(), &shape.arch);
    let ok = r.report.completed && r.output == shape.app.reference(pool);
    (r, ok)
}

fn scaled(hist: &[u64], times: usize) -> Vec<u64> {
    hist.iter().map(|&c| c * times as u64).collect()
}

/// Whether a chunked pass did the reference's simulated work: the same
/// output, tuples, per-PE workloads, channel totals, reschedules and plans
/// exactly, and its drain ending within the engine's quiescence settle
/// window of the reference's (each `drain` call restarts the settle count,
/// so draining in chunks can add a few idle cycles at the very end).
fn same_simulation(a: &EnginePass, b: &RunOutcome<Vec<u64>>) -> bool {
    let (x, y) = (&a.report, &b.report);
    x.cycles >= y.cycles
        && x.cycles - y.cycles < DRAIN_SETTLE_CYCLES
        && x.tuples == y.tuples
        && x.reschedules == y.reschedules
        && x.plans_generated == y.plans_generated
        && x.per_pe_processed == y.per_pe_processed
        && x.channel_totals == y.channel_totals
        && a.output == b.output
}

// ---------------------------------------------------------------------------
// offline_shift
// ---------------------------------------------------------------------------

/// Fewest passes a run makes, however short.
const MIN_PASSES: usize = 3;

fn offline(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let (pool, (), setup_s) = repeated_setup(Kind::OfflineShift, seed, || (), |()| ());
    let (reference, ref_ok) = reference(shape, &pool);
    let mut out = Outcome {
        correct: ref_ok,
        ..Outcome::default()
    };
    let mut tr = Tracer::new(Instant::now(), false, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes: Vec<EnginePass> = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let pass = engine_pass(&shape.app, pool.clone(), &shape.arch, &mut tr);
        out.attempted += 1;
        let repeats = passes
            .first()
            .is_none_or(|p| p.sim_fingerprint() == pass.sim_fingerprint());
        if !repeats || !same_simulation(&pass, &reference) {
            eprintln!(
                "perfbench: pass {} differs from the first pass or the reference run (outputs {}):\n  pass      {}\n  reference {}",
                passes.len(),
                if pass.output == reference.output { "equal" } else { "differ" },
                pass.sim_fingerprint(),
                fingerprint(&reference.report),
            );
            out.failed += 1;
            out.correct = false;
        }
        passes.push(pass);
    }
    let tps: Vec<f64> = passes
        .iter()
        .map(|p| p.report.tuples as f64 / p.wall_s)
        .collect();
    // Every pass simulates the same work chunk for chunk (checked above),
    // so the headline times each chunk by its fastest pass (and the rest
    // of a pass, construction and `finish`, by its fastest too): the
    // engine's own cost, without the slow spells of a shared host, which
    // last seconds to minutes (passes of one run ranged 1.2-3.5 M tuples/s,
    // and the median pass of a 10 s run 1.9-3.1 M).
    let chunk_series: Vec<Vec<f64>> = passes.iter().map(|p| p.chunk_ms.clone()).collect();
    let best_chunks = best_per_step(&chunk_series);
    let best_rest_s = passes
        .iter()
        .map(|p| p.wall_s - p.drain_ns as f64 / 1e9)
        .fold(f64::INFINITY, f64::min);
    let best_pass_s = best_chunks.iter().sum::<f64>() / 1e3 + best_rest_s;
    let tail = Tail::of(&best_chunks, 9_900);
    let tuples_per_s = reference.report.tuples as f64 / best_pass_s;
    out.put("tuples_per_s", tuples_per_s);
    out.put("batch_p50_ms", tail.p50);
    out.note("batch_p99_ms", format!("{:.4}", tail.tail));
    out.put(
        "slo_tps",
        if tail.tail <= LATENCY_LIMIT_MS {
            tuples_per_s
        } else {
            0.0
        },
    );
    out.put("ok_frac", ok_frac(&out));
    out.put("sim_tuples_per_cycle", reference.report.tuples_per_cycle());
    out.put("setup_s", setup_s);
    out.put("peak_rss_mb", peak_rss_mb());
    out.note("sim_stats", passes[0].sim_fingerprint());
    out.note(
        "drain_tail_cycles",
        (passes[0].report.cycles as i64 - reference.report.cycles as i64).to_string(),
    );
    out.note("median_pass_tuples_per_s", format!("{:.0}", median(&tps)));
    out.note(
        "pass_tuples_per_s",
        format!(
            "{:?}",
            tps.iter().map(|t| t.round() as u64).collect::<Vec<_>>()
        ),
    );
    out.note("batch_samples", tail.n.to_string());
    out
}

fn ok_frac(out: &Outcome) -> f64 {
    1.0 - out.failed as f64 / out.attempted.max(1) as f64
}

// ---------------------------------------------------------------------------
// wire workloads
// ---------------------------------------------------------------------------

/// The load connections: `WireClient`s for a closed loop, frame-level
/// connections for the open loop.
enum Conns {
    Closed(Vec<WireClient>),
    Open(Vec<FrameConn>),
}

/// A booted wire server plus its load connections.
struct Rig {
    server: WireServer,
    conns: Conns,
}

impl Rig {
    fn boot(kind: Kind, shape: &Shape) -> Rig {
        let mut registry = AppRegistry::new();
        if shape.replicated {
            registry.register_replicated(APP, shape.app.clone(), shape.serve_config(), 1);
        } else {
            registry.register(APP, shape.app.clone(), shape.serve_config());
        }
        let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new())
            .expect("bind a loopback wire server");
        let addr = server.local_addr();
        let conns = if kind.paced() {
            Conns::Open(
                (0..connections(kind))
                    .map(|_| FrameConn::connect(addr).expect("connect a load connection"))
                    .collect(),
            )
        } else {
            Conns::Closed(
                (0..connections(kind))
                    .map(|_| WireClient::connect(addr).expect("connect a load connection"))
                    .collect(),
            )
        };
        Rig { server, conns }
    }

    fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }

    /// `Finalize` on the first connection: the encoded output.
    fn finalize(&mut self) -> Result<Vec<u8>, WireError> {
        match &mut self.conns {
            Conns::Closed(c) => c[0].finalize(APP),
            Conns::Open(f) => match f[0].request(APP, Request::Finalize)? {
                Response::Output { bytes } => Ok(bytes),
                _ => Err(WireError::Protocol("expected an output reply")),
            },
        }
    }

    /// One ping round trip on the first connection.
    fn ping(&mut self) -> Result<(), WireError> {
        match &mut self.conns {
            Conns::Closed(c) => c[0].ping().map(|_| ()),
            Conns::Open(f) => match f[0].request(
                0,
                Request::Ping {
                    echo: b"ditto".to_vec(),
                },
            )? {
                Response::Pong { .. } => Ok(()),
                _ => Err(WireError::Protocol("expected a pong")),
            },
        }
    }

    /// The app's serving statistics.
    fn stats(&mut self) -> Result<WireStats, WireError> {
        match &mut self.conns {
            Conns::Closed(c) => c[0].stats(APP),
            Conns::Open(f) => match f[0].request(APP, Request::Stats)? {
                Response::Stats(s) => Ok(s),
                _ => Err(WireError::Protocol("expected a stats reply")),
            },
        }
    }
}

/// What one wire segment (a schedule ending in `Finalize`) observed.
struct Segment {
    conns: Vec<ConnOut>,
    finalize_ms: f64,
    output_ok: bool,
}

impl Segment {
    fn batches(&self) -> impl Iterator<Item = &BatchRec> {
        self.conns.iter().flat_map(|c| c.batches.iter())
    }

    fn attempted(&self) -> u64 {
        self.batches().count() as u64
    }

    /// Failed batches; a wrong output fails every batch of the segment.
    fn failed(&self) -> u64 {
        if self.output_ok {
            self.batches().filter(|b| !b.ok).count() as u64
        } else {
            self.attempted()
        }
    }

    /// A batch's client-observed latency (ms); every batch of a segment
    /// with wrong output counts as failed, i.e. at or over the timeout.
    fn latency_ms(&self, b: &BatchRec) -> f64 {
        if self.output_ok {
            b.latency_ms
        } else {
            b.latency_ms.max(TIMEOUT_MS)
        }
    }

    /// Latencies of the traced batches, the untraced ones, or (`None`) all.
    fn latencies_ms(&self, traced: Option<bool>) -> Vec<f64> {
        self.batches()
            .filter(|b| traced.is_none_or(|t| b.traced == t))
            .map(|b| self.latency_ms(b))
            .collect()
    }

    /// Latencies grouped by pass over a pool of `pool_batches` batches.
    fn latencies_by_pass(&self, pool_batches: usize) -> Vec<Vec<f64>> {
        let mut passes: Vec<Vec<f64>> = Vec::new();
        for b in self.batches() {
            let pass = b.index / pool_batches;
            if passes.len() <= pass {
                passes.resize(pass + 1, Vec::new());
            }
            passes[pass].push(self.latency_ms(b));
        }
        passes
    }

    /// Completed tuples per second from `start_ns` to the last `Done`.
    fn tuples_per_s(&self, start_ns: u64) -> f64 {
        let tuples: u64 = self.batches().filter(|b| b.ok).map(|b| b.tuples).sum();
        let end = self.batches().map(|b| b.done_ns).max().unwrap_or(start_ns);
        tuples as f64 / ((end.saturating_sub(start_ns)) as f64 / 1e9).max(1e-9)
    }

    fn first_send_ns(&self) -> u64 {
        self.batches().map(|b| b.sent_ns).min().unwrap_or(0)
    }

    fn fell_behind(&self) -> bool {
        self.conns.iter().any(|c| c.fell_behind)
    }

    fn lateness(&self) -> Lateness {
        let mut l = Lateness::new();
        for c in &self.conns {
            l.extend(&c.late);
        }
        l
    }
}

/// Runs `total` batches of `pool` over every client, then finalizes on the
/// first one and checks the output against `expect`.
#[allow(clippy::too_many_arguments)]
fn wire_segment(
    rig: &mut Rig,
    shape: &Shape,
    pool: &[&[Tuple]],
    total: usize,
    pacing: Option<Pacing>,
    trace_parity: Option<usize>,
    id_base: u64,
    expect: &[u64],
    tr: &mut Tracer,
) -> Segment {
    let epoch = tr.epoch();
    let conns = match &rig.conns {
        Conns::Closed(c) => c.len(),
        Conns::Open(f) => f.len(),
    };
    let plan = |conn: usize| ConnPlan {
        app: APP,
        conn,
        conns,
        total,
        pool,
        window: shape.window,
        pacing,
        reads: conn == 0,
        trace_parity,
        id_base,
    };
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = match &mut rig.conns {
            Conns::Closed(clients) => clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| s.spawn(move || drive_conn(c, &plan(i), epoch, i as u32 + 1)))
                .collect(),
            Conns::Open(frames) => frames
                .iter_mut()
                .enumerate()
                .map(|(i, f)| s.spawn(move || drive_open(f, &plan(i), epoch, i as u32 + 1)))
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread"))
            .collect()
    });
    let f0 = tr.now_ns();
    let output = rig.finalize();
    let f1 = tr.now_ns();
    tr.record("wire.finalize", f0, f1, None, None);
    let output_ok = match output.map(|bytes| shape.app.decode_output(&bytes)) {
        Ok(Ok(hist)) => hist == expect,
        Ok(Err(e)) => {
            eprintln!("perfbench: undecodable finalize output: {e}");
            false
        }
        Err(e) => {
            eprintln!("perfbench: finalize failed: {e}");
            false
        }
    };
    if !output_ok {
        eprintln!("perfbench: finalized output differs from the single-engine reference");
    }
    Segment {
        conns: outs,
        finalize_ms: (f1 - f0) as f64 / 1e6,
        output_ok,
    }
}

/// Batches of `batch_tuples` over the pool (the pool length is a multiple).
fn batches_of(pool: &[Tuple], batch_tuples: usize) -> Vec<&[Tuple]> {
    pool.chunks(batch_tuples).collect()
}

/// Passes of the paced pool that fill `share` of `seconds` at `rate`.
fn paced_passes(pool_tuples: usize, rate: f64, seconds: f64, share: f64) -> usize {
    ((share * seconds * rate / pool_tuples as f64).round() as usize).max(1)
}

fn pacing_from_now(tr: &Tracer, shape: &Shape, rate: f64) -> Pacing {
    Pacing {
        start_ns: tr.now_ns() + 2_000_000,
        batch_tuples: shape.batch_tuples,
        rate_tps: rate,
    }
}

/// Batches per closed-loop round (whole passes over the pool, at least
/// this many): enough for each round to support its own p99.
const ROUND_BATCHES: usize = 2_000;

fn round_passes(pool_batches: usize) -> usize {
    ROUND_BATCHES.div_ceil(pool_batches)
}

fn wire_e2e(kind: Kind, shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let (pool, mut rig, setup_s) =
        repeated_setup(kind, seed, || Rig::boot(kind, shape), Rig::shutdown);
    let (reference, ref_ok) = reference(shape, &pool);
    let batches = batches_of(&pool, shape.batch_tuples);
    let mut out = Outcome {
        correct: ref_ok,
        ..Outcome::default()
    };
    let mut tr = Tracer::new(Instant::now(), false, 0);
    // Latency samples per round (closed loop) or per pass at the middle
    // rate (open loop); the reported p50/p99 are medians over them.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let run_segment = |rig: &mut Rig,
                       passes: usize,
                       pacing: Option<Pacing>,
                       out: &mut Outcome,
                       tr: &mut Tracer| {
        let seg = wire_segment(
            rig,
            shape,
            &batches,
            passes * batches.len(),
            pacing,
            None,
            0,
            &scaled(&reference.output, passes),
            tr,
        );
        out.attempted += seg.attempted();
        out.failed += seg.failed();
        out.correct &= seg.output_ok;
        if seg.fell_behind() {
            out.invalid = Some(format!(
                "load generator fell behind (late p99 {:.3} ms)",
                seg.lateness().tail().tail
            ));
        }
        seg
    };
    let (tuples_per_s, slo_tps);
    if kind.paced() {
        // One unreported pass at the lowest rate first, so lazy set-up
        // (first allocations, first reschedule, cold caches) is not timed.
        let warm = pacing_from_now(&tr, shape, PACED_RATES[0]);
        run_segment(&mut rig, 1, Some(warm), &mut out, &mut tr);
        let mut passing = None;
        let mut middle = 0.0;
        for (r, (&rate, share)) in PACED_RATES.iter().zip(PACED_SHARE).enumerate() {
            let passes = paced_passes(pool.len(), rate, seconds, share);
            let pacing = pacing_from_now(&tr, shape, rate);
            let seg = run_segment(&mut rig, passes, Some(pacing), &mut out, &mut tr);
            let per_pass = seg.latencies_by_pass(batches.len());
            let tail = round_tail(&per_pass, 9_900);
            let delivered = seg.tuples_per_s(pacing.start_ns);
            if tail.tail <= LATENCY_LIMIT_MS && sustained(rate, delivered) && seg.failed() == 0 {
                passing = Some(delivered);
            }
            out.note(
                &format!("rate_{}", rate as u64),
                format!(
                    "{{\"delivered_tps\":{delivered:.1},\"p50_ms\":{:.4},\"p99_ms\":{:.4},\"samples\":{},\"late_p99_ms\":{:.4}}}",
                    tail.p50,
                    tail.tail,
                    tail.n,
                    seg.lateness().tail().tail
                ),
            );
            if r == 1 {
                middle = delivered;
                rounds = per_pass;
            }
        }
        tuples_per_s = middle;
        slo_tps = passing.unwrap_or(0.0);
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let passes = round_passes(batches.len());
        let mut tps = Vec::new();
        while tps.len() < MIN_PASSES || Instant::now() < deadline {
            let seg = run_segment(&mut rig, passes, None, &mut out, &mut tr);
            tps.push(seg.tuples_per_s(seg.first_send_ns()));
            rounds.push(seg.latencies_ms(None));
        }
        tuples_per_s = median(&tps);
        let tail = round_tail(&rounds, 9_900);
        slo_tps = if tail.tail <= LATENCY_LIMIT_MS {
            tuples_per_s
        } else {
            0.0
        };
        out.note("rounds", tps.len().to_string());
        out.note(
            "round_tuples_per_s",
            format!(
                "{:?}",
                tps.iter().map(|t| t.round() as u64).collect::<Vec<_>>()
            ),
        );
    }
    rig.shutdown();
    let tail = round_tail(&rounds, 9_900);
    out.put("tuples_per_s", tuples_per_s);
    out.put("batch_p50_ms", tail.p50);
    out.note("batch_p99_ms", format!("{:.4}", tail.tail));
    out.put("slo_tps", slo_tps);
    out.put("ok_frac", ok_frac(&out));
    out.put("sim_tuples_per_cycle", reference.report.tuples_per_cycle());
    out.put("setup_s", setup_s);
    out.put("peak_rss_mb", peak_rss_mb());
    out.note("batch_samples", tail.n.to_string());
    out
}

// ---------------------------------------------------------------------------
// traced runs: the depth ladder
// ---------------------------------------------------------------------------

/// Share of a traced run's seconds spent at each depth.
const ENGINE_SHARE: f64 = 0.25;
const WIRE_SHARE: f64 = 0.35;
const SERVE_SHARE: f64 = 0.2;
const HA_SHARE: f64 = 0.2;

/// Pings timed on an idle connection.
const PINGS: usize = 2_000;

fn traced(kind: Kind, shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let t0 = Instant::now();
    let pool = generate(kind, seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, true, 0);
    let (reference, ref_ok) = reference(shape, &pool);
    let mut out = Outcome {
        correct: ref_ok,
        ..Outcome::default()
    };
    out.put("datagen.gen_s", gen_s);

    // Engine depth: passes alternate traced / untraced.
    let engine_deadline = Instant::now() + Duration::from_secs_f64(seconds * ENGINE_SHARE);
    let mut passes: Vec<(bool, EnginePass)> = Vec::new();
    while passes.len() < 2 || Instant::now() < engine_deadline {
        let traced = passes.len() % 2 == 1;
        tr.set_enabled(traced);
        let pass = engine_pass(&shape.app, pool.clone(), &shape.arch, &mut tr);
        out.correct &= same_simulation(&pass, &reference);
        passes.push((traced, pass));
    }
    tr.set_enabled(true);
    engine_metrics(&mut out, &passes, shape);

    // Wire depth.
    let batches = batches_of(&pool, shape.batch_tuples);
    let mut rig = Rig::boot(kind, shape);
    codec_metrics(&mut out, &batches, &mut tr);
    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let p0 = tr.now_ns();
        match rig.ping() {
            Ok(()) => {
                let p1 = tr.now_ns();
                tr.record("wire.ping", p0, p1, None, None);
                ping_us.push((p1 - p0) as f64 / 1e3);
            }
            Err(e) => {
                eprintln!("perfbench: ping failed: {e}");
                out.correct = false;
                break;
            }
        }
    }
    let ping = Tail::of(&ping_us, 9_900);
    let wire = if kind.paced() {
        wire_paced_traced(
            &mut rig,
            shape,
            &batches,
            &pool,
            &reference.output,
            seconds,
            &mut tr,
        )
    } else {
        wire_closed_traced(
            &mut rig,
            shape,
            &batches,
            &reference.output,
            seconds,
            &mut tr,
        )
    };
    let stats = rig.stats();
    rig.shutdown();
    out.attempted += wire.attempted;
    out.failed += wire.failed;
    out.correct &= wire.correct;

    // Serve and HA depth: the same schedule straight into the cluster.
    let (serve_eps, ha_eps) = replays(kind, shape, &batches, &pool, seconds, &mut tr);
    for ep in serve_eps.iter().chain(&ha_eps) {
        let passes = ep.batches / batches.len();
        out.correct &= ep.output == scaled(&reference.output, passes);
    }
    let serve_tps = median(
        &serve_eps
            .iter()
            .map(ReplayEpoch::tuples_per_s)
            .collect::<Vec<_>>(),
    );
    let ha_tps = median(
        &ha_eps
            .iter()
            .map(ReplayEpoch::tuples_per_s)
            .collect::<Vec<_>>(),
    );
    replay_metrics(&mut out, "serve", &serve_eps);
    out.put(
        "serve.migrations",
        serve_eps.iter().map(|e| e.migrations as f64).sum(),
    );
    out.put(
        "serve.shard_imbalance",
        median(
            &serve_eps
                .iter()
                .map(|e| e.shard_imbalance)
                .collect::<Vec<_>>(),
        ),
    );
    out.put(
        "serve.queue_depth_peak",
        serve_eps
            .iter()
            .map(|e| e.queue_depth_peak as f64)
            .fold(0.0, f64::max),
    );
    let cycles: Vec<f64> = serve_eps
        .iter()
        .flat_map(|e| e.batch_cycles.clone())
        .collect();
    let cyc = Tail::of(&cycles, 9_900);
    out.put("serve.batch_cycles.p50", cyc.p50);
    out.put("serve.batch_cycles.p99", cyc.tail);
    out.put(
        "serve.finish_ms",
        median(&serve_eps.iter().map(|e| e.finish_ms).collect::<Vec<_>>()),
    );
    out.put("ha.tuples_per_s", ha_tps);
    let ha_submit: Vec<f64> = ha_eps.iter().flat_map(|e| e.submit_us.clone()).collect();
    let hs = Tail::of(&ha_submit, 9_900);
    out.put("ha.submit_us.p50", hs.p50);
    out.put("ha.submit_us.p99", hs.tail);
    out.put(
        "ha.replication_lag_max",
        ha_eps
            .iter()
            .map(|e| e.replication_lag_max as f64)
            .fold(0.0, f64::max),
    );
    out.put("ha.cost_ratio", serve_tps / ha_tps.max(1e-9));

    // Wire layer.
    let send = Tail::of(&wire.send_us, 9_900);
    out.put("wire.send_us.p50", send.p50);
    out.put("wire.send_us.p99", send.tail);
    let server = Tail::of(&wire.server_us, 9_900);
    out.put("wire.server_us.p50", server.p50);
    out.put("wire.server_us.p99", server.tail);
    let outside = Tail::of(&wire.outside_us, 9_900);
    out.put("wire.outside_server_us.p50", outside.p50);
    out.put("wire.outside_server_us.p99", outside.tail);
    out.put("wire.ping_us.p50", ping.p50);
    out.put("wire.ping_us.p99", ping.tail);
    out.put("wire.read_us.p99", Tail::of(&wire.read_us, 9_900).tail);
    match stats {
        Ok(s) => {
            out.put("wire.queue_depth_peak", s.queue_depth_peak as f64);
            out.put("wire.tuples_shed", s.tuples_shed as f64);
        }
        Err(e) => {
            eprintln!("perfbench: final stats read failed: {e}");
            out.correct = false;
            out.put("wire.queue_depth_peak", 0.0);
            out.put("wire.tuples_shed", 0.0);
        }
    }
    out.put("wire.finalize_ms", median(&wire.finalize_ms));
    // The wire layer sits on ha for the replicated workload, on serve
    // otherwise.
    let below_tps = if shape.replicated { ha_tps } else { serve_tps };
    out.put(
        "wire.layer_cost_frac",
        1.0 - wire.tuples_per_s / below_tps.max(1e-9),
    );
    out.put("obs.metrics_dump_bytes", wire.dump_bytes as f64);
    let overhead = if kind == Kind::OfflineShift {
        let (on, off) = split_by(&passes, |p| p.report.tuples as f64 / p.wall_s);
        off / on.max(1e-9) - 1.0
    } else {
        wire.trace_overhead
    };
    out.put("obs.trace_overhead_frac", overhead);
    out.put("loadgen.late_p99_ms", wire.late.tail().tail);
    out.put("loadgen.samples", wire.samples as f64);
    out.put(
        "loadgen.batch_p99_ms",
        Tail::of(&wire.latency_ms, 9_900).tail,
    );
    out.note("serve_tps", format!("{serve_tps:.1}"));
    out.note("wire_tps", format!("{:.1}", wire.tuples_per_s));
    if wire.fell_behind {
        out.invalid = Some("load generator fell behind in the traced run".into());
    }
    out.tracer = Some(tr);
    out
}

/// Medians of `f` over the traced and the untraced passes.
fn split_by(passes: &[(bool, EnginePass)], f: impl Fn(&EnginePass) -> f64) -> (f64, f64) {
    let on: Vec<f64> = passes.iter().filter(|p| p.0).map(|p| f(&p.1)).collect();
    let off: Vec<f64> = passes.iter().filter(|p| !p.0).map(|p| f(&p.1)).collect();
    (median(&on), median(&off))
}

fn engine_metrics(out: &mut Outcome, passes: &[(bool, EnginePass)], shape: &Shape) {
    let per = |f: &dyn Fn(&EnginePass) -> f64| {
        median(&passes.iter().map(|p| f(&p.1)).collect::<Vec<_>>())
    };
    let p0 = &passes[0].1;
    let r = &p0.report;
    out.put(
        "hls-sim.ns_per_kernel_step",
        per(&|p| p.drain_ns as f64 / p.report.kernel_steps.max(1) as f64),
    );
    out.put(
        "hls-sim.kernel_steps_per_cycle",
        r.kernel_steps as f64 / r.cycles.max(1) as f64,
    );
    out.put(
        "hls-sim.ns_per_sim_cycle",
        per(&|p| p.drain_ns as f64 / p.report.cycles.max(1) as f64),
    );
    out.put("hls-sim.sim_cycles", r.cycles as f64);
    out.put(
        "hls-sim.ff_skip_frac",
        p0.ff_cycles_skipped as f64 / r.cycles.max(1) as f64,
    );
    out.put(
        "hls-sim.channel_full_stalls",
        r.channel_totals.full_stalls as f64,
    );
    let s = &p0.split;
    out.put(
        "core.ns_per_sim_cycle.uniform",
        per(&|p| p.split_drain_ns as f64 / p.split.cycles.max(1) as f64),
    );
    out.put(
        "core.ns_per_sim_cycle.skewed",
        per(&|p| {
            (p.drain_ns - p.split_drain_ns) as f64
                / (p.report.cycles - p.split.cycles).max(1) as f64
        }),
    );
    out.put(
        "core.sim_tuples_per_cycle.uniform",
        s.tuples as f64 / s.cycles.max(1) as f64,
    );
    out.put(
        "core.sim_tuples_per_cycle.skewed",
        (r.tuples - s.tuples) as f64 / (r.cycles - s.cycles).max(1) as f64,
    );
    let m = shape.arch.m_pri as usize;
    let sec: u64 = r.per_pe_processed[m..].iter().sum();
    out.put(
        "core.secpe_tuple_share",
        sec as f64 / r.tuples.max(1) as f64,
    );
    out.put("core.reschedules", r.reschedules as f64);
    out.put("core.plans_generated", r.plans_generated as f64);
    out.put("core.pe_imbalance", r.imbalance(m));
    out.put("core.finish_ms", per(&|p| p.finish_ms));
    out.note("sim_stats", p0.sim_fingerprint());
}

fn codec_metrics(out: &mut Outcome, batches: &[&[Tuple]], tr: &mut Tracer) {
    // Enough repetitions for tens of milliseconds of codec work.
    let tuples: usize = batches.iter().map(|b| b.len()).sum();
    let reps = (2_000_000 / tuples.max(1)).max(1);
    let (mut enc_ns, mut dec_ns, mut n) = (0u64, 0u64, 0u64);
    for _ in 0..reps {
        for (seq, b) in batches.iter().enumerate() {
            let e0 = tr.now_ns();
            let bytes = Request::Submit { tuples: b.to_vec() }
                .into_frame(APP, seq as u64)
                .to_bytes();
            let e1 = tr.now_ns();
            let decoded = Frame::decode(&bytes)
                .ok()
                .and_then(|(f, _)| Request::decode(&f).ok());
            let e2 = tr.now_ns();
            if !matches!(decoded, Some(Request::Submit { tuples }) if tuples == *b) {
                out.correct = false;
            }
            enc_ns += e1 - e0;
            dec_ns += e2 - e1;
            n += b.len() as u64;
        }
    }
    out.put("wire.encode_ns_per_tuple", enc_ns as f64 / n.max(1) as f64);
    out.put("wire.decode_ns_per_tuple", dec_ns as f64 / n.max(1) as f64);
}

/// What the traced wire depth observed.
#[derive(Default)]
struct WireTrace {
    attempted: u64,
    failed: u64,
    correct: bool,
    tuples_per_s: f64,
    send_us: Vec<f64>,
    server_us: Vec<f64>,
    outside_us: Vec<f64>,
    read_us: Vec<f64>,
    finalize_ms: Vec<f64>,
    dump_bytes: usize,
    trace_overhead: f64,
    late: Lateness,
    samples: usize,
    latency_ms: Vec<f64>,
    fell_behind: bool,
}

impl WireTrace {
    fn absorb(&mut self, seg: Segment, tr: &mut Tracer) {
        self.attempted += seg.attempted();
        self.failed += seg.failed();
        self.correct &= seg.output_ok;
        self.fell_behind |= seg.fell_behind();
        self.late.extend(&seg.lateness());
        self.finalize_ms.push(seg.finalize_ms);
        self.latency_ms.extend(seg.latencies_ms(None));
        for c in seg.conns {
            self.read_us.extend_from_slice(&c.read_us);
            self.dump_bytes = self.dump_bytes.max(c.dump_bytes);
            for b in c.batches.iter().filter(|b| b.ok) {
                self.samples += 1;
                self.server_us.push(b.server_us);
                self.outside_us.push(b.from_send_us - b.server_us);
            }
            self.send_us.extend(c.tracer.durations_us("wire.submit"));
            tr.absorb(c.tracer);
        }
    }
}

fn wire_closed_traced(
    rig: &mut Rig,
    shape: &Shape,
    batches: &[&[Tuple]],
    expect: &[u64],
    seconds: f64,
    tr: &mut Tracer,
) -> WireTrace {
    let mut w = WireTrace {
        correct: true,
        ..WireTrace::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * WIRE_SHARE);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    while round < 2 || Instant::now() < deadline {
        let traced = round % 2 == 1;
        let seg = wire_segment(
            rig,
            shape,
            batches,
            batches.len(),
            None,
            Some(if traced { 0 } else { 1 }),
            (round * batches.len()) as u64,
            expect,
            tr,
        );
        let tps = seg.tuples_per_s(seg.first_send_ns());
        if traced {
            on.push(tps)
        } else {
            off.push(tps)
        }
        w.absorb(seg, tr);
        round += 1;
    }
    w.tuples_per_s = median(&off);
    w.trace_overhead = median(&off) / median(&on).max(1e-9) - 1.0;
    w
}

fn wire_paced_traced(
    rig: &mut Rig,
    shape: &Shape,
    batches: &[&[Tuple]],
    pool: &[Tuple],
    expect: &[u64],
    seconds: f64,
    tr: &mut Tracer,
) -> WireTrace {
    let mut w = WireTrace {
        correct: true,
        ..WireTrace::default()
    };
    let rate = PACED_RATES[1];
    let passes = paced_passes(pool.len(), rate, seconds, WIRE_SHARE).max(2);
    let pacing = pacing_from_now(tr, shape, rate);
    let seg = wire_segment(
        rig,
        shape,
        batches,
        passes * batches.len(),
        Some(pacing),
        Some(1),
        0,
        &scaled(expect, passes),
        tr,
    );
    let on = median(&seg.latencies_ms(Some(true)));
    let off = median(&seg.latencies_ms(Some(false)));
    w.trace_overhead = on / off.max(1e-9) - 1.0;
    w.tuples_per_s = seg.tuples_per_s(pacing.start_ns);
    w.absorb(seg, tr);
    w
}

fn replays(
    kind: Kind,
    shape: &Shape,
    batches: &[&[Tuple]],
    pool: &[Tuple],
    seconds: f64,
    tr: &mut Tracer,
) -> (Vec<ReplayEpoch>, Vec<ReplayEpoch>) {
    let config = shape.serve_config();
    // The open loop keeps no window: it sends whether or not replies came.
    let window = if kind.paced() {
        usize::MAX
    } else {
        shape.window * connections(kind)
    };
    let epochs = |ha: bool, tr: &mut Tracer| {
        let share = if ha { HA_SHARE } else { SERVE_SHARE };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds * share);
        let mut eps = Vec::new();
        if kind.paced() {
            let rate = PACED_RATES[1];
            let passes = paced_passes(pool.len(), rate, seconds, share);
            let pacing = pacing_from_now(tr, shape, rate);
            let total = passes * batches.len();
            eps.push(if ha {
                replay(
                    HaCluster::new(shape.app.clone(), &config, 1),
                    "ha",
                    batches,
                    total,
                    window,
                    Some(pacing),
                    tr,
                )
            } else {
                replay(
                    Cluster::new(shape.app.clone(), &config),
                    "serve",
                    batches,
                    total,
                    window,
                    Some(pacing),
                    tr,
                )
            });
        } else {
            while eps.is_empty() || Instant::now() < deadline {
                let total = batches.len();
                eps.push(if ha {
                    replay(
                        HaCluster::new(shape.app.clone(), &config, 1),
                        "ha",
                        batches,
                        total,
                        window,
                        None,
                        tr,
                    )
                } else {
                    replay(
                        Cluster::new(shape.app.clone(), &config),
                        "serve",
                        batches,
                        total,
                        window,
                        None,
                        tr,
                    )
                });
            }
        }
        eps
    };
    let serve = epochs(false, tr);
    let ha = epochs(true, tr);
    (serve, ha)
}

fn replay_metrics(out: &mut Outcome, layer: &str, eps: &[ReplayEpoch]) {
    let tps = median(
        &eps.iter()
            .map(ReplayEpoch::tuples_per_s)
            .collect::<Vec<_>>(),
    );
    out.put(&format!("{layer}.tuples_per_s"), tps);
    let submit: Vec<f64> = eps.iter().flat_map(|e| e.submit_us.clone()).collect();
    let s = Tail::of(&submit, 9_900);
    out.put(&format!("{layer}.submit_us.p50"), s.p50);
    out.put(&format!("{layer}.submit_us.p99"), s.tail);
    let wall: Vec<f64> = eps.iter().flat_map(|e| e.batch_wall_us.clone()).collect();
    let w = Tail::of(&wall, 9_900);
    out.put(&format!("{layer}.batch_wall_us.p50"), w.p50);
    out.put(&format!("{layer}.batch_wall_us.p99"), w.tail);
}
