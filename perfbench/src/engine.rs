//! Engine depth: one `PersistentPipeline` drained in fixed cycle chunks.
//!
//! This is the `offline_shift` workload itself and, in traced runs of the
//! wire workloads, the bottom rung of the depth ladder (the same inputs
//! through one engine of the shard shape). Each chunk is one timed call
//! into `PersistentPipeline::drain`; the pipeline's own counters
//! (`StatSnapshot`, `ExecutionReport`) supply the counts.

use std::time::Instant;

use datagen::Tuple;
use ditto_apps::HistoApp;
use ditto_core::{ArchConfig, ExecutionReport, PersistentPipeline, StatSnapshot};
use hls_sim::{MemoryModel, SliceSource};

use crate::trace::Tracer;

/// Simulated cycles per timed drain call — the unit the `offline_shift`
/// batch latency is measured in. (At 256 cycles the chunk times split
/// into a uniform-phase and a skewed-phase cluster with the median
/// between them, which doubled its run-to-run spread.)
pub const CHUNK_CYCLES: u64 = 1_024;

/// The engine's quiescence settle window (`hls-sim`'s private
/// `QUIESCENT_SETTLE_CYCLES`): `drain` returns once every kernel has been
/// idle this many consecutive cycles, counted afresh on every call.
pub const DRAIN_SETTLE_CYCLES: u64 = 8;

/// Counters and timings of one complete pass over a dataset.
#[derive(Debug, Clone)]
pub struct EnginePass {
    /// Wall seconds from pipeline construction through `finish`.
    pub wall_s: f64,
    /// Host ms of every drain chunk, in order.
    pub chunk_ms: Vec<f64>,
    /// Host ns spent inside `drain` in total.
    pub drain_ns: u64,
    /// Host ns spent inside `drain` until the split point was crossed.
    pub split_drain_ns: u64,
    /// Snapshot at the first chunk boundary where at least half of the
    /// dataset had been processed (the uniform→skewed shift point of
    /// `offline_shift`).
    pub split: StatSnapshot,
    /// Fast-forwarded cycles (engine telemetry).
    pub ff_cycles_skipped: u64,
    /// Host ms of `finish` (SecPE merge + finalize).
    pub finish_ms: f64,
    /// The finalized histogram.
    pub output: Vec<u64>,
    /// The pipeline's final report.
    pub report: ExecutionReport,
}

impl EnginePass {
    /// The pass's simulated statistics (see [`fingerprint`]).
    pub fn sim_fingerprint(&self) -> String {
        fingerprint(&self.report)
    }
}

/// The simulated statistics a speed-only change must leave identical:
/// cycles, tuples, kernel steps, per-PE workloads, channel totals,
/// reschedules and plans generated, as one JSON object.
pub fn fingerprint(r: &ExecutionReport) -> String {
    let c = r.channel_totals;
    {
        format!(
            "{{\"cycles\":{},\"tuples\":{},\"kernel_steps\":{},\"reschedules\":{},\"plans_generated\":{},\"per_pe_processed\":{:?},\"channel_totals\":{{\"pushes\":{},\"pops\":{},\"full_stalls\":{},\"max_occupancy_sum\":{}}}}}",
            r.cycles,
            r.tuples,
            r.kernel_steps,
            r.reschedules,
            r.plans_generated,
            r.per_pe_processed,
            c.pushes,
            c.pops,
            c.full_stalls,
            c.max_occupancy_sum,
        )
    }
}

/// Runs `data` through a fresh pipeline of shape `arch`, draining in
/// [`CHUNK_CYCLES`] chunks; spans go to `tr` (`engine.pass` with
/// `engine.drain` and `engine.finish` children).
///
/// # Panics
///
/// Panics if the pipeline does not drain within a budget proportional to
/// the dataset (a deadlock, not a data property).
pub fn engine_pass(
    app: &HistoApp,
    data: Vec<Tuple>,
    arch: &ArchConfig,
    tr: &mut Tracer,
) -> EnginePass {
    let tuples = data.len() as u64;
    let half = tuples / 2;
    let budget = tuples * 4 + 500_000;
    let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
    let t0 = Instant::now();
    let pass_start = tr.ns_of(t0);
    let mut p = PersistentPipeline::new(app.clone(), Box::new(source), arch);
    let mut chunk_ms = Vec::new();
    let mut drain_ns = 0u64;
    let mut split: Option<(StatSnapshot, u64)> = None;
    let mut drain_spans = Vec::new();
    loop {
        let c0 = tr.now_ns();
        let done = p.drain(CHUNK_CYCLES);
        let c1 = tr.now_ns();
        drain_spans.push(tr.record("engine.drain", c0, c1, None, None));
        drain_ns += c1 - c0;
        chunk_ms.push((c1 - c0) as f64 / 1e6);
        if split.is_none() && p.processed() >= half {
            split = Some((p.snapshot(), drain_ns));
        }
        if done {
            break;
        }
        assert!(
            p.cycle() <= budget,
            "pipeline '{}' failed to drain within {budget} cycles",
            p.label()
        );
    }
    let ff_cycles_skipped = p.engine().ff_cycles_skipped();
    let (split, split_drain_ns) = split.expect("a drained pass crosses its midpoint");
    let f0 = tr.now_ns();
    let outcome = p.finish();
    let f1 = tr.now_ns();
    let finish_span = tr.record("engine.finish", f0, f1, None, None);
    let wall_s = t0.elapsed().as_secs_f64();
    let root = tr.record("engine.pass", pass_start, tr.now_ns(), None, None);
    for s in drain_spans.into_iter().chain([finish_span]) {
        tr.set_parent(s, root);
    }
    EnginePass {
        wall_s,
        chunk_ms,
        drain_ns,
        split_drain_ns,
        split,
        ff_cycles_skipped,
        finish_ms: (f1 - f0) as f64 / 1e6,
        output: outcome.output,
        report: outcome.report,
    }
}
