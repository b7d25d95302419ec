//! In-memory span recording around calls into each layer.
//!
//! A [`Tracer`] belongs to one thread; every span carries its name, start
//! and end (nanoseconds since the run's epoch), the span that caused it and
//! the batch id shared by one request's spans. Nothing is written while a
//! run measures: tracers are merged and written out as a Chrome trace when
//! the run ends. A disabled tracer records nothing, which is how the
//! untraced runs and the untraced halves of a traced run stay free of it.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`wire.submit`, `serve.submit`, `engine.drain`…).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (batch) the span belongs to.
    pub batch: Option<u64>,
    /// Recording thread (lane) for display.
    pub lane: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `epoch`; records only when `enabled`.
    pub fn new(epoch: Instant, enabled: bool, lane: u32) -> Tracer {
        Tracer {
            epoch,
            enabled,
            lane,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Turns recording on or off (the traced run alternates halves).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to ns since the epoch.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        batch: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
            lane: self.lane,
        });
        Some(self.spans.len() - 1)
    }

    /// Re-parents `child` under `parent` (a request's root span is known
    /// only once the request completes, after its children).
    pub fn set_parent(&mut self, child: Option<SpanId>, parent: Option<SpanId>) {
        if let Some(c) = child {
            self.spans[c].parent = parent;
        }
    }

    /// Appends another tracer's spans, remapping their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto), at most
    /// `limit` of them.
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().take(limit).enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"batch\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.batch.map_or("null".to_owned(), |b| b.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
