//! Per-connection state for the wire reactor.
//!
//! A connection is split in two:
//!
//! - [`ConnShared`] — the half visible *outside* the owning reactor thread.
//!   The completion pump and the service executor push response frames into
//!   the bounded outbox through it, and flag the reactor via the owning
//!   [`ReactorNotify`](crate::reactor::ReactorNotify). All cross-thread
//!   traffic funnels through this one `Arc`.
//! - [`Conn`] — the reactor-local half: the socket itself, the framed-read
//!   accumulator that resumes partial frames across readiness events, the
//!   lifecycle phase, and any parked (deferred) submit. Only the owning
//!   reactor thread touches it, so none of it needs locking.
//!
//! ## Backpressure
//!
//! The outbox is bounded by a *soft* and a *hard* cap. Past the soft cap the
//! reactor stops reading (and decoding) that connection — a client that
//! won't drain its responses stops being able to create more work. The hard
//! cap (4× soft) is the eviction line: it can only be crossed by completion
//! traffic for batches admitted *before* the soft cap engaged, and crossing
//! it marks the connection for disconnection rather than letting one slow
//! reader grow the server's memory without bound. A single frame always
//! fits when the outbox is empty, so no response is undeliverable merely
//! for being large (metrics dumps, finalize outputs).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use datagen::Tuple;

use crate::frame::Frame;
use crate::poller::Interest;
use crate::reactor::ReactorNotify;

/// Outbox byte buffer: encoded frames in `buf[pos..]` await the socket.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    /// Encoded, unsent frame bytes (prefix `..pos` already written).
    pub buf: Vec<u8>,
    /// How much of `buf` has been written to the socket.
    pub pos: usize,
}

impl OutBuf {
    /// Bytes still queued for the socket.
    pub fn queued(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The cross-thread half of a connection: everything the completion pump
/// and service executor need to deliver a response without touching the
/// reactor's own state.
#[derive(Debug)]
pub(crate) struct ConnShared {
    /// The poller token the owning reactor registered this connection under.
    pub token: usize,
    /// The owning reactor's doorbell.
    pub notify: Arc<ReactorNotify>,
    /// Bounded write buffer; see the module docs for the cap policy.
    pub out: Mutex<OutBuf>,
    /// Batches admitted on this connection whose `Done` has not yet been
    /// pushed. A half-closed connection stays open until this drains.
    pub pending: AtomicU64,
    /// A `Stats`/`Finalize`/`Metrics` request is queued with the service
    /// executor; decode pauses so responses keep request order.
    pub service_blocked: AtomicBool,
    /// Set when the hard cap is crossed: the reactor disconnects the
    /// connection at the next opportunity.
    pub kill: AtomicBool,
    /// Set (by the reactor) once the socket is closed; pushes become no-ops.
    pub dead: AtomicBool,
    /// Soft outbox cap in bytes: past it, reads pause.
    pub soft_cap: usize,
    /// Hard outbox cap in bytes: past it, the connection is evicted.
    pub hard_cap: usize,
}

impl ConnShared {
    /// Encodes `frame` into the outbox and rings the owning reactor.
    ///
    /// Returns `false` if the frame was *not* queued: the connection is
    /// already dead, or queueing it would cross the hard cap (in which case
    /// the connection is marked for eviction). A frame of any size is
    /// accepted while the outbox is empty.
    pub fn push_frame(&self, frame: &Frame) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        {
            let mut out = self.out.lock().expect("outbox poisoned");
            let queued = out.queued();
            if queued > 0 && queued + frame.encoded_len() > self.hard_cap {
                drop(out);
                self.kill.store(true, Ordering::Release);
                self.notify.mark_dirty(self.token);
                return false;
            }
            frame.encode(&mut out.buf);
        }
        self.notify.mark_dirty(self.token);
        true
    }

    /// Bytes currently queued in the outbox.
    pub fn queued_bytes(&self) -> usize {
        self.out.lock().expect("outbox poisoned").queued()
    }
}

/// Lifecycle phase of a connection's framed state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnPhase {
    /// Reading requests and writing responses.
    Open,
    /// Client half-closed (EOF on read): no more requests, but queued and
    /// in-flight responses still flush — the "no `Done` lost" guarantee for
    /// clients that shut down their write side and then read.
    WriteOnly,
    /// A fatal protocol error was answered; closing once the outbox drains.
    Closing,
}

/// A `Submit` the admission controller deferred (retried on a timer) or
/// whose app lock was contended (retried when the lock's holder releases
/// it and rings the reactor) — either way without blocking the event loop.
#[derive(Debug)]
pub(crate) struct ParkedSubmit {
    /// Target app id from the frame header.
    pub app: u16,
    /// Client sequence number to answer under.
    pub seq: u64,
    /// The decoded batch, held until admission resolves.
    pub tuples: Vec<Tuple>,
    /// Admission attempts consumed so far (lock contention does not count).
    pub attempt: u32,
    /// When to retry; `None` while waiting for a contended lock's release.
    pub due: Option<Instant>,
    /// When the frame was received, for latency accounting.
    pub received: Instant,
}

/// The reactor-local half of a connection.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The socket, in non-blocking mode.
    pub stream: TcpStream,
    /// The cross-thread half.
    pub shared: Arc<ConnShared>,
    /// Read accumulator: partial frames resume here across readiness
    /// events. `inbuf[inpos..]` is not yet decoded.
    pub inbuf: Vec<u8>,
    /// How much of `inbuf` has been decoded.
    pub inpos: usize,
    /// Lifecycle phase.
    pub phase: ConnPhase,
    /// A deferred submit awaiting its retry tick, if any.
    pub parked: Option<ParkedSubmit>,
    /// Interest currently registered with the poller (to skip no-op
    /// reregisters).
    pub interest: Interest,
}

impl Conn {
    /// Whether request decode is paused: an unresolved parked submit or
    /// in-flight service op would break per-connection response ordering,
    /// and a soft-cap outbox means the client isn't draining responses.
    pub fn paused(&self) -> bool {
        self.parked.is_some()
            || self.shared.service_blocked.load(Ordering::Acquire)
            || self.shared.queued_bytes() > self.shared.soft_cap
    }

    /// Undecoded input remains buffered.
    pub fn has_input(&self) -> bool {
        self.inpos < self.inbuf.len()
    }

    /// Reclaims decoded prefix space in the read accumulator.
    pub fn compact_input(&mut self) {
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        } else if self.inpos > 32 * 1024 {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }
}
