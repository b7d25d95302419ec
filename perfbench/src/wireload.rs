//! The benchmark's own wire load generator.
//!
//! One thread per connection, each owning one `WireClient`, and no more
//! connections than the host has cores. A thread sends its share of the
//! schedule (batches `conn, conn + C, …`) through `WireClient::submit` when
//! each is due (paced) or when a window slot frees (closed loop), and
//! reads responses through `WireClient::recv`. Every batch is timed on the
//! client from its due instant to the arrival of its `Done`; the server's
//! own `wall_us` from that frame is kept beside it, so the time outside
//! the server (sockets, reactor, client) is their difference.
//!
//! The open loop cannot use `WireClient`: its `recv` blocks without a
//! timeout, so a thread waiting for one reply would send every batch that
//! falls due meanwhile late, and once replies take about as long as the
//! send period the measurement is of the client's own queue. (A socket
//! read timeout does not help: it rounds up to a scheduler tick, i.e.
//! milliseconds.) The open loop therefore speaks the public frame codec
//! over one socket ([`FrameConn`]) split between two threads: a sender
//! that sleeps until each batch is due and writes it, pipelining its
//! `Stats` + `MetricsDump` reads beside the submits, and a receiver that
//! blocks on the socket and stamps every reply as it arrives.
//!
//! Failures are counted per batch: `Overloaded` (shed), `Error` frames,
//! transport errors, and batches slower than [`TIMEOUT_MS`]. A failed
//! batch counts as missing every latency limit.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_obs::{decode_snapshot, encode_snapshot};
use ditto_wire::{metrics_format, Frame, Request, Response, WireClient, WireError};

use crate::pace::{Lateness, Pacing};
use crate::trace::Tracer;

/// A batch slower than this (client-observed, from its due instant) counts
/// as timed out, i.e. failed.
pub const TIMEOUT_MS: f64 = 1_000.0;

/// How often the reading connection issues its `Stats` + `MetricsDump`
/// pair in a paced segment (the `ditto_top` scrape cadence).
pub const READ_EVERY: Duration = Duration::from_millis(100);

/// One connection's share of a segment.
#[derive(Debug, Clone, Copy)]
pub struct ConnPlan<'a> {
    /// The wire app id.
    pub app: u16,
    /// This connection's index.
    pub conn: usize,
    /// Connections sharing the schedule.
    pub conns: usize,
    /// Batches in the whole segment (all connections).
    pub total: usize,
    /// Batch `i` is `pool[i % pool.len()]`.
    pub pool: &'a [&'a [Tuple]],
    /// Most batches this connection keeps in flight (closed loop only).
    pub window: usize,
    /// Open-loop schedule; `None` is a closed loop.
    pub pacing: Option<Pacing>,
    /// Whether this connection also issues `Stats` + `MetricsDump` reads.
    pub reads: bool,
    /// Whether batch `i` is traced: pass `i / pool.len()` is traced when
    /// its parity matches `Some(parity)`; `None` traces nothing.
    pub trace_parity: Option<usize>,
    /// Added to the batch index to form the span batch id.
    pub id_base: u64,
}

impl ConnPlan<'_> {
    fn traced(&self, i: usize) -> bool {
        self.trace_parity
            .is_some_and(|p| (i / self.pool.len()) % 2 == p)
    }
}

/// One batch as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRec {
    /// Schedule index.
    pub index: usize,
    /// Tuples carried.
    pub tuples: u64,
    /// Client-observed latency from the due instant, ms ([`TIMEOUT_MS`]
    /// or more for a failed batch).
    pub latency_ms: f64,
    /// Client-observed latency from the send instant, µs.
    pub from_send_us: f64,
    /// The server's own `wall_us` (0 if none).
    pub server_us: f64,
    /// Served and on time.
    pub ok: bool,
    /// Whether the batch was traced.
    pub traced: bool,
    /// Completion instant, ns since the epoch.
    pub done_ns: u64,
    /// Send instant, ns since the epoch.
    pub sent_ns: u64,
}

/// What one connection observed.
#[derive(Debug, Clone)]
pub struct ConnOut {
    /// Every batch this connection was scheduled to send.
    pub batches: Vec<BatchRec>,
    /// Send lateness against the schedule.
    pub late: Lateness,
    /// Whether this connection's generator fell behind its schedule.
    pub fell_behind: bool,
    /// µs of each `Stats` + `MetricsDump` read pair.
    pub read_us: Vec<f64>,
    /// Encoded size of the last metrics dump read.
    pub dump_bytes: usize,
    /// Batches shed by admission control.
    pub shed: u64,
    /// Batches answered with an error frame or lost to a transport error.
    pub errors: u64,
    /// Spans recorded by this connection.
    pub tracer: Tracer,
}

impl ConnOut {
    fn new(epoch: Instant, lane: u32) -> ConnOut {
        ConnOut {
            batches: Vec::new(),
            late: Lateness::new(),
            fell_behind: false,
            read_us: Vec::new(),
            dump_bytes: 0,
            shed: 0,
            errors: 0,
            tracer: Tracer::new(epoch, false, lane),
        }
    }

    /// Closes a connection's share: batches still in flight or never sent
    /// (a connection cut short) count as failed.
    fn settle(
        mut self,
        plan: &ConnPlan<'_>,
        mut pending: HashMap<u64, Pending>,
        mut next: usize,
        tr: Tracer,
    ) -> ConnOut {
        let now = tr.now_ns();
        for (_, p) in pending.drain() {
            self.errors += 1;
            let len = plan.pool[p.index % plan.pool.len()].len();
            self.batches
                .push(failed(p.index, len, p.due_ns, now, p.traced));
        }
        while next < plan.total {
            self.errors += 1;
            let len = plan.pool[next % plan.pool.len()].len();
            self.batches.push(failed(next, len, now, now, false));
            next += plan.conns;
        }
        self.fell_behind = self.late.fell_behind();
        self.tracer = tr;
        self
    }
}

struct Pending {
    index: usize,
    due_ns: u64,
    sent_ns: u64,
    submit_span: Option<usize>,
    traced: bool,
}

/// Drives one closed-loop connection through its share of a segment:
/// a batch goes out whenever fewer than `plan.window` are in flight (its
/// due instant is its send instant), and the connection ends its share
/// with one `Stats` + `MetricsDump` read when `plan.reads` is set.
pub fn drive_conn(
    client: &mut WireClient,
    plan: &ConnPlan<'_>,
    epoch: Instant,
    lane: u32,
) -> ConnOut {
    let mut tr = Tracer::new(epoch, false, lane);
    let mut out = ConnOut::new(epoch, lane);
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut next = plan.conn;
    let mut broken = false;
    while !broken && (next < plan.total || !pending.is_empty()) {
        if next < plan.total && pending.len() < plan.window {
            let traced = plan.traced(next);
            tr.set_enabled(traced);
            let batch = plan.pool[next % plan.pool.len()];
            let t0 = tr.now_ns();
            out.late.record(t0, t0);
            let sent = client.submit(plan.app, batch);
            let t1 = tr.now_ns();
            match sent {
                Ok(seq) => {
                    let id = Some(plan.id_base + next as u64);
                    let submit_span = tr.record("wire.submit", t0, t1, None, id);
                    pending.insert(
                        seq,
                        Pending {
                            index: next,
                            due_ns: t0,
                            sent_ns: t0,
                            submit_span,
                            traced,
                        },
                    );
                    next += plan.conns;
                }
                Err(e) => {
                    eprintln!("perfbench: submit failed: {e}");
                    broken = true;
                }
            }
            continue;
        }
        let r0 = tr.now_ns();
        match client.recv() {
            Ok((seq, _, resp)) => {
                let r1 = tr.now_ns();
                let Some(p) = pending.remove(&seq) else {
                    eprintln!("perfbench: reply for unknown sequence {seq}");
                    broken = true;
                    continue;
                };
                let batch_len = plan.pool[p.index % plan.pool.len()].len();
                let rec = batch_record(&p, batch_len, resp, r1, &mut out);
                tr.set_enabled(p.traced);
                let id = Some(plan.id_base + p.index as u64);
                let root = tr.record("wire.batch", p.due_ns, r1, None, id);
                tr.record("wire.recv", r0, r1, root, id);
                tr.set_parent(p.submit_span, root);
                out.batches.push(rec);
            }
            Err(e) => {
                eprintln!("perfbench: recv failed: {e}");
                broken = true;
            }
        }
    }
    if plan.reads && !broken {
        tr.set_enabled(plan.trace_parity.is_some());
        let t0 = tr.now_ns();
        let read = client
            .stats(plan.app)
            .and_then(|_| client.metrics(plan.app));
        let t1 = tr.now_ns();
        match read {
            Ok(snap) => {
                tr.record("wire.read", t0, t1, None, None);
                out.read_us.push((t1 - t0) as f64 / 1e3);
                out.dump_bytes = encode_snapshot(&snap).len();
            }
            Err(e) => {
                eprintln!("perfbench: stats/metrics read failed: {e}");
                out.errors += 1;
            }
        }
    }
    out.settle(plan, pending, next, tr)
}

/// Classifies one reply to a submitted batch.
fn batch_record(
    p: &Pending,
    batch_len: usize,
    resp: Response,
    now_ns: u64,
    out: &mut ConnOut,
) -> BatchRec {
    match resp {
        Response::Done {
            tuples, wall_us, ..
        } => {
            let latency_ms = (now_ns - p.due_ns) as f64 / 1e6;
            let ok = latency_ms < TIMEOUT_MS && tuples == batch_len as u64;
            BatchRec {
                index: p.index,
                tuples,
                latency_ms: if ok {
                    latency_ms
                } else {
                    latency_ms.max(TIMEOUT_MS)
                },
                from_send_us: (now_ns - p.sent_ns) as f64 / 1e3,
                server_us: wall_us as f64,
                ok,
                traced: p.traced,
                done_ns: now_ns,
                sent_ns: p.sent_ns,
            }
        }
        Response::Overloaded { .. } => {
            out.shed += 1;
            failed(p.index, batch_len, p.due_ns, now_ns, p.traced)
        }
        other => {
            eprintln!("perfbench: batch {} answered {other:?}", p.index);
            out.errors += 1;
            failed(p.index, batch_len, p.due_ns, now_ns, p.traced)
        }
    }
}

fn failed(index: usize, tuples: usize, due_ns: u64, now_ns: u64, traced: bool) -> BatchRec {
    let waited = now_ns.saturating_sub(due_ns) as f64 / 1e6;
    BatchRec {
        index,
        tuples: tuples as u64,
        latency_ms: waited.max(TIMEOUT_MS),
        from_send_us: 0.0,
        server_us: 0.0,
        ok: false,
        traced,
        done_ns: now_ns,
        sent_ns: due_ns,
    }
}

/// A frame-level client connection for the open loop.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    next_seq: u64,
}

impl FrameConn {
    /// Connects with Nagle's algorithm off.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> Result<FrameConn, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrameConn {
            stream,
            next_seq: 0,
        })
    }

    /// Sends one request to `app`; returns its sequence number.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send(&mut self, app: u16, request: Request) -> Result<u64, WireError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stream
            .write_all(&request.into_frame(app, seq).to_bytes())?;
        Ok(seq)
    }

    /// Sends `request` and blocks for its reply (nothing else may be in
    /// flight).
    ///
    /// # Errors
    ///
    /// Transport errors, a closed connection, an error reply or a reply to
    /// another request.
    pub fn request(&mut self, app: u16, request: Request) -> Result<Response, WireError> {
        let seq = self.send(app, request)?;
        let frame = Frame::read_from(&mut self.stream)?
            .ok_or(WireError::Protocol("connection closed by server"))?;
        if frame.seq != seq {
            return Err(WireError::Protocol("reply to another request"));
        }
        match Response::decode(&frame)? {
            Response::Error { code, message } => Err(WireError::Server { code, message }),
            response => Ok(response),
        }
    }
}

/// A request the open-loop sender wrote.
enum Sent {
    Batch(Pending),
    Read {
        stats: u64,
        metrics: u64,
        start_ns: u64,
    },
}

/// Drives the open loop over `conn`: the calling thread sends on schedule
/// while one spawned thread receives.
///
/// # Panics
///
/// Panics if `plan` has no pacing.
pub fn drive_open(conn: &mut FrameConn, plan: &ConnPlan<'_>, epoch: Instant, lane: u32) -> ConnOut {
    let pacing = plan.pacing.expect("an open loop is paced");
    let mut tr = Tracer::new(epoch, false, lane);
    let mut out = ConnOut::new(epoch, lane);
    let reader = match conn.stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: cannot split the connection: {e}");
            return out.settle(plan, HashMap::new(), plan.conn, tr);
        }
    };
    // Requests written, published once the sender is done; the receiver
    // stops after that many replies.
    let final_count = AtomicU64::new(u64::MAX);
    let first_seq = conn.next_seq;
    let (sent, replies) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive_all(reader, &final_count, epoch));
        let mut sent: HashMap<u64, Sent> = HashMap::new();
        let mut next = plan.conn;
        let mut last_read = tr.now_ns();
        let mut broken = false;
        while next < plan.total && !broken {
            let now = tr.now_ns();
            if plan.reads && now.saturating_sub(last_read) >= READ_EVERY.as_nanos() as u64 {
                last_read = now;
                let pair = conn.send(plan.app, Request::Stats).and_then(|stats| {
                    let format = metrics_format::BINARY;
                    Ok((stats, conn.send(plan.app, Request::Metrics { format })?))
                });
                match pair {
                    Ok((stats, metrics)) => {
                        sent.insert(
                            stats,
                            Sent::Read {
                                stats,
                                metrics,
                                start_ns: now,
                            },
                        );
                    }
                    Err(e) => {
                        eprintln!("perfbench: stats/metrics request failed: {e}");
                        broken = true;
                    }
                }
                continue;
            }
            let due_ns = pacing.due_ns(next);
            if now < due_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
                continue;
            }
            out.late.record(due_ns, now);
            let traced = plan.traced(next);
            tr.set_enabled(traced);
            let batch = plan.pool[next % plan.pool.len()];
            let t0 = tr.now_ns();
            let seq = conn.send(
                plan.app,
                Request::Submit {
                    tuples: batch.to_vec(),
                },
            );
            let t1 = tr.now_ns();
            match seq {
                Ok(seq) => {
                    let id = Some(plan.id_base + next as u64);
                    let submit_span = tr.record("wire.submit", t0, t1, None, id);
                    let p = Pending {
                        index: next,
                        due_ns,
                        sent_ns: t0,
                        submit_span,
                        traced,
                    };
                    sent.insert(seq, Sent::Batch(p));
                    next += plan.conns;
                }
                Err(e) => {
                    eprintln!("perfbench: submit failed: {e}");
                    broken = true;
                }
            }
        }
        // Counting the closing ping, every request now has a reply coming.
        final_count.store(conn.next_seq - first_seq + 1, Ordering::SeqCst);
        if broken || conn.send(0, Request::Ping { echo: Vec::new() }).is_err() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let replies = receiver.join().expect("receiver thread");
        (sent, (replies, next))
    });
    let (replies, next) = replies;
    let mut pending = HashMap::new();
    let mut reads: Vec<(u64, u64, u64)> = Vec::new();
    for (seq, s) in sent {
        match s {
            Sent::Batch(p) => {
                pending.insert(seq, p);
            }
            Sent::Read {
                stats,
                metrics,
                start_ns,
            } => reads.push((stats, metrics, start_ns)),
        }
    }
    let mut answered: HashMap<u64, (Response, u64)> = HashMap::new();
    for (seq, resp, at) in replies {
        if let Some(p) = pending.remove(&seq) {
            let batch_len = plan.pool[p.index % plan.pool.len()].len();
            let rec = batch_record(&p, batch_len, resp, at, &mut out);
            tr.set_enabled(p.traced);
            let id = Some(plan.id_base + p.index as u64);
            let root = tr.record("wire.batch", p.due_ns, at, None, id);
            tr.set_parent(p.submit_span, root);
            out.batches.push(rec);
        } else {
            answered.insert(seq, (resp, at));
        }
    }
    tr.set_enabled(plan.trace_parity.is_some());
    for (stats, metrics, start_ns) in reads {
        match (answered.remove(&stats), answered.remove(&metrics)) {
            (Some((Response::Stats(_), _)), Some((Response::MetricsDump { body, .. }, at)))
                if decode_snapshot(&body).is_ok() =>
            {
                tr.record("wire.read", start_ns, at, None, None);
                out.read_us.push((at - start_ns) as f64 / 1e3);
                out.dump_bytes = body.len();
            }
            _ => {
                eprintln!("perfbench: a stats/metrics read went unanswered or undecodable");
                out.errors += 1;
            }
        }
    }
    out.settle(plan, pending, next, tr)
}

/// Reads replies until `final_count` of them have arrived (or the
/// connection ends), stamping each with its arrival in ns since `epoch`.
fn receive_all(
    stream: TcpStream,
    final_count: &AtomicU64,
    epoch: Instant,
) -> Vec<(u64, Response, u64)> {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut got = Vec::new();
    while (got.len() as u64) < final_count.load(Ordering::SeqCst) {
        match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => {
                let at = epoch.elapsed().as_nanos() as u64;
                match Response::decode(&frame) {
                    Ok(resp) => got.push((frame.seq, resp, at)),
                    Err(e) => {
                        eprintln!("perfbench: undecodable reply: {e}");
                        break;
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("perfbench: receive failed: {e}");
                break;
            }
        }
    }
    got
}
