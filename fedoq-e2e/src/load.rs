//! The load generator: closed loops on up to two connections (one
//! thread each) and an open loop on one connection (a sender and a
//! receiver thread). The process never runs more than two threads of
//! load and never holds more than two serve connections at once.

use crate::check::digest;
use crate::conn::{Conn, Reply};
use crate::family::{Mutations, Texts, STRATEGIES};
use fedoq_wire::frame::encode_frame;
use fedoq_wire::Frame;
use std::collections::HashMap;
use std::io;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A one-shot query under a strategy.
    Query {
        /// Query text.
        sql: Arc<str>,
        /// Strategy name.
        strategy: &'static str,
    },
    /// A mutation spec at one site.
    Mutate {
        /// Site id.
        db: u16,
        /// Spec in the wire's mutation grammar.
        spec: String,
    },
    /// A fresh standing-query snapshot (subscribe, then unsubscribe).
    Snapshot {
        /// Query text.
        sql: Arc<str>,
        /// Live strategy name.
        strategy: &'static str,
    },
}

/// What the serve returned for one operation.
#[derive(Debug, Clone)]
pub struct Done {
    /// Digest of the answer rows (or snapshot rows).
    pub digest: u64,
    /// The mutation ack's summary row.
    pub ack: Option<String>,
    /// Server-side execution time the answer reports, µs.
    pub server_us: f64,
    /// RPC retries the serve performed.
    pub retries: u64,
    /// Envelopes the serve put on the wire.
    pub forwarded: u64,
    /// Envelopes the serve failed to put on the wire.
    pub lost: u64,
    /// Payload bytes of the answer frame.
    pub answer_bytes: usize,
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was sent.
    pub op: Op,
    /// Client-observed latency, ms (open loop: from the scheduled send).
    pub latency_ms: f64,
    /// How late the generator sent it, ms (open loop only).
    pub lag_ms: f64,
    /// The reply, or why there was none.
    pub reply: Result<Done, String>,
}

/// Where a connection's operations come from.
pub enum Source<'a> {
    /// One-shot queries, strategies cycling.
    Reads(Texts),
    /// Mutations, with a snapshot of one fleet query every `every`
    /// operations of a closed loop.
    Writes {
        /// The mutation stream.
        mutations: Mutations<'a>,
        /// Standing queries to snapshot, with their strategies.
        fleet: Vec<(Arc<str>, &'static str)>,
        /// Snapshot period in operations (closed loops only).
        every: Option<usize>,
    },
}

/// An operation stream.
pub struct Stream<'a> {
    source: Source<'a>,
    issued: usize,
}

impl<'a> Stream<'a> {
    /// A stream over `source`.
    pub fn new(source: Source<'a>) -> Stream<'a> {
        Stream { source, issued: 0 }
    }

    /// The next operation; snapshots are interleaved only when `closed`.
    pub fn next_op(&mut self, closed: bool) -> Op {
        let i = self.issued;
        self.issued += 1;
        match &mut self.source {
            Source::Reads(texts) => Op::Query {
                sql: texts.next_text().into(),
                strategy: STRATEGIES[i % STRATEGIES.len()],
            },
            Source::Writes {
                mutations,
                fleet,
                every,
            } => {
                if let Some(every) = every.filter(|e| closed && i % e == e - 1) {
                    let (sql, strategy) = fleet[(i / every) % fleet.len()].clone();
                    Op::Snapshot { sql, strategy }
                } else {
                    let (db, spec) = mutations.next_spec();
                    Op::Mutate { db, spec }
                }
            }
        }
    }
}

fn done_from(reply: Reply, answer_bytes: usize) -> Result<Done, String> {
    reply.map(|a| Done {
        digest: digest(&a.rows),
        ack: (a.executed == "mutate").then(|| a.rows.first().cloned().unwrap_or_default()),
        server_us: a.server_us,
        retries: a.retries,
        forwarded: a.forwarded,
        lost: a.lost,
        answer_bytes,
    })
}

/// Runs one operation synchronously. With a tracer on the connection,
/// the call is an `e2e.<kind>` span (the reply's decode nests inside
/// it) followed by a `wire.encode` span re-encoding the answer frame.
///
/// # Errors
///
/// Transport failure.
pub fn execute(conn: &mut Conn, op: &Op, request: u64) -> io::Result<Result<Done, String>> {
    let name = match op {
        Op::Query { .. } => "e2e.query",
        Op::Mutate { .. } => "e2e.mutate",
        Op::Snapshot { .. } => "e2e.snapshot",
    };
    conn.reader.request = request;
    let root = conn.reader.tracer.as_mut().map(|t| t.open(name, request));
    let (done, reply) = match op {
        Op::Query { sql, strategy } => {
            let (reply, len) = conn.query(sql, strategy)?;
            (done_from(reply.clone(), len), Some(reply))
        }
        Op::Mutate { db, spec } => {
            let reply = conn.mutate(*db, spec)?;
            (done_from(reply.clone(), 0), Some(reply))
        }
        Op::Snapshot { sql, strategy } => {
            let (watch, rows) = conn.subscribe(sql, strategy)?;
            conn.unsubscribe(watch)?;
            let done = rows.map(|rows| Done {
                digest: digest(&rows),
                ack: None,
                server_us: 0.0,
                retries: 0,
                forwarded: 0,
                lost: 0,
                answer_bytes: 0,
            });
            (done, None)
        }
    };
    if let (Some(tracer), Some(root)) = (conn.reader.tracer.as_mut(), root) {
        tracer.close(root);
        if let Some(reply) = reply {
            let frame = Frame::Answer { id: request, reply };
            tracer.leaf("wire.encode", request, || encode_frame(&frame).len());
        }
    }
    Ok(done)
}

/// Runs and times one operation; the flag is `false` once the
/// connection has failed.
pub fn once(conn: &mut Conn, op: Op, request: u64) -> (Sample, bool) {
    let start = Instant::now();
    let result = execute(conn, &op, request);
    let alive = result.is_ok();
    let sample = Sample {
        op,
        latency_ms: start.elapsed().as_secs_f64() * 1e3,
        lag_ms: 0.0,
        reply: result.unwrap_or_else(|e| Err(format!("transport: {e}"))),
    };
    (sample, alive)
}

/// A callback run once, right after a connection completes its n-th
/// operation.
pub type AtOp<'f> = Option<(usize, &'f mut dyn FnMut())>;

/// Drives one connection until `deadline`: back to back, or with
/// `pace`, each operation at the later of its slot (one per `pace`) and
/// the previous reply. Request ids are `tag << 32 | ordinal`.
pub fn closed(
    conn: &mut Conn,
    stream: &mut Stream,
    deadline: Instant,
    tag: u64,
    pace: Option<Duration>,
    mut at: AtOp,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let begin = Instant::now();
    while Instant::now() < deadline {
        if let Some(period) = pace {
            let slot = begin + period * samples.len() as u32;
            if let Some(wait) = slot.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let (sample, alive) = once(conn, stream.next_op(true), tag << 32 | samples.len() as u64);
        samples.push(sample);
        if let Some((n, hook)) = at.as_mut() {
            if samples.len() == *n {
                hook();
            }
        }
        if !alive {
            break;
        }
    }
    samples
}

/// Closed loops on two connections at once, one thread each, for
/// `window`; returns each connection's samples in issue order. `at`
/// hooks into connection A's loop; `pace_b` paces connection B.
pub fn closed_pair(
    a: (&mut Conn, &mut Stream),
    b: (&mut Conn, &mut Stream),
    window: Duration,
    pace_b: Option<Duration>,
    at: AtOp,
) -> (Vec<Sample>, Vec<Sample>) {
    let deadline = Instant::now() + window;
    std::thread::scope(|s| {
        let other = s.spawn(|| closed(b.0, b.1, deadline, 2, pace_b, None));
        let mine = closed(a.0, a.1, deadline, 1, None, at);
        (mine, other.join().expect("load thread panicked"))
    })
}

enum Sent {
    Op {
        id: u64,
        op: Op,
        due: Instant,
        lag_ms: f64,
    },
    Finished,
}

/// An open loop on one connection: operations are due every `1 / rate`
/// seconds for `window`, sent on schedule whatever the replies do, and
/// timed from when each was due. Returns samples in send order.
pub fn open(conn: &mut Conn, stream: &mut Stream, rate: f64, window: Duration) -> Vec<Sample> {
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / rate);
    let Conn { writer, reader, .. } = conn;
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut pending: HashMap<u64, (Op, Instant, f64)> = HashMap::new();
            let mut samples: Vec<(u64, Sample)> = Vec::new();
            let mut finished = false;
            let absorb = |msg: Sent, pending: &mut HashMap<_, _>, finished: &mut bool| match msg {
                Sent::Op {
                    id,
                    op,
                    due,
                    lag_ms,
                } => {
                    pending.insert(id, (op, due, lag_ms));
                }
                Sent::Finished => *finished = true,
            };
            while !(finished && pending.is_empty()) {
                if pending.is_empty() {
                    match rx.recv() {
                        Ok(msg) => absorb(msg, &mut pending, &mut finished),
                        Err(_) => break,
                    }
                    continue;
                }
                let frame = reader.recv();
                let now = Instant::now();
                while let Ok(msg) = rx.try_recv() {
                    absorb(msg, &mut pending, &mut finished);
                }
                let (id, reply, len) = match frame {
                    Ok((Frame::Answer { id, reply }, len)) => (id, reply, len),
                    Ok(_) => continue, // delta batches ahead of an ack
                    Err(e) => {
                        // The connection is gone: every pending op failed.
                        for (id, (op, due, lag_ms)) in pending.drain() {
                            samples.push((
                                id,
                                Sample {
                                    op,
                                    latency_ms: now.duration_since(due).as_secs_f64() * 1e3,
                                    lag_ms,
                                    reply: Err(format!("transport: {e}")),
                                },
                            ));
                        }
                        break;
                    }
                };
                if let Some((op, due, lag_ms)) = pending.remove(&id) {
                    samples.push((
                        id,
                        Sample {
                            op,
                            latency_ms: now.duration_since(due).as_secs_f64() * 1e3,
                            lag_ms,
                            reply: done_from(reply, len),
                        },
                    ));
                }
            }
            samples.sort_by_key(|(id, _)| *id);
            samples.into_iter().map(|(_, s)| s).collect()
        });
        let mut id = 1u64 << 40;
        loop {
            let due = start + period * (id - (1 << 40)) as u32;
            if due >= start + window {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let op = stream.next_op(false);
            let frame = match &op {
                Op::Query { sql, strategy } => Frame::Query {
                    id,
                    sql: sql.to_string(),
                    strategy: strategy.to_string(),
                },
                Op::Mutate { db, spec } => Frame::Mutate {
                    id,
                    db: *db,
                    spec: spec.clone(),
                },
                Op::Snapshot { .. } => unreachable!("open loops send no snapshots"),
            };
            let lag_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
            if tx
                .send(Sent::Op {
                    id,
                    op,
                    due,
                    lag_ms,
                })
                .is_err()
                || writer.send(&frame).is_err()
            {
                break;
            }
            id += 1;
        }
        let _ = tx.send(Sent::Finished);
        receiver.join().expect("receiver thread panicked")
    })
}
