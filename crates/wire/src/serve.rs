//! The query frontend: concurrent clients multiplexed onto a federation
//! of site daemons.
//!
//! `fedoq-serve` accepts any number of client connections speaking the
//! [`Frame::Query`]/[`Frame::Answer`] protocol and executes each query
//! as the *global integrator* of the distributed runtime — awaiting
//! [`fedoq_net::actor::execute_plan`] on a per-query runtime whose
//! [`TcpTransport`] forwards `LocalEval`/`ShipObjects` requests to the
//! remote site daemons.
//!
//! Concurrency model: a fixed pool of worker threads, each owning a full
//! private execution stack — its federation copy (parsing, binding,
//! GOid integration), its [`Hub`] with connections to every site, its
//! statistics catalog ([`fedoq_plan::StatsCatalog`]) for `adaptive`
//! queries, and its persistent lookup cache. Client reader threads push
//! jobs onto a shared queue; workers pull, execute, and write the
//! answer back on the client's connection (correlated by the client's
//! id, so one connection may have many queries in flight on different
//! workers). Nothing is shared between workers, so there are no locks
//! on the execution path and per-worker RPC-id ranges stay disjoint by
//! construction.
//!
//! Failure semantics are inherited, not reimplemented: a dead site
//! surfaces as RPC timeouts inside the runtime, which the global site's
//! orchestration already converts into degraded maybe-rows (BL/PL) or
//! [`fedoq_core::ExecError::Unreachable`] (CA).

use crate::drive::wall_driver;
use crate::fed::build_workload;
use crate::frame::{read_frame, write_frame, ClientAnswer, Frame, Role};
use crate::hub::Hub;
use crate::live::LiveSession;
use crate::render::render_answer;
use crate::transport::{Locality, TcpTransport};
use fedoq_core::{
    choose_plan, collect_catalog, query_fingerprint, Federation, LedgerMark, LookupCache,
    PipelineConfig,
};
use fedoq_net::actor::{execute_plan, Ctx};
use fedoq_net::router::Net;
use fedoq_net::{DistributedStrategy, Plan, RpcConfig, Runtime, Transport};
use fedoq_plan::StatsCatalog;
use fedoq_sim::{Simulation, SystemParams};
use fedoq_sync::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one serve frontend.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Client listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Site daemon addresses, indexed by site id.
    pub sites: Vec<String>,
    /// Workload spec shared by every process (see [`crate::fed`]).
    pub workload: String,
    /// Worker threads (each a fully independent execution stack).
    pub workers: usize,
    /// Timeout/retry policy for global → site RPCs.
    pub rpc: RpcConfig,
    /// Pipeline configuration for the global actor.
    pub pipeline: PipelineConfig,
}

/// One query waiting for a worker.
struct Job {
    id: u64,
    sql: String,
    strategy: String,
    priority: u8,
    reply: Arc<Mutex<TcpStream>>,
}

/// The frontend's admission queue: the OS-thread analogue of
/// [`fedoq_sched::Admission`], with the same discipline — strict
/// priority, FIFO within a priority. The worker pool is the slot
/// budget, so ordering the queue this way *is* admission control:
/// whenever a worker frees up, the oldest highest-priority query is
/// admitted next.
struct JobQueue {
    jobs: Mutex<JobLadder>,
    cond: Condvar,
}

#[derive(Default)]
struct JobLadder {
    seq: u64,
    // Key `(255 - priority, seq)`: ascending iteration order is highest
    // priority first, oldest first within a priority — identical to the
    // scheduler's admission gate.
    waiting: BTreeMap<(u8, u64), Job>,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            jobs: Mutex::new("serve.jobs", JobLadder::default()),
            cond: Condvar::new("serve.job-ready"),
        }
    }

    fn push(&self, job: Job) {
        let mut jobs = self.jobs.lock();
        let key = (255 - job.priority, jobs.seq);
        jobs.seq += 1;
        jobs.waiting.insert(key, job);
        drop(jobs);
        self.cond.notify_one();
    }

    fn pop(&self) -> Job {
        // Shim-guarded wait: the predicate re-check lives inside
        // `wait_while`, so a stolen wakeup (two workers racing one
        // notify) just parks again instead of popping from an empty
        // queue — the discipline FQ302 audits.
        let mut jobs = self.jobs.lock();
        loop {
            let front = jobs.waiting.iter().next().map(|(&key, _)| key);
            if let Some(key) = front {
                if let Some(job) = jobs.waiting.remove(&key) {
                    return job;
                }
            }
            jobs = self.cond.wait_while(jobs, |q| q.waiting.is_empty());
        }
    }
}

/// Splits a client strategy string into `(strategy, priority)`.
///
/// Clients opt into scheduling priority with an `@N` suffix on the
/// strategy name (`"bl@3"`, `"adaptive@1"`); the bare name keeps
/// priority 0. Carried inside the existing string field so the wire
/// grammar — and therefore the FQ306 version fingerprint — is
/// unchanged, and old clients are unaffected.
fn split_priority(raw: &str) -> (&str, u8) {
    match raw.rsplit_once('@') {
        Some((name, prio)) => match prio.parse::<u8>() {
            Ok(p) => (name, p),
            Err(_) => (raw, 0),
        },
        None => (raw, 0),
    }
}

/// Disjoint RPC-id base for job `seq` of worker `worker`: the upper
/// half of the bucket space (sites use the lower; see [`crate::site`]).
fn rpc_base(worker: usize, seq: u64) -> u64 {
    ((0x80 + (worker as u64 & 0x3F)) << 56) | ((seq & 0xFF_FFFF) << 32)
}

/// Boots the frontend in-process: binds the client listener, spawns the
/// worker pool and the accept loop on background threads, and returns
/// the bound address. The frontend runs until the process exits — the
/// entry point the schedule explorer and loopback tests use to host a
/// serve stack inside their own process.
///
/// # Errors
///
/// Returns an error string if the workload spec is invalid or the
/// listener cannot bind.
pub fn spawn_serve(opts: &ServeOpts) -> Result<SocketAddr, String> {
    // Fail fast on a bad spec before accepting anyone.
    build_workload(&opts.workload)?;
    let listener =
        TcpListener::bind(&opts.listen).map_err(|e| format!("bind {}: {e}", opts.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let queue = Arc::new(JobQueue::new());
    for worker in 0..opts.workers.max(1) {
        let opts = opts.clone();
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || worker_loop(worker, &opts, &queue));
    }

    let workload = Arc::new(opts.workload.clone());
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let queue = Arc::clone(&queue);
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || client_loop(stream, &queue, &workload));
        }
    });
    Ok(addr)
}

/// Runs the frontend forever (until the process is killed).
///
/// Prints `LISTENING <addr>` on stdout once the client listener is
/// bound.
///
/// # Errors
///
/// Returns an error string if the workload spec is invalid or the
/// listener cannot bind.
pub fn run_serve_daemon(opts: ServeOpts) -> Result<(), String> {
    let addr = spawn_serve(&opts)?;
    println!("LISTENING {addr}");
    let _ = io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// Lazily builds the connection's standing-query session on first use.
/// A workload that fails to build (validated at boot, so only on a
/// serve-side regression) surfaces as an error string to the client.
fn live_session<'a>(
    live: &'a mut Option<LiveSession>,
    workload: &str,
) -> Result<&'a mut LiveSession, String> {
    if live.is_none() {
        let (fed, _) = build_workload(workload)?;
        *live = Some(LiveSession::new(fed));
    }
    live.as_mut().ok_or_else(|| "no live session".to_string())
}

/// Writes every pending subscription delta for this connection.
fn flush_deltas(live: &mut Option<LiveSession>, writer: &Arc<Mutex<TcpStream>>) {
    if let Some(session) = live.as_mut() {
        for frame in session.drain() {
            let mut stream = writer.lock();
            let _ = write_frame(&mut *stream, &frame);
        }
    }
}

/// Reads queries off one client connection into the job queue, and
/// handles the standing-query frames inline: subscriptions evaluate
/// in-process on the connection's private [`LiveSession`] (see
/// [`crate::live`]), so they never occupy a worker slot. Deltas a
/// mutation causes are flushed *before* its acknowledging answer — the
/// ack is the client's delivery barrier.
fn client_loop(stream: TcpStream, queue: &JobQueue, workload: &str) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new("serve.client-writer", write_half));
    let mut reader = BufReader::new(stream);
    let mut live: Option<LiveSession> = None;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Query { id, sql, strategy })) => {
                let (name, priority) = split_priority(&strategy);
                queue.push(Job {
                    id,
                    sql,
                    strategy: name.to_string(),
                    priority,
                    reply: Arc::clone(&writer),
                });
            }
            Ok(Some(Frame::Subscribe {
                id,
                sql,
                strategy,
                priority,
            })) => {
                let result = live_session(&mut live, workload)
                    .and_then(|session| session.subscribe(id, &sql, &strategy, priority));
                if let Err(message) = result {
                    let frame = Frame::Delta {
                        id,
                        seq: 0,
                        reply: Err(message),
                    };
                    let mut stream = writer.lock();
                    let _ = write_frame(&mut *stream, &frame);
                }
                flush_deltas(&mut live, &writer);
            }
            Ok(Some(Frame::Unsubscribe { id })) => {
                if let Some(session) = live.as_mut() {
                    session.unsubscribe(id);
                }
                flush_deltas(&mut live, &writer);
            }
            Ok(Some(Frame::Mutate { id, db, spec })) => {
                let start = Instant::now();
                let reply = live_session(&mut live, workload)
                    .and_then(|session| session.mutate(db, &spec))
                    .map(|summary| ClientAnswer {
                        executed: "mutate".to_string(),
                        rows: vec![summary],
                        degraded_sites: vec![],
                        retries: 0,
                        forwarded: 0,
                        lost: 0,
                        server_us: start.elapsed().as_secs_f64() * 1e6,
                    });
                flush_deltas(&mut live, &writer);
                let frame = Frame::Answer { id, reply };
                let mut stream = writer.lock();
                let _ = write_frame(&mut *stream, &frame);
            }
            Ok(Some(_)) => continue, // Hello and anything else: ignored
            Ok(None) | Err(_) => return,
        }
    }
}

/// One worker: a private execution stack draining the job queue.
fn worker_loop(worker: usize, opts: &ServeOpts, queue: &JobQueue) {
    let Ok((fed, _)) = build_workload(&opts.workload) else {
        return; // validated by run_serve_daemon; unreachable in practice
    };
    let mut catalog = collect_catalog(&fed, SystemParams::paper_default());
    let hub = Hub::new(Role::Serve, None);
    let pairs: Vec<(u16, String)> = opts
        .sites
        .iter()
        .enumerate()
        .map(|(db, addr)| (db as u16, addr.clone()))
        .collect();
    hub.set_site_addrs(&pairs);
    // Eager best-effort dial so the first query pays no connect latency;
    // failures fall back to the lazy dial in the routing path.
    for (db, _) in &pairs {
        let _ = hub.connect_site(*db);
    }
    let cache = Rc::new(RefCell::new(LookupCache::default()));
    let mut job_seq = 0u64;
    loop {
        let job = queue.pop();
        // A panicking query must cost one answer, not the worker: the
        // client gets an error frame, shim locks the panic poisoned are
        // recovered with a diagnostic, and the worker pulls the next
        // job. (The catalog/cache may miss one feedback observation —
        // statistics, not correctness.)
        let reply = std::panic::catch_unwind(AssertUnwindSafe(|| {
            execute(
                &fed,
                &mut catalog,
                &hub,
                &cache,
                opts,
                worker,
                &mut job_seq,
                &job,
            )
        }))
        .unwrap_or_else(|_| Err("query execution panicked; worker recovered".into()));
        let frame = Frame::Answer { id: job.id, reply };
        let mut stream = job.reply.lock();
        let _ = write_frame(&mut *stream, &frame);
    }
}

/// Executes one query end to end as the global integrator.
#[allow(clippy::too_many_arguments)]
fn execute(
    fed: &Federation,
    catalog: &mut StatsCatalog,
    hub: &Hub,
    cache: &Rc<RefCell<LookupCache>>,
    opts: &ServeOpts,
    worker: usize,
    job_seq: &mut u64,
    job: &Job,
) -> Result<ClientAnswer, String> {
    let query = fed.parse_and_bind(&job.sql).map_err(|e| e.to_string())?;
    let fingerprint = query_fingerprint(&query);

    // A fixed strategy name, or the adaptive planner ranking CA/BL/PL/HY
    // against this worker's statistics catalog.
    let adaptive = job.strategy.eq_ignore_ascii_case("adaptive");
    let plan = if adaptive {
        Plan::from(choose_plan(fed, &query, catalog, opts.pipeline, Some(cache)).best())
    } else {
        DistributedStrategy::parse(&job.strategy)
            .ok_or_else(|| format!("unknown strategy '{}'", job.strategy))?
            .into()
    };

    cache.borrow_mut().sync_generation(fed.generation());
    let sim = Rc::new(RefCell::new(Simulation::new(
        SystemParams::paper_default(),
        fed.num_dbs(),
    )));
    let mark = LedgerMark::take(&sim.borrow());
    let transport: Rc<RefCell<dyn Transport>> = Rc::new(RefCell::new(TcpTransport::new(
        hub.clone(),
        Locality::Global,
        fingerprint,
        job.sql.clone(),
    )));
    let rt = Runtime::new();
    let net = Net::new(rt.handle(), Rc::clone(&transport), fed.num_dbs());
    net.seed_rpc_ids(rpc_base(worker, *job_seq));
    *job_seq += 1;
    let ctx = Ctx {
        fed,
        query: &query,
        net: net.clone(),
        sim: Rc::clone(&sim),
        rpc: opts.rpc,
        pipeline: opts.pipeline,
        cache: opts.pipeline.cache.then(|| Rc::clone(cache)),
    };

    // The global site's orchestration runs right here, driven by the wall
    // clock so its RPCs to the site daemons get real deadlines.
    let label = plan.label();
    let start = Instant::now();
    let reply = rt
        .run_driven(
            async move { execute_plan(&ctx, &plan, ()).await },
            wall_driver(hub.clone(), start, move |inbound| {
                if let Frame::Envelope { env, .. } = inbound.frame {
                    net.inject(env);
                }
            }),
        )
        .map_err(|deadlock| deadlock.to_string())?;
    let server_us = start.elapsed().as_secs_f64() * 1e6;
    let (forwarded, lost) = transport.borrow().stats();

    // Adaptive feedback: the measured response and wire traffic sharpen
    // the next plan.
    if adaptive {
        mark.observe(catalog, fingerprint, label, &sim.borrow());
    }

    match reply.answer {
        Ok(answer) => Ok(ClientAnswer {
            executed: label.to_string(),
            rows: render_answer(&answer),
            degraded_sites: reply
                .degraded_sites
                .iter()
                .map(|db| db.index() as u16)
                .collect(),
            retries: reply.retries,
            forwarded,
            lost,
            server_us,
        }),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_suffix_parses_and_defaults() {
        assert_eq!(split_priority("bl"), ("bl", 0));
        assert_eq!(split_priority("bl@3"), ("bl", 3));
        assert_eq!(split_priority("adaptive@1"), ("adaptive", 1));
        // Malformed suffixes are left alone so the strategy parser can
        // report the whole unknown name.
        assert_eq!(split_priority("bl@fast"), ("bl@fast", 0));
    }

    #[test]
    fn job_queue_admits_by_priority_then_arrival() {
        let queue = JobQueue::new();
        for (id, priority) in [(0u64, 0u8), (1, 3), (2, 0), (3, 3)] {
            let (a, b) = std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| {
                    let addr = l.local_addr()?;
                    let a = TcpStream::connect(addr)?;
                    let (b, _) = l.accept()?;
                    Ok((a, b))
                })
                .expect("loopback pair");
            drop(b);
            queue.push(Job {
                id,
                sql: String::new(),
                strategy: String::new(),
                priority,
                reply: Arc::new(Mutex::new("test.reply", a)),
            });
        }
        let order: Vec<u64> = (0..4).map(|_| queue.pop().id).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
