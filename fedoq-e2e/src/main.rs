//! `fedoq-e2e`: wall-clock benchmark of client → `fedoq-serve` → sites.
//!
//! ```text
//! fedoq-e2e --workload <q1-repeat|gen-scan|live-churn> --seed <n>
//!           --seconds <s> --trace <0|1> --bin-dir <dir> --out-dir <dir>
//! ```
//!
//! Boots three `fedoq-site` daemons and one `fedoq-serve --workers 2`
//! from `--bin-dir` on loopback, drives them from this process (at most
//! two load threads, at most two connections), checks every reply
//! against an in-process reference, and prints one metric per line
//! followed by a JSON summary as the last line of standard output.
//!
//! With `--trace 0` the summary carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run, whose
//! spans are written to `--out-dir`. A wrong answer makes the exit code
//! nonzero. See `README.md` beside this package for what each workload
//! and metric is for.

mod check;
mod conn;
mod daemons;
mod family;
mod layers;
mod load;
mod stats;
mod trace;

use check::{digest, oracle_digest, oracle_digests, snapshot_digest};
use conn::Conn;
use daemons::Fleet;
use family::{Mutations, Texts, LIVE_STRATEGIES, STRATEGIES};
use fedoq_core::Federation;
use fedoq_object::DbId;
use fedoq_wire::{apply_mutation, build_workload, parse_mutation};
use load::{closed_pair, once, open, Op, Sample, Source, Stream};
use stats::{median, Summary};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{self_times_by_name, Tracer};

/// Which one-shot queries a workload reads with.
#[derive(Clone, Copy)]
enum Reads {
    /// The paper's Q1 verbatim.
    Q1,
    /// The Table-2 family over the generated chain.
    Gen {
        /// Keep whole-object queries (see `family::Texts::generated`).
        whole_objects: bool,
    },
}

/// One workload. Names are fixed: later measurements cite them.
struct Workload {
    name: &'static str,
    /// The daemons' workload spec.
    spec: &'static str,
    reads: Reads,
    /// Connection A mutates under a standing-query fleet, while
    /// connection B's reads are paced at [`CHURN_READ_RATE`].
    churn: bool,
    /// Offered open-loop rate, operations per second: a fixed share of
    /// the sustained two-connection closed-loop throughput measured when
    /// the benchmark was defined (1/8 for `q1-repeat`, whose sub-ms
    /// service turns every scheduling stall into a queue; 1/4 of the
    /// mutation throughput for `live-churn`; 1/4 otherwise), frozen so
    /// every commit is offered the same load.
    open_rate: f64,
    /// Operations connection A completes, counted from the start of the
    /// warm-up, before memory is read, so `peak_rss_mb` compares commits
    /// at equal work: the daemons keep per-query state, so memory at the
    /// end of a timed run (or of the timed warm-up) would grow with
    /// throughput.
    rss_after: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "q1-repeat",
        spec: "university",
        reads: Reads::Q1,
        churn: false,
        open_rate: 500.0,
        rss_after: 5000,
    },
    Workload {
        name: "gen-scan",
        spec: "gen:0.5:7",
        reads: Reads::Gen {
            whole_objects: true,
        },
        churn: false,
        open_rate: 22.0,
        rss_after: 200,
    },
    Workload {
        name: "live-churn",
        spec: "gen:0.1:7",
        reads: Reads::Gen {
            whole_objects: false,
        },
        churn: true,
        open_rate: 14.0,
        rss_after: 150,
    },
];

/// Standing queries in the `live-churn` fleet.
const FLEET: usize = 8;
/// Standing queries mirrored by the traced run's live layer elsewhere.
const TRACE_FLEET: usize = 4;
/// A closed-loop writer snapshots one fleet query every this many ops.
const SNAPSHOT_EVERY: usize = 25;
/// Federation boots per untraced run; `setup_s` is their median.
const BOOTS: usize = 5;
/// Rounds an untraced run's phases are split into.
const ROUNDS: usize = 3;
/// Reads per second beside `live-churn`'s writer: a fixed read load
/// (about a fifth of one connection's capacity), so the writer and the
/// reads share the machine the same way on every commit.
const CHURN_READ_RATE: f64 = 50.0;
/// Mutations per round that time the write path where no connection
/// mutates in the closed loop (a count, not a share of the run: each
/// takes tens of µs, and every one is replayed to check it).
const PROBE_MUTATIONS: usize = 1000;
/// Untimed closed loop between set-up and the first timed phase.
const WARM_UP: Duration = Duration::from_secs(1);
/// Seed of the standing-query fleet: a fixed part of the workload, like
/// its federation, so that mutation cost does not swing with the seed.
const FLEET_SEED: u64 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = BTreeMap::new();
        for pair in argv.chunks(2) {
            let key = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{}'", pair[0]))?;
            let value = pair
                .get(1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.insert(key.to_string(), value.clone());
        }
        let get = |key: &str| {
            pairs
                .get(key)
                .cloned()
                .ok_or_else(|| format!("--{key} is required"))
        };
        let number = |key: &str| -> Result<u64, String> {
            get(key)?
                .parse()
                .map_err(|_| format!("--{key} must be a whole number"))
        };
        let seconds = number("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        };
        Ok(Args {
            workload: get("workload")?,
            seed: number("seed")?,
            seconds: seconds as f64,
            trace,
            bin_dir: get("bin-dir")?.into(),
            out_dir: get("out-dir")?.into(),
        })
    }

    /// An independent seed for input stream `k` of this run.
    fn stream_seed(&self, k: u64) -> u64 {
        // SplitMix64 finalizer over (seed, k).
        let mut z =
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fedoq-e2e: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Everything one run needs to know about its workload's inputs.
struct Inputs<'a> {
    args: &'a Args,
    wl: &'a Workload,
    base: &'a Federation,
    /// `(text, live strategy)` of each standing query.
    fleet: Vec<(Arc<str>, &'static str)>,
    /// The query whose first correct answer ends set-up.
    first_sql: String,
    first_digest: u64,
}

impl<'a> Inputs<'a> {
    fn new(args: &'a Args, wl: &'a Workload, base: &'a Federation) -> Result<Inputs<'a>, String> {
        let first_sql = match wl.reads {
            Reads::Q1 => Texts::Q1.next_text(),
            Reads::Gen { .. } => Texts::generated(base, args.stream_seed(9), false).next_text(),
        };
        let first_digest = oracle_digest(base, &first_sql)
            .map_err(|e| format!("set-up query does not bind: {e}"))?;
        let fleet_size = match (wl.churn, args.trace) {
            (true, _) => FLEET,
            (false, true) => TRACE_FLEET,
            (false, false) => 0,
        };
        let mut texts = match wl.reads {
            Reads::Q1 => Texts::Q1,
            Reads::Gen { .. } => Texts::generated(base, FLEET_SEED, false),
        };
        let fleet = (0..fleet_size)
            .map(|i| {
                (
                    Arc::from(texts.next_text()),
                    LIVE_STRATEGIES[i % LIVE_STRATEGIES.len()],
                )
            })
            .collect();
        Ok(Inputs {
            args,
            wl,
            base,
            fleet,
            first_sql,
            first_digest,
        })
    }

    /// The workload's one-shot query texts, input stream `k`.
    fn texts(&self, k: u64) -> Texts {
        match self.wl.reads {
            Reads::Q1 => Texts::Q1,
            Reads::Gen { whole_objects } => {
                Texts::generated(self.base, self.args.stream_seed(k), whole_objects)
            }
        }
    }

    fn reads(&self, k: u64) -> Stream<'a> {
        Stream::new(Source::Reads(self.texts(k)))
    }

    fn writes(&self, k: u64, snapshots: bool) -> Stream<'a> {
        Stream::new(Source::Writes {
            mutations: Mutations::new(self.base, self.args.stream_seed(k)),
            fleet: self.fleet.clone(),
            every: snapshots.then_some(SNAPSHOT_EVERY),
        })
    }
}

/// A booted federation with connection A open.
struct Booted {
    fleet: Fleet,
    conn: Conn,
    /// Digest of each standing query's initial snapshot.
    snapshots: Vec<u64>,
    seconds: f64,
}

/// Boots the daemons and waits for the first correct answer (and, with
/// a fleet, every standing query's initial snapshot).
fn boot(inputs: &Inputs, fleet_queries: &[(Arc<str>, &'static str)]) -> Result<Booted, String> {
    let start = Instant::now();
    let fleet = Fleet::boot(&inputs.args.bin_dir, inputs.wl.spec)?;
    let mut conn = Conn::connect(&fleet.addr).map_err(|e| format!("connect: {e}"))?;
    let (reply, _) = conn
        .query(&inputs.first_sql, "ca")
        .map_err(|e| format!("set-up query: {e}"))?;
    match reply {
        Ok(a) if digest(&a.rows) == inputs.first_digest => {}
        Ok(_) => return Err("set-up query answered wrongly".into()),
        Err(e) => return Err(format!("set-up query refused: {e}")),
    }
    let mut snapshots = Vec::new();
    for (sql, strategy) in fleet_queries {
        let (_, rows) = conn
            .subscribe(sql, strategy)
            .map_err(|e| format!("subscribe: {e}"))?;
        snapshots.push(digest(
            &rows.map_err(|e| format!("subscribe refused: {e}"))?,
        ));
    }
    Ok(Booted {
        fleet,
        conn,
        snapshots,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Outcome of checking every reply of a run.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    /// Replies that differ from the in-process reference: refusals of
    /// texts the reference answers, other errors, and wrong answers.
    failed: usize,
    wrong: usize,
    /// Texts that `parse_and_bind` refuses in process too, refused by
    /// the serve with the same message: the right reply to such a text
    /// today, and a visible defect (whole-object queries do not bind).
    refused: usize,
    notes: Vec<String>,
}

impl Verdict {
    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(what);
        }
    }
}

/// Checks every one-shot query reply against the oracle: an answer must
/// equal the oracle's, and a refusal must repeat the in-process
/// `parse_and_bind` error for a text that does not bind.
fn check_reads<'s>(base: &Federation, samples: impl Iterator<Item = &'s Sample>, v: &mut Verdict) {
    let samples: Vec<&Sample> = samples.collect();
    let texts: BTreeSet<&str> = samples
        .iter()
        .filter_map(|s| match &s.op {
            Op::Query { sql, .. } => Some(&**sql),
            _ => None,
        })
        .collect();
    let expected = oracle_digests(base, texts);
    for s in samples {
        let Op::Query { sql, strategy } = &s.op else {
            continue;
        };
        v.attempted += 1;
        match (&s.reply, &expected[&**sql]) {
            (Ok(done), Ok(want)) if done.digest == *want => {}
            (Ok(_), _) => v.wrong(format!("{strategy}: {sql}")),
            (Err(got), Err(want)) if got == want => v.refused += 1,
            (Err(_), _) => v.failed += 1,
        }
    }
}

/// Replays one connection's mutations, in order, on a fresh copy of the
/// federation: every ack must name what the copy's own `apply_mutation`
/// did, and every snapshot must equal `fedoq_live::evaluate` at that
/// point of the stream (`initial` holds the snapshots taken before any
/// mutation).
fn check_writes<'s>(
    spec: &str,
    initial: &[((Arc<str>, &'static str), u64)],
    samples: impl Iterator<Item = &'s Sample>,
    v: &mut Verdict,
) -> Result<(), String> {
    let (mut mirror, _) = build_workload(spec)?;
    for ((sql, strategy), got) in initial {
        v.attempted += 1;
        if snapshot_digest(&mirror, sql, strategy) != Ok(*got) {
            v.wrong(format!("initial snapshot {strategy}: {sql}"));
        }
    }
    for s in samples {
        v.attempted += 1;
        match &s.op {
            Op::Mutate { db, spec } => {
                let applied = parse_mutation(spec).and_then(|m| {
                    mirror
                        .mutate(DbId::new(*db), |cdb| apply_mutation(cdb, &m))
                        .map_err(|e| e.to_string())
                });
                match (&s.reply, applied) {
                    (Err(_), Err(_)) => v.failed += 1,
                    (Ok(done), Ok(summary)) => {
                        let ack = done.ack.as_deref().unwrap_or_default();
                        if !ack.starts_with(&format!("{summary} at site {db};")) {
                            v.wrong(format!(
                                "mutation {spec}: ack '{ack}', expected '{summary}'"
                            ));
                        }
                    }
                    _ => v.wrong(format!("mutation {spec}: serve and mirror disagree")),
                }
            }
            Op::Snapshot { sql, strategy } => match &s.reply {
                Err(_) => v.failed += 1,
                Ok(done) => {
                    if snapshot_digest(&mirror, sql, strategy) != Ok(done.digest) {
                        v.wrong(format!("snapshot {strategy}: {sql}"));
                    }
                }
            },
            Op::Query { .. } => {}
        }
    }
    Ok(())
}

/// Connection B's pacing: only beside `live-churn`'s writer.
fn churn_pace(wl: &Workload) -> Option<Duration> {
    wl.churn
        .then(|| Duration::from_secs_f64(1.0 / CHURN_READ_RATE))
}

/// Latencies (ms) of the successful samples `keep` selects.
fn latencies<'s>(
    samples: impl Iterator<Item = &'s Sample>,
    keep: impl Fn(&Op) -> bool,
) -> Vec<f64> {
    samples
        .filter(|s| s.reply.is_ok() && keep(&s.op))
        .map(|s| s.latency_ms)
        .collect()
}

fn is_query(op: &Op) -> bool {
    matches!(op, Op::Query { .. })
}

fn is_timed(op: &Op) -> bool {
    !matches!(op, Op::Snapshot { .. })
}

fn is_mutation(op: &Op) -> bool {
    matches!(op, Op::Mutate { .. })
}

fn strategy_is(op: &Op, name: &str) -> bool {
    matches!(op, Op::Query { strategy, .. } if *strategy == name)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
    /// Part of the JSON summary (`BENCHMARK.json` declares it); the
    /// others are printed for reading only.
    summary: bool,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
        summary: true,
    }
}

/// A metric printed but left out of the summary: too unsteady on a
/// shared machine to gate a change on.
fn printed(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        note,
        summary: false,
        ..metric(name, value, unit)
    }
}

/// The tail of a latency sample by the percentile rule (printed, with
/// the percentile and sample count), when the sample has one.
fn tail(name: &str, ms: &[f64], note: &str) -> Option<Metric> {
    let s = Summary::of(ms)?;
    let note = format!("{} of n={}{note}", s.tail_label(), s.n);
    Some(printed(name, s.tail, "ms", note))
}

fn need<T>(value: Option<T>, what: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("too few samples for {what}"))
}

fn run() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let (base, _) = build_workload(wl.spec)?;
    let inputs = Inputs::new(&args, wl, &base)?;
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "fedoq-e2e workload={} seed={} seconds={} trace={} nproc={nproc} federation={} \
         serve-flags='--workers {}' site-flags=defaults open-rate={}/s",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.spec,
        daemons::SERVE_WORKERS,
        wl.open_rate
    );
    let churn_fleet: &[(Arc<str>, &'static str)] = if wl.churn { &inputs.fleet } else { &[] };
    let mut setups = Vec::new();
    let mut booted = None;
    for _ in 0..if args.trace { 1 } else { BOOTS } {
        // The previous fleet stops before the next boots.
        drop(booted.take());
        let b = boot(&inputs, churn_fleet)?;
        setups.push(b.seconds);
        booted = Some(b);
    }
    let Booted {
        fleet,
        conn: mut conn_a,
        snapshots,
        ..
    } = booted.ok_or("no boot")?;
    let initial: Vec<_> = churn_fleet.iter().cloned().zip(snapshots).collect();
    let mut conn_b = Conn::connect(&fleet.addr).map_err(|e| format!("connect: {e}"))?;
    let mut stream_a = if wl.churn {
        inputs.writes(1, true)
    } else {
        inputs.reads(1)
    };
    let mut stream_b = inputs.reads(2);
    let mut verdict = Verdict::default();
    let mut writes: Vec<Sample> = Vec::new();
    let mut reads: Vec<Sample> = Vec::new();
    let metrics = if args.trace {
        traced(
            &inputs,
            &mut conn_a,
            &mut conn_b,
            &mut stream_a,
            &mut stream_b,
            &mut writes,
            &mut reads,
            &mut verdict,
        )?
    } else {
        untraced(
            &inputs,
            &fleet,
            &mut conn_a,
            &mut conn_b,
            &mut stream_a,
            &mut stream_b,
            &setups,
            &mut writes,
            &mut reads,
        )?
    };
    drop((conn_a, conn_b));
    fleet.stop();

    check_reads(&base, reads.iter(), &mut verdict);
    if !writes.is_empty() || !initial.is_empty() {
        check_writes(wl.spec, &initial, writes.iter(), &mut verdict)?;
    }
    report(&metrics, &verdict);
    Ok(if verdict.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The end-to-end run, in [`ROUNDS`] rounds so that every metric samples
/// the whole run: a closed loop on two connections, an open loop at the
/// workload's fixed rate, and (outside `live-churn`) [`PROBE_MUTATIONS`]
/// mutations on connection A.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn untraced<'a>(
    inputs: &Inputs<'a>,
    fleet: &Fleet,
    conn_a: &mut Conn,
    conn_b: &mut Conn,
    stream_a: &mut Stream<'a>,
    stream_b: &mut Stream<'a>,
    setups: &[f64],
    writes: &mut Vec<Sample>,
    reads: &mut Vec<Sample>,
) -> Result<Vec<Metric>, String> {
    let (args, wl) = (inputs.args, inputs.wl);
    let pace_b = churn_pace(wl);
    let rounds = ROUNDS as f64;
    let closed_share = if wl.churn { 0.7 } else { 0.65 };
    let open_share = 1.0 - closed_share;
    let mut open_reads = inputs.reads(3);
    let mut probe = inputs.writes(4, false);
    if !wl.churn {
        // The first mutation builds the connection's live session; it
        // is checked but not timed.
        writes.push(once(conn_a, probe.next_op(true), 0).0);
    }
    let mut rss_at_work = None;
    let mut read_rss = || rss_at_work = Some(fleet.peak_rss_mb());
    // Warm-up: lazy set-up in the daemons finishes before timing; the
    // replies are checked like any other.
    let (a, b) = closed_pair(
        (conn_a, stream_a),
        (conn_b, stream_b),
        WARM_UP,
        pace_b,
        Some((wl.rss_after, &mut read_rss as &mut dyn FnMut())),
    );
    let warm_a = a.len();
    if wl.churn {
        writes.extend(a);
    } else {
        reads.extend(a);
    }
    reads.extend(b);
    let (mut closed_a, mut closed_b, mut opened, mut probed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let pending = wl
            .rss_after
            .checked_sub(warm_a + closed_a.len())
            .filter(|_| rss_at_work.is_none());
        let mut read_rss = || rss_at_work = Some(fleet.peak_rss_mb());
        let (a, b) = closed_pair(
            (conn_a, stream_a),
            (conn_b, stream_b),
            args.window(closed_share / rounds),
            pace_b,
            pending.map(|n| (n, &mut read_rss as &mut dyn FnMut())),
        );
        let window = args.window(open_share / rounds);
        let o = if wl.churn {
            open(conn_a, stream_a, wl.open_rate, window)
        } else {
            open(conn_b, &mut open_reads, wl.open_rate, window)
        };
        if wl.churn {
            writes.extend(a.iter().chain(&o).cloned());
        } else {
            for _ in 0..PROBE_MUTATIONS {
                probed.push(once(conn_a, probe.next_op(true), 0).0);
            }
        }
        closed_a.extend(a);
        closed_b.extend(b);
        opened.extend(o);
    }
    let (peak_rss_mb, rss_note) = match rss_at_work {
        Some(rss) => (rss?, format!("after {} ops on connection A", wl.rss_after)),
        None => (
            fleet.peak_rss_mb()?,
            format!(
                "closed loops ended before {} ops on connection A",
                wl.rss_after
            ),
        ),
    };
    let end_rss_mb = fleet.peak_rss_mb()?;

    let closed_samples: Vec<&Sample> = closed_a.iter().chain(&closed_b).collect();
    let all = latencies(closed_samples.iter().copied(), is_timed);
    let queries = latencies(closed_samples.iter().copied(), is_query);
    let open_ms = latencies(opened.iter(), is_timed);
    let mutate_ms = if wl.churn {
        latencies(closed_a.iter(), is_mutation)
    } else {
        latencies(probed.iter(), is_mutation)
    };
    let mut metrics = vec![
        Metric {
            note: format!(
                "median of {} boots: {}",
                setups.len(),
                setups
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            ..metric("setup_s", need(median(setups), "setup_s")?, "s")
        },
        metric("p50_ms", need(median(&queries), "p50_ms")?, "ms"),
        metric(
            "throughput_ops",
            all.len() as f64 / (args.seconds * closed_share),
            "1/s",
        ),
    ];
    metrics.extend(tail("p99_ms", &queries, ""));
    for s in STRATEGIES {
        let ms = latencies(closed_samples.iter().copied(), |op| strategy_is(op, s));
        metrics.push(metric(format!("p50_ms.{s}"), need(median(&ms), s)?, "ms"));
    }
    metrics.push(printed(
        "p50_ms.mutate",
        need(median(&mutate_ms), "p50_ms.mutate")?,
        "ms",
        format!("n={}", mutate_ms.len()),
    ));
    let rate = format!(" at {}/s", wl.open_rate);
    metrics.push(Metric {
        note: format!("n={}{rate}", open_ms.len()),
        ..metric("open_p50_ms", need(median(&open_ms), "open_p50_ms")?, "ms")
    });
    metrics.extend(tail("open_p99_ms", &open_ms, &rate));
    metrics.push(Metric {
        note: rss_note,
        ..metric("peak_rss_mb", peak_rss_mb, "MB")
    });
    metrics.push(printed(
        "peak_rss_mb.end",
        end_rss_mb,
        "MB",
        "at the end of the run".into(),
    ));

    drop(closed_samples);
    if wl.churn {
        reads.extend(closed_b);
    } else {
        writes.extend(probed);
        reads.extend(closed_a.into_iter().chain(closed_b).chain(opened));
    }
    Ok(metrics)
}

/// The traced run: an untraced and a traced closed loop (their medians
/// give the tracing overhead), an open loop for generator lag, then the
/// in-process layer battery. Every metric comes from this run's spans
/// and replies.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn traced<'a>(
    inputs: &Inputs<'a>,
    conn_a: &mut Conn,
    conn_b: &mut Conn,
    stream_a: &mut Stream<'a>,
    stream_b: &mut Stream<'a>,
    writes: &mut Vec<Sample>,
    reads: &mut Vec<Sample>,
    verdict: &mut Verdict,
) -> Result<Vec<Metric>, String> {
    let (args, wl) = (inputs.args, inputs.wl);
    let pace_b = churn_pace(wl);
    let epoch = Instant::now();
    // Untraced and traced closed loops alternate twice, so drift over
    // the run (warm-up, neighbours) weighs on both sides alike.
    let mut tracer = Tracer::new(epoch);
    let (mut seq_a, mut seq_b) = (Vec::new(), Vec::new());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut traced_samples: Vec<Sample> = Vec::new();
    for _ in 0..2 {
        let (ua, ub) = closed_pair(
            (conn_a, stream_a),
            (conn_b, stream_b),
            args.window(0.1),
            pace_b,
            None,
        );
        untraced_ms.extend(latencies(ua.iter().chain(&ub), is_timed));
        seq_a.extend(ua);
        seq_b.extend(ub);
        conn_a.reader.tracer = Some(Tracer::new(epoch));
        conn_b.reader.tracer = Some(Tracer::new(epoch));
        let (ta, tb) = closed_pair(
            (conn_a, stream_a),
            (conn_b, stream_b),
            args.window(0.1),
            pace_b,
            None,
        );
        tracer.absorb(conn_a.reader.tracer.take().ok_or("tracer lost")?);
        tracer.absorb(conn_b.reader.tracer.take().ok_or("tracer lost")?);
        traced_ms.extend(latencies(ta.iter().chain(&tb), is_timed));
        traced_samples.extend(ta.iter().chain(&tb).cloned());
        seq_a.extend(ta);
        seq_b.extend(tb);
    }

    let open_samples = if wl.churn {
        open(conn_a, stream_a, wl.open_rate, args.window(0.15))
    } else {
        open(
            conn_b,
            &mut inputs.reads(3),
            wl.open_rate,
            args.window(0.15),
        )
    };
    let lags: Vec<f64> = open_samples.iter().map(|s| s.lag_ms).collect();

    let deadline = Instant::now() + args.window(0.45);
    let mut texts = inputs.texts(5);
    let mutations = Mutations::new(inputs.base, args.stream_seed(6));
    let counts = layers::battery(
        inputs.base,
        wl.spec,
        &mut texts,
        mutations,
        &inputs.fleet,
        deadline,
        &mut tracer,
    )?;
    verdict.attempted += counts.checked;
    for _ in 0..counts.wrong {
        verdict.wrong("in-process layer answer differs from its reference".into());
    }

    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", wl.name, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let self_times = self_times_by_name(tracer.spans());
    let p50 = |name: &str| median(self_times.get(name).map_or(&[][..], Vec::as_slice));
    let layer = |name: &str, span: &str, unit| -> Result<Metric, String> {
        Ok(metric(name, need(p50(span), span)?, unit))
    };
    let mut metrics = vec![
        layer("query.parse_bind_us", "query.parse_bind", "us")?,
        layer("plan.choose_us", "plan.choose", "us")?,
        layer("plan.catalog_us", "plan.catalog", "us")?,
    ];
    // Pairs each request's LocalTransport run with its in-process run.
    let durations = |name: &str| -> BTreeMap<u64, f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.end_us - s.start_us))
            .collect()
    };
    for s in layers::CORE_STRATEGIES {
        let core_span = format!("core.exec.{s}");
        let net_span = format!("net.exec.{s}");
        metrics.push(layer(&format!("core.exec_us.{s}"), &core_span, "us")?);
        metrics.push(layer(&format!("net.exec_us.{s}"), &net_span, "us")?);
        let core = durations(&core_span);
        let overhead: Vec<f64> = durations(&net_span)
            .iter()
            .filter_map(|(r, net)| core.get(r).map(|c| net - c))
            .collect();
        metrics.push(metric(
            format!("net.overhead_us.{s}"),
            need(median(&overhead), "net.overhead_us")?,
            "us",
        ));
        let sim = counts.sim.get(s).map_or(&[][..], Vec::as_slice);
        let pick = |f: fn(&(fedoq_sim::QueryMetrics, f64)) -> f64| {
            need(median(&sim.iter().map(f).collect::<Vec<_>>()), "sim")
        };
        metrics.push(metric(
            format!("sim.modeled_us.{s}"),
            pick(|m| m.0.response_us)?,
            "us",
        ));
        metrics.push(metric(
            format!("sim.modeled_over_wall.{s}"),
            pick(|m| m.1)?,
            "ratio",
        ));
        metrics.push(metric(
            format!("sim.messages.{s}"),
            pick(|m| m.0.messages as f64)?,
            "count",
        ));
        metrics.push(metric(
            format!("sim.bytes.{s}"),
            pick(|m| m.0.bytes_transferred as f64)?,
            "bytes",
        ));
        metrics.push(metric(
            format!("sim.comparisons.{s}"),
            pick(|m| m.0.comparisons as f64)?,
            "count",
        ));
    }
    metrics.push(layer("store.scan_us", "store.scan", "us")?);
    metrics.push(metric(
        "store.examined_per_row",
        counts.scan_comparisons as f64 / counts.scan_rows.max(1) as f64,
        "ratio",
    ));
    metrics.push(layer("store.mutate_us", "store.mutate", "us")?);
    metrics.push(layer("core.condition_us", "core.condition", "us")?);
    metrics.push(layer("wire.encode_us", "wire.encode", "us")?);
    metrics.push(layer("wire.decode_us", "wire.decode", "us")?);

    let answers: Vec<&load::Done> = traced_samples
        .iter()
        .filter(|s| is_query(&s.op))
        .filter_map(|s| s.reply.as_ref().ok())
        .collect();
    let answer_stat =
        |f: &dyn Fn(&load::Done) -> f64| answers.iter().map(|d| f(d)).collect::<Vec<_>>();
    let outside: Vec<f64> = traced_samples
        .iter()
        .filter(|s| is_query(&s.op))
        .filter_map(|s| {
            s.reply
                .as_ref()
                .ok()
                .map(|d| s.latency_ms * 1e3 - d.server_us)
        })
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    // `ClientAnswer.forwarded`/`lost` count over a serve worker's
    // lifetime, not per query: report the latest (largest) reading and
    // the loss share it implies.
    let last = answers
        .iter()
        .max_by_key(|d| d.forwarded)
        .ok_or("no traced answers")?;
    metrics.extend([
        metric(
            "wire.answer_bytes",
            need(
                median(&answer_stat(&|d| d.answer_bytes as f64)),
                "answer bytes",
            )?,
            "bytes",
        ),
        metric(
            "wire.server_us",
            need(median(&answer_stat(&|d| d.server_us)), "server_us")?,
            "us",
        ),
        metric(
            "wire.outside_server_us",
            need(median(&outside), "outside")?,
            "us",
        ),
        metric(
            "wire.retries",
            mean(&answer_stat(&|d| d.retries as f64)),
            "count",
        ),
        metric("wire.forwarded", last.forwarded as f64, "count"),
        metric(
            "wire.lost_frac",
            last.lost as f64 / last.forwarded.max(1) as f64,
            "frac",
        ),
    ]);

    let live_mutate = need(p50("live.mutate"), "live.mutate")?;
    let evals: f64 = counts.evals.iter().sum();
    metrics.extend([
        metric("live.mutate_us", live_mutate, "us"),
        metric("live.evals_per_mutation", mean(&counts.evals), "count"),
        metric("live.deltas_per_mutation", mean(&counts.deltas), "count"),
        metric(
            "live.useful_eval_frac",
            counts.useful_evals as f64 / evals.max(1.0),
            "frac",
        ),
        metric(
            "loadgen.lag_ms",
            need(Summary::of(&lags), "loadgen.lag_ms")?.tail,
            "ms",
        ),
        metric(
            "trace.overhead_frac",
            need(median(&traced_ms), "traced p50")? / need(median(&untraced_ms), "untraced p50")?
                - 1.0,
            "frac",
        ),
    ]);
    for line in &counts.table {
        println!("modeled-vs-wall {}: {line}", wl.name);
    }

    for sample in seq_a.into_iter().chain(open_samples) {
        if wl.churn {
            writes.push(sample);
        } else {
            reads.push(sample);
        }
    }
    reads.extend(seq_b);
    Ok(metrics)
}

/// Prints one line per metric, then the JSON summary as the last line.
fn report(metrics: &[Metric], v: &Verdict) {
    for note in &v.notes {
        println!("WRONG {note}");
    }
    // `failed_frac` counts the refusals the reference makes too, so the
    // whole-object defect stays in view; the summary's `failed` counts
    // only replies that differ from the reference.
    let failed_frac = (v.failed + v.refused) as f64 / v.attempted.max(1) as f64;
    println!(
        "{:<28} {:>14} {:<6} attempted={} refused-as-in-process={} failed={} wrong={}",
        "failed_frac",
        format!("{failed_frac:.4}"),
        "frac",
        v.attempted,
        v.refused,
        v.failed,
        v.wrong
    );
    for m in metrics {
        println!("{:<28} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.summary)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.wrong == 0,
        v.attempted.max(1),
        v.failed,
        body.join(", ")
    );
}

/// A finite JSON number (non-finite values become `null`).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
