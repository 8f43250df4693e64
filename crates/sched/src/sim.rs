//! The seeded scheduler simulation: real scheduler, real site actors,
//! scripted faults, reproducible from one `u64` seed.
//!
//! [`SchedSim`] wraps [`Scheduler`] in a harness the test suites drive:
//! a [`SimTransport`] seeded from the scenario seed, a [`FaultScript`]
//! injected at fixed virtual times, and a [`RecordingTransport`] that
//! writes every *delivered* envelope into a wire log. A failing scenario
//! is reproduced exactly by re-running with the printed seed — virtual
//! time makes the whole schedule, fault windows included,
//! deterministic.

use crate::sched::{QuerySpec, SchedConfig, SchedOutcome, SchedStrategy, Scheduler};
use crate::DistributedStrategy;
use fedoq_core::{ExecError, Federation};
use fedoq_net::msg::Envelope;
use fedoq_net::transport::{FaultEvent, SimTransport, Transport};
use fedoq_object::DbId;
use fedoq_sim::{Simulation, Site, SystemParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// A scripted fault scenario, applied at fixed virtual times.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultScript {
    /// No faults.
    Healthy,
    /// `site` slows down by `factor` at `at_us` and stays slow — the
    /// replanner's target scenario.
    Straggler {
        /// The slow site.
        site: DbId,
        /// Latency multiplier (≥ 1).
        factor: f64,
        /// When the slowdown starts (virtual µs).
        at_us: f64,
    },
    /// `site` crashes at `at_us` while queries are in flight and rejoins
    /// at `heal_us`.
    CrashMidQuery {
        /// The crashing site.
        site: DbId,
        /// Crash time (virtual µs).
        at_us: f64,
        /// Rejoin time (virtual µs).
        heal_us: f64,
    },
    /// The link between `a` and `b` partitions at `at_us` and heals at
    /// `heal_us`.
    PartitionThenHeal {
        /// One side of the cut.
        a: DbId,
        /// The other side.
        b: DbId,
        /// Partition time (virtual µs).
        at_us: f64,
        /// Heal time (virtual µs).
        heal_us: f64,
    },
}

impl FaultScript {
    /// Short name for failure messages.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScript::Healthy => "healthy",
            FaultScript::Straggler { .. } => "straggler",
            FaultScript::CrashMidQuery { .. } => "crash-mid-query",
            FaultScript::PartitionThenHeal { .. } => "partition-then-heal",
        }
    }

    /// Sites this script makes unreachable or slow at some point.
    pub fn faulted_sites(&self) -> Vec<DbId> {
        match self {
            FaultScript::Healthy => Vec::new(),
            FaultScript::Straggler { site, .. } | FaultScript::CrashMidQuery { site, .. } => {
                vec![*site]
            }
            FaultScript::PartitionThenHeal { a, b, .. } => vec![*a, *b],
        }
    }

    /// Schedules the script's fault events on `transport`.
    pub fn apply(&self, transport: &mut SimTransport) {
        match *self {
            FaultScript::Healthy => {}
            FaultScript::Straggler {
                site,
                factor,
                at_us,
            } => {
                transport.inject_at(at_us, FaultEvent::Slow(Site::Db(site), factor));
            }
            FaultScript::CrashMidQuery {
                site,
                at_us,
                heal_us,
            } => {
                transport.inject_at(at_us, FaultEvent::Crash(Site::Db(site)));
                transport.inject_at(heal_us, FaultEvent::Restart(Site::Db(site)));
            }
            FaultScript::PartitionThenHeal {
                a,
                b,
                at_us,
                heal_us,
            } => {
                transport.inject_at(at_us, FaultEvent::Partition(Site::Db(a), Site::Db(b)));
                transport.inject_at(heal_us, FaultEvent::Heal);
            }
        }
    }
}

/// One delivered envelope, as seen by the transport.
#[derive(Debug, Clone)]
pub struct WireEvent {
    /// Delivery order (0-based).
    pub seq: u64,
    /// Sending site.
    pub from: Site,
    /// Receiving site.
    pub to: Site,
    /// RPC correlation id.
    pub rpc: u64,
    /// Message kind (`"LocalEval"`, `"ShipObjects"`, …).
    pub kind: &'static str,
    /// `true` for responses.
    pub is_response: bool,
}

/// A [`SimTransport`] wrapper that logs every envelope it delivers.
///
/// Dropped envelopes are *not* logged: the wire log is the ground truth
/// of what actually moved, which is what the concurrency analyzers
/// (orphaned RPCs, double replies) want to reason about.
pub struct RecordingTransport {
    inner: SimTransport,
    events: Rc<RefCell<Vec<WireEvent>>>,
    seq: u64,
}

impl RecordingTransport {
    /// Wraps `inner`, logging deliveries into a shared event log.
    pub fn new(inner: SimTransport) -> RecordingTransport {
        RecordingTransport {
            inner,
            events: Rc::default(),
            seq: 0,
        }
    }

    /// A handle to the shared wire log.
    pub fn events(&self) -> Rc<RefCell<Vec<WireEvent>>> {
        Rc::clone(&self.events)
    }

    /// The wrapped transport (e.g. to inject more faults).
    pub fn inner_mut(&mut self) -> &mut SimTransport {
        &mut self.inner
    }
}

impl Transport for RecordingTransport {
    fn name(&self) -> &'static str {
        "recording-sim"
    }

    fn dispatch(&mut self, env: &Envelope, now_us: f64) -> Option<f64> {
        let delay = self.inner.dispatch(env, now_us);
        if delay.is_some() {
            let (kind, is_response) = env.payload.kind();
            self.events.borrow_mut().push(WireEvent {
                seq: self.seq,
                from: env.from,
                to: env.to,
                rpc: env.rpc,
                kind,
                is_response,
            });
            self.seq += 1;
        }
        delay
    }

    fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }
}

/// Everything one simulated scheduler run produced.
#[derive(Debug)]
pub struct SchedRun {
    /// The scheduler's outcome (per-query verdicts, trace, replans).
    pub outcome: SchedOutcome,
    /// Every envelope the transport delivered, in delivery order.
    pub wire: Vec<WireEvent>,
    /// `(delivered, dropped)` transport totals.
    pub transport_stats: (u64, u64),
    /// The scenario seed (print it on failure: it reproduces the run).
    pub seed: u64,
}

/// A seeded scheduler-simulation scenario.
#[derive(Debug, Clone)]
pub struct SchedSim {
    /// Seed for the transport's jitter/drop randomness (and the
    /// scenario's identity in failure messages).
    pub seed: u64,
    /// Scheduler capacity/policy.
    pub config: SchedConfig,
    /// The fault script.
    pub script: FaultScript,
}

impl SchedSim {
    /// A healthy scenario with default scheduler knobs.
    pub fn new(seed: u64) -> SchedSim {
        SchedSim {
            seed,
            config: SchedConfig::default(),
            script: FaultScript::Healthy,
        }
    }

    /// Replaces the scheduler configuration (chainable).
    pub fn with_config(mut self, config: SchedConfig) -> SchedSim {
        self.config = config;
        self
    }

    /// Replaces the fault script (chainable).
    pub fn with_script(mut self, script: FaultScript) -> SchedSim {
        self.script = script;
        self
    }

    /// Runs the workload and returns the outcome plus the wire log.
    ///
    /// # Errors
    ///
    /// As for [`Scheduler::run`].
    pub fn run(&self, fed: &Federation, specs: &[QuerySpec]) -> Result<SchedRun, ExecError> {
        let sim = Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )));
        let mut transport = SimTransport::new(Rc::clone(&sim), self.seed);
        self.script.apply(&mut transport);
        let recording = Rc::new(RefCell::new(RecordingTransport::new(transport)));
        let events = recording.borrow().events();
        let outcome = Scheduler::new(self.config).run(
            fed,
            specs,
            Rc::clone(&recording) as Rc<RefCell<dyn Transport>>,
            sim,
        )?;
        let transport_stats = recording.borrow().stats();
        let wire = events.borrow().clone();
        Ok(SchedRun {
            outcome,
            wire,
            transport_stats,
            seed: self.seed,
        })
    }
}

/// A deterministic mixed workload over the university federation: `n`
/// specs spanning all three paper queries, fixed and adaptive
/// strategies, staggered arrivals, mixed priorities, and occasional
/// deadlines — everything derived from `seed`.
pub fn mixed_specs(n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sqls = [
        fedoq_workload::university::Q1,
        "SELECT X.name FROM Student X WHERE X.advisor.department.name = 'CS'",
        "SELECT X.name FROM Teacher X WHERE X.speciality = 'database'",
    ];
    let strategies = [
        SchedStrategy::Fixed(DistributedStrategy::bl()),
        SchedStrategy::Fixed(DistributedStrategy::pl()),
        SchedStrategy::Fixed(DistributedStrategy::ca()),
        SchedStrategy::Adaptive,
        SchedStrategy::Adaptive,
    ];
    (0..n)
        .map(|i| {
            let deadline_us = if rng.gen_range(0..4) == 0 {
                Some(rng.gen_range(200_000.0..2_000_000.0))
            } else {
                None
            };
            QuerySpec {
                id: i as u64,
                sql: sqls[rng.gen_range(0..sqls.len())].to_string(),
                priority: rng.gen_range(0..4),
                deadline_us,
                arrival_us: rng.gen_range(0.0..50_000.0),
                strategy: strategies[rng.gen_range(0..strategies.len())],
            }
        })
        .collect()
}
