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

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_core::PipelineConfig;
    use fedoq_net::{DistributedExecutor, LocalTransport};
    use fedoq_workload::{generate, university, WorkloadParams};
    use rand::rngs::StdRng;

    fn fresh_sim(fed: &Federation) -> Rc<RefCell<Simulation>> {
        Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )))
    }

    /// `LocalTransport` for `None`, else a healthy `SimTransport`.
    fn transport(seed: Option<u64>, sim: &Rc<RefCell<Simulation>>) -> Rc<RefCell<dyn Transport>> {
        match seed {
            Some(seed) => Rc::new(RefCell::new(SimTransport::new(Rc::clone(sim), seed))),
            None => Rc::new(RefCell::new(LocalTransport::new())),
        }
    }

    fn spec(id: u64, sql: &str, arrival_us: f64, strategy: DistributedStrategy) -> QuerySpec {
        QuerySpec {
            id,
            sql: sql.to_string(),
            priority: 0,
            deadline_us: None,
            arrival_us,
            strategy: SchedStrategy::Fixed(strategy),
        }
    }

    #[test]
    fn one_query_scheduler_run_matches_the_distributed_executor() {
        let params = WorkloadParams::paper_default().scaled(0.01);
        let sample = generate(&params.sample(&mut StdRng::seed_from_u64(3)), 3);
        let university = university::federation().unwrap();
        let feds = [
            (&university, university::Q1.to_string()),
            (&sample.federation, sample.query.to_string()),
        ];
        let scheduler = Scheduler::new(SchedConfig {
            drain_us: 0.0,
            ..SchedConfig::default()
        });
        for (fed, sql) in feds {
            let query = fed.parse_and_bind(&sql).unwrap();
            for name in ["ca", "bl", "pl", "bl-s", "pl-s"] {
                let strategy = DistributedStrategy::parse(name).unwrap();
                for seed in [None, Some(42)] {
                    let label = format!("{name} over {seed:?}: {sql}");
                    let sim = fresh_sim(fed);
                    let direct = DistributedExecutor::new()
                        .run(fed, &query, strategy, transport(seed, &sim), sim)
                        .unwrap();
                    let sim = fresh_sim(fed);
                    let specs = [spec(0, &sql, 0.0, strategy)];
                    let scheduled = scheduler
                        .run(fed, &specs, transport(seed, &sim), Rc::clone(&sim))
                        .unwrap();
                    let outcome = &scheduled.queries[0];
                    assert_eq!(outcome.verdict.answer(), Some(&direct.answer), "{label}");
                    assert_eq!(sim.borrow().metrics(), direct.metrics, "{label}");
                    let took_us = outcome.finished_us - outcome.started_us;
                    assert_eq!(took_us, direct.virtual_us, "{label}");
                    assert_eq!(scheduled.retries, direct.retries, "{label}");
                }
            }
        }
    }

    #[test]
    fn a_repeated_ca_query_ships_only_cold_extents() {
        let fed = university::federation().unwrap();
        let config = SchedConfig {
            pipeline: PipelineConfig::default().with_cache(),
            ..SchedConfig::default()
        };
        let ca = DistributedStrategy::ca();
        let specs = [
            spec(0, university::Q1, 0.0, ca),
            spec(1, university::Q1, 1_000_000.0, ca),
        ];
        let run = SchedSim::new(7)
            .with_config(config)
            .run(&fed, &specs)
            .unwrap();
        let [first, second] = &run.outcome.queries[..] else {
            panic!("two outcomes expected");
        };
        assert!(first.finished_us < second.submitted_us);
        assert!(first.verdict.answer().is_some());
        assert_eq!(first.verdict.answer(), second.verdict.answer());
        let ships = run
            .wire
            .iter()
            .filter(|e| e.kind == "ShipObjects" && !e.is_response)
            .count();
        assert_eq!(ships, 3, "the second run must find every extent cached");
    }

    #[test]
    fn runs_release_their_simulation_and_transport() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let bl = DistributedStrategy::bl();
        let sim = fresh_sim(&fed);
        let transport = transport(None, &sim);
        DistributedExecutor::new()
            .run(&fed, &query, bl, Rc::clone(&transport), Rc::clone(&sim))
            .unwrap();
        assert_eq!(Rc::strong_count(&sim), 1);
        assert_eq!(Rc::strong_count(&transport), 1);

        let specs = [spec(0, university::Q1, 0.0, bl)];
        Scheduler::default()
            .run(&fed, &specs, Rc::clone(&transport), Rc::clone(&sim))
            .unwrap();
        assert_eq!(Rc::strong_count(&sim), 1);
        assert_eq!(Rc::strong_count(&transport), 1);
    }
}
