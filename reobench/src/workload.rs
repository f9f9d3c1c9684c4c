//! The four benchmark workloads: how each builds its system, drives one
//! closed-loop pass with every `handle()` call timed from outside, and
//! checks the program's outputs.

use std::time::Instant;

use reo_core::{
    CacheSystem, ClusterSystem, DeviceId, ExperimentPlan, ExperimentRunner, FlashOverheadReport,
    HealthState, MetricsSnapshot, ParityGroupPolicy, ParityGroupSnapshot, PlannedEvent,
    ReplicationPolicy, ReplicationSnapshot, SchemeConfig, SystemConfig,
};
use reo_osd::SenseCode;
use reo_sim::{ByteSize, TraceBreakdown};
use reo_workload::{Operation, Trace, WorkloadSpec};

/// Cluster size of the two cluster workloads.
pub const TARGETS: usize = 4;

/// Per-copy probability (parts per million) of the mid-outage replica
/// divergence injected on `cluster_replica`.
const DIVERGENCE_PPM: u32 = 500_000;

/// Batch cap for the final quiesce drain: large enough that every queue
/// empties, so the health check after it is meaningful.
const DRAIN_BATCHES: usize = 1_000_000;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 medium-locality reads on one target, no faults.
    ReadMedium,
    /// 30%-write trace on one target with a device failure, a spare and
    /// a power loss.
    WriteRecover,
    /// 4-target cluster with cross-target parity 3+1 and a target outage.
    ClusterParity,
    /// 4-target cluster with 2-way replication, a target outage and a
    /// replica divergence.
    ClusterReplica,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadMedium,
        Workload::WriteRecover,
        Workload::ClusterParity,
        Workload::ClusterReplica,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMedium => "read_medium",
            Workload::WriteRecover => "write_recover",
            Workload::ClusterParity => "cluster_parity",
            Workload::ClusterReplica => "cluster_replica",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a multi-target cluster.
    pub fn is_cluster(self) -> bool {
        matches!(self, Workload::ClusterParity | Workload::ClusterReplica)
    }

    fn spec(self) -> WorkloadSpec {
        match self {
            Workload::ReadMedium => WorkloadSpec::medium(),
            // A quarter of the paper's objects and requests (same
            // requests per object, so the same reuse): a paper-scale pass
            // takes ~8 s here, too long to average enough traces per run.
            Workload::WriteRecover => {
                let paper = WorkloadSpec::write_intensive(0.3);
                paper
                    .with_objects(paper.objects / 4)
                    .with_requests(paper.requests / 4)
            }
            Workload::ClusterParity | Workload::ClusterReplica => {
                WorkloadSpec::write_intensive(0.3)
            }
        }
    }

    /// Wall seconds of one pass on a 2-core Xeon host; sets how many
    /// traces a run of a given length averages over.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::ReadMedium => 2.5,
            Workload::WriteRecover => 2.0,
            Workload::ClusterParity => 1.0,
            Workload::ClusterReplica => 1.25,
        }
    }

    /// Traces a run of `seconds` measures: one pass each. Depends only on
    /// the run length, never on host speed, so equal arguments always
    /// measure equal inputs. Seed-to-seed differences between traces
    /// dominate the spread of a single pass, so a run takes as many as
    /// fit its length.
    pub fn traces_per_run(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(3)
    }

    /// Generates the `index`-th trace of the run with `seed`; the seed
    /// reaches the program only through it.
    pub fn generate(self, seed: u64, index: usize) -> Trace {
        self.spec()
            .generate(seed.wrapping_mul(1000).wrapping_add(index as u64))
    }

    /// Stripe chunk size: the paper's 64 KiB on one target (per-chunk
    /// bookkeeping dominates), 1 MiB on the clusters (it does not).
    pub fn chunk_size(self) -> ByteSize {
        if self.is_cluster() {
            ByteSize::from_mib(1)
        } else {
            ByteSize::from_kib(64)
        }
    }

    fn cache_fraction(self) -> f64 {
        if self.is_cluster() {
            0.25
        } else {
            0.10
        }
    }

    /// Per-node system configuration for `trace`.
    pub fn config(self, trace: &Trace) -> SystemConfig {
        let cache = trace.summary().data_set_bytes.scale(self.cache_fraction());
        SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
            .with_chunk_size(self.chunk_size())
    }

    /// The fault schedule, as request-index events.
    pub fn plan(self, n: usize) -> ExperimentPlan {
        let plan = ExperimentPlan::normal_run();
        match self {
            Workload::ReadMedium => plan,
            Workload::WriteRecover => plan
                .with_event(n / 4, PlannedEvent::FailDevice(DeviceId(0)))
                .with_event(n / 4 + n / 50, PlannedEvent::InsertSpare(DeviceId(0)))
                .with_event(2 * n / 3, PlannedEvent::Crash),
            Workload::ClusterParity => plan
                .with_event(n / 3, PlannedEvent::FailTarget(0))
                .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0)),
            Workload::ClusterReplica => plan
                .with_event(n / 3, PlannedEvent::FailTarget(0))
                .with_event(
                    n / 2,
                    PlannedEvent::InjectReplicaDivergence {
                        ppm: DIVERGENCE_PPM,
                    },
                )
                .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0)),
        }
    }

    /// Builds and populates a fresh system for `trace`.
    pub fn build(self, trace: &Trace) -> System {
        let config = self.config(trace);
        match self {
            Workload::ReadMedium | Workload::WriteRecover => {
                let mut system = CacheSystem::new(config);
                system.populate(trace.objects());
                System::Single(Box::new(system))
            }
            Workload::ClusterParity | Workload::ClusterReplica => {
                let mut cluster = ClusterSystem::new(config, TARGETS);
                if self == Workload::ClusterParity {
                    cluster.set_parity_policy(ParityGroupPolicy::reo(3, 1));
                } else {
                    cluster.set_replication_policy(ReplicationPolicy::two_way());
                }
                cluster.populate(trace.objects());
                System::Cluster(Box::new(cluster))
            }
        }
    }
}

/// What one `handle()` call's outcome was, for the per-outcome split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// A read served from cache.
    ReadHit,
    /// A read served by the backend.
    ReadMiss,
    /// A write absorbed by the cache.
    Write,
    /// Served through reconstruction, a replica or parity peer, or
    /// another degraded path.
    Degraded,
    /// No tier served it (not ready, failure, corrupted).
    Failed,
}

impl CallKind {
    /// Every kind, in report order.
    pub const ALL: [CallKind; 5] = [
        CallKind::ReadHit,
        CallKind::ReadMiss,
        CallKind::Write,
        CallKind::Degraded,
        CallKind::Failed,
    ];

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            CallKind::ReadHit => "read_hit",
            CallKind::ReadMiss => "read_miss",
            CallKind::Write => "write",
            CallKind::Degraded => "degraded",
            CallKind::Failed => "failed",
        }
    }
}

/// The system under test.
pub enum System {
    /// One cache server.
    Single(Box<CacheSystem>),
    /// A multi-target cluster.
    Cluster(Box<ClusterSystem>),
}

/// Wall time of one planned event (or the final drain), measured around
/// the public calls that apply it.
#[derive(Clone, Debug)]
pub struct EventTiming {
    /// Event label, e.g. `fail_device`.
    pub name: &'static str,
    /// Request index it fired before (the trace length for the drain).
    pub at: usize,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
    /// Wall time of `recover()` alone, for a power loss.
    pub recover_ns: Option<u64>,
}

/// Simulated end state of a pass: every figure that must repeat exactly
/// for a seed, whatever drove the trace and however fast.
#[derive(Clone, Debug, PartialEq)]
pub struct SimState {
    /// Aggregated measurements.
    pub totals: MetricsSnapshot,
    /// Parity-group counters (clusters only).
    pub parity: Option<ParityGroupSnapshot>,
    /// Replication counters (clusters only).
    pub replication: Option<ReplicationSnapshot>,
    /// Cross-target flash split (clusters only).
    pub overhead: Option<FlashOverheadReport>,
    /// Physical flash bytes occupied, summed over up nodes.
    pub flash_bytes: u64,
    /// Cached user bytes the flash holds on behalf of (the cluster's
    /// primaries; the target's user bytes on one node).
    pub user_bytes: u64,
}

impl SimState {
    /// An exact rendering of the end state for comparison across
    /// processes: integer counters, bytes and nanoseconds in full (the
    /// `Debug` forms of sizes and durations round), then the nested
    /// per-class, per-target and SLO rows.
    pub fn fingerprint(&self) -> String {
        let t = &self.totals;
        let classes: Vec<_> = t
            .classes
            .iter()
            .map(|c| {
                (
                    c.label,
                    [c.requests, c.reads, c.read_hits, c.writes, c.degraded_reads],
                    c.requested_bytes.as_bytes(),
                    c.mean_latency.as_nanos(),
                    c.p99_latency.as_nanos(),
                )
            })
            .collect();
        let counters = [
            t.requests,
            t.reads,
            t.read_hits,
            t.writes,
            t.degraded_reads,
            t.requested_bytes.as_bytes(),
            t.requested_write_bytes.as_bytes(),
            t.device_bytes.as_bytes(),
            t.device_write_bytes.as_bytes(),
            t.backend_bytes.as_bytes(),
            t.elapsed.as_nanos(),
            t.mean_latency.as_nanos(),
            t.p99_latency.as_nanos(),
            t.medium_errors,
            t.repairs,
            t.scrub_passes,
            t.unrecoverable_fallbacks,
            t.journal_appends,
            t.checkpoint_count,
            t.replayed_records,
            t.torn_tail_detected,
            t.recovery_duration_us,
            t.served_by_replica,
            t.served_by_parity,
            self.flash_bytes,
            self.user_bytes,
        ];
        format!(
            "{counters:?} {classes:?} {:?} {:?} {:?} {:?} {:?}",
            t.targets, t.slos, self.parity, self.replication, self.overhead
        )
    }

    /// Flash bytes per cached user byte, cross-target redundancy included.
    pub fn flash_per_user_byte(&self) -> f64 {
        let parity = self.overhead.map_or(0, |o| o.parity_bytes);
        (self.flash_bytes + parity) as f64 / self.user_bytes.max(1) as f64
    }
}

/// Everything one pass measured.
pub struct Pass {
    /// Wall time of the pass: requests, events and the final drain.
    pub wall_ns: u64,
    /// Per-call wall start (ns since the pass began), indexed by request.
    pub call_start_ns: Vec<u64>,
    /// Per-call wall duration (ns), indexed by request.
    pub call_ns: Vec<u32>,
    /// Per-call outcome, indexed by request.
    pub kinds: Vec<CallKind>,
    /// Events and the final drain, in order.
    pub events: Vec<EventTiming>,
    /// The simulated end state.
    pub sim: SimState,
    /// The tracer's simulated-time breakdown (empty when untraced).
    pub breakdown: TraceBreakdown,
    /// The system at the end of the pass, for counters and checks.
    pub system: System,
}

impl Pass {
    /// Requests no tier served.
    pub fn failed(&self) -> u64 {
        self.kinds
            .iter()
            .filter(|&&k| k == CallKind::Failed)
            .count() as u64
    }
}

fn kind_of(op: Operation, hit: bool, degraded: bool, sense: SenseCode) -> CallKind {
    match sense {
        SenseCode::NotReady | SenseCode::Failure | SenseCode::Corrupted => CallKind::Failed,
        SenseCode::RecoveredError | SenseCode::MediumError => CallKind::Degraded,
        _ if degraded => CallKind::Degraded,
        _ if op == Operation::Write => CallKind::Write,
        _ if hit => CallKind::ReadHit,
        _ => CallKind::ReadMiss,
    }
}

fn event_name(event: PlannedEvent) -> &'static str {
    match event {
        PlannedEvent::FailDevice(_) => "fail_device",
        PlannedEvent::InsertSpare(_) => "insert_spare",
        PlannedEvent::Crash => "crash_recover",
        PlannedEvent::FailTarget(_) => "fail_target",
        PlannedEvent::RestoreTarget(_) => "restore_target",
        PlannedEvent::InjectReplicaDivergence { .. } => "inject_divergence",
        other => panic!("benchmark plans never schedule {other:?}"),
    }
}

fn nanos_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

impl System {
    /// Turns request tracing on.
    pub fn enable_tracing(&mut self) {
        match self {
            System::Single(s) => s.enable_tracing(),
            System::Cluster(c) => c.enable_tracing(),
        }
    }

    /// Starts measurement the way the program's own runners do.
    fn start_measurement(&mut self) {
        match self {
            System::Single(s) => {
                let now = s.clock().now();
                s.metrics_mut().reset_all(now);
                s.tracer().reset();
                s.flight().reset();
            }
            System::Cluster(c) => c.reset_stats(),
        }
    }

    /// Applies one event through the public calls; returns the wall time
    /// of `recover()` for a power loss.
    fn apply(&mut self, event: PlannedEvent) -> Option<u64> {
        match self {
            System::Single(s) => {
                // Mirror `ExperimentRunner::run`: each event closes a
                // measurement window.
                let now = s.clock().now();
                s.metrics_mut().roll_window(now);
                match event {
                    PlannedEvent::FailDevice(d) => s.fail_device(d),
                    PlannedEvent::InsertSpare(d) => s.insert_spare(d),
                    PlannedEvent::Crash => {
                        s.crash();
                        let start = Instant::now();
                        s.recover().expect("restart recovery after a planned crash");
                        return Some(nanos_since(start));
                    }
                    other => panic!("single-target plans never schedule {other:?}"),
                }
                None
            }
            System::Cluster(c) => {
                c.apply_event(event);
                None
            }
        }
    }

    fn handle(&mut self, request: &reo_workload::Request) -> reo_core::RequestOutcome {
        match self {
            System::Single(s) => s.handle(request),
            System::Cluster(c) => c.handle(request),
        }
    }

    /// The quiesce step that ends every pass.
    fn finish(&mut self, workload: Workload) {
        match self {
            System::Single(s) => {
                s.drain_recovery(DRAIN_BATCHES);
            }
            System::Cluster(c) => {
                c.drain_recovery(DRAIN_BATCHES);
                if workload == Workload::ClusterReplica {
                    c.run_anti_entropy_pass();
                }
            }
        }
    }

    /// The nodes of the system (one for a single target; up nodes of a
    /// cluster).
    pub fn nodes(&self) -> Vec<&CacheSystem> {
        match self {
            System::Single(s) => vec![s.as_ref()],
            System::Cluster(c) => (0..c.targets_created())
                .filter(|&t| c.target_state(t) == reo_core::TargetState::Up)
                .map(|t| c.node(t))
                .collect(),
        }
    }

    /// The simulated end state.
    pub fn sim_state(&self) -> SimState {
        let flash_bytes = self
            .nodes()
            .iter()
            .map(|n| n.target().usage().total().as_bytes())
            .sum();
        match self {
            System::Single(s) => SimState {
                totals: s.metrics().totals(),
                parity: None,
                replication: None,
                overhead: None,
                flash_bytes,
                user_bytes: s.target().usage().user_bytes.as_bytes(),
            },
            System::Cluster(c) => {
                let overhead = c.flash_overhead();
                SimState {
                    totals: c.metrics_snapshot(),
                    parity: Some(c.parity_snapshot()),
                    replication: Some(c.replication_snapshot()),
                    overhead: Some(overhead),
                    flash_bytes,
                    user_bytes: overhead.primary_bytes,
                }
            }
        }
    }

    fn breakdown(&self) -> TraceBreakdown {
        match self {
            System::Single(s) => s.tracer().breakdown(),
            System::Cluster(c) => c.tracer().breakdown(),
        }
    }

    /// Checks the program's end state after the final drain. Returns one
    /// message per violated invariant.
    pub fn check(&self, trace: &Trace, sim: &SimState) -> Vec<String> {
        let mut errors = Vec::new();
        let n = trace.requests().len() as u64;
        if sim.totals.requests != n {
            errors.push(format!(
                "program counted {} requests for a trace of {n}",
                sim.totals.requests
            ));
        }
        let (lost, healthy, health) = match self {
            System::Single(s) => (
                s.dirty_data_lost(),
                s.health() == HealthState::Healthy,
                s.health().label(),
            ),
            System::Cluster(c) => {
                let health = c.health();
                (c.dirty_data_lost(), health.label == "healthy", health.label)
            }
        };
        if lost != 0 {
            errors.push(format!("{lost} acknowledged dirty objects lost"));
        }
        if !healthy {
            errors.push(format!(
                "did not quiesce to healthy after the final drain: {health}"
            ));
        }
        for (i, node) in self.nodes().iter().enumerate() {
            if let Err(e) = node.verify_internal() {
                errors.push(format!("node {i} failed verify_internal: {e:?}"));
            }
        }
        errors
    }
}

/// Drives one closed-loop pass of `trace` through `system` under the
/// workload's plan: one caller, the next request sent when the last
/// returns, each call timed from outside.
pub fn drive(workload: Workload, mut system: System, trace: &Trace, traced: bool) -> Pass {
    let requests = trace.requests();
    let n = requests.len();
    let plan = workload.plan(n);
    if traced {
        system.enable_tracing();
    }
    system.start_measurement();
    let mut call_start_ns = Vec::with_capacity(n);
    let mut call_ns = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    let mut events = Vec::new();
    let mut pending = plan.events.iter().peekable();

    let origin = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        while let Some(&&(at, event)) = pending.peek() {
            if at > i {
                break;
            }
            pending.next();
            let start_ns = nanos_since(origin);
            let recover_ns = system.apply(event);
            events.push(EventTiming {
                name: event_name(event),
                at: i,
                start_ns,
                dur_ns: nanos_since(origin) - start_ns,
                recover_ns,
            });
        }
        let start = Instant::now();
        let outcome = system.handle(request);
        let dur = start.elapsed().as_nanos();
        call_start_ns.push(start.duration_since(origin).as_nanos() as u64);
        call_ns.push(u32::try_from(dur).unwrap_or(u32::MAX));
        kinds.push(kind_of(
            request.op,
            outcome.hit,
            outcome.degraded,
            outcome.sense,
        ));
    }
    let start_ns = nanos_since(origin);
    system.finish(workload);
    let wall_ns = nanos_since(origin);
    events.push(EventTiming {
        name: "final_drain",
        at: n,
        start_ns,
        dur_ns: wall_ns - start_ns,
        recover_ns: None,
    });
    assert!(
        pending.next().is_none(),
        "every planned event fires inside the trace"
    );

    Pass {
        wall_ns,
        call_start_ns,
        call_ns,
        kinds,
        events,
        sim: system.sim_state(),
        breakdown: system.breakdown(),
        system,
    }
}

/// Drives the same trace and plan through the program's own runner
/// (`ExperimentRunner::run` or `ClusterSystem::run`), then the same
/// final drain, and returns the simulated end state.
pub fn drive_with_runner(workload: Workload, trace: &Trace) -> SimState {
    let plan = workload.plan(trace.requests().len());
    let mut system = workload.build(trace);
    match &mut system {
        System::Single(s) => {
            ExperimentRunner::run(s, trace, &plan);
        }
        System::Cluster(c) => {
            c.run(trace, &plan);
        }
    }
    system.finish(workload);
    system.sim_state()
}
