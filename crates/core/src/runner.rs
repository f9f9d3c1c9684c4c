//! The experiment runner: warm-up, failure injection, windowed metrics.

use reo_flashsim::DeviceId;
use reo_workload::Trace;

use crate::metrics::MetricsSnapshot;
use crate::system::CacheSystem;

/// An event injected at a request index (the paper injects failures "at
/// the 10,000th, 20,000th, 30,000th, 40,000th requests").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedEvent {
    /// Take a device offline (shootdown).
    FailDevice(DeviceId),
    /// Insert a blank spare in a (failed) device's slot and start
    /// prioritized recovery.
    InsertSpare(DeviceId),
    /// One round of seeded latent corruption: every intact chunk is
    /// independently lost with probability `ppm` parts per million
    /// (integer so the event stays `Eq`/hashable for plan comparisons).
    CorruptChunks {
        /// Per-chunk corruption probability in parts per million.
        ppm: u32,
    },
    /// Arm per-read transient timeouts at `ppm` parts per million on
    /// every device (`0` disarms).
    TransientFaults {
        /// Per-read timeout probability in parts per million.
        ppm: u32,
    },
    /// Scale one device's service times to `factor_pct` percent of
    /// nominal cost (e.g. `400` = 4x slower; `100` restores full speed).
    SlowDevice {
        /// The device to throttle.
        device: DeviceId,
        /// Service-time multiplier in percent (must be positive).
        factor_pct: u32,
    },
    /// Turn on the background scrubber (see
    /// [`CacheSystem::enable_scrubber`]).
    StartScrub,
    /// Take the backend server offline: misses, flushes, and write-through
    /// fallbacks start failing until [`PlannedEvent::RestoreBackend`].
    FailBackend,
    /// Bring the backend server back after a [`PlannedEvent::FailBackend`]
    /// outage.
    RestoreBackend,
    /// Scale the backend spindle's service times to `factor_pct` percent
    /// of nominal cost (e.g. `400` = 4x slower; `100` restores full
    /// speed).
    SlowBackend {
        /// Service-time multiplier in percent (must be positive).
        factor_pct: u32,
    },
    /// Sudden power loss followed by an immediate restart recovery: DRAM
    /// state vanishes (with a randomized torn journal tail drawn from the
    /// fault plan), then [`CacheSystem::recover`] replays checkpoint +
    /// journal before the next request is served.
    Crash,
    /// Take an entire target (cache node) of a cluster down — a
    /// node-level power loss: its DRAM state vanishes and its mapped
    /// objects flip to backend-first degraded service until
    /// [`PlannedEvent::RestoreTarget`]. Rejected (counted, never a
    /// panic) on single-target runs and on targets already down.
    FailTarget(usize),
    /// Bring a downed target (or its replacement hardware) back: journal
    /// replay restores its pre-outage state, then ring-delta
    /// invalidation drops exactly the entries that went stale behind the
    /// outage — never a full rescan.
    RestoreTarget(usize),
    /// Join a brand-new target to the cluster and start throttled
    /// ring-delta rebalancing toward it.
    AddTarget,
    /// Gracefully retire a target: flush its dirty set, migrate its
    /// mapped objects to the survivors, and drop it from the ring.
    /// Rejected for targets that are down (their journal is the only
    /// copy of their acknowledged dirty writes) and for the last target.
    RemoveTarget(usize),
    /// Seeded replica-divergence injection: every stamped, current
    /// replica copy in the cluster independently goes stale with
    /// probability `ppm` parts per million (its content-version stamp
    /// is rolled back). The anti-entropy pass must detect and repair
    /// every injected divergence — this event is the fault half of that
    /// acceptance check. Rejected on single-target runs and on clusters
    /// without a replication policy.
    InjectReplicaDivergence {
        /// Per-replica-copy divergence probability in parts per million.
        ppm: u32,
    },
}

/// The scripted schedule of an experiment.
#[derive(Clone, Debug, Default)]
pub struct ExperimentPlan {
    /// Full passes over the trace executed before measurement starts
    /// ("we first fully warm up the cache", Section VI-C). Metrics reset
    /// afterwards.
    pub warmup_passes: usize,
    /// `(request_index, event)` pairs, applied immediately before the
    /// request with that index of the measured pass. Indices must be
    /// non-decreasing.
    pub events: Vec<(usize, PlannedEvent)>,
    /// Record a [`TimeSeriesPoint`] every `sample_every` requests of the
    /// measured pass (`0` disables the recorder). The sampling window is
    /// independent of the event windows.
    pub sample_every: usize,
}

impl ExperimentPlan {
    /// A plan with no warm-up and no events (the normal-run experiments).
    pub fn normal_run() -> Self {
        ExperimentPlan::default()
    }

    /// Turns on the time-series recorder at `sample_every` requests per
    /// point.
    pub fn with_sampling(mut self, sample_every: usize) -> Self {
        self.sample_every = sample_every;
        self
    }

    /// The paper's failure-resistance schedule: warm cache, then one
    /// additional device failure every `step` requests, `failures` in
    /// total.
    pub fn staggered_failures(step: usize, failures: usize) -> Self {
        ExperimentPlan {
            warmup_passes: 1,
            events: (0..failures)
                .map(|i| ((i + 1) * step, PlannedEvent::FailDevice(DeviceId(i))))
                .collect(),
            ..Default::default()
        }
    }

    /// Adds one event at request index `at`, keeping the schedule sorted
    /// (events already scheduled at the same index stay ahead of the new
    /// one). The composition brick the cascade plans are built from.
    pub fn with_event(mut self, at: usize, event: PlannedEvent) -> Self {
        let insert_at = self.events.partition_point(|&(i, _)| i <= at);
        self.events.insert(insert_at, (at, event));
        self
    }

    /// The cascading-failure schedule of the ISSUE: fail a device, insert
    /// a spare (starting the rebuild), then fail a *second* device while
    /// the rebuild is still draining. Within the scheme's tolerance the
    /// rebuild must complete; beyond it the system degrades to backend
    /// serving — never a panic.
    ///
    /// # Panics
    ///
    /// Panics unless `fail_at < spare_at < second_at`.
    pub fn second_failure_during_rebuild(
        fail_at: usize,
        spare_at: usize,
        second_at: usize,
    ) -> Self {
        assert!(
            fail_at < spare_at && spare_at < second_at,
            "cascade events must be ordered: fail {fail_at} < spare {spare_at} < second {second_at}"
        );
        ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(fail_at, PlannedEvent::FailDevice(DeviceId(0)))
        .with_event(spare_at, PlannedEvent::InsertSpare(DeviceId(0)))
        .with_event(second_at, PlannedEvent::FailDevice(DeviceId(1)))
    }
}

/// The outcome of applying one planned event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventOutcome {
    /// Request index the event fired at.
    pub at_request: usize,
    /// The event.
    pub event: PlannedEvent,
    /// The measurement window that *ended* when this event fired.
    pub window_before: MetricsSnapshot,
    /// Failed devices after the event.
    pub failed_devices_after: usize,
}

/// One point of the periodic time-series recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeriesPoint {
    /// Request index (of the measured pass) the sampling window closed at.
    pub at_request: usize,
    /// Simulated instant the window closed at.
    pub time: reo_sim::SimTime,
    /// The measurements of the sampling window.
    pub window: MetricsSnapshot,
}

/// Everything an experiment run produced.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Totals over the measured pass.
    pub totals: MetricsSnapshot,
    /// Per-event outcomes, each carrying the window that preceded it.
    pub events: Vec<EventOutcome>,
    /// The final window (after the last event, or the whole run when no
    /// events fired).
    pub final_window: MetricsSnapshot,
    /// Space efficiency at the end of the run.
    pub space_efficiency: f64,
    /// Dirty objects permanently lost during the run.
    pub dirty_data_lost: u64,
    /// Periodic samples (empty unless [`ExperimentPlan::sample_every`]
    /// was set).
    pub series: Vec<TimeSeriesPoint>,
}

impl ExperimentResult {
    /// The per-window snapshots in order: the window before each event,
    /// then the final window. For the staggered-failure plan this is
    /// exactly the paper's "0 failures, 1 failure, 2 failures, …" series.
    pub fn windows(&self) -> Vec<&MetricsSnapshot> {
        let mut out: Vec<&MetricsSnapshot> = self.events.iter().map(|e| &e.window_before).collect();
        out.push(&self.final_window);
        out
    }
}

/// Applies one planned event to the system, maintaining the failed-device
/// count the windows are labeled with.
fn apply_event(system: &mut CacheSystem, event: PlannedEvent, failed: &mut usize) {
    match event {
        PlannedEvent::FailDevice(d) => {
            system.fail_device(d);
            *failed += 1;
        }
        PlannedEvent::InsertSpare(d) => {
            system.insert_spare(d);
            *failed = failed.saturating_sub(1);
        }
        PlannedEvent::CorruptChunks { ppm } => {
            system.inject_chunk_corruption(f64::from(ppm) / 1e6);
        }
        PlannedEvent::TransientFaults { ppm } => {
            system.arm_transient_faults(f64::from(ppm) / 1e6);
        }
        PlannedEvent::SlowDevice { device, factor_pct } => {
            system.slow_device(device, f64::from(factor_pct) / 100.0);
        }
        PlannedEvent::StartScrub => system.enable_scrubber(),
        PlannedEvent::FailBackend => system.fail_backend(),
        PlannedEvent::RestoreBackend => system.restore_backend(),
        PlannedEvent::SlowBackend { factor_pct } => {
            system.slow_backend(f64::from(factor_pct) / 100.0);
        }
        PlannedEvent::Crash => {
            system.crash();
            system
                .recover()
                .expect("restart recovery after a planned crash");
        }
        // Cluster-scoped events have no meaning on a single CacheSystem:
        // reject them (counted under a stable reason, traced, never a
        // panic) exactly like other misaddressed fault events. The
        // cluster runner handles them for real.
        PlannedEvent::FailTarget(_)
        | PlannedEvent::RestoreTarget(_)
        | PlannedEvent::AddTarget
        | PlannedEvent::RemoveTarget(_)
        | PlannedEvent::InjectReplicaDivergence { .. } => {
            system.reject_event("cluster-event-single-target");
        }
    }
}

/// Drives traces through systems according to plans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExperimentRunner;

impl ExperimentRunner {
    /// Runs `trace` through `system` under `plan`.
    ///
    /// The system should already be [`CacheSystem::populate`]d with the
    /// trace's objects (this function does it again idempotently for
    /// convenience — backend inserts are charge-free overwrites).
    ///
    /// # Panics
    ///
    /// Panics if event indices are not sorted in non-decreasing order.
    pub fn run(system: &mut CacheSystem, trace: &Trace, plan: &ExperimentPlan) -> ExperimentResult {
        assert!(
            plan.events.windows(2).all(|w| w[0].0 <= w[1].0),
            "event indices must be non-decreasing"
        );
        system.populate(trace.objects());

        // Warm-up spans, exemplars, and flight events are discarded at
        // measurement start anyway, so don't pay for recording them:
        // tracing pauses across the warm-up passes.
        let was_tracing = system.tracer().is_enabled();
        system.tracer().set_enabled(false);
        for _ in 0..plan.warmup_passes {
            for request in trace.requests() {
                system.handle(request);
            }
        }
        system.tracer().set_enabled(was_tracing);
        let now = system.clock().now();
        system.metrics_mut().reset_all(now);
        // Observability state restarts with measurement.
        system.tracer().reset();
        system.flight().reset();

        let mut events = plan.events.iter().peekable();
        let mut outcomes = Vec::new();
        let mut failed: usize = 0;
        let mut series = Vec::new();

        for (i, request) in trace.requests().iter().enumerate() {
            while let Some(&&(at, event)) = events.peek() {
                if at > i {
                    break;
                }
                events.next();
                let now = system.clock().now();
                let window_before = system.metrics_mut().roll_window(now);
                apply_event(system, event, &mut failed);
                outcomes.push(EventOutcome {
                    at_request: i,
                    event,
                    window_before,
                    failed_devices_after: failed,
                });
            }
            system.handle(request);
            if plan.sample_every > 0 && (i + 1).is_multiple_of(plan.sample_every) {
                let now = system.clock().now();
                series.push(TimeSeriesPoint {
                    at_request: i + 1,
                    time: now,
                    window: system.metrics_mut().roll_sample(now),
                });
            }
        }
        // Events scheduled past the end of the trace still fire.
        for &(at, event) in events {
            let now = system.clock().now();
            let window_before = system.metrics_mut().roll_window(now);
            apply_event(system, event, &mut failed);
            outcomes.push(EventOutcome {
                at_request: at,
                event,
                window_before,
                failed_devices_after: failed,
            });
        }

        ExperimentResult {
            totals: system.metrics().totals(),
            events: outcomes,
            final_window: system.metrics().window(),
            space_efficiency: system.space_efficiency(),
            dirty_data_lost: system.dirty_data_lost(),
            series,
        }
    }
}

/// Number of worker threads experiment sweeps should use: the machine's
/// available parallelism. The thread count never changes a sweep's
/// output (see [`parallel_map_ordered`]).
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fans `f` over `items` on a scoped worker pool and returns results in
/// item order — `out[i] == f(i, &items[i])` exactly as the serial loop
/// would produce them, regardless of which worker ran which item or in
/// what order they finished.
///
/// Workers claim items from a shared atomic cursor, so uneven cell costs
/// load-balance naturally. With `threads <= 1` (or one item) no threads
/// are spawned at all; callers get the plain serial loop. Determinism
/// argument: each cell owns an independent `&T` and writes only its own
/// slot, index-ordered collection restores serial order, and cells must
/// not share mutable state (enforced by `F: Sync` + the `&T` argument) —
/// so the output is a pure function of `items`, identical to the serial
/// path byte for byte.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads
/// first).
pub fn parallel_map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let workers = threads.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                slots.lock().expect("no poisoned workers")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("no poisoned workers")
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeConfig, SystemConfig};
    use reo_sim::ByteSize;
    use reo_workload::{Locality, WorkloadSpec};

    fn trace() -> Trace {
        WorkloadSpec {
            objects: 80,
            mean_object_size: ByteSize::from_kib(128),
            size_sigma: 0.5,
            locality: Locality::Medium,
            requests: 600,
            write_ratio: 0.0,
            temporal_reuse: reo_workload::Locality::Medium.temporal_reuse(),
            reuse_window: 100,
        }
        .generate(3)
    }

    fn system(scheme: SchemeConfig, trace: &Trace) -> CacheSystem {
        let cache = trace.summary().data_set_bytes.scale(0.15);
        let mut cfg = SystemConfig::paper_defaults(scheme, cache);
        cfg.chunk_size = ByteSize::from_kib(16);
        CacheSystem::new(cfg)
    }

    #[test]
    fn normal_run_has_one_window() {
        let t = trace();
        let mut sys = system(SchemeConfig::Parity(1), &t);
        let result = ExperimentRunner::run(&mut sys, &t, &ExperimentPlan::normal_run());
        assert!(result.events.is_empty());
        assert_eq!(result.totals.requests, 600);
        assert_eq!(result.windows().len(), 1);
        assert_eq!(result.final_window.requests, 600);
    }

    #[test]
    fn warmup_raises_measured_hit_ratio() {
        let t = trace();
        let mut cold = system(SchemeConfig::Parity(0), &t);
        let cold_result = ExperimentRunner::run(&mut cold, &t, &ExperimentPlan::normal_run());

        let mut warm = system(SchemeConfig::Parity(0), &t);
        let warm_plan = ExperimentPlan {
            warmup_passes: 1,
            events: vec![],
            ..Default::default()
        };
        let warm_result = ExperimentRunner::run(&mut warm, &t, &warm_plan);
        assert!(
            warm_result.totals.hit_ratio_pct() >= cold_result.totals.hit_ratio_pct(),
            "warm {} < cold {}",
            warm_result.totals.hit_ratio_pct(),
            cold_result.totals.hit_ratio_pct()
        );
    }

    #[test]
    fn staggered_failures_produce_ordered_windows() {
        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let plan = ExperimentPlan::staggered_failures(150, 3);
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events.len(), 3);
        assert_eq!(result.windows().len(), 4);
        for (i, e) in result.events.iter().enumerate() {
            assert_eq!(e.failed_devices_after, i + 1);
            assert_eq!(e.at_request, (i + 1) * 150);
        }
        // Hit ratio after failures should not exceed the pre-failure one.
        let pre = result.events[0].window_before.hit_ratio_pct();
        let post = result.final_window.hit_ratio_pct();
        assert!(post <= pre + 1e-9, "pre {pre} post {post}");
    }

    #[test]
    fn spare_insertion_reduces_failed_count() {
        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let plan = ExperimentPlan {
            warmup_passes: 0,
            events: vec![
                (100, PlannedEvent::FailDevice(DeviceId(0))),
                (200, PlannedEvent::InsertSpare(DeviceId(0))),
            ],
            ..Default::default()
        };
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events[0].failed_devices_after, 1);
        assert_eq!(result.events[1].failed_devices_after, 0);
    }

    #[test]
    fn sampling_records_a_time_series() {
        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let plan = ExperimentPlan::normal_run().with_sampling(100);
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.series.len(), 6, "600 requests / 100 per sample");
        assert_eq!(
            result.series.iter().map(|p| p.window.requests).sum::<u64>(),
            600,
            "sampling windows partition the run"
        );
        for (i, p) in result.series.iter().enumerate() {
            assert_eq!(p.at_request, (i + 1) * 100);
        }
        assert!(
            result.series.windows(2).all(|w| w[0].time <= w[1].time),
            "sample times are monotone"
        );
        // The recorder must not disturb the event windows or totals.
        assert_eq!(result.totals.requests, 600);
        assert_eq!(result.final_window.requests, 600);
    }

    #[test]
    fn planned_crash_recovers_and_keeps_serving() {
        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let plan = ExperimentPlan {
            warmup_passes: 0,
            events: vec![(300, PlannedEvent::Crash)],
            ..Default::default()
        };
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].failed_devices_after, 0);
        assert!(result.totals.recovery_duration_us > 0);
        assert!(result.totals.checkpoint_count >= 2);
        assert!(
            result.final_window.hit_ratio_pct() > 0.0,
            "the recovered cache must serve hits in the post-crash window"
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_events_panic() {
        let t = trace();
        let mut sys = system(SchemeConfig::Parity(0), &t);
        let plan = ExperimentPlan {
            warmup_passes: 0,
            events: vec![
                (200, PlannedEvent::FailDevice(DeviceId(0))),
                (100, PlannedEvent::FailDevice(DeviceId(1))),
            ],
            ..Default::default()
        };
        let _ = ExperimentRunner::run(&mut sys, &t, &plan);
    }

    #[test]
    fn events_past_trace_end_still_fire() {
        let t = trace();
        let mut sys = system(SchemeConfig::Parity(1), &t);
        let plan = ExperimentPlan {
            warmup_passes: 0,
            events: vec![(10_000, PlannedEvent::FailDevice(DeviceId(0)))],
            ..Default::default()
        };
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].window_before.requests, 600);
    }

    #[test]
    fn partial_failure_events_drive_the_fault_machinery() {
        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let plan = ExperimentPlan {
            warmup_passes: 1,
            events: vec![
                (0, PlannedEvent::StartScrub),
                (0, PlannedEvent::TransientFaults { ppm: 2_000 }),
                (150, PlannedEvent::CorruptChunks { ppm: 50_000 }),
                (
                    300,
                    PlannedEvent::SlowDevice {
                        device: DeviceId(1),
                        factor_pct: 300,
                    },
                ),
            ],
            ..Default::default()
        };
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events.len(), 4);
        // Partial failures never change the failed-device count.
        assert!(result.events.iter().all(|e| e.failed_devices_after == 0));
        assert_eq!(result.totals.requests, 600);
        // The injected corruption surfaced somewhere: as a degraded read
        // (repaired or not) or as a scrubber catch.
        assert!(
            result.totals.medium_errors > 0,
            "5% chunk corruption over 450 requests must surface"
        );
        assert!(result.totals.scrub_passes > 0, "scrubber ran");
    }

    #[test]
    fn with_event_keeps_the_schedule_sorted() {
        let plan = ExperimentPlan::normal_run()
            .with_event(300, PlannedEvent::FailBackend)
            .with_event(100, PlannedEvent::FailDevice(DeviceId(0)))
            .with_event(300, PlannedEvent::RestoreBackend)
            .with_event(200, PlannedEvent::SlowBackend { factor_pct: 400 });
        let indices: Vec<usize> = plan.events.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![100, 200, 300, 300]);
        // Equal indices preserve insertion order: FailBackend fired first.
        assert_eq!(plan.events[2].1, PlannedEvent::FailBackend);
        assert_eq!(plan.events[3].1, PlannedEvent::RestoreBackend);
    }

    #[test]
    fn backend_outage_events_drive_degraded_service() {
        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(100, PlannedEvent::SlowBackend { factor_pct: 300 })
        .with_event(200, PlannedEvent::FailBackend)
        .with_event(400, PlannedEvent::RestoreBackend);
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events.len(), 3);
        // Backend faults never touch the flash-device failure count.
        assert!(result.events.iter().all(|e| e.failed_devices_after == 0));
        let snap = sys.resilience();
        assert!(
            sys.backend().fault().stats().outages == 1
                && sys.backend().fault().stats().restores == 1,
            "outage window opened and closed"
        );
        assert_eq!(snap.health, "healthy", "restored backend heals the system");
        assert_eq!(sys.dirty_data_lost(), 0);
    }

    #[test]
    fn cascade_plan_composes_the_second_failure() {
        let plan = ExperimentPlan::second_failure_during_rebuild(100, 200, 300);
        assert_eq!(plan.warmup_passes, 1);
        assert_eq!(
            plan.events,
            vec![
                (100, PlannedEvent::FailDevice(DeviceId(0))),
                (200, PlannedEvent::InsertSpare(DeviceId(0))),
                (300, PlannedEvent::FailDevice(DeviceId(1))),
            ]
        );

        let t = trace();
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t);
        let result = ExperimentRunner::run(&mut sys, &t, &plan);
        assert_eq!(result.events.len(), 3);
        assert_eq!(result.events[2].failed_devices_after, 1);
        // The run must end without a panic and without losing dirty data.
        assert_eq!(result.dirty_data_lost, 0);
    }

    #[test]
    #[should_panic(expected = "must be ordered")]
    fn cascade_plan_rejects_unordered_indices() {
        let _ = ExperimentPlan::second_failure_during_rebuild(200, 100, 300);
    }

    #[test]
    fn parallel_map_ordered_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_ordered(&items, threads, |i, x| x * 3 + i as u64);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_ordered_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_ordered(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(
            parallel_map_ordered(&[9u32], 4, |i, x| (i, *x)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn parallel_map_ordered_keeps_order_under_uneven_cell_costs() {
        // Make early indices the slowest so completion order inverts
        // submission order; collection must still be index-ordered.
        let items: Vec<u64> = (0..16).collect();
        let got = parallel_map_ordered(&items, 4, |i, x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - i as u64));
            *x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn sweep_threads_is_at_least_one() {
        assert!(sweep_threads() >= 1);
    }
}
