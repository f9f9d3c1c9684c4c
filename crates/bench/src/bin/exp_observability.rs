//! Observability self-test: postmortem determinism and the causal span
//! tree of a degraded request.
//!
//! Two parts, both on the medium workload with Reo-20%:
//!
//! 1. **Determinism** — a 4-target cluster chaos run (target outage
//!    mid-trace, restored later) executed twice from the same seed.
//!    The exported JSONL — trace exemplars, flight-recorder
//!    postmortems, SLO burn rates and all — must be byte-identical,
//!    and the run must retain at least one postmortem and one
//!    sense-coded exemplar.
//! 2. **Causality** — the slowest sense-coded exemplar is rendered as
//!    an indented span tree (placement → cache/target → stripe/journal
//!    → flash/backend) together with the postmortem event windows.
//!
//! The chaos run's report is written to `results/exp_observability.jsonl`.
//! The tracer's wall-clock overhead is not measured here but by the
//! repository benchmark (`reobench --trace 1`, see `BENCHMARK.json`).
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_observability [-- --quick]

use reo_bench::{export, RunScale};
use reo_core::{ClusterSystem, ExperimentPlan, PlannedEvent, SchemeConfig, SystemConfig};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

fn main() {
    let scale = RunScale::from_args();
    let spec = scale.scale_spec(WorkloadSpec::medium());
    let trace = spec.generate(42);
    let n = trace.requests().len();
    println!(
        "### Observability — medium workload, {} requests, Reo-20%",
        n
    );

    // Part 1: determinism. One chaos schedule, two identical runs; the
    // whole observable surface must replay byte-for-byte.
    let cache = trace.summary().data_set_bytes.scale(0.25);
    let config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32));
    let chaos_run = || {
        let mut cluster = ClusterSystem::new(config.clone(), 4);
        cluster.enable_tracing();
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(1))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
        let result = cluster.run(&trace, &plan);
        cluster.drain_recovery(1_000_000);
        export::collect_cluster_report("observability", "Reo-20%", &cluster, &result)
    };
    let report = chaos_run();
    let replay = chaos_run();
    let first = export::jsonl(&report);
    let second = export::jsonl(&replay);
    assert_eq!(
        first, second,
        "same seed must replay byte-identical traces, postmortems, and SLOs"
    );
    println!(
        "determinism: two same-seed chaos runs exported byte-identical JSONL ({} lines, {} bytes)",
        first.lines().count(),
        first.len()
    );
    assert!(
        !report.postmortems.is_empty(),
        "the target outage must dump at least one postmortem"
    );
    let sense_exemplars: Vec<_> = report
        .exemplars
        .iter()
        .filter(|t| t.sense.is_some())
        .cloned()
        .collect();
    assert!(
        !sense_exemplars.is_empty(),
        "the outage window must retain at least one sense-coded exemplar"
    );
    println!(
        "retained {} exemplars ({} sense-coded), {} postmortems",
        report.exemplars.len(),
        sense_exemplars.len(),
        report.postmortems.len()
    );

    // Part 2: the causal story of the slowest degraded request, plus
    // the flight-recorder windows around the outage.
    let slowest = sense_exemplars
        .iter()
        .max_by_key(|t| (t.latency, t.trace_id))
        .expect("non-empty")
        .clone();
    print!("{}", export::render_trace_trees(&[slowest]));
    print!("{}", export::render_postmortems(&report.postmortems));
    print!("{}", export::render_summary(&report));

    export::write_jsonl("exp_observability", &report);
    println!("observability self-test: OK");
}
