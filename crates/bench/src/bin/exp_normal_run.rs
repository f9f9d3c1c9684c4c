//! Figures 5, 6, 7 — normal run: hit ratio, bandwidth, and latency vs
//! cache size (4–12% of the data set) for the six protection schemes,
//! under weak / medium / strong locality workloads.
//!
//! With `--trace`, one additional deep-dive run per locality (Reo-20%,
//! 10% cache) records per-layer spans, per-class rows, the device table,
//! and a windowed time series, printing the exporter summary and writing
//! `results/trace_normal_run_<locality>.jsonl` (the schema the CI smoke
//! job validates).
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_normal_run [-- --locality weak|medium|strong] [--quick] [--trace]

use reo_bench::{build_system, cache_size_sweep, export, run_once, BenchArgs, FigureReport, Panel};
use reo_core::{
    parallel_map_ordered, sweep_threads, ExperimentPlan, ExperimentRunner, SchemeConfig,
};
use reo_sim::ByteSize;
use reo_workload::{Locality, Trace, WorkloadSpec};

fn spec_for(locality: Locality) -> WorkloadSpec {
    match locality {
        Locality::Weak => WorkloadSpec::weak(),
        Locality::Medium => WorkloadSpec::medium(),
        Locality::Strong => WorkloadSpec::strong(),
    }
}

/// The `--trace` deep dive: one traced, sampled Reo-20% run through the
/// shared exporter.
fn traced_run(locality: Locality, trace: &Trace) {
    let scheme = SchemeConfig::Reo { reserve: 0.20 };
    let mut system = build_system(scheme, trace, 0.10, ByteSize::from_kib(64));
    system.enable_tracing();
    let sample_every = (trace.requests().len() / 10).max(1);
    let plan = ExperimentPlan::normal_run().with_sampling(sample_every);
    let result = ExperimentRunner::run(&mut system, trace, &plan);
    let report = export::collect_run_report("normal_run", &scheme.label(), &system, &result);
    print!("{}", export::render_summary(&report));
    export::write_jsonl(&format!("trace_normal_run_{locality}"), &report);
}

fn main() {
    let args = BenchArgs::from_env();
    let figure = |l: Locality| match l {
        Locality::Weak => 5,
        Locality::Medium => 6,
        Locality::Strong => 7,
    };

    let localities = match args.locality {
        Some(locality) => vec![locality],
        None => vec![Locality::Weak, Locality::Medium, Locality::Strong],
    };
    for locality in localities {
        let spec = args.scale.scale_spec(spec_for(locality));
        let trace = spec.generate(42);
        let summary = trace.summary();
        println!(
            "\n### Figure {} — {} locality: {} objects ({:.2} GiB), {} read requests ({:.2} GiB accessed)",
            figure(locality),
            locality,
            summary.objects,
            summary.data_set_bytes.as_gib_f64(),
            summary.requests,
            summary.accessed_bytes.as_gib_f64(),
        );

        let xs: Vec<f64> = cache_size_sweep().iter().map(|f| f * 100.0).collect();
        let mut hit = Panel::new("Hit Ratio (%)", "Cache Size (%)", xs.clone());
        let mut bw = Panel::new("Bandwidth (MB/sec)", "Cache Size (%)", xs.clone());
        let mut lat = Panel::new("Latency (ms)", "Cache Size (%)", xs.clone());

        // Each (cache size, scheme) cell is an independent simulation;
        // fan them across cores and collect index-ordered so the panels
        // fill in exactly the serial nested-loop order.
        let cells: Vec<(f64, SchemeConfig)> = cache_size_sweep()
            .iter()
            .flat_map(|&fraction| {
                SchemeConfig::normal_run_set()
                    .into_iter()
                    .map(move |scheme| (fraction, scheme))
            })
            .collect();
        let results = parallel_map_ordered(&cells, sweep_threads(), |_, &(fraction, scheme)| {
            run_once(
                scheme,
                &trace,
                fraction,
                ByteSize::from_kib(64),
                &ExperimentPlan::normal_run(),
            )
        });
        for (&(_, scheme), result) in cells.iter().zip(&results) {
            let label = scheme.label();
            hit.push(&label, result.totals.hit_ratio_pct());
            bw.push(&label, result.totals.bandwidth_mib_s());
            lat.push(&label, result.totals.mean_latency_ms());
        }

        FigureReport::new("normal_run")
            .param("locality", locality)
            .panel(hit)
            .panel(bw)
            .panel(lat)
            .write(&format!("fig{}_normal_run_{}", figure(locality), locality));

        if args.trace {
            traced_run(locality, &trace);
        }
    }
}
