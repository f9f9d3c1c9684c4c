//! The Reo reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path reobench/Cargo.toml -- \
//!     --workload <read_medium|write_recover|cluster_parity|cluster_replica|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline -q --manifest-path reobench/Cargo.toml -- --list-metrics
//! ```
//!
//! A run generates several traces from `--seed` (more for a longer
//! `--seconds`) and drives each through a fresh `CacheSystem` or
//! `ClusterSystem` in a closed loop: one caller, every public call timed
//! from outside. `--trace 0` reports the end-to-end metrics over all the
//! run's passes; `--trace 1` runs interleaved untraced/traced passes and
//! reports the per-layer metrics. Either way the program's outputs
//! are checked, raw samples and the host fingerprint go to
//! `reobench/out/`, and the last line of standard output is one JSON
//! result. Any failed check exits with 1.

mod calib;
mod host;
mod metrics;
mod micro;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use reo_sim::Layer;
use reo_workload::Trace;
use serde::Value;

use metrics::MetricDef;
use stats::{median, quantile_sorted};
use workload::{drive, drive_with_runner, CallKind, Pass, SimState, System, Workload, TARGETS};

/// Fewest untraced/traced pairs a traced run takes.
const MIN_PAIRS: usize = 2;

/// Set-ups timed before each pass (the last one's system is driven).
const SETUP_REPS: usize = 3;

/// Where each run's raw samples and spans are written, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "reobench/out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: reobench --workload <read_medium|write_recover|cluster_parity|cluster_replica|all> \
--seed <n> --seconds <s> --trace <0|1>  |  reobench --list-metrics";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-up samples: each is trace generation + build + populate.
#[derive(Default)]
struct Setup {
    total_s: Vec<f64>,
    generate_s: Vec<f64>,
}

impl Setup {
    /// Sets up the run's `index`-th trace [`SETUP_REPS`] times, timing
    /// each, and returns the last trace and system.
    fn run(&mut self, w: Workload, seed: u64, index: usize) -> (Trace, System) {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let trace = w.generate(seed, index);
            self.generate_s.push(start.elapsed().as_secs_f64());
            let system = w.build(&trace);
            self.total_s.push(start.elapsed().as_secs_f64());
            last = Some((trace, system));
        }
        last.expect("at least one set-up")
    }
}

/// What one run found, across all its passes.
struct RunOutcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static MetricDef, f64)>,
    samples: Value,
}

/// Per-pass figures kept as raw samples.
struct PassSample {
    trace_index: usize,
    traced: bool,
    wall_s: f64,
    req_per_s: f64,
    call_p50_us: f64,
    call_p999_us: f64,
    sim: [(&'static str, f64); 4],
    /// Untraced runs: [`calib::NOMINAL_NS`] over the reference time
    /// around the pass; the factor its wall times are scaled by.
    host_scale: Option<f64>,
}

impl PassSample {
    fn of(trace_index: usize, pass: &Pass, traced: bool) -> PassSample {
        let wall_s = pass.wall_ns as f64 / 1e9;
        let sorted = sorted_us(&pass.call_ns);
        PassSample {
            trace_index,
            traced,
            wall_s,
            req_per_s: pass.call_ns.len() as f64 / wall_s,
            call_p50_us: quantile_sorted(&sorted, 0.5) / 1e3,
            call_p999_us: quantile_sorted(&sorted, 0.999) / 1e3,
            sim: sim_metrics(&pass.sim),
            host_scale: None,
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "trace_index".to_string(),
                Value::U(self.trace_index as u128),
            ),
            ("traced".into(), Value::Bool(self.traced)),
            ("wall_s".into(), Value::F(self.wall_s)),
            ("req_per_s".into(), Value::F(self.req_per_s)),
            ("call_p50_us".into(), Value::F(self.call_p50_us)),
            ("call_p999_us".into(), Value::F(self.call_p999_us)),
        ];
        fields.extend(self.sim.iter().map(|&(k, v)| (k.to_string(), Value::F(v))));
        if let Some(scale) = self.host_scale {
            fields.push(("host_scale".into(), Value::F(scale)));
        }
        Value::Map(fields)
    }
}

/// Checks a pass against the program's invariants.
fn check_pass(label: &str, pass: &Pass, trace: &Trace, errors: &mut Vec<String>) {
    if pass.call_ns.len() != trace.requests().len() {
        errors.push(format!(
            "{label}: {} handle() calls for a trace of {}",
            pass.call_ns.len(),
            trace.requests().len()
        ));
    }
    errors.extend(
        pass.system
            .check(trace, &pass.sim)
            .into_iter()
            .map(|e| format!("{label}: {e}")),
    );
}

/// Runs the run's first trace through the program's own runner in a
/// child process and returns that process's peak resident memory (MiB)
/// and the fingerprint of the simulated end state it reached.
///
/// A fresh process measures the memory one trace needs, free of what
/// earlier passes left in this process's allocator.
fn runner_pass(w: Workload, seed: u64) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--runner-pass",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start the runner pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "runner pass failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("runner pass output: {e}"))?;
    let (rss, sim) = text
        .split_once('\n')
        .ok_or("runner pass printed no state")?;
    let rss = rss
        .parse()
        .map_err(|_| format!("runner pass printed {rss:?} for its memory"))?;
    Ok((rss, sim.trim_end().to_string()))
}

/// The child side of [`runner_pass`].
fn runner_pass_child(argv: &[String]) -> ExitCode {
    let (Some(w), Some(seed)) = (
        argv.get(2).and_then(|n| Workload::from_name(n)),
        argv.get(4).and_then(|s| s.parse().ok()),
    ) else {
        eprintln!("reobench: bad --runner-pass arguments {argv:?}");
        return ExitCode::from(2);
    };
    let sim = drive_with_runner(w, &w.generate(seed, 0));
    println!("{}\n{}", host::peak_rss_mib(), sim.fingerprint());
    ExitCode::SUCCESS
}

/// The runner pass on trace 0 must reach `sim`, the state the
/// benchmark's per-call loop reached on the same trace. Returns the
/// runner process's peak memory.
fn check_runner(w: Workload, seed: u64, sim: &SimState, errors: &mut Vec<String>) -> f64 {
    match runner_pass(w, seed) {
        Ok((rss, runner)) => {
            if runner != sim.fingerprint() {
                errors.push(
                    "trace 0: the program's runner and the benchmark's loop reach different simulated end states"
                        .to_string(),
                );
            }
            rss
        }
        Err(e) => {
            errors.push(e);
            0.0
        }
    }
}

/// Two runs of the same trace must reach the same simulated end state.
fn check_same(label: &str, a: &SimState, b: &SimState, errors: &mut Vec<String>) {
    if a != b {
        errors.push(format!(
            "{label}: simulated end states differ for the same trace"
        ));
    }
}

fn floats(v: &[f64]) -> Value {
    Value::Seq(v.iter().map(|&x| Value::F(x)).collect())
}

fn sorted_us(calls: &[u32]) -> Vec<u32> {
    let mut sorted = calls.to_vec();
    sorted.sort_unstable();
    sorted
}

/// End-to-end metrics computed from simulated time and counters alone:
/// the same seed gives the same value on any host. Result files list
/// them, so a comparison can judge them seed by seed.
const SAME_SEED: [&str; 5] = [
    "served_pct",
    "hit_ratio_pct",
    "sim_p99_ms",
    "sim_bandwidth_mib_s",
    "flash_per_user_byte",
];

fn sim_metrics(sim: &SimState) -> [(&'static str, f64); 4] {
    let t = &sim.totals;
    let values = [
        t.hit_ratio_pct(),
        t.p99_latency.as_nanos() as f64 / 1e6,
        t.bandwidth_mib_s(),
        sim.flash_per_user_byte(),
    ];
    std::array::from_fn(|i| (SAME_SEED[i + 1], values[i]))
}

/// Resolves computed `(name, value)` pairs against the declared table,
/// so a run reports exactly the declared metrics.
fn resolve(defs: &'static [MetricDef], values: Vec<(&str, f64)>) -> Vec<(&'static MetricDef, f64)> {
    let by_name: BTreeMap<&str, f64> = values.iter().copied().collect();
    assert_eq!(by_name.len(), values.len(), "a metric is computed twice");
    assert_eq!(
        by_name.len(),
        defs.len(),
        "computed and declared metrics differ"
    );
    defs.iter()
        .map(|d| {
            let v = *by_name
                .get(d.name.as_str())
                .unwrap_or_else(|| panic!("declared metric {} is not computed", d.name));
            (d, v)
        })
        .collect()
}

/// `--trace 0`: one untraced pass over each of the run's traces, then the
/// first trace once more through the program's own runner, which must
/// reach the same simulated end state as the benchmark's per-call loop.
///
/// The reference workload is timed before each pass and after the last.
/// Wall-clock metrics are scaled to [`calib::NOMINAL_NS`]: a pass by the
/// mean of the references around it, a set-up by the reference right after
/// it. The raw figures stay in the samples.
fn measured_run(w: Workload, seed: u64, seconds: f64) -> RunOutcome {
    let mut setup = Setup::default();
    let mut errors = Vec::new();
    let mut passes = Vec::new();
    let mut pass_calls = Vec::new();
    let mut ref_ns = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first = None;
    for index in 0..w.traces_per_run(seconds) {
        let (trace, system) = setup.run(w, seed, index);
        ref_ns.push(calib::reference_ns());
        let pass = drive(w, system, &trace, false);
        check_pass(&format!("trace {index}"), &pass, &trace, &mut errors);
        passes.push(PassSample::of(index, &pass, false));
        attempted += pass.call_ns.len() as u64;
        failed += pass.failed();
        pass_calls.push(pass.call_ns);
        if first.is_none() {
            first = Some(pass.sim);
        }
    }
    ref_ns.push(calib::reference_ns());
    let mut calls: Vec<u32> = Vec::new();
    let mut scaled_wall_s = 0.0;
    for (i, (sample, call_ns)) in passes.iter_mut().zip(&pass_calls).enumerate() {
        let scale = calib::NOMINAL_NS * 2.0 / (ref_ns[i] + ref_ns[i + 1]);
        sample.host_scale = Some(scale);
        scaled_wall_s += sample.wall_s * scale;
        calls.extend(call_ns.iter().map(|&ns| (f64::from(ns) * scale) as u32));
    }
    let setup_s: Vec<f64> = setup
        .total_s
        .iter()
        .enumerate()
        .map(|(k, t)| t * calib::NOMINAL_NS / ref_ns[k / SETUP_REPS])
        .collect();
    let sim = first.expect("at least one trace");
    let rss = check_runner(w, seed, &sim, &mut errors);

    calls.sort_unstable();
    let mut values = vec![
        ("setup_s", median(&setup_s)),
        ("req_per_s", attempted as f64 / scaled_wall_s),
        ("call_p50_us", quantile_sorted(&calls, 0.5) / 1e3),
        // A trace whose own tail is heavy must not set the run's tail.
        (
            "call_p999_us",
            median(
                &passes
                    .iter()
                    .map(|p| p.call_p999_us * p.host_scale.unwrap_or(1.0))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("peak_rss_mib", rss),
        (
            "served_pct",
            100.0 * (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ];
    // Simulated figures repeat exactly per trace; their mean over the
    // run's traces smooths the histogram buckets a p99 falls into.
    for (i, &(name, _)) in passes[0].sim.iter().enumerate() {
        values.push((
            name,
            passes.iter().map(|p| p.sim[i].1).sum::<f64>() / passes.len() as f64,
        ));
    }
    let samples = Value::Map(vec![
        (
            "passes".into(),
            Value::Seq(passes.iter().map(PassSample::to_value).collect()),
        ),
        ("setup_s".into(), floats(&setup.total_s)),
        ("generate_s".into(), floats(&setup.generate_s)),
        ("reference_ns".into(), floats(&ref_ns)),
        ("call_samples".into(), Value::U(calls.len() as u128)),
        (
            "failed_pct".into(),
            Value::F(100.0 * failed as f64 / attempted.max(1) as f64),
        ),
    ]);
    RunOutcome {
        errors,
        attempted,
        failed,
        metrics: resolve(&metrics::table().end_to_end, values),
        samples,
    }
}

/// Wall-time samples the per-layer metrics are medians of, pooled over
/// the untraced passes of a traced run.
#[derive(Default)]
struct WallSplit {
    by_kind: BTreeMap<&'static str, Vec<u32>>,
    events_ms: BTreeMap<&'static str, Vec<f64>>,
    recover_ms: Vec<f64>,
    calls: u64,
}

impl WallSplit {
    fn add(&mut self, pass: &Pass) {
        for (&kind, &ns) in pass.kinds.iter().zip(&pass.call_ns) {
            self.by_kind.entry(kind.label()).or_default().push(ns);
        }
        for e in &pass.events {
            self.events_ms
                .entry(e.name)
                .or_default()
                .push(e.dur_ns as f64 / 1e6);
            if let Some(ns) = e.recover_ns {
                self.recover_ms.push(ns as f64 / 1e6);
            }
        }
        self.calls += pass.call_ns.len() as u64;
    }

    fn kind_us(&self, kind: CallKind) -> f64 {
        self.by_kind
            .get(kind.label())
            .map_or(0.0, |v| quantile_sorted(&sorted_us(v), 0.5) / 1e3)
    }

    fn event_ms(&self, name: &str) -> f64 {
        self.events_ms.get(name).map_or(0.0, |v| median(v))
    }
}

fn sim_ms(d: reo_sim::SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Counters and simulated-time figures of the per-layer table, read from
/// the system after a pass and from the traced pass's breakdown.
fn counter_metrics(untraced: &Pass, traced: &Pass) -> Vec<(&'static str, f64)> {
    let sim = &untraced.sim;
    let t = &sim.totals;
    let requests = t.requests.max(1) as f64;
    let per_kreq = |x: u64| 1000.0 * x as f64 / requests;
    let nodes = untraced.system.nodes();

    let devices: Vec<_> = nodes.iter().flat_map(|n| n.device_stats()).collect();
    let ops: u64 = devices.iter().map(|d| d.stats.reads + d.stats.writes).sum();
    let queued: u64 = devices.iter().map(|d| d.stats.queued_nanos).sum();
    let erases: u64 = devices.iter().map(|d| d.stats.erases_estimated).sum();

    let (mut admissions, mut removals, mut promotions, mut demotions) = (0, 0, 0, 0);
    let (mut rebuilt, mut ttr) = (0, [-1i64; 4]);
    for n in &nodes {
        let c = n.cache_stats();
        admissions += c.admissions;
        removals += c.removals;
        promotions += c.promotions;
        demotions += c.demotions;
        rebuilt += n.target().stats().rebuilds;
        for (slot, v) in ttr.iter_mut().zip(n.resilience().ttr_us) {
            *slot = (*slot).max(v);
        }
    }
    let mut backends: Vec<reo_backend::BackendStats> =
        nodes.iter().map(|n| n.backend().stats()).collect();
    let mut migrations = 0;
    if let System::Cluster(c) = &untraced.system {
        backends.push(c.origin().stats());
        migrations = c.target_rows().iter().map(|r| r.migrated_in).sum();
    }
    let backend_reads: u64 = backends.iter().map(|b| b.reads).sum();
    let backend_writes: u64 = backends.iter().map(|b| b.writes).sum();
    let backend_bytes: u64 = backends
        .iter()
        .map(|b| b.bytes_read + b.bytes_written)
        .sum();

    let parity = sim.parity.unwrap_or_default();
    let replication = sim.replication.unwrap_or_default();
    let b = &traced.breakdown;
    let stripe_spans = b.layer(Layer::Stripe).map_or(0, |l| l.spans);
    vec![
        ("flashsim.chunk_ops_per_req", ops as f64 / requests),
        ("stripe.spans_per_req", stripe_spans as f64 / requests),
        ("flashsim.erases", erases as f64),
        (
            "flashsim.sim_queue_delay_ms",
            queued as f64 / ops.max(1) as f64 / 1e6,
        ),
        ("flashsim.sim_excl_ms", sim_ms(b.exclusive(Layer::Flash))),
        ("cache.admissions_per_kreq", per_kreq(admissions)),
        ("cache.evictions_per_kreq", per_kreq(removals)),
        ("cache.promotions_per_kreq", per_kreq(promotions)),
        ("cache.demotions_per_kreq", per_kreq(demotions)),
        (
            "journal.appends_per_write",
            if t.writes == 0 {
                0.0
            } else {
                t.journal_appends as f64 / t.writes as f64
            },
        ),
        ("journal.checkpoints", t.checkpoint_count as f64),
        ("journal.replayed_records", t.replayed_records as f64),
        ("osd-target.ttr_metadata_us", ttr[0] as f64),
        ("osd-target.ttr_dirty_us", ttr[1] as f64),
        ("osd-target.ttr_hot_clean_us", ttr[2] as f64),
        ("osd-target.ttr_cold_clean_us", ttr[3] as f64),
        ("osd-target.rebuilt_objects", rebuilt as f64),
        ("backend.reads", backend_reads as f64),
        ("backend.writes", backend_writes as f64),
        ("backend.mib", backend_bytes as f64 / (1u64 << 20) as f64),
        ("backend.sim_excl_ms", sim_ms(b.exclusive(Layer::Backend))),
        ("placement.migrations", migrations as f64),
        (
            "placement.sim_excl_ms",
            sim_ms(b.exclusive(Layer::Placement)),
        ),
        ("cluster.served_by_parity", parity.parity_serves as f64),
        (
            "cluster.reconstructed_mib",
            parity.reconstructed_bytes as f64 / (1u64 << 20) as f64,
        ),
        (
            "cluster.served_by_replica",
            replication.replica_serves as f64,
        ),
        (
            "cluster.divergences_repaired",
            replication.divergences_repaired as f64,
        ),
    ]
}

/// Runs each layer's micro-benchmark on the workload's configuration and
/// trace.
fn micro_metrics(w: Workload, trace: &Trace) -> Vec<(&'static str, f64)> {
    let config = w.config(trace);
    let (data, parity) = if w.is_cluster() {
        (3, 1)
    } else {
        (config.devices - 1, 1)
    };
    let erasure = micro::erasure_cost(data, parity, config.chunk_size.as_bytes() as usize);
    vec![
        (
            "stripe.ns_per_chunk",
            micro::stripe_ns_per_chunk(&config, trace),
        ),
        (
            "cache.ns_per_access",
            micro::cache_ns_per_access(&config, trace),
        ),
        (
            "journal.ns_per_append",
            micro::journal_ns_per_append(&config, trace),
        ),
        (
            "placement.ns_per_lookup",
            micro::placement_ns_per_lookup(&config, TARGETS, trace),
        ),
        ("erasure.encode_gib_s", erasure.encode_gib_s),
        ("erasure.reconstruct_gib_s", erasure.reconstruct_gib_s),
    ]
}

/// `--trace 1`: interleaved untraced/traced pass pairs, one pair per
/// trace, alternating which runs first, over half as many traces as an
/// untraced run of the same length (at least [`MIN_PAIRS`]). Per-layer
/// metrics come from the untraced legs' wall times, the traced legs'
/// breakdown, the program's counters and the layer micro-benchmarks. Writes the
/// first traced pass's spans.
fn traced_run(w: Workload, seed: u64, seconds: f64, stamp: &str) -> RunOutcome {
    let mut setup = Setup::default();
    let mut errors = Vec::new();
    let mut split = WallSplit::default();
    let mut overhead_pct = Vec::new();
    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut kept: (Option<Pass>, Option<Pass>) = (None, None);
    let mut first_trace = None;
    for index in 0..(w.traces_per_run(seconds) / 2).max(MIN_PAIRS) {
        let order = if index % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut legs: [Option<Pass>; 2] = [None, None];
        let mut trace = None;
        for traced in order {
            let (t, system) = setup.run(w, seed, index);
            let pass = drive(w, system, &t, traced);
            let label = format!(
                "trace {index} {}",
                if traced { "traced" } else { "untraced" }
            );
            check_pass(&label, &pass, &t, &mut errors);
            passes.push(PassSample::of(index, &pass, traced));
            attempted += pass.call_ns.len() as u64;
            failed += pass.failed();
            if !traced {
                split.add(&pass);
            }
            legs[usize::from(traced)] = Some(pass);
            trace = Some(t);
        }
        let [Some(untraced), Some(traced)] = legs else {
            unreachable!("every pair runs one untraced and one traced pass")
        };
        // Tracing observes the simulation; it must not change it.
        check_same(
            &format!("trace {index} traced vs untraced"),
            &untraced.sim,
            &traced.sim,
            &mut errors,
        );
        overhead_pct.push(100.0 * (traced.wall_ns as f64 / untraced.wall_ns as f64 - 1.0));
        if kept.0.is_none() {
            kept = (Some(untraced), Some(traced));
            first_trace = trace;
        }
    }
    let (Some(untraced), Some(traced)) = kept else {
        unreachable!("at least one pair")
    };
    let trace = first_trace.expect("at least one pair");
    check_runner(w, seed, &untraced.sim, &mut errors);
    if traced.breakdown.requests != trace.requests().len() as u64 {
        errors.push(format!(
            "tracer delimited {} requests for a trace of {}",
            traced.breakdown.requests,
            trace.requests().len()
        ));
    }

    let mut values = vec![
        ("core.handle_read_hit_us", split.kind_us(CallKind::ReadHit)),
        (
            "core.handle_read_miss_us",
            split.kind_us(CallKind::ReadMiss),
        ),
        ("core.handle_write_us", split.kind_us(CallKind::Write)),
        ("core.handle_degraded_us", split.kind_us(CallKind::Degraded)),
        ("core.event_ms.fail_device", split.event_ms("fail_device")),
        ("core.event_ms.insert_spare", split.event_ms("insert_spare")),
        (
            "core.event_ms.crash_recover",
            split.event_ms("crash_recover"),
        ),
        ("core.event_ms.fail_target", split.event_ms("fail_target")),
        (
            "core.event_ms.restore_target",
            split.event_ms("restore_target"),
        ),
        ("core.event_ms.final_drain", split.event_ms("final_drain")),
        ("journal.recover_ms", median(&split.recover_ms)),
        ("workload.generate_s", median(&setup.generate_s)),
        ("sim.trace_overhead_pct", median(&overhead_pct)),
        ("core.handle_calls", split.calls as f64),
    ];
    values.extend(counter_metrics(&untraced, &traced));
    values.extend(micro_metrics(w, &trace));
    let metrics = resolve(&metrics::table().per_layer, values);

    let spans_path = format!("{OUT_DIR}/{}-seed{seed}-spans-{stamp}.json", w.name());
    if let Err(e) = write_json(&spans_path, &spans_document(w, seed, &traced, &metrics)) {
        errors.push(format!("could not write {spans_path}: {e}"));
    }
    let samples = Value::Map(vec![
        (
            "passes".into(),
            Value::Seq(passes.iter().map(PassSample::to_value).collect()),
        ),
        ("trace_overhead_pct".into(), floats(&overhead_pct)),
        ("setup_s".into(), floats(&setup.total_s)),
        ("generate_s".into(), floats(&setup.generate_s)),
        ("spans_file".into(), Value::Str(spans_path)),
    ]);
    RunOutcome {
        errors,
        attempted,
        failed,
        metrics,
        samples,
    }
}

/// `{name: {"value": v, "unit": u}}`, the result line's metric map.
fn metric_values<'a>(metrics: impl IntoIterator<Item = (String, &'a MetricDef, f64)>) -> Value {
    Value::Map(
        metrics
            .into_iter()
            .map(|(name, d, v)| {
                let entry = vec![
                    ("value".into(), Value::F(v)),
                    ("unit".into(), Value::Str(d.unit.clone())),
                ];
                (name, Value::Map(entry))
            })
            .collect(),
    )
}

/// Serializes a value tree built by hand.
struct Json<'a>(&'a Value);

impl serde::Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// The traced pass written out: one span per `handle()` call and per
/// event keyed by request index, the tracer's simulated-time breakdown,
/// and the per-layer metrics with what each should move.
fn spans_document(
    w: Workload,
    seed: u64,
    traced: &Pass,
    metrics: &[(&'static MetricDef, f64)],
) -> Value {
    let b = &traced.breakdown;
    let layers = b
        .layers
        .iter()
        .map(|l| {
            Value::Map(vec![
                ("layer".into(), Value::Str(l.layer.as_str().into())),
                ("spans".into(), Value::U(u128::from(l.spans))),
                ("sim_total_ms".into(), Value::F(sim_ms(l.total))),
                (
                    "sim_exclusive_ms".into(),
                    Value::F(sim_ms(b.exclusive(l.layer))),
                ),
                ("sim_mean_us".into(), Value::F(sim_ms(l.mean) * 1e3)),
                ("sim_p99_us".into(), Value::F(sim_ms(l.p99) * 1e3)),
            ])
        })
        .collect();
    let kinds = CallKind::ALL
        .iter()
        .map(|k| Value::Str(k.label().into()))
        .collect();
    let kind_index = |k: CallKind| CallKind::ALL.iter().position(|&x| x == k).expect("listed");
    let events = traced
        .events
        .iter()
        .map(|e| {
            Value::Map(vec![
                ("name".into(), Value::Str(e.name.into())),
                ("at_request".into(), Value::U(e.at as u128)),
                ("start_ns".into(), Value::U(u128::from(e.start_ns))),
                ("dur_ns".into(), Value::U(u128::from(e.dur_ns))),
            ])
        })
        .collect();
    let per_layer = metrics
        .iter()
        .map(|(d, v)| {
            Value::Map(vec![
                ("name".into(), Value::Str(d.name.clone())),
                ("value".into(), Value::F(*v)),
                ("unit".into(), Value::Str(d.unit.clone())),
                ("better".into(), Value::Str(d.better.clone())),
                ("note".into(), Value::Str(d.note.into())),
            ])
        })
        .collect();
    Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::U(u128::from(seed))),
        ("host".into(), host::fingerprint()),
        ("traced_requests".into(), Value::U(u128::from(b.requests))),
        ("sim_breakdown".into(), Value::Seq(layers)),
        (
            "calls".into(),
            Value::Map(vec![
                ("kind_labels".into(), Value::Seq(kinds)),
                (
                    "start_ns".into(),
                    Value::Seq(
                        traced
                            .call_start_ns
                            .iter()
                            .map(|&s| Value::U(u128::from(s)))
                            .collect(),
                    ),
                ),
                (
                    "dur_ns".into(),
                    Value::Seq(
                        traced
                            .call_ns
                            .iter()
                            .map(|&d| Value::U(u128::from(d)))
                            .collect(),
                    ),
                ),
                (
                    "kind".into(),
                    Value::Seq(
                        traced
                            .kinds
                            .iter()
                            .map(|&k| Value::U(kind_index(k) as u128))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("events".into(), Value::Seq(events)),
        ("per_layer".into(), Value::Seq(per_layer)),
    ])
}

fn write_json(path: &str, value: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let text = serde_json::to_string(&Json(value)).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

fn list_metrics() {
    let row = |d: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), Value::Str(d.name.clone())),
            ("unit".into(), Value::Str(d.unit.clone())),
            ("better".into(), Value::Str(d.better.clone())),
        ];
        if let Some(b) = d.bound {
            fields.push(("bound".into(), Value::F(b)));
        }
        fields.push(("note".into(), Value::Str(d.note.into())));
        Value::Map(fields)
    };
    let doc = Value::Map(vec![
        (
            "end_to_end".into(),
            Value::Seq(metrics::table().end_to_end.iter().map(row).collect()),
        ),
        (
            "per_layer".into(),
            Value::Seq(metrics::table().per_layer.iter().map(row).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&Json(&doc)).expect("serializable")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--runner-pass") {
        return runner_pass_child(&argv);
    }
    if argv == ["--list-metrics"] {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("reobench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
        .to_string();
    let single = args.workloads.len() == 1;
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut all_metrics = Vec::new();
    for &w in &args.workloads {
        let run = if args.trace {
            traced_run(w, args.seed, args.seconds, &stamp)
        } else {
            measured_run(w, args.seed, args.seconds)
        };
        eprintln!(
            "{} seed {} ({} calls, {} failed):",
            w.name(),
            args.seed,
            run.attempted,
            run.failed
        );
        for (d, v) in &run.metrics {
            eprintln!("  {:<34} {:>16.4} {}", d.name, v, d.unit);
        }
        for e in &run.errors {
            eprintln!("  CHECK FAILED: {e}");
        }
        let path = format!(
            "{OUT_DIR}/{}-seed{}-trace{}-{stamp}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        );
        let record = Value::Map(vec![
            ("workload".into(), Value::Str(w.name().into())),
            ("seed".into(), Value::U(u128::from(args.seed))),
            ("seconds".into(), Value::F(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("host".into(), host::fingerprint()),
            ("correct".into(), Value::Bool(run.errors.is_empty())),
            (
                "errors".into(),
                Value::Seq(run.errors.iter().map(|e| Value::Str(e.clone())).collect()),
            ),
            ("attempted".into(), Value::U(u128::from(run.attempted))),
            ("failed".into(), Value::U(u128::from(run.failed))),
            (
                "metrics".into(),
                metric_values(run.metrics.iter().map(|&(d, v)| (d.name.clone(), d, v))),
            ),
            (
                "same_seed_metrics".into(),
                Value::Seq(SAME_SEED.iter().map(|&m| Value::Str(m.into())).collect()),
            ),
            ("samples".into(), run.samples),
        ]);
        if let Err(e) = write_json(&path, &record) {
            errors.push(format!("could not write {path}: {e}"));
        }
        errors.extend(run.errors.into_iter().map(|e| format!("{}: {e}", w.name())));
        attempted += run.attempted;
        failed += run.failed;
        all_metrics.extend(run.metrics.into_iter().map(|(d, v)| {
            let name = if single {
                d.name.clone()
            } else {
                format!("{}.{}", w.name(), d.name)
            };
            (name, d, v)
        }));
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(errors.is_empty())),
        ("attempted".into(), Value::U(u128::from(attempted))),
        ("failed".into(), Value::U(u128::from(failed))),
        ("metrics".into(), metric_values(all_metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Json(&result)).expect("serializable")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
