//! What each benchmark metric means. Names, units, directions and the
//! end-to-end bounds are declared once, in `BENCHMARK.json` (compiled in);
//! this module keys a note to each name: for an end-to-end metric how it
//! is measured, for a per-layer metric also which end-to-end metric on
//! which workloads it should move. `--list-metrics` prints the joined
//! table.

use std::sync::OnceLock;

use serde::{DeError, Deserialize, Value};

/// One reported metric.
pub struct MetricDef {
    /// Metric name as reported.
    pub name: String,
    /// Unit. `sim_ms`/`sim_us` mark simulated time, never host time.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the metric means and, for per-layer metrics, which
    /// end-to-end metric on which workloads it should move.
    pub note: &'static str,
}

/// The declared metrics, in `BENCHMARK.json` order.
pub struct Table {
    /// Reported by untraced runs (`--trace 0`).
    pub end_to_end: Vec<MetricDef>,
    /// Reported by traced runs (`--trace 1`).
    pub per_layer: Vec<MetricDef>,
}

/// The metric table: `BENCHMARK.json` joined with [`NOTES`]. Panics if a
/// declared metric has no note or a note names no declared metric.
pub fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let bench: Raw = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let table = Table {
            end_to_end: declared(&bench.0, "end_to_end"),
            per_layer: declared(&bench.0, "per_layer"),
        };
        assert_eq!(
            table.end_to_end.len() + table.per_layer.len(),
            NOTES.len(),
            "BENCHMARK.json and NOTES list different metrics"
        );
        table
    })
}

/// A JSON value kept as parsed.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Raw(v.clone()))
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text(v: &Value, key: &str) -> String {
    match field(v, key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: {key} is {other:?}, not a string"),
    }
}

fn declared(bench: &Value, list: &str) -> Vec<MetricDef> {
    let Some(Value::Seq(entries)) = field(bench, list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    entries
        .iter()
        .map(|m| {
            let name = text(m, "name");
            let note = NOTES
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} has no note"))
                .1;
            let bound = match field(m, "bound") {
                None => None,
                Some(Value::F(b)) => Some(*b),
                Some(Value::U(b)) => Some(*b as f64),
                Some(other) => panic!("BENCHMARK.json: bound of {name} is {other:?}"),
            };
            MetricDef {
                unit: text(m, "unit"),
                better: text(m, "better"),
                bound,
                note,
                name,
            }
        })
        .collect()
}

/// Each metric's note, end-to-end metrics first. "Scaled" wall times are
/// multiplied by `calib::NOMINAL_NS` over the reference workload's time
/// around them, which takes out most of a shared host's speed drift.
/// The end-to-end bounds in `BENCHMARK.json` sit above the spread measured
/// over ten seeds on a shared 2-core host.
#[rustfmt::skip]
pub const NOTES: [(&str, &str); 57] = [
    ("setup_s",
        "median scaled wall time of one set-up: trace generation, system build and populate"),
    ("req_per_s",
        "requests / scaled wall time summed over the run's passes (events and final drains included)"),
    ("call_p50_us",
        "median scaled wall time of one handle() call, pooled over the run's passes"),
    ("call_p999_us",
        "99.9th-percentile scaled wall time of one handle() call in a pass, median over the run's traces"),
    ("peak_rss_mib",
        "peak resident memory of a process that sets up and runs the run's first trace"),
    ("served_pct",
        "requests some tier served per 100 attempted (100 minus the failed share)"),
    ("hit_ratio_pct",
        "simulated read hit ratio, mean over the run's traces"),
    ("sim_p99_ms",
        "simulated p99 request latency (max over targets on a cluster), mean over the run's traces"),
    ("sim_bandwidth_mib_s",
        "simulated bandwidth, requested bytes per simulated second, mean over the run's traces"),
    ("flash_per_user_byte",
        "flash bytes per cached user byte, cross-target parity included, mean over the run's traces"),
    ("core.handle_read_hit_us",
        "median wall per handle() served from cache; moves call_p50_us, req_per_s on read_medium, write_recover"),
    ("core.handle_read_miss_us",
        "median wall per handle() served by the backend; moves call_p50_us, req_per_s on read_medium, write_recover"),
    ("core.handle_write_us",
        "median wall per absorbed write; moves call_p50_us, req_per_s on write_recover"),
    ("core.handle_degraded_us",
        "median wall per degraded serve; moves call_p999_us, req_per_s on write_recover, cluster_parity, cluster_replica"),
    ("core.event_ms.fail_device",
        "wall of fail_device(); moves req_per_s on write_recover"),
    ("core.event_ms.insert_spare",
        "wall of insert_spare(); moves req_per_s on write_recover"),
    ("core.event_ms.crash_recover",
        "wall of crash() + recover(); moves req_per_s on write_recover"),
    ("core.event_ms.fail_target",
        "wall of the FailTarget event; moves req_per_s on cluster_parity, cluster_replica"),
    ("core.event_ms.restore_target",
        "wall of the RestoreTarget event; moves req_per_s on cluster_parity, cluster_replica"),
    ("core.event_ms.final_drain",
        "wall of drain_recovery() (+ run_anti_entropy_pass()) at the end; moves req_per_s on write_recover, cluster_parity, cluster_replica"),
    ("flashsim.chunk_ops_per_req",
        "device chunk reads + programs per request; moves req_per_s on read_medium, no change predicted on clusters"),
    ("stripe.spans_per_req",
        "stripe-layer tracer spans per request; moves req_per_s on read_medium, no change predicted on clusters"),
    ("stripe.ns_per_chunk",
        "StripeManager store/read/remove micro-benchmark wall per chunk op at the workload's chunk size; moves req_per_s on read_medium, no change predicted on clusters"),
    ("flashsim.erases",
        "estimated erase operations over all devices; moves sim_p99_ms"),
    ("flashsim.sim_queue_delay_ms",
        "mean simulated device queueing delay per chunk op; moves sim_p99_ms"),
    ("flashsim.sim_excl_ms",
        "simulated exclusive time in the flash layer (tracer); moves sim_p99_ms"),
    ("cache.admissions_per_kreq",
        "cache-manager admissions per 1000 requests; moves hit_ratio_pct, call_p50_us on read_medium"),
    ("cache.evictions_per_kreq",
        "cache-manager removals (evictions, losses) per 1000 requests; moves hit_ratio_pct, call_p50_us on read_medium"),
    ("cache.promotions_per_kreq",
        "reclassifications into hot clean per 1000 requests; moves hit_ratio_pct, call_p50_us on read_medium"),
    ("cache.demotions_per_kreq",
        "reclassifications out of hot clean per 1000 requests; moves hit_ratio_pct, call_p50_us on read_medium"),
    ("cache.ns_per_access",
        "CacheManager replay micro-benchmark wall per access; moves call_p50_us on read_medium"),
    ("journal.appends_per_write",
        "journal appends per write request (0 without writes); moves req_per_s on write_recover"),
    ("journal.checkpoints",
        "journal checkpoints taken; moves req_per_s on write_recover"),
    ("journal.replayed_records",
        "records replayed by restart recovery; moves req_per_s on write_recover"),
    ("journal.ns_per_append",
        "Journal micro-benchmark wall per append; moves req_per_s on write_recover"),
    ("journal.recover_ms",
        "wall of recover() after the power loss (0 without one); moves req_per_s on write_recover"),
    ("osd-target.ttr_metadata_us",
        "simulated time to restored redundancy, metadata class (-1: no rebuild); recovery work on write_recover"),
    ("osd-target.ttr_dirty_us",
        "simulated time to restored redundancy, dirty class (-1: no rebuild); recovery work on write_recover"),
    ("osd-target.ttr_hot_clean_us",
        "simulated time to restored redundancy, hot clean class (-1: no rebuild); recovery work on write_recover"),
    ("osd-target.ttr_cold_clean_us",
        "simulated time to restored redundancy, cold clean class (-1: no rebuild); recovery work on write_recover"),
    ("osd-target.rebuilt_objects",
        "objects rebuilt by the recovery engine; recovery work on write_recover"),
    ("backend.reads",
        "backend object reads; moves hit_ratio_pct, sim_bandwidth_mib_s on every workload"),
    ("backend.writes",
        "backend object writes (flushes, write-throughs); moves hit_ratio_pct, sim_bandwidth_mib_s on every workload"),
    ("backend.mib",
        "backend bytes read + written; moves hit_ratio_pct, sim_bandwidth_mib_s on every workload"),
    ("backend.sim_excl_ms",
        "simulated exclusive time in the backend layer (tracer); moves sim_bandwidth_mib_s on every workload"),
    ("placement.ns_per_lookup",
        "ring micro-benchmark wall per target_of/replicas_of call over the trace's keys; moves call_p50_us on cluster_parity, cluster_replica"),
    ("placement.migrations",
        "objects migrated between targets (0 on one target); moves call_p50_us on cluster_parity, cluster_replica"),
    ("placement.sim_excl_ms",
        "simulated exclusive time in the placement layer (tracer); moves call_p50_us on cluster_parity, cluster_replica"),
    ("erasure.encode_gib_s",
        "encode throughput at the workload's geometry and chunk size; moves req_per_s on cluster_parity"),
    ("erasure.reconstruct_gib_s",
        "single-erasure reconstruct throughput at the workload's geometry and chunk size; moves req_per_s on cluster_parity"),
    ("cluster.served_by_parity",
        "reads of a down target served by parity reconstruction; moves req_per_s on cluster_parity"),
    ("cluster.reconstructed_mib",
        "bytes rebuilt by degraded parity reconstruction; moves req_per_s on cluster_parity"),
    ("cluster.served_by_replica",
        "reads of a down target served from a replica; moves req_per_s on cluster_replica"),
    ("cluster.divergences_repaired",
        "diverged replica copies repaired; moves req_per_s on cluster_replica"),
    ("workload.generate_s",
        "median wall of trace generation; moves setup_s"),
    ("sim.trace_overhead_pct",
        "median over interleaved untraced/traced pass pairs of the traced pass's extra wall time; reported, not gated"),
    ("core.handle_calls",
        "handle() calls timed across the untraced passes of the traced run (sample count of the core.handle_* medians)"),
];
