//! The shared run-report exporter: one schema for every experiment
//! binary.
//!
//! A [`RunReport`] bundles everything one experiment run measured — the
//! request totals with their per-class rows, the `reo-trace` per-layer
//! latency breakdown, the per-device table of the flash array, the cache
//! manager's policy counters, and the windowed time series — and renders
//! it two ways:
//!
//! * [`jsonl`] — machine-readable JSON lines, one record per line, each
//!   tagged with a `kind` field. Every record kind is declared once, as
//!   an ordered list of fields (name, JSON type, the schema version that
//!   introduced it, and the accessor that emits it). The emitter walks
//!   that declaration, [`validate_jsonl`] derives every rule from it, and
//!   [`schema_markdown`] renders it as the schema table in DESIGN.md §7.
//!   The first line is always the `meta` record carrying
//!   [`SCHEMA_VERSION`]; the validator accepts [`MIN_SCHEMA_VERSION`]
//!   through current (the CI smoke jobs run it on real experiment
//!   outputs and the committed perf baseline).
//! * [`render_summary`] — the aligned human tables the binaries print.
//!
//! Latencies are exported in milliseconds, byte volumes in MiB; raw
//! counters stay counts.

use std::collections::BTreeMap;
use std::io::Write as _;

use reo_core::{
    CacheSystem, ClassSnapshot, ClusterRunResult, ClusterSystem, DeviceId, DeviceReport,
    ExperimentResult, MetricsSnapshot, SloSnapshot, TargetMetricsRow, TimeSeriesPoint,
};
use reo_sim::{Layer, LayerBreakdown, Postmortem, SimDuration, TraceBreakdown, TraceTree};
use serde::{DeError, Deserialize, Serialize, Value};

/// Version stamp of the JSON-lines schema; bumped whenever a record kind
/// gains, loses, or renames a field. Each field declares the version
/// that introduced it (see [`schema_markdown`]).
pub const SCHEMA_VERSION: u64 = 9;

/// Oldest schema version [`validate_jsonl`] still accepts: later versions
/// only add record kinds and fields, so v4 documents (e.g. the committed
/// `results/cascade_run.jsonl`) remain valid.
pub const MIN_SCHEMA_VERSION: u64 = 4;

/// Everything one run exports (see the module docs).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The experiment that produced the run, e.g. `"normal_run"`.
    pub experiment: String,
    /// The protection scheme label, e.g. `"Reo-20%"`.
    pub scheme: String,
    /// Request totals over the measured pass, with per-class rows.
    pub totals: MetricsSnapshot,
    /// Per-layer latency breakdown (empty when tracing was off).
    pub breakdown: TraceBreakdown,
    /// Per-device rows of the flash array.
    pub devices: Vec<DeviceReport>,
    /// Cache-manager policy counters.
    pub cache: reo_cache::CacheStats,
    /// Health machine, degraded-mode, and rebuild-QoS counters.
    pub resilience: reo_core::ResilienceSnapshot,
    /// Periodic samples (empty unless the plan set `sample_every`).
    pub series: Vec<TimeSeriesPoint>,
    /// Space efficiency at the end of the run.
    pub space_efficiency: f64,
    /// Microbenchmark measurements (empty except for `perfbench` runs).
    pub perf: Vec<PerfPoint>,
    /// Retained exemplar trace trees — every sense-coded request plus
    /// the slowest-percentile requests (empty when tracing was off).
    pub exemplars: Vec<reo_sim::TraceTree>,
    /// Flight-recorder post-mortem dumps (empty on clean runs).
    pub postmortems: Vec<reo_sim::Postmortem>,
    /// Cross-target replication counters (`None` on single-target runs
    /// and clusters without a replication policy — the record is then
    /// omitted entirely, keeping pre-v7 documents byte-identical).
    pub replication: Option<ReplicationReport>,
    /// Cross-target parity-group counters (`None` on single-target
    /// runs and clusters without a parity policy — the record is then
    /// omitted entirely, keeping pre-v8 documents byte-identical).
    pub parity: Option<ParityGroupReport>,
}

/// The schema-v7 `replication` record: the active policy plus the
/// cluster's replication counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicationReport {
    /// Largest per-class copy count of the policy.
    pub max_factor: u64,
    /// Per-class copy counts `[metadata, dirty, hot_clean, cold_clean]`.
    pub factors: [u64; 4],
    /// The cluster's cumulative replication counters.
    pub counters: reo_core::ReplicationSnapshot,
}

/// The schema-v8 `parity_group` record: the active group geometry, the
/// cluster's parity counters, and the end-of-run flash overhead split.
#[derive(Clone, Debug, PartialEq)]
pub struct ParityGroupReport {
    /// Data shards per group (`k`).
    pub data_shards: u64,
    /// Parity shards per group (`m` — the outage tolerance).
    pub parity_shards: u64,
    /// The cluster's cumulative parity counters.
    pub counters: reo_core::ParityGroupSnapshot,
    /// End-of-run flash usage split (primary / replica / parity bytes).
    pub overhead: reo_core::FlashOverheadReport,
}

/// One microbenchmark measurement, exported as a `perf` record.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfPoint {
    /// Benchmark name, e.g. `"erasure_encode"`.
    pub bench: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`, e.g. `"GiB/s"` or `"req/s"`.
    pub unit: String,
}

/// Gathers a [`RunReport`] from a finished system and its experiment
/// result.
pub fn collect_run_report(
    experiment: &str,
    scheme: &str,
    system: &CacheSystem,
    result: &ExperimentResult,
) -> RunReport {
    RunReport {
        experiment: experiment.to_string(),
        scheme: scheme.to_string(),
        totals: result.totals.clone(),
        breakdown: system.tracer().breakdown(),
        devices: system.device_stats(),
        cache: system.cache_stats(),
        resilience: system.resilience(),
        series: result.series.clone(),
        space_efficiency: result.space_efficiency,
        perf: Vec::new(),
        exemplars: system.tracer().exemplars(),
        postmortems: system.flight().postmortems(),
        replication: None,
        parity: None,
    }
}

/// Gathers a [`RunReport`] from a finished cluster and its run result:
/// per-target rows ride in [`MetricsSnapshot::targets`] (exported as
/// `placement` records), node counters are summed (device rows get
/// global ids, `devices_per_node * target + local`), and the
/// `resilience` record carries the cluster-level view — health label,
/// summed degraded-service counters, merged rejection breakdown, and
/// the worst per-class time-to-restored-redundancy.
pub fn collect_cluster_report(
    experiment: &str,
    scheme: &str,
    cluster: &ClusterSystem,
    result: &ClusterRunResult,
) -> RunReport {
    let per_node = cluster.config().devices;
    let mut devices = Vec::new();
    let mut cache = reo_cache::CacheStats::default();
    let mut resilience = reo_core::ResilienceSnapshot {
        health: result.health.clone(),
        health_transitions: 0,
        shed_requests: 0,
        write_throughs: 0,
        bypassed_fills: 0,
        rejected_events: result.rejected_events,
        rejected_events_by_reason: Vec::new(),
        internal_errors: 0,
        throttle_stalls: result.migration_stalls,
        rebuild_throttle_bytes: result.migration_throttle_bytes,
        ttr_us: [-1; 4],
    };
    let mut by_reason: BTreeMap<String, u64> =
        result.rejected_events_by_reason.iter().cloned().collect();
    let mut efficiency = 0.0;
    for t in 0..cluster.targets_created() {
        let node = cluster.node(t);
        for mut d in node.device_stats() {
            d.id = DeviceId(per_node * t + d.id.0);
            devices.push(d);
        }
        let c = node.cache_stats();
        cache.admissions += c.admissions;
        cache.refreshes += c.refreshes;
        cache.removals += c.removals;
        cache.promotions += c.promotions;
        cache.demotions += c.demotions;
        cache.write_throughs += c.write_throughs;
        cache.bypassed_fills += c.bypassed_fills;
        cache.replica_refreshes += c.replica_refreshes;
        let r = node.resilience();
        resilience.health_transitions += r.health_transitions;
        resilience.shed_requests += r.shed_requests;
        resilience.write_throughs += r.write_throughs;
        resilience.bypassed_fills += r.bypassed_fills;
        resilience.rejected_events += r.rejected_events;
        resilience.internal_errors += r.internal_errors;
        resilience.throttle_stalls += r.throttle_stalls;
        resilience.rebuild_throttle_bytes += r.rebuild_throttle_bytes;
        for (reason, count) in r.rejected_events_by_reason {
            *by_reason.entry(reason).or_default() += count;
        }
        for (slot, us) in resilience.ttr_us.iter_mut().zip(r.ttr_us) {
            *slot = (*slot).max(us);
        }
        efficiency += node.space_efficiency();
    }
    resilience.rejected_events_by_reason = by_reason.into_iter().collect();
    RunReport {
        experiment: experiment.to_string(),
        scheme: scheme.to_string(),
        totals: result.totals.clone(),
        breakdown: cluster.tracer().breakdown(),
        devices,
        cache,
        resilience,
        series: Vec::new(),
        space_efficiency: efficiency / cluster.targets_created().max(1) as f64,
        perf: Vec::new(),
        exemplars: cluster.tracer().exemplars(),
        postmortems: cluster.flight().postmortems(),
        replication: {
            let policy = cluster.replication_policy();
            policy.enabled().then(|| ReplicationReport {
                max_factor: policy.max_factor() as u64,
                factors: [
                    policy.metadata as u64,
                    policy.dirty as u64,
                    policy.hot_clean as u64,
                    policy.cold_clean as u64,
                ],
                counters: result.replication,
            })
        },
        parity: {
            let policy = cluster.parity_policy();
            policy.enabled().then_some(ParityGroupReport {
                data_shards: policy.data as u64,
                parity_shards: policy.parity as u64,
                counters: result.parity,
                overhead: result.flash_overhead,
            })
        },
    }
}

// ---- value plumbing ----------------------------------------------------

/// A raw value tree; lets the exporter hand-build records (a `kind`
/// discriminator plus flat fields) without a struct per record kind.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Raw(v.clone()))
    }
}

fn u(v: u64) -> Value {
    Value::U(v as u128)
}

fn i(v: i64) -> Value {
    Value::I(v as i128)
}

fn f(v: f64) -> Value {
    Value::F(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn mib(bytes: u64) -> Value {
    f(bytes as f64 / (1024.0 * 1024.0))
}

fn counts(rows: &[(String, u64)]) -> Value {
    Value::Map(rows.iter().map(|(k, n)| (k.clone(), u(*n))).collect())
}

// ---- the schema: one declaration per record kind -----------------------

/// The JSON type of a declared field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    Num,
    Str,
    Bool,
    Map,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Num => "number",
            Ty::Str => "string",
            Ty::Bool => "bool",
            Ty::Map => "map",
        }
    }

    fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Ty::Num, Value::U(_) | Value::I(_) | Value::F(_))
                | (Ty::Str, Value::Str(_))
                | (Ty::Bool, Value::Bool(_))
                | (Ty::Map, Value::Map(_))
        )
    }
}

/// A field as the validator and the schema table see it.
#[derive(Clone, Copy, Debug)]
struct Column {
    name: &'static str,
    ty: Ty,
    /// The schema version that introduced the field; documents declaring
    /// this version or later must carry it.
    since: u64,
}

/// One declared field of a record emitted from a `T`.
struct Field<T> {
    column: Column,
    emit: fn(&T) -> Value,
}

const fn field<T>(name: &'static str, ty: Ty, since: u64, emit: fn(&T) -> Value) -> Field<T> {
    Field {
        column: Column { name, ty, since },
        emit,
    }
}

const fn num<T>(name: &'static str, since: u64, emit: fn(&T) -> Value) -> Field<T> {
    field(name, Ty::Num, since, emit)
}

const fn text<T>(name: &'static str, since: u64, emit: fn(&T) -> Value) -> Field<T> {
    field(name, Ty::Str, since, emit)
}

const fn flag<T>(name: &'static str, since: u64, emit: fn(&T) -> Value) -> Field<T> {
    field(name, Ty::Bool, since, emit)
}

const fn map<T>(name: &'static str, since: u64, emit: fn(&T) -> Value) -> Field<T> {
    field(name, Ty::Map, since, emit)
}

/// One record kind: its `kind` tag and its fields in emission order.
struct Kind<T: 'static> {
    name: &'static str,
    /// Every document carries exactly one record of this kind.
    once: bool,
    fields: &'static [Field<T>],
}

impl<T> Kind<T> {
    fn values<'a>(&'a self, src: &'a T) -> impl Iterator<Item = (String, Value)> + 'a {
        self.fields
            .iter()
            .map(move |fd| (fd.column.name.to_string(), (fd.emit)(src)))
    }

    fn record(&self, src: &T) -> Value {
        tagged(self.name, self.values(src))
    }

    fn schema(&self) -> KindSchema {
        KindSchema {
            name: self.name,
            once: self.once,
            columns: self.fields.iter().map(|fd| fd.column).collect(),
        }
    }
}

fn tagged(kind: &str, values: impl Iterator<Item = (String, Value)>) -> Value {
    Value::Map(
        std::iter::once(("kind".to_string(), s(kind)))
            .chain(values)
            .collect(),
    )
}

/// The `meta` field the validator reads before any other.
const VERSION: Field<RunReport> = num("schema_version", 1, |_| u(SCHEMA_VERSION));

const META: Kind<RunReport> = Kind {
    name: "meta",
    once: true,
    fields: &[
        VERSION,
        text("experiment", 1, |r| s(&r.experiment)),
        text("scheme", 1, |r| s(&r.scheme)),
        num("requests", 1, |r| u(r.totals.requests)),
        num("traced_requests", 1, |r| u(r.breakdown.requests)),
        num("space_efficiency_pct", 1, |r| f(100.0 * r.space_efficiency)),
    ],
};

const TOTALS: Kind<MetricsSnapshot> = Kind {
    name: "totals",
    once: true,
    fields: &[
        num("requests", 1, |t| u(t.requests)),
        num("reads", 1, |t| u(t.reads)),
        num("read_hits", 1, |t| u(t.read_hits)),
        num("hit_ratio_pct", 1, |t| f(t.hit_ratio_pct())),
        num("writes", 1, |t| u(t.writes)),
        num("degraded_reads", 1, |t| u(t.degraded_reads)),
        num("requested_mib", 1, |t| f(t.requested_bytes.as_mib_f64())),
        num("device_mib", 1, |t| f(t.device_bytes.as_mib_f64())),
        num("backend_mib", 1, |t| f(t.backend_bytes.as_mib_f64())),
        num("amplification", 1, |t| f(t.amplification())),
        num("write_amplification", 1, |t| f(t.write_amplification())),
        num("read_amplification", 1, |t| f(t.read_amplification())),
        num("bandwidth_mib_s", 1, |t| f(t.bandwidth_mib_s())),
        num("mean_latency_ms", 1, |t| f(t.mean_latency_ms())),
        num("p99_latency_ms", 1, |t| f(t.p99_latency.as_millis_f64())),
        num("medium_errors", 1, |t| u(t.medium_errors)),
        num("repairs", 1, |t| u(t.repairs)),
        num("scrub_passes", 1, |t| u(t.scrub_passes)),
        num("unrecoverable_fallbacks", 1, |t| {
            u(t.unrecoverable_fallbacks)
        }),
        num("journal_appends", 2, |t| u(t.journal_appends)),
        num("checkpoint_count", 2, |t| u(t.checkpoint_count)),
        num("replayed_records", 2, |t| u(t.replayed_records)),
        num("torn_tail_detected", 2, |t| u(t.torn_tail_detected)),
        num("recovery_duration_us", 2, |t| u(t.recovery_duration_us)),
        num("served_by_replica", 7, |t| u(t.served_by_replica)),
        num("served_by_parity", 8, |t| u(t.served_by_parity)),
    ],
};

const CLASS: Kind<ClassSnapshot> = Kind {
    name: "class",
    once: false,
    fields: &[
        text("class", 1, |c| s(c.label)),
        num("requests", 1, |c| u(c.requests)),
        num("reads", 1, |c| u(c.reads)),
        num("read_hits", 1, |c| u(c.read_hits)),
        num("hit_ratio_pct", 1, |c| f(c.hit_ratio_pct())),
        num("writes", 1, |c| u(c.writes)),
        num("degraded_reads", 1, |c| u(c.degraded_reads)),
        num("requested_mib", 1, |c| f(c.requested_bytes.as_mib_f64())),
        num("mean_latency_ms", 1, |c| f(c.mean_latency.as_millis_f64())),
        num("p99_latency_ms", 1, |c| f(c.p99_latency.as_millis_f64())),
    ],
};

/// A `layer` record's source: the layer's row and its exclusive time.
const LAYER: Kind<(LayerBreakdown, SimDuration)> = Kind {
    name: "layer",
    once: false,
    fields: &[
        text("layer", 1, |(l, _)| s(l.layer.as_str())),
        num("spans", 1, |(l, _)| u(l.spans)),
        num("total_ms", 1, |(l, _)| f(l.total.as_millis_f64())),
        num("exclusive_ms", 1, |(_, excl)| f(excl.as_millis_f64())),
        num("mean_ms", 1, |(l, _)| f(l.mean.as_millis_f64())),
        num("p99_ms", 1, |(l, _)| f(l.p99.as_millis_f64())),
    ],
};

const DEVICE: Kind<DeviceReport> = Kind {
    name: "device",
    once: false,
    fields: &[
        num("device", 1, |d| u(d.id.0 as u64)),
        flag("healthy", 1, |d| Value::Bool(d.healthy)),
        num("wear_pct", 1, |d| f(100.0 * d.wear)),
        num("used_mib", 1, |d| f(d.used.as_mib_f64())),
        num("reads", 1, |d| u(d.stats.reads)),
        num("writes", 1, |d| u(d.stats.writes)),
        num("read_mib", 1, |d| mib(d.stats.bytes_read)),
        num("written_mib", 1, |d| mib(d.stats.bytes_written)),
        num("erases", 1, |d| u(d.stats.erases_estimated)),
        num("mean_queue_delay_ms", 1, |d| {
            f(d.stats.mean_queue_delay().as_millis_f64())
        }),
        num("mean_service_time_ms", 1, |d| {
            f(d.stats.mean_service_time().as_millis_f64())
        }),
        num("transient_timeouts", 1, |d| u(d.stats.transient_timeouts)),
    ],
};

const CACHE: Kind<reo_cache::CacheStats> = Kind {
    name: "cache",
    once: true,
    fields: &[
        num("admissions", 1, |c| u(c.admissions)),
        num("refreshes", 1, |c| u(c.refreshes)),
        num("removals", 1, |c| u(c.removals)),
        num("promotions", 1, |c| u(c.promotions)),
        num("demotions", 1, |c| u(c.demotions)),
        num("replica_refreshes", 7, |c| u(c.replica_refreshes)),
    ],
};

const RESILIENCE: Kind<reo_core::ResilienceSnapshot> = Kind {
    name: "resilience",
    once: true,
    fields: &[
        text("health", 3, |r| s(&r.health)),
        num("health_transitions", 3, |r| u(r.health_transitions)),
        num("shed_requests", 3, |r| u(r.shed_requests)),
        num("write_throughs", 3, |r| u(r.write_throughs)),
        num("bypassed_fills", 3, |r| u(r.bypassed_fills)),
        num("rejected_events", 3, |r| u(r.rejected_events)),
        num("throttle_stalls", 3, |r| u(r.throttle_stalls)),
        num("rebuild_throttle_bytes", 3, |r| u(r.rebuild_throttle_bytes)),
        num("ttr_metadata_us", 3, |r| i(r.ttr_us[0])),
        num("ttr_dirty_us", 3, |r| i(r.ttr_us[1])),
        num("ttr_hot_clean_us", 3, |r| i(r.ttr_us[2])),
        num("ttr_cold_clean_us", 3, |r| i(r.ttr_us[3])),
        num("internal_errors", 5, |r| u(r.internal_errors)),
        map("rejected_events_by_reason", 5, |r| {
            counts(&r.rejected_events_by_reason)
        }),
    ],
};

const PLACEMENT: Kind<TargetMetricsRow> = Kind {
    name: "placement",
    once: false,
    fields: &[
        num("target", 5, |t| u(t.target as u64)),
        text("health", 5, |t| s(&t.health)),
        num("requests", 5, |t| u(t.requests)),
        num("reads", 5, |t| u(t.reads)),
        num("read_hits", 5, |t| u(t.read_hits)),
        num("hit_ratio_pct", 5, |t| f(t.hit_ratio_pct())),
        num("degraded_reads", 5, |t| u(t.degraded_reads)),
        num("shed_requests", 5, |t| u(t.shed_requests)),
        num("outages", 5, |t| u(t.outages)),
        num("rebuild_window_us", 5, |t| i(t.rebuild_window_us)),
        num("migrated_in", 5, |t| u(t.migrated_in)),
        num("migrated_out", 5, |t| u(t.migrated_out)),
        num("replica_serves", 7, |t| u(t.replica_serves)),
        num("parity_serves", 8, |t| u(t.parity_serves)),
        map("sense_mix", 5, |t| counts(&t.sense_mix)),
    ],
};

const PERF: Kind<PerfPoint> = Kind {
    name: "perf",
    once: false,
    fields: &[
        text("bench", 4, |p| s(&p.bench)),
        num("value", 4, |p| f(p.value)),
        text("unit", 4, |p| s(&p.unit)),
    ],
};

/// A `series` record carries these fields, then every `totals` field of
/// its window.
const SERIES: Kind<TimeSeriesPoint> = Kind {
    name: "series",
    once: false,
    fields: &[
        num("at_request", 1, |p| u(p.at_request as u64)),
        num("time_ms", 1, |p| f(p.time.as_secs_f64() * 1e3)),
    ],
};

const SLO: Kind<SloSnapshot> = Kind {
    name: "slo",
    once: false,
    fields: &[
        text("class", 6, |r| s(r.class)),
        num("requests", 6, |r| u(r.requests)),
        num("latency_threshold_ms", 6, |r| {
            f(r.latency_threshold.as_millis_f64())
        }),
        num("latency_target_pct", 6, |r| f(r.latency_target_pct)),
        num("availability_target_pct", 6, |r| {
            f(r.availability_target_pct)
        }),
        num("latency_compliance_pct", 6, |r| {
            f(r.latency_compliance_pct())
        }),
        num("availability_pct", 6, |r| f(r.availability_pct())),
        num("latency_burn_fast", 6, |r| f(r.latency_burn_fast())),
        num("latency_burn_slow", 6, |r| f(r.latency_burn_slow())),
        num("availability_burn_fast", 6, |r| {
            f(r.availability_burn_fast())
        }),
        num("availability_burn_slow", 6, |r| {
            f(r.availability_burn_slow())
        }),
        num("latency_breaches", 6, |r| u(r.latency_breaches)),
        num("errors", 6, |r| u(r.errors)),
    ],
};

/// One exemplar trace tree per record. The vendored JSON value tree has
/// no array type, so spans nest as a map keyed by the (1-based,
/// zero-padded) span id — key order is span order — and annotations by
/// their index.
const TRACE: Kind<TraceTree> = Kind {
    name: "trace",
    once: false,
    fields: &[
        num("trace_id", 6, |t| u(t.trace_id)),
        text("reason", 6, |t| s(t.reason)),
        text("sense", 6, |t| s(t.sense.unwrap_or("success"))),
        num("latency_ms", 6, |t| f(t.latency.as_millis_f64())),
        num("span_count", 6, |t| u(t.spans.len() as u64)),
        num("truncated_spans", 6, |t| u(t.truncated_spans)),
        map("spans", 6, trace_spans),
        map("annotations", 6, trace_annotations),
    ],
};

/// One flight-recorder dump per record; events nest as a map keyed by
/// their (zero-padded) sequence number, oldest first.
const POSTMORTEM: Kind<Postmortem> = Kind {
    name: "postmortem",
    once: false,
    fields: &[
        num("at_ms", 6, |p| f(p.at.as_secs_f64() * 1e3)),
        num("target", 6, |p| i(p.target)),
        text("trigger", 6, |p| s(&p.trigger)),
        num("dropped_events", 6, |p| u(p.dropped_events)),
        num("event_count", 6, |p| u(p.events.len() as u64)),
        map("events", 6, postmortem_events),
    ],
};

const REPLICATION: Kind<ReplicationReport> = Kind {
    name: "replication",
    once: false,
    fields: &[
        num("max_factor", 7, |r| u(r.max_factor)),
        num("factor_metadata", 7, |r| u(r.factors[0])),
        num("factor_dirty", 7, |r| u(r.factors[1])),
        num("factor_hot_clean", 7, |r| u(r.factors[2])),
        num("factor_cold_clean", 7, |r| u(r.factors[3])),
        num("replica_serves", 7, |r| u(r.counters.replica_serves)),
        num("fanout_writes", 7, |r| u(r.counters.fanout_writes)),
        num("fanout_refreshes", 7, |r| u(r.counters.fanout_refreshes)),
        num("divergences_injected", 7, |r| {
            u(r.counters.divergences_injected)
        }),
        num("divergences_detected", 7, |r| {
            u(r.counters.divergences_detected)
        }),
        num("divergences_repaired", 7, |r| {
            u(r.counters.divergences_repaired)
        }),
        num("anti_entropy_passes", 7, |r| {
            u(r.counters.anti_entropy_passes)
        }),
        num("failbacks_completed", 7, |r| {
            u(r.counters.failbacks_completed)
        }),
    ],
};

const PARITY_GROUP: Kind<ParityGroupReport> = Kind {
    name: "parity_group",
    once: false,
    fields: &[
        num("data_shards", 8, |p| u(p.data_shards)),
        num("parity_shards", 8, |p| u(p.parity_shards)),
        num("parity_serves", 8, |p| u(p.counters.parity_serves)),
        num("stripe_updates", 8, |p| u(p.counters.stripe_updates)),
        num("coverage_invalidations", 8, |p| {
            u(p.counters.coverage_invalidations)
        }),
        num("reconstructed_mib", 8, |p| {
            mib(p.counters.reconstructed_bytes)
        }),
        num("repair_warms", 8, |p| u(p.counters.repair_warms)),
        num("repairs_completed", 8, |p| u(p.counters.repairs_completed)),
        num("beyond_tolerance_serves", 8, |p| {
            u(p.counters.beyond_tolerance_serves)
        }),
        num("ttr_metadata_us", 8, |p| i(p.counters.ttr_us[0])),
        num("ttr_dirty_us", 8, |p| i(p.counters.ttr_us[1])),
        num("ttr_hot_clean_us", 8, |p| i(p.counters.ttr_us[2])),
        num("ttr_cold_clean_us", 8, |p| i(p.counters.ttr_us[3])),
        num("primary_mib", 8, |p| mib(p.overhead.primary_bytes)),
        num("replica_mib", 8, |p| mib(p.overhead.replica_bytes)),
        num("parity_mib", 8, |p| mib(p.overhead.parity_bytes)),
        num("overhead_pct", 8, |p| {
            f(100.0 * p.overhead.overhead_fraction())
        }),
    ],
};

fn trace_spans(tree: &TraceTree) -> Value {
    Value::Map(
        tree.spans
            .iter()
            .map(|span| {
                (
                    format!("{:03}", span.id),
                    Value::Map(vec![
                        ("parent".to_string(), u(span.parent as u64)),
                        ("layer".to_string(), s(span.layer.as_str())),
                        ("op".to_string(), s(span.op)),
                        ("start_ms".to_string(), f(span.start.as_secs_f64() * 1e3)),
                        ("end_ms".to_string(), f(span.end.as_secs_f64() * 1e3)),
                    ]),
                )
            })
            .collect(),
    )
}

fn trace_annotations(tree: &TraceTree) -> Value {
    Value::Map(
        tree.annotations
            .iter()
            .enumerate()
            .map(|(i, a)| {
                (
                    format!("{i:03}"),
                    Value::Map(vec![
                        ("label".to_string(), s(a.label)),
                        ("at_ms".to_string(), f(a.at.as_secs_f64() * 1e3)),
                    ]),
                )
            })
            .collect(),
    )
}

fn postmortem_events(pm: &Postmortem) -> Value {
    Value::Map(
        pm.events
            .iter()
            .map(|e| {
                (
                    format!("{:06}", e.seq),
                    Value::Map(vec![
                        ("at_ms".to_string(), f(e.at.as_secs_f64() * 1e3)),
                        ("target".to_string(), i(e.target)),
                        ("event".to_string(), s(e.kind)),
                        ("detail".to_string(), s(&e.detail)),
                    ]),
                )
            })
            .collect(),
    )
}

/// A record kind as the validator and the schema table see it.
struct KindSchema {
    name: &'static str,
    once: bool,
    columns: Vec<Column>,
}

/// Every record kind, in emission order.
fn schema() -> Vec<KindSchema> {
    let mut series = SERIES.schema();
    series.columns.extend(TOTALS.schema().columns);
    vec![
        META.schema(),
        TOTALS.schema(),
        CLASS.schema(),
        LAYER.schema(),
        DEVICE.schema(),
        CACHE.schema(),
        RESILIENCE.schema(),
        PLACEMENT.schema(),
        PERF.schema(),
        series,
        SLO.schema(),
        TRACE.schema(),
        POSTMORTEM.schema(),
        REPLICATION.schema(),
        PARITY_GROUP.schema(),
    ]
}

/// Renders the schema as a Markdown table (kind, field, JSON type, the
/// version that introduced the field), the block DESIGN.md §7 carries.
pub fn schema_markdown() -> String {
    let mut out = String::from("| kind | field | type | since |\n|---|---|---|---|\n");
    for kind in schema() {
        for c in &kind.columns {
            out.push_str(&format!(
                "| `{}` | `{}` | {} | v{} |\n",
                kind.name,
                c.name,
                c.ty.name(),
                c.since
            ));
        }
    }
    out
}

// ---- JSON-lines rendering ----------------------------------------------

fn records(report: &RunReport) -> Vec<Value> {
    let mut out = vec![META.record(report), TOTALS.record(&report.totals)];
    out.extend(report.totals.classes.iter().map(|c| CLASS.record(c)));
    out.extend(
        report
            .breakdown
            .layers
            .iter()
            .map(|layer| LAYER.record(&(layer.clone(), report.breakdown.exclusive(layer.layer)))),
    );
    out.extend(report.devices.iter().map(|d| DEVICE.record(d)));
    out.push(CACHE.record(&report.cache));
    out.push(RESILIENCE.record(&report.resilience));
    out.extend(report.totals.targets.iter().map(|t| PLACEMENT.record(t)));
    out.extend(report.perf.iter().map(|p| PERF.record(p)));
    out.extend(report.series.iter().map(|point| {
        tagged(
            SERIES.name,
            SERIES.values(point).chain(TOTALS.values(&point.window)),
        )
    }));
    out.extend(report.totals.slos.iter().map(|r| SLO.record(r)));
    out.extend(report.exemplars.iter().map(|t| TRACE.record(t)));
    out.extend(report.postmortems.iter().map(|p| POSTMORTEM.record(p)));
    out.extend(report.replication.iter().map(|r| REPLICATION.record(r)));
    out.extend(report.parity.iter().map(|p| PARITY_GROUP.record(p)));
    out
}

/// Renders the report as JSON lines (one record per line, `meta` first,
/// trailing newline).
pub fn jsonl(report: &RunReport) -> String {
    let mut out = String::new();
    for record in records(report) {
        out.push_str(&serde_json::to_string(&Raw(record)).expect("jsonl serialize"));
        out.push('\n');
    }
    out
}

/// Writes the report's JSON lines to `results/{name}.jsonl`.
pub fn write_jsonl(name: &str, report: &RunReport) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    match std::fs::File::create(&path) {
        Ok(mut file) => {
            if file.write_all(jsonl(report).as_bytes()).is_ok() {
                println!("\n[trace report written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

// ---- validation --------------------------------------------------------

/// What [`validate_jsonl`] found in a valid document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Total records.
    pub records: usize,
    /// The document's declared schema version (from its `meta` record).
    pub schema_version: u64,
    /// Record count per kind.
    pub kinds: BTreeMap<String, usize>,
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Validates a JSON-lines document against the declared schema: every
/// line parses as an object with a known `kind`, the first record is
/// `meta` with a supported schema version
/// ([`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`]), each singleton kind
/// (`totals`, `cache`, `resilience`) appears exactly once, every field
/// present has its declared type, every field introduced at or before
/// the document's version is present, and no record carries an
/// undeclared field (unknown fields mean the document came from a
/// *newer* exporter than this validator).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let kinds = schema();
    let mut summary = JsonlSummary::default();
    for (i, raw_line) in text.lines().enumerate() {
        let line = i + 1;
        if raw_line.trim().is_empty() {
            return Err(format!("line {line}: blank line"));
        }
        let Raw(value) = serde_json::from_str(raw_line).map_err(|e| format!("line {line}: {e}"))?;
        let Value::Map(map) = &value else {
            return Err(format!("line {line}: record is not an object"));
        };
        let kind = match get(map, "kind") {
            Some(Value::Str(kind)) => kind.clone(),
            _ => return Err(format!("line {line}: missing string field `kind`")),
        };
        let Some(decl) = kinds.iter().find(|k| k.name == kind) else {
            return Err(format!("line {line}: unknown record kind `{kind}`"));
        };
        if summary.records == 0 {
            if kind != META.name {
                return Err(format!(
                    "line {line}: first record must be `{}`, got `{kind}`",
                    META.name
                ));
            }
            let key = VERSION.column.name;
            match get(map, key) {
                Some(Value::U(v))
                    if (MIN_SCHEMA_VERSION as u128..=SCHEMA_VERSION as u128).contains(v) =>
                {
                    summary.schema_version = *v as u64;
                }
                Some(Value::U(v)) => {
                    return Err(format!(
                        "line {line}: {key} {v} (this validator knows \
                         {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
                    ));
                }
                _ => return Err(format!("line {line}: missing numeric `{key}`")),
            }
        } else if kind == META.name {
            return Err(format!("line {line}: duplicate `{kind}` record"));
        }
        for c in &decl.columns {
            match get(map, c.name) {
                Some(v) if !c.ty.admits(v) => {
                    return Err(format!(
                        "line {line}: field `{}` is not a {}",
                        c.name,
                        c.ty.name()
                    ));
                }
                None if c.since <= summary.schema_version => {
                    return Err(format!("line {line}: missing field `{}`", c.name));
                }
                _ => {}
            }
        }
        for (key, _) in map {
            if key != "kind" && !decl.columns.iter().any(|c| c.name == key) {
                return Err(format!(
                    "line {line}: unknown field `{key}` on `{kind}` record"
                ));
            }
        }
        summary.records += 1;
        *summary.kinds.entry(kind).or_default() += 1;
    }
    if summary.records == 0 {
        return Err("empty document".to_string());
    }
    for decl in kinds.iter().filter(|k| k.once) {
        match summary.kinds.get(decl.name).copied().unwrap_or(0) {
            1 => {}
            n => {
                return Err(format!(
                    "expected exactly one `{}` record, found {n}",
                    decl.name
                ))
            }
        }
    }
    Ok(summary)
}

// ---- human summary -----------------------------------------------------

/// Renders the aligned human tables (per-layer breakdown, per-class
/// rows, per-device table, cache counters) the binaries print.
pub fn render_summary(report: &RunReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let t = &report.totals;
    let _ = writeln!(
        out,
        "\n== run report: {} / {} ==",
        report.experiment, report.scheme
    );
    let _ = writeln!(
        out,
        "requests {}  hit {:.1}%  bw {:.1} MB/s  mean {:.2} ms  p99 {:.2} ms  eff {:.1}%",
        t.requests,
        t.hit_ratio_pct(),
        t.bandwidth_mib_s(),
        t.mean_latency_ms(),
        t.p99_latency.as_millis_f64(),
        100.0 * report.space_efficiency,
    );
    let _ = writeln!(
        out,
        "amplification: total {:.2}x  write {:.2}x  read {:.2}x  (requested {:.1} MiB, device {:.1} MiB, backend {:.1} MiB)",
        t.amplification(),
        t.write_amplification(),
        t.read_amplification(),
        t.requested_bytes.as_mib_f64(),
        t.device_bytes.as_mib_f64(),
        t.backend_bytes.as_mib_f64(),
    );

    if !report.breakdown.layers.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<10}{:>10}{:>12}{:>14}{:>10}{:>10}",
            "layer", "spans", "total ms", "exclusive ms", "mean ms", "p99 ms"
        );
        for layer in Layer::ALL {
            let Some(row) = report.breakdown.layer(layer) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<10}{:>10}{:>12.2}{:>14.2}{:>10.3}{:>10.3}",
                layer.as_str(),
                row.spans,
                row.total.as_millis_f64(),
                report.breakdown.exclusive(layer).as_millis_f64(),
                row.mean.as_millis_f64(),
                row.p99.as_millis_f64(),
            );
        }
    }

    if !t.classes.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12}{:>9}{:>8}{:>8}{:>10}{:>10}{:>10}",
            "class", "reqs", "reads", "hit %", "degraded", "mean ms", "p99 ms"
        );
        for class in &t.classes {
            let _ = writeln!(
                out,
                "{:<12}{:>9}{:>8}{:>8.1}{:>10}{:>10.2}{:>10.2}",
                class.label,
                class.requests,
                class.reads,
                class.hit_ratio_pct(),
                class.degraded_reads,
                class.mean_latency.as_millis_f64(),
                class.p99_latency.as_millis_f64(),
            );
        }
    }

    if !t.targets.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<8}{:<12}{:>9}{:>8}{:>8}{:>10}{:>7}{:>9}{:>12}{:>8}{:>8}",
            "target",
            "health",
            "reqs",
            "reads",
            "hit %",
            "degraded",
            "shed",
            "outages",
            "rebuild ms",
            "mig in",
            "mig out"
        );
        for row in &t.targets {
            let rebuild = if row.rebuild_window_us < 0 {
                "-".to_string()
            } else {
                format!("{:.1}", row.rebuild_window_us as f64 / 1e3)
            };
            let _ = writeln!(
                out,
                "{:<8}{:<12}{:>9}{:>8}{:>8.1}{:>10}{:>7}{:>9}{:>12}{:>8}{:>8}",
                row.target,
                row.health,
                row.requests,
                row.reads,
                row.hit_ratio_pct(),
                row.degraded_reads,
                row.shed_requests,
                row.outages,
                rebuild,
                row.migrated_in,
                row.migrated_out,
            );
        }
    }

    if !report.devices.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<8}{:>9}{:>8}{:>10}{:>9}{:>9}{:>11}{:>11}{:>10}",
            "device",
            "healthy",
            "wear %",
            "used MiB",
            "reads",
            "writes",
            "queue ms",
            "service ms",
            "timeouts"
        );
        for d in &report.devices {
            let _ = writeln!(
                out,
                "{:<8}{:>9}{:>8.2}{:>10.1}{:>9}{:>9}{:>11.3}{:>11.3}{:>10}",
                d.id.0,
                if d.healthy { "yes" } else { "no" },
                100.0 * d.wear,
                d.used.as_mib_f64(),
                d.stats.reads,
                d.stats.writes,
                d.stats.mean_queue_delay().as_millis_f64(),
                d.stats.mean_service_time().as_millis_f64(),
                d.stats.transient_timeouts,
            );
        }
    }

    let c = &report.cache;
    let _ = writeln!(
        out,
        "\ncache policy: admissions {}  refreshes {}  removals {}  promotions {}  demotions {}",
        c.admissions, c.refreshes, c.removals, c.promotions, c.demotions,
    );

    let r = &report.resilience;
    let ttr = |us: i64| -> String {
        if us < 0 {
            "-".to_string()
        } else {
            format!("{:.1}ms", us as f64 / 1e3)
        }
    };
    let _ = writeln!(
        out,
        "resilience: health {}  transitions {}  shed {}  write-through {}  bypassed fills {}  rejected events {}",
        r.health, r.health_transitions, r.shed_requests, r.write_throughs, r.bypassed_fills, r.rejected_events,
    );
    let _ = writeln!(
        out,
        "rebuild QoS: stalls {}  throttled {:.1} MiB  ttr meta {} / dirty {} / hot {} / cold {}",
        r.throttle_stalls,
        r.rebuild_throttle_bytes as f64 / (1024.0 * 1024.0),
        ttr(r.ttr_us[0]),
        ttr(r.ttr_us[1]),
        ttr(r.ttr_us[2]),
        ttr(r.ttr_us[3]),
    );

    if !t.slos.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12}{:>9}{:>9}{:>11}{:>9}{:>12}{:>12}{:>12}{:>12}",
            "slo class",
            "reqs",
            "thresh",
            "lat ok %",
            "avail %",
            "lat burn 5s",
            "lat burn 1m",
            "av burn 5s",
            "av burn 1m"
        );
        for slo in &t.slos {
            let _ = writeln!(
                out,
                "{:<12}{:>9}{:>7.0}ms{:>11.2}{:>9.2}{:>12.2}{:>12.2}{:>12.2}{:>12.2}",
                slo.class,
                slo.requests,
                slo.latency_threshold.as_millis_f64(),
                slo.latency_compliance_pct(),
                slo.availability_pct(),
                slo.latency_burn_fast(),
                slo.latency_burn_slow(),
                slo.availability_burn_fast(),
                slo.availability_burn_slow(),
            );
        }
    }
    out
}

/// Renders exemplar trace trees as indented span hierarchies — the
/// causal path of a request from the placement root down through cache,
/// target, stripe/journal, and flash/backend leaves, with annotations
/// (`retry`, `read-repair`, `degraded-path`, `qos-stall`) inline.
pub fn render_trace_trees(trees: &[reo_sim::TraceTree]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for tree in trees {
        let _ = writeln!(
            out,
            "\ntrace {:>4}  {:<10}  sense {:<16}  latency {:.3} ms  ({} spans{})",
            tree.trace_id,
            tree.reason,
            tree.sense.unwrap_or("success"),
            tree.latency.as_millis_f64(),
            tree.spans.len(),
            if tree.truncated_spans > 0 {
                format!(", {} truncated", tree.truncated_spans)
            } else {
                String::new()
            },
        );
        // The root (Placement) is recorded last, so span ids are not in
        // parent-before-child order: walk the tree depth-first instead,
        // siblings ordered by start time.
        let mut children: Vec<Vec<&reo_sim::TraceSpanNode>> =
            vec![Vec::new(); tree.spans.len() + 1];
        for span in &tree.spans {
            children[span.parent as usize].push(span);
        }
        for list in &mut children {
            list.sort_by_key(|s| (s.start, s.id));
        }
        let mut stack: Vec<(&reo_sim::TraceSpanNode, usize)> =
            children[0].iter().rev().map(|s| (*s, 0)).collect();
        while let Some((span, d)) = stack.pop() {
            let _ = writeln!(
                out,
                "  {:>9.3} ms  {}{:<10} {:<12} ({:.3} ms)",
                span.start.as_nanos() as f64 / 1e6,
                "  ".repeat(d),
                span.layer.as_str(),
                span.op,
                span.end.saturating_since(span.start).as_millis_f64(),
            );
            for child in children[span.id as usize].iter().rev() {
                stack.push((child, d + 1));
            }
        }
        for ann in &tree.annotations {
            let _ = writeln!(
                out,
                "  {:>9.3} ms  ! {}",
                ann.at.as_nanos() as f64 / 1e6,
                ann.label
            );
        }
    }
    out
}

/// Renders flight-recorder postmortem dumps: the trigger plus the
/// look-back window of structured events leading up to it.
pub fn render_postmortems(postmortems: &[reo_sim::Postmortem]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for pm in postmortems {
        let scope = if pm.target < 0 {
            "cluster".to_string()
        } else {
            format!("target {}", pm.target)
        };
        let _ = writeln!(
            out,
            "\npostmortem @ {:.3} ms  [{}]  trigger: {}  ({} events{})",
            pm.at.as_nanos() as f64 / 1e6,
            scope,
            pm.trigger,
            pm.events.len(),
            if pm.dropped_events > 0 {
                format!(", {} dropped", pm.dropped_events)
            } else {
                String::new()
            },
        );
        for ev in &pm.events {
            let tag = if ev.target < 0 {
                "cluster".to_string()
            } else {
                format!("t{}", ev.target)
            };
            let _ = writeln!(
                out,
                "  #{:<5} {:>9.3} ms  {:<8} {:<18} {}",
                ev.seq,
                ev.at.as_nanos() as f64 / 1e6,
                tag,
                ev.kind,
                ev.detail,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_core::{ExperimentPlan, ExperimentRunner, SchemeConfig};
    use reo_sim::ByteSize;
    use reo_workload::WorkloadSpec;

    fn traced_report() -> RunReport {
        let trace = WorkloadSpec::medium()
            .with_objects(60)
            .with_requests(600)
            .generate(7);
        let mut system = crate::build_system(
            SchemeConfig::Reo { reserve: 0.20 },
            &trace,
            0.2,
            ByteSize::from_kib(32),
        );
        system.enable_tracing();
        let plan = ExperimentPlan::normal_run().with_sampling(200);
        let result = ExperimentRunner::run(&mut system, &trace, &plan);
        collect_run_report("unit_test", "Reo-20%", &system, &result)
    }

    /// A traced single-target run whose fault dumps the flight recorder.
    fn faulted_traced_report() -> RunReport {
        let trace = WorkloadSpec::medium()
            .with_objects(60)
            .with_requests(600)
            .generate(9);
        let mut system = crate::build_system(
            SchemeConfig::Reo { reserve: 0.20 },
            &trace,
            0.2,
            ByteSize::from_kib(32),
        );
        system.enable_tracing();
        let plan = ExperimentPlan::second_failure_during_rebuild(100, 200, 300).with_sampling(200);
        let result = ExperimentRunner::run(&mut system, &trace, &plan);
        collect_run_report("faulted_unit", "Reo-20%", &system, &result)
    }

    #[test]
    fn report_covers_every_dimension() {
        let report = traced_report();
        assert_eq!(report.totals.requests, 600);
        assert!(!report.breakdown.layers.is_empty(), "tracing was enabled");
        assert_eq!(report.devices.len(), 5);
        assert!(report.cache.admissions > 0);
        assert_eq!(report.series.len(), 3);
        assert!(report.totals.classes.iter().any(|c| c.requests > 0));
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let report = traced_report();
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("own output must validate");
        assert_eq!(summary.kinds["meta"], 1);
        assert_eq!(summary.kinds["totals"], 1);
        assert_eq!(summary.kinds["cache"], 1);
        assert_eq!(summary.kinds["resilience"], 1);
        assert_eq!(summary.kinds["device"], 5);
        assert_eq!(summary.kinds["series"], 3);
        assert!(
            summary.kinds["layer"] >= 4,
            "cache/target/stripe/flash at least"
        );
        assert_eq!(
            summary.records,
            text.lines().count(),
            "every line is one record"
        );
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let report = traced_report();
        let good = jsonl(&report);

        assert!(validate_jsonl("").unwrap_err().contains("empty"));
        assert!(validate_jsonl("{\"kind\":\"totals\"}\n")
            .unwrap_err()
            .contains("first record must be `meta`"));
        assert!(validate_jsonl("not json\n").unwrap_err().contains("line 1"));

        // Wrong schema version.
        let bumped = good.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            &format!("\"schema_version\":{}", SCHEMA_VERSION + 1),
            1,
        );
        assert!(validate_jsonl(&bumped)
            .unwrap_err()
            .contains("schema_version"));

        // Unknown kinds, `shard` among them.
        for kind in ["mystery", "shard"] {
            let unknown = format!("{good}{{\"kind\":\"{kind}\"}}\n");
            assert!(validate_jsonl(&unknown)
                .unwrap_err()
                .contains("unknown record kind"));
        }

        // Duplicate totals.
        let dup = format!("{good}{}\n", good.lines().nth(1).expect("totals line"));
        assert!(validate_jsonl(&dup)
            .unwrap_err()
            .contains("exactly one `totals`"));

        // Every declared field of every declared kind: dropping it names
        // the field and its line, and a value of the wrong type is
        // rejected. The inputs must carry every kind, so a kind added
        // later without a test input fails here.
        let mut faulted = faulted_traced_report();
        faulted.perf = vec![PerfPoint {
            bench: "erasure_encode".to_string(),
            value: 3.25,
            unit: "GiB/s".to_string(),
        }];
        let docs = [jsonl(&faulted), parity_jsonl(), replication_jsonl()];
        for kind in schema() {
            let tag = format!("{{\"kind\":\"{}\"", kind.name);
            let (lines, n) = docs
                .iter()
                .find_map(|doc| {
                    let lines: Vec<&str> = doc.lines().collect();
                    let n = lines.iter().position(|l| l.starts_with(&tag))?;
                    Some((lines, n))
                })
                .unwrap_or_else(|| panic!("no test input carries a `{}` record", kind.name));
            let Raw(Value::Map(record)) = serde_json::from_str(lines[n]).expect("json") else {
                panic!("line {} is not an object", n + 1);
            };
            let with = |fields: Vec<(String, Value)>| {
                let mut doc = lines.clone();
                let line = serde_json::to_string(&Raw(Value::Map(fields))).expect("json");
                doc[n] = &line;
                validate_jsonl(&(doc.join("\n") + "\n"))
            };
            for c in &kind.columns {
                let mut without = record.clone();
                without.retain(|(k, _)| k != c.name);
                assert!(
                    without.len() < record.len(),
                    "`{}` lacks `{}`",
                    kind.name,
                    c.name
                );
                let err = with(without).unwrap_err();
                assert!(
                    err.contains(&format!("line {}:", n + 1)) && err.contains(c.name),
                    "dropping `{}` from `{}`: {err}",
                    c.name,
                    kind.name
                );
                let mut retyped = record.clone();
                let slot = retyped
                    .iter_mut()
                    .find(|(k, _)| k == c.name)
                    .expect("present");
                slot.1 = if c.ty == Ty::Str { u(0) } else { s("0") };
                let err = with(retyped).unwrap_err();
                assert!(err.contains(c.name), "retyping `{}`: {err}", c.name);
            }
        }
    }

    #[test]
    fn committed_documents_validate_at_their_declared_version() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths: Vec<_> = std::fs::read_dir(root.join("results"))
            .expect("results directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        paths.push(root.join("BENCH_perf.json"));
        let mut versions = std::collections::BTreeSet::new();
        for path in &paths {
            let text = std::fs::read_to_string(path).expect("readable document");
            let meta = text.lines().next().expect("meta line");
            let Raw(Value::Map(meta)) = serde_json::from_str(meta).expect("json") else {
                panic!("{}: meta is not an object", path.display());
            };
            let Some(&Value::U(declared)) = get(&meta, VERSION.column.name) else {
                panic!("{}: no numeric schema version", path.display());
            };
            let summary = validate_jsonl(&text)
                .unwrap_or_else(|e| panic!("{} (v{declared}): {e}", path.display()));
            assert_eq!(summary.schema_version as u128, declared);
            versions.insert(summary.schema_version);
        }
        // These are the repository's only real pre-current documents; a
        // regenerated file would silently drop an old version from the test.
        assert_eq!(versions, [4, 6, 8, 9].into(), "versions of {paths:?}");
    }

    #[test]
    fn design_md_carries_the_generated_schema_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("DESIGN.md");
        let begin = "<!-- schema table: generated by reo_bench::export::schema_markdown -->\n";
        let start = design.find(begin).expect("begin marker") + begin.len();
        let len = design[start..]
            .find("<!-- end schema table -->")
            .expect("end marker");
        let expected = schema_markdown();
        assert!(
            design[start..start + len] == expected,
            "DESIGN.md §7's schema table is stale; the block between its markers must read:\n{expected}"
        );
    }

    #[test]
    fn summary_renders_every_section() {
        let report = traced_report();
        let text = render_summary(&report);
        for needle in [
            "run report: unit_test / Reo-20%",
            "amplification:",
            "layer",
            "flash",
            "class",
            "device",
            "cache policy:",
            "resilience: health healthy",
            "rebuild QoS:",
        ] {
            assert!(text.contains(needle), "summary missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn resilience_record_reports_faults_when_they_happen() {
        let report = faulted_traced_report();
        assert!(report.resilience.health_transitions > 0);
        let text = jsonl(&report);
        validate_jsonl(&text).expect("faulted run still validates");
        assert!(text.contains("\"kind\":\"resilience\""));
    }

    #[test]
    fn perf_records_round_trip_through_the_validator() {
        let mut report = traced_report();
        report.perf = vec![
            PerfPoint {
                bench: "erasure_encode".to_string(),
                value: 3.25,
                unit: "GiB/s".to_string(),
            },
            PerfPoint {
                bench: "requests".to_string(),
                value: 120_000.0,
                unit: "req/s".to_string(),
            },
        ];
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("perf records must validate");
        assert_eq!(summary.kinds["perf"], 2);
        assert!(text.contains("\"bench\":\"erasure_encode\""));

        // A perf record without its unit is schema drift, not a new point.
        let broken = text.replace("\"unit\":\"GiB/s\"", "\"units\":\"GiB/s\"");
        assert!(validate_jsonl(&broken).unwrap_err().contains("unit"));
    }

    fn scaleout_jsonl() -> String {
        use reo_core::{ClusterSystem, PlannedEvent};
        let trace = WorkloadSpec::medium()
            .with_objects(80)
            .with_requests(600)
            .generate(11);
        let config = reo_core::SystemConfig::paper_defaults(
            SchemeConfig::Reo { reserve: 0.20 },
            trace.summary().data_set_bytes.scale(0.25),
        );
        let mut cluster = ClusterSystem::new(config, 4);
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(200, PlannedEvent::FailTarget(1))
        .with_event(400, PlannedEvent::RestoreTarget(1));
        let result = cluster.run(&trace, &plan);
        let report = collect_cluster_report("scaleout_unit", "Reo-20%", &cluster, &result);
        jsonl(&report)
    }

    #[test]
    fn cluster_report_exports_placement_records() {
        let text = scaleout_jsonl();
        let summary = validate_jsonl(&text).expect("cluster report must validate");
        assert_eq!(summary.schema_version, SCHEMA_VERSION);
        assert_eq!(summary.kinds["placement"], 4, "one row per target");
        assert_eq!(summary.kinds["device"], 20, "global device namespace");
        assert!(text.contains("\"rebuild_window_us\""));
        assert!(text.contains("\"sense_mix\""));
        assert!(text.contains("\"rejected_events_by_reason\""));
    }

    fn parity_jsonl() -> String {
        protected_cluster_jsonl(|c| c.with_parity_policy(reo_core::ParityGroupPolicy::reo(3, 1)))
    }

    fn replication_jsonl() -> String {
        protected_cluster_jsonl(|c| {
            c.with_replication_policy(reo_core::ReplicationPolicy::two_way())
        })
    }

    /// A 4-target cluster export with one target outage and restore.
    fn protected_cluster_jsonl(protect: fn(ClusterSystem) -> ClusterSystem) -> String {
        use reo_core::PlannedEvent;
        let trace = WorkloadSpec::medium()
            .with_objects(80)
            .with_requests(600)
            .generate(13);
        let config = reo_core::SystemConfig::paper_defaults(
            SchemeConfig::Reo { reserve: 0.20 },
            trace.summary().data_set_bytes.scale(0.25),
        );
        let mut cluster = protect(ClusterSystem::new(config, 4));
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(150, PlannedEvent::FailTarget(1))
        .with_event(450, PlannedEvent::RestoreTarget(1));
        let result = cluster.run(&trace, &plan);
        let report = collect_cluster_report("protected_unit", "Reo-20%", &cluster, &result);
        jsonl(&report)
    }

    #[test]
    fn parity_group_record_round_trips_through_the_validator() {
        let text = parity_jsonl();
        let summary = validate_jsonl(&text).expect("parity report must validate");
        assert_eq!(summary.schema_version, SCHEMA_VERSION);
        assert_eq!(summary.kinds["parity_group"], 1, "singleton parity record");
        assert!(text.contains("\"data_shards\":3"));
        assert!(text.contains("\"parity_shards\":1"));
        assert!(text.contains("\"served_by_parity\""));
        assert!(text.contains("\"parity_serves\""));
        assert!(text.contains("\"overhead_pct\""));

        // A parity record missing its geometry is schema drift.
        let broken = text.replace("\"data_shards\":3", "\"shards\":3");
        assert!(validate_jsonl(&broken).unwrap_err().contains("data_shards"));
    }

    #[test]
    fn parity_jsonl_is_identical_across_repeated_runs() {
        assert_eq!(
            parity_jsonl(),
            parity_jsonl(),
            "same seed must replay a byte-identical parity export"
        );
    }

    #[test]
    fn cluster_jsonl_is_identical_across_repeated_runs() {
        assert_eq!(
            scaleout_jsonl(),
            scaleout_jsonl(),
            "same seed must replay a byte-identical cluster export"
        );
    }

    #[test]
    fn validator_accepts_the_previous_schema_version() {
        let report = traced_report();
        let good = jsonl(&report);
        let old = good.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            &format!("\"schema_version\":{MIN_SCHEMA_VERSION}"),
            1,
        );
        let summary = validate_jsonl(&old).expect("v4 documents must stay valid");
        assert_eq!(summary.schema_version, MIN_SCHEMA_VERSION);
    }

    #[test]
    fn untraced_report_omits_layers_but_still_validates() {
        let trace = WorkloadSpec::medium()
            .with_objects(40)
            .with_requests(200)
            .generate(3);
        let mut system =
            crate::build_system(SchemeConfig::Parity(1), &trace, 0.2, ByteSize::from_kib(32));
        let result = ExperimentRunner::run(&mut system, &trace, &ExperimentPlan::normal_run());
        let report = collect_run_report("untraced", "1-parity", &system, &result);
        assert!(report.breakdown.layers.is_empty());
        let summary = validate_jsonl(&jsonl(&report)).expect("valid without layer records");
        assert!(!summary.kinds.contains_key("layer"));
        assert!(!summary.kinds.contains_key("series"));
    }

    #[test]
    fn slo_and_trace_records_round_trip_through_the_validator() {
        let report = traced_report();
        assert!(
            !report.exemplars.is_empty(),
            "a traced run retains slow-percentile exemplars"
        );
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("slo/trace records must validate");
        assert!(
            summary.kinds["slo"] >= 1,
            "every active class exports one slo record"
        );
        assert_eq!(summary.kinds["trace"], report.exemplars.len());
        assert!(text.contains("\"latency_burn_fast\""));
        assert!(text.contains("\"availability_burn_slow\""));
        assert!(text.contains("\"trace_id\""));
    }

    #[test]
    fn postmortem_records_round_trip_through_the_validator() {
        let report = faulted_traced_report();
        assert!(
            !report.postmortems.is_empty(),
            "leaving Healthy dumps the flight recorder"
        );
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("postmortem records must validate");
        assert_eq!(summary.kinds["postmortem"], report.postmortems.len());
        assert!(text.contains("\"trigger\":\"health-left-healthy:"));

        let rendered = render_postmortems(&report.postmortems);
        assert!(rendered.contains("trigger: health-left-healthy:"));
        assert!(rendered.contains("fault-injected"));
    }

    #[test]
    fn validator_reports_unknown_fields_with_a_line_number() {
        let report = traced_report();
        let good = jsonl(&report);

        // An extra field on the cache record is schema drift from a
        // newer exporter: named, with the offending line.
        let cache_line = good
            .lines()
            .position(|l| l.contains("\"kind\":\"cache\""))
            .expect("cache record")
            + 1;
        let drifted = good.replace("\"kind\":\"cache\"", "\"kind\":\"cache\",\"evictions\":3");
        let err = validate_jsonl(&drifted).unwrap_err();
        assert!(
            err.contains("unknown field `evictions` on `cache` record"),
            "got: {err}"
        );
        assert!(err.contains(&format!("line {cache_line}")), "got: {err}");
    }

    #[test]
    fn trace_tree_renders_the_span_hierarchy() {
        let report = traced_report();
        let text = render_trace_trees(&report.exemplars);
        for needle in ["trace", "cache", "target", "flash"] {
            assert!(text.contains(needle), "render missing `{needle}`:\n{text}");
        }
        // Children are indented under the cache root.
        assert!(
            text.contains("  cache") || text.contains("\ncache"),
            "missing root:\n{text}"
        );
    }
}
