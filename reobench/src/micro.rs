//! Stand-alone micro-benchmarks that time one layer's public API on inputs
//! from the workload's trace, for the per-layer cost the end-to-end pass
//! cannot separate.

use std::hint::black_box;
use std::time::Instant;

use reo_cache::{CacheConfig, CacheManager};
use reo_core::{SystemConfig, TargetId};
use reo_erasure::ReedSolomon;
use reo_flashsim::FlashArray;
use reo_journal::{Journal, JournalRecord};
use reo_osd::ObjectClass;
use reo_placement::PlacementRing;
use reo_sim::SimClock;
use reo_stripe::{RedundancyScheme, StripeManager};
use reo_workload::{Operation, Trace};

use crate::stats::median;

/// Timed repetitions of each micro-benchmark; the median is reported.
const REPS: usize = 3;

/// Objects stored, read and removed together by the stripe micro-benchmark.
const STRIPE_BATCH: usize = 32;

/// Wall time of one timing window, in seconds, for the erasure kernels.
const KERNEL_WINDOW_S: f64 = 0.05;

/// Median wall nanoseconds per operation over [`REPS`] runs of `run`,
/// which returns how many operations it performed.
fn ns_per_op(mut run: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let ops = run();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Stripe layer: stores, reads and removes the trace's objects in
/// batches on the workload's array geometry and chunk size. Returns wall
/// nanoseconds per chunk operation (program, read or free).
pub fn stripe_ns_per_chunk(config: &SystemConfig, trace: &Trace) -> f64 {
    ns_per_op(|| {
        let array = FlashArray::new(config.devices, config.device, SimClock::new());
        let mut stripes = StripeManager::new(array, config.chunk_size);
        for (b, batch) in trace.objects().chunks(STRIPE_BATCH).enumerate() {
            let layouts: Vec<_> = batch
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let owner = (b * STRIPE_BATCH + i) as u64;
                    stripes
                        .store_object(owner, o.size, RedundancyScheme::Parity(1), None)
                        .expect("the array has room for one batch")
                })
                .collect();
            for layout in &layouts {
                black_box(stripes.read_object(layout).expect("intact object reads"));
            }
            for layout in &layouts {
                stripes.remove_object(layout);
            }
        }
        let (reads, writes) = stripes
            .array()
            .device_stats()
            .iter()
            .fold((0, 0), |(r, w), d| (r + d.stats.reads, w + d.stats.writes));
        // Everything stored is removed again, so every programmed chunk
        // is also freed once.
        reads + 2 * writes
    })
}

/// Cache layer: replays the trace's key sequence through a stand-alone
/// `CacheManager` (admit on miss with LRU eviction to capacity, access
/// on hit, dirty on write, periodic reclassification). Returns wall
/// nanoseconds per access.
pub fn cache_ns_per_access(config: &SystemConfig, trace: &Trace) -> f64 {
    let requests = trace.requests();
    ns_per_op(|| {
        let mut cache = CacheManager::new(CacheConfig {
            capacity: config.cache_capacity,
            redundancy_reserve: config.scheme.redundancy_reserve(),
            hot_parity_overhead: CacheConfig::two_parity_overhead(config.devices),
            size_aware_hotness: config.size_aware_hotness,
        });
        for (i, r) in requests.iter().enumerate() {
            let write = r.op == Operation::Write;
            if cache.record_access(r.key) {
                if write {
                    cache.mark_dirty(r.key);
                }
            } else {
                while cache.used_bytes() + r.size > config.cache_capacity {
                    let Some(victim) = cache.lru_victim() else {
                        break;
                    };
                    cache.remove(victim);
                }
                cache.insert(r.key, r.size, write, false);
            }
            if (i + 1) % config.classification_period == 0 {
                black_box(cache.refresh_classification());
            }
        }
        requests.len() as u64
    })
}

/// Journal layer: appends one `Create` record per trace request (with a
/// layout-sized metadata blob), flushing at the configured interval and
/// checkpointing at the configured period. Returns wall nanoseconds per
/// append.
pub fn journal_ns_per_append(config: &SystemConfig, trace: &Trace) -> f64 {
    let requests = trace.requests();
    let meta = vec![0xA5u8; 96];
    ns_per_op(|| {
        let mut journal = Journal::format(config.fsync_interval);
        for (i, r) in requests.iter().enumerate() {
            journal.append(&JournalRecord::Create {
                key: r.key,
                class: ObjectClass::ColdClean,
                meta: meta.clone(),
            });
            if (i + 1) % config.checkpoint_period == 0 {
                journal.checkpoint(&meta);
            }
        }
        journal.flush();
        black_box(journal.stats());
        requests.len() as u64
    })
}

/// Placement layer: `target_of` plus `replicas_of(key, 2)` for every
/// trace request on a ring of the cluster's size and seed. Returns wall
/// nanoseconds per lookup call.
pub fn placement_ns_per_lookup(config: &SystemConfig, targets: usize, trace: &Trace) -> f64 {
    let mut ring = PlacementRing::new(config.fault_seed);
    for t in 0..targets {
        ring.add_target(TargetId(t));
    }
    let requests = trace.requests();
    ns_per_op(|| {
        for r in requests {
            black_box(ring.target_of(black_box(r.key)));
            black_box(ring.replicas_of(black_box(r.key), 2));
        }
        2 * requests.len() as u64
    })
}

/// Erasure layer at one geometry and shard size: encode and
/// single-erasure reconstruct throughput in GiB/s of data shards.
pub struct ErasureCost {
    /// Encode throughput, GiB/s of data.
    pub encode_gib_s: f64,
    /// Reconstruct throughput, GiB/s of rebuilt shard.
    pub reconstruct_gib_s: f64,
}

/// Runs `op` for [`KERNEL_WINDOW_S`] seconds, [`REPS`] times, and returns
/// the median GiB/s for `bytes` per call.
fn gib_per_s(bytes: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed().as_secs_f64() < KERNEL_WINDOW_S {
                op();
                calls += 1;
            }
            (bytes as f64 * calls as f64) / start.elapsed().as_secs_f64() / (1u64 << 30) as f64
        })
        .collect();
    median(&samples)
}

/// Measures the erasure kernels at `data + parity` shards of `shard`
/// bytes.
pub fn erasure_cost(data: usize, parity: usize, shard: usize) -> ErasureCost {
    let rs = ReedSolomon::new(data, parity).expect("valid geometry");
    let shards: Vec<Vec<u8>> = (0..data)
        .map(|d| (0..shard).map(|i| (i * 31 + d * 97) as u8).collect())
        .collect();
    let mut out = vec![Vec::new(); parity];
    let encode_gib_s = gib_per_s(data * shard, || {
        rs.encode_into(black_box(&shards), &mut out)
            .expect("encode");
    });
    let mut template: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    template.extend(rs.encode(&shards).expect("encode").into_iter().map(Some));
    let mut work = template.clone();
    let reconstruct_gib_s = gib_per_s(shard, || {
        work.clone_from(&template);
        work[0] = None;
        rs.reconstruct(black_box(&mut work)).expect("reconstruct");
    });
    ErasureCost {
        encode_gib_s,
        reconstruct_gib_s,
    }
}
