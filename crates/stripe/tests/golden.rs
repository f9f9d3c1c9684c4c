//! Golden fixture: seeded schedules of every stripe-manager operation,
//! folded into one fingerprint per scenario.
//!
//! Each scenario drives a [`StripeManager`] through a generated schedule
//! of stores (including stores that run out of space part-way through an
//! object), reads, `overwrite_chunk`, removals, device failures, spare
//! insertion plus `rebuild_object`, latent corruption, transient read
//! faults, slowdowns, and a simulated crash followed by
//! `install_object_meta` and `remove_unreferenced_chunks`. After every
//! step the fingerprint absorbs the step's result (values and error
//! variants), the clock, the byte accounting, and every device's
//! `DeviceStats`, `busy_until`, occupancy and health; every live object's
//! `export_object_meta` bytes are absorbed as well. A drift of one
//! simulated nanosecond or one byte anywhere changes the fingerprint.
//!
//! The expected values were captured from the per-chunk implementation
//! the extent representation replaced; they pin its exact charging,
//! including the device time and wear of rolled-back partial stores.

use std::fmt::Debug;

use reo_flashsim::{DeviceConfig, DeviceId, FaultPlan, FlashArray, WriteAmplification};
use reo_sim::rng::DetRng;
use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration};
use reo_stripe::{ObjectLayout, PlacementPolicy, RedundancyScheme, StripeError, StripeManager};

/// 64-bit FNV-1a over everything observable.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

struct Scenario {
    name: &'static str,
    devices: usize,
    chunk: u64,
    real: bool,
    write_amplification: bool,
    placement: PlacementPolicy,
    capacity: u64,
    seed: u64,
    expected: u64,
}

/// Coverage counters summed over every scenario, so the fixture fails if
/// a schedule change stops exercising a path it is meant to pin.
#[derive(Default)]
struct Coverage {
    partial_full_stores: u64,
    degraded_reads: u64,
    lost_errors: u64,
    transient_retries: u64,
    rebuilds: u64,
    orphans: u64,
    overwrites: u64,
}

fn array(s: &Scenario) -> FlashArray {
    let cfg = DeviceConfig {
        capacity: ByteSize::from_bytes(s.capacity),
        read: ServiceModel::new(SimDuration::from_micros(90), 520 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(220), 470 * 1024 * 1024),
        erase_block: ByteSize::from_kib(256),
        pe_cycle_limit: 3000,
    };
    let mut a = FlashArray::new(s.devices, cfg, SimClock::new());
    if s.write_amplification {
        a.enable_write_amplification(Some(WriteAmplification::new(0.07)));
    }
    a
}

fn payload(len: u64, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn snapshot(fp: &mut Fingerprint, m: &StripeManager) {
    fp.debug(m.array().clock().now());
    fp.debug(m.usage());
    fp.u64(m.stripe_count() as u64);
    fp.u64(m.transient_retries());
    for r in m.array().device_stats() {
        fp.debug(r.stats);
        fp.u64(r.used.as_bytes());
        fp.u64(r.healthy as u64);
        fp.u64(r.wear.to_bits());
        let d = m.array().device(r.id);
        fp.debug(d.busy_until());
        fp.u64(d.chunk_count() as u64);
    }
}

fn export(fp: &mut Fingerprint, m: &StripeManager, layout: &ObjectLayout) {
    fp.u64(layout.owner());
    fp.u64(layout.size().as_bytes());
    fp.debug(layout.scheme());
    match m.export_object_meta(layout) {
        Ok(blob) => fp.bytes(&blob),
        Err(e) => fp.debug(e),
    }
}

fn run(s: &Scenario, cov: &mut Coverage) -> u64 {
    let mut fp = Fingerprint::new();
    let mut rng = DetRng::from_seed(s.seed);
    let mut plan = FaultPlan::new(s.seed ^ 0xFA17);
    let chunk = ByteSize::from_bytes(s.chunk);
    let mut m = StripeManager::with_placement(array(s), chunk, s.placement);
    let max_chunks = if s.real { 10 } else { 40 };
    let mut live: Vec<ObjectLayout> = Vec::new();
    let mut dead: Vec<ObjectLayout> = Vec::new();
    let mut owner = 0u64;

    for step in 0..220u64 {
        fp.u64(step);
        let pick = rng.below(100);
        match pick {
            0..=29 => {
                owner += 1;
                let size = 1 + rng.below(max_chunks * s.chunk);
                let scheme = match rng.below(4) {
                    0 => RedundancyScheme::parity(0),
                    1 => RedundancyScheme::parity(1),
                    2 => RedundancyScheme::parity(2),
                    _ => RedundancyScheme::Replication,
                };
                let bytes = s.real.then(|| payload(size, owner));
                let writes_before = m.array().stats().writes;
                match m.store_object(owner, ByteSize::from_bytes(size), scheme, bytes.as_deref()) {
                    Ok(layout) => {
                        export(&mut fp, &m, &layout);
                        live.push(layout);
                        if live.len() > 24 {
                            let victim = live.remove(rng.below(live.len() as u64) as usize);
                            m.remove_object(&victim);
                            dead.push(victim);
                        }
                    }
                    Err(e) => {
                        if matches!(e, StripeError::Flash(_))
                            && m.array().stats().writes > writes_before
                        {
                            cov.partial_full_stores += 1;
                        }
                        fp.debug(e);
                    }
                }
            }
            30..=47 if !live.is_empty() => {
                let layout = &live[rng.below(live.len() as u64) as usize];
                match m.read_object(layout) {
                    Ok(out) => {
                        cov.degraded_reads += out.degraded as u64;
                        fp.debug((out.degraded, out.completed_at));
                        if let Some(b) = out.bytes {
                            fp.bytes(&b);
                        }
                    }
                    Err(e) => {
                        cov.lost_errors += matches!(e, StripeError::ObjectLost { .. }) as u64;
                        fp.debug(e);
                    }
                }
            }
            48..=57 if !live.is_empty() => {
                let layout = &live[rng.below(live.len() as u64) as usize];
                let chunks = layout.size().as_bytes().div_ceil(s.chunk);
                let idx = rng.below(chunks);
                let len = s.chunk.min(layout.size().as_bytes() - idx * s.chunk);
                let bytes = s.real.then(|| payload(len, owner * 7919 + idx));
                let r = m.overwrite_chunk(layout, idx, bytes.as_deref());
                cov.overwrites += r.is_ok() as u64;
                fp.debug(r);
            }
            58..=63 if !live.is_empty() => {
                let victim = live.remove(rng.below(live.len() as u64) as usize);
                m.remove_object(&victim);
                dead.push(victim);
            }
            64..=67 => {
                let d = rng.below(s.devices as u64) as usize;
                if m.array().failed_count() + 1 < s.devices {
                    m.fail_device(DeviceId(d));
                }
                fp.u64(m.array().failed_count() as u64);
            }
            68..=72 => {
                let failed: Vec<usize> = (0..s.devices)
                    .filter(|&d| !m.array().device(DeviceId(d)).is_healthy())
                    .collect();
                // Rebuild before the spare arrives now and then: the write
                // to the still-failed device errors part-way through.
                let early = rng.below(4) == 0;
                if !failed.is_empty() && !early {
                    let d = failed[rng.below(failed.len() as u64) as usize];
                    m.replace_device(DeviceId(d));
                }
                for layout in &live {
                    let r = m.rebuild_object(layout);
                    cov.rebuilds += r.is_ok() as u64;
                    fp.debug(r);
                }
            }
            73..=76 => {
                let rate = [0.002, 0.01, 0.04][rng.below(3) as usize];
                fp.u64(m.inject_latent_corruption(&mut plan, rate) as u64);
            }
            77..=79 => {
                let rate = [0.0, 0.05, 0.6][rng.below(3) as usize];
                m.arm_transient_faults(&mut plan, rate);
            }
            80..=82 if !live.is_empty() => {
                let layout = &live[rng.below(live.len() as u64) as usize];
                let chunks = layout.size().as_bytes().div_ceil(s.chunk);
                fp.debug(m.corrupt_data_chunk(layout, rng.below(chunks)));
            }
            83..=85 => {
                for layout in live.iter().chain(dead.iter()) {
                    fp.debug(m.object_status(layout));
                }
            }
            86..=87 => {
                let d = rng.below(s.devices as u64) as usize;
                let factor = [1.0, 2.5, 7.0][rng.below(3) as usize];
                m.slow_device(&mut plan, DeviceId(d), factor);
            }
            88..=90 => {
                // Power loss: every live object but (sometimes) one had
                // its metadata journaled; the rest become orphans.
                let mut blobs: Vec<Vec<u8>> = live
                    .iter()
                    .map(|l| m.export_object_meta(l).expect("live layout"))
                    .collect();
                if !blobs.is_empty() && rng.below(2) == 0 {
                    blobs.remove(rng.below(blobs.len() as u64) as usize);
                }
                m.simulate_crash();
                snapshot(&mut fp, &m);
                live.clear();
                dead.clear();
                for blob in &blobs {
                    match m.install_object_meta(blob) {
                        Ok(layout) => {
                            export(&mut fp, &m, &layout);
                            live.push(layout);
                        }
                        Err(e) => fp.debug(e),
                    }
                }
                // Replaying the same record twice is last-write-wins.
                if let Some(blob) = blobs.first() {
                    let again = m.install_object_meta(blob).expect("reinstall");
                    export(&mut fp, &m, &again);
                }
                let orphans = m.remove_unreferenced_chunks();
                cov.orphans += orphans as u64;
                fp.u64(orphans as u64);
                fp.u64(m.referenced_chunks().len() as u64);
                fp.u64(m.double_allocated_chunks().len() as u64);
            }
            91..=93 if !live.is_empty() => {
                let layout = &live[rng.below(live.len() as u64) as usize];
                fp.debug(m.rebuild_object(layout));
            }
            94..=96 if !dead.is_empty() => {
                let layout = &dead[rng.below(dead.len() as u64) as usize];
                fp.debug(m.read_object(layout).map(|o| o.completed_at));
                fp.debug(m.object_status(layout));
                fp.debug(m.rebuild_object(layout));
                m.remove_object(layout);
            }
            _ => {
                for layout in &live {
                    export(&mut fp, &m, layout);
                }
            }
        }
        snapshot(&mut fp, &m);
    }
    cov.transient_retries += m.transient_retries();
    for layout in &live {
        export(&mut fp, &m, layout);
        m.remove_object(layout);
    }
    snapshot(&mut fp, &m);
    fp.0
}

const KIB64: u64 = 64 * 1024;
const ODD: u64 = 12_345;
const MIB: u64 = 1024 * 1024;

fn scenarios() -> Vec<Scenario> {
    use PlacementPolicy::{Fixed, RoundRobin};
    let s = |name, devices, chunk, real, wa, placement, capacity, seed, expected| Scenario {
        name,
        devices,
        chunk,
        real,
        write_amplification: wa,
        placement,
        capacity,
        seed,
        expected,
    };
    vec![
        s(
            "5dev-64k-synthetic",
            5,
            KIB64,
            false,
            false,
            RoundRobin,
            24 * MIB,
            1,
            0x2d23_0651_9ae8_fc54,
        ),
        s(
            "5dev-64k-real",
            5,
            KIB64,
            true,
            false,
            RoundRobin,
            6 * MIB,
            2,
            0x9777_e5a5_0149_a68a,
        ),
        s(
            "5dev-odd-synthetic-wa",
            5,
            ODD,
            false,
            true,
            RoundRobin,
            4 * MIB,
            3,
            0x83f1_4e13_4c27_b442,
        ),
        s(
            "5dev-odd-real",
            5,
            ODD,
            true,
            false,
            RoundRobin,
            2 * MIB,
            4,
            0x1da1_1231_1baf_3fd6,
        ),
        s(
            "3dev-64k-synthetic",
            3,
            KIB64,
            false,
            false,
            RoundRobin,
            28 * MIB,
            5,
            0x0150_1af5_a7f2_58e7,
        ),
        s(
            "3dev-64k-real-wa",
            3,
            KIB64,
            true,
            true,
            RoundRobin,
            8 * MIB,
            6,
            0x156e_923d_8df4_882c,
        ),
        s(
            "3dev-odd-synthetic-fixed",
            3,
            ODD,
            false,
            false,
            Fixed,
            6 * MIB,
            7,
            0x8e0a_b901_b2ae_7d91,
        ),
        s(
            "3dev-odd-real",
            3,
            ODD,
            true,
            false,
            RoundRobin,
            3 * MIB,
            8,
            0x6102_de2a_fc4c_2def,
        ),
    ]
}

#[test]
fn stripe_schedules_match_golden_fingerprints() {
    let mut cov = Coverage::default();
    let mut mismatches = Vec::new();
    for s in scenarios() {
        let got = run(&s, &mut cov);
        if got != s.expected {
            mismatches.push(format!(
                "{}: got {got:#018x}, expected {:#018x}",
                s.name, s.expected
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "fingerprint drift:\n{}",
        mismatches.join("\n")
    );
    assert!(
        cov.partial_full_stores > 0,
        "no store hit DeviceFull part-way"
    );
    assert!(cov.degraded_reads > 0, "no degraded read");
    assert!(cov.lost_errors > 0, "no ObjectLost read");
    assert!(cov.transient_retries > 0, "no transient retry");
    assert!(cov.rebuilds > 0, "no rebuild");
    assert!(cov.orphans > 0, "no orphan collected");
    assert!(cov.overwrites > 0, "no overwrite");
}
