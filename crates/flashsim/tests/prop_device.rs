//! Property tests for the flash device model: random operation sequences
//! keep accounting, state, and the time horizon consistent.

use proptest::prelude::*;
use reo_flashsim::{
    ChunkHandle, ChunkRun, DeviceConfig, DeviceId, FlashArray, FlashDevice, FlashError,
    StoredChunk, WriteAmplification,
};
use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration, SimTime};

fn config() -> DeviceConfig {
    DeviceConfig {
        capacity: ByteSize::from_kib(1024),
        read: ServiceModel::new(SimDuration::from_micros(90), 512 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
        erase_block: ByteSize::from_kib(64),
        pe_cycle_limit: 1000,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write { handle: u64, kib: u64 },
    Read { handle: u64 },
    Remove { handle: u64 },
    Corrupt { handle: u64 },
    Fail,
    Spare,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12, 1u64..128).prop_map(|(handle, kib)| Op::Write { handle, kib }),
        (0u64..12).prop_map(|handle| Op::Read { handle }),
        (0u64..12).prop_map(|handle| Op::Remove { handle }),
        (0u64..12).prop_map(|handle| Op::Corrupt { handle }),
        Just(Op::Fail),
        Just(Op::Spare),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn device_invariants_hold_under_chaos(
        ops in proptest::collection::vec(arb_op(), 1..100),
        with_wa: bool,
    ) {
        let mut d = FlashDevice::new(DeviceId(0), config());
        if with_wa {
            d.set_write_amplification(Some(WriteAmplification::new(0.07)));
        }
        // Shadow model: what should be intact, and its size.
        let mut shadow: std::collections::HashMap<u64, (u64, bool)> =
            std::collections::HashMap::new();
        let mut now = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Write { handle, kib } => {
                    let chunk = StoredChunk::synthetic(ByteSize::from_kib(kib));
                    match d.write_chunk(ChunkHandle::new(handle), chunk, now) {
                        Ok(done) => {
                            prop_assert!(done > now, "writes take time");
                            now = done;
                            shadow.insert(handle, (kib, true));
                        }
                        Err(FlashError::DeviceFull { .. }) => {}
                        Err(FlashError::DeviceFailed(_)) => {
                            prop_assert!(!d.is_healthy());
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                    }
                }
                Op::Read { handle } => {
                    match d.read_chunk(ChunkHandle::new(handle), now) {
                        Ok((chunk, done)) => {
                            prop_assert!(d.is_healthy());
                            let (kib, intact) = shadow[&handle];
                            prop_assert!(intact, "read of corrupted chunk succeeded");
                            prop_assert_eq!(chunk.len(), ByteSize::from_kib(kib));
                            now = done;
                        }
                        Err(FlashError::DeviceFailed(_)) => prop_assert!(!d.is_healthy()),
                        Err(FlashError::UnknownChunk(_)) => {
                            prop_assert!(!shadow.contains_key(&handle));
                        }
                        Err(FlashError::Corrupted(_)) => {
                            prop_assert!(!shadow[&handle].1);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("read: {e}"))),
                    }
                }
                Op::Remove { handle } => {
                    d.remove_chunk(ChunkHandle::new(handle));
                    shadow.remove(&handle);
                }
                Op::Corrupt { handle } => {
                    d.corrupt_chunk(ChunkHandle::new(handle));
                    if let Some(e) = shadow.get_mut(&handle) {
                        e.1 = false;
                    }
                }
                Op::Fail => {
                    d.fail();
                    for e in shadow.values_mut() {
                        e.1 = false;
                    }
                }
                Op::Spare => {
                    d.replace_with_spare();
                    shadow.clear();
                }
            }

            // Accounting invariants after every step.
            let expected_used: u64 = shadow.values().map(|(kib, _)| kib * 1024).sum();
            prop_assert_eq!(d.used().as_bytes(), expected_used, "space drifted");
            prop_assert!(d.used() <= d.config().capacity);
            prop_assert_eq!(d.chunk_count(), shadow.len());
            prop_assert!(d.wear_fraction() >= 0.0);
            prop_assert!(d.busy_until() >= SimTime::ZERO);
        }
    }
}

/// A one-device array with some prior traffic, so runs start behind a
/// busy horizon and on a partly filled device.
fn warmed(wa: bool, slowdown: f64, warm_kib: u64) -> FlashArray {
    let mut array = FlashArray::new(1, config(), SimClock::new());
    let d = array.device_mut(D0);
    if wa {
        d.set_write_amplification(Some(WriteAmplification::new(0.07)));
    }
    d.set_slowdown(slowdown);
    if warm_kib > 0 {
        d.write_chunk(
            ChunkHandle::new(1 << 40),
            StoredChunk::synthetic(ByteSize::from_kib(warm_kib)),
            SimTime::ZERO,
        )
        .unwrap();
    }
    array
}

const D0: DeviceId = DeviceId(0);

fn same_device(a: &FlashDevice, b: &FlashDevice) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.stats(), b.stats());
    prop_assert_eq!(a.busy_until(), b.busy_until());
    prop_assert_eq!(a.used(), b.used());
    prop_assert_eq!(a.chunk_count(), b.chunk_count());
    prop_assert_eq!(a.chunk_handles(), b.chunk_handles());
    prop_assert_eq!(a.intact_handles(), b.intact_handles());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whole-run programs, reads and removals charge exactly what the
    /// same operations chunk by chunk do: stats, busy horizon, space,
    /// contents — including a run that runs out of room part-way.
    #[test]
    fn run_operations_match_chunk_by_chunk(
        block in 0u64..40,
        stride in 1u64..7,
        offset_seed in 0u64..7,
        rotate: bool,
        count in 0u64..24,
        kib in 1u64..96,
        last_kib in 0u64..96,
        reads_seed in 0u64..24,
        read_last: bool,
        wa: bool,
        slow: bool,
        warm_kib in 0u64..512,
        now_us in 0u64..2_000,
    ) {
        let progression_end = block + count * stride;
        let run = ChunkRun {
            block,
            stride,
            offset: offset_seed % stride,
            rotate,
            count,
            len: ByteSize::from_kib(kib),
            last: (last_kib > 0 || count == 0).then(|| {
                (ChunkHandle::new(progression_end + last_kib % 3), ByteSize::from_kib(last_kib.max(1)))
            }),
        };
        let slowdown = if slow { 2.5 } else { 1.0 };
        let now = SimTime::from_nanos(now_us * 1_000);
        let mut bulk_array = warmed(wa, slowdown, warm_kib);
        let mut each_array = warmed(wa, slowdown, warm_kib);
        let (bulk, each) = (bulk_array.device_mut(D0), each_array.device_mut(D0));

        let (fit, err) = bulk.writable(&run);
        let fitting = if fit == run.chunks() { run } else { run.below(run.handle(fit)) };
        if fit > 0 {
            bulk.program_run(&fitting, now).unwrap();
        }
        let mut first_err = None;
        for i in 0..run.chunks() {
            let chunk = StoredChunk::synthetic(run.len_of(i));
            if let Err(e) = each.write_run_chunk(&run, i, chunk, now) {
                first_err = Some((i, e));
                break;
            }
        }
        prop_assert_eq!(first_err.as_ref().map(|(i, _)| *i).unwrap_or(run.chunks()), fit);
        prop_assert_eq!(first_err.map(|(_, e)| e), err);
        same_device(bulk, each)?;
        if fit == 0 {
            return Ok(());
        }
        prop_assert!(bulk.run_is_clean(&fitting));
        if fit == run.chunks() {
            prop_assert!(each.run_is_clean(&run), "chunk-by-chunk writes join one run");
        }

        let reads = if fitting.count == 0 { 0 } else { 1 + reads_seed % fitting.count };
        let read_last = read_last && fitting.last.is_some();
        let later = now + reo_sim::SimDuration::from_micros(50);
        let done = bulk_array.read_clean_runs([(D0, fitting, reads, read_last)], later);
        let each = each_array.device_mut(D0);
        let mut last_done = later;
        for i in 0..reads {
            last_done = each.read_chunk(fitting.handle(i), later).unwrap().1;
        }
        if read_last {
            last_done = each.read_chunk(fitting.handle(fitting.count), later).unwrap().1;
        }
        prop_assert_eq!(done, Some(last_done));
        let bulk = bulk_array.device_mut(D0);
        same_device(bulk, each)?;

        bulk.remove_run(&fitting);
        for i in 0..fit {
            each.remove_chunk(fitting.handle(i));
        }
        same_device(bulk, each)?;
    }
}
