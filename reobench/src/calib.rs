//! A fixed reference workload that tracks the host's momentary speed.
//!
//! The benchmark's own code, independent of the program: pointer chasing
//! over a table larger than the last-level cache, hash-map lookups and a
//! sort. Timing it between passes measures how fast the host runs at that
//! moment, so the end-to-end wall-clock metrics can be scaled to a fixed
//! host speed. On a shared 2-core Xeon VM whose speed drifts by tens of
//! percent over minutes, scaling by it halved the spread of one trace's
//! pass time over 90 passes (IQR/median 0.33 to 0.14); over four sets of
//! ten seeds per workload, `req_per_s` spread 0.05-0.11 scaled against
//! 0.07-0.28 unscaled. It cannot take out noise faster than a pass, nor
//! the part of a slowdown the program feels more than the reference: in
//! one set that slowed the reference by 14%, unscaled `req_per_s` fell
//! 21% and scaled 12%.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// Entries of the pointer-chase table (16 MiB of `u64`).
const CHASE: usize = 1 << 21;
/// Entries of the hash map.
const MAP: usize = 1 << 16;
/// Timed repetitions per measurement; the median is kept.
const REPS: usize = 3;

/// Median time of one reference unit on a 2-core Xeon VM at its usual
/// speed: the host speed the end-to-end wall-clock metrics are scaled to.
pub const NOMINAL_NS: f64 = 20e6;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Tables {
    chase: Vec<u64>,
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut s = 7;
        // One random cycle through every slot (Sattolo's shuffle).
        let mut order: Vec<u64> = (0..CHASE as u64).collect();
        for i in (1..CHASE).rev() {
            let j = (splitmix(&mut s) % i as u64) as usize;
            order.swap(i, j);
        }
        let mut chase = vec![0; CHASE];
        for w in 0..CHASE {
            chase[order[w] as usize] = order[(w + 1) % CHASE];
        }
        let keys: Vec<u64> = (0..MAP).map(|_| splitmix(&mut s)).collect();
        let map = keys.iter().map(|&k| (k, k >> 3)).collect();
        Tables { chase, map, keys }
    })
}

/// One unit of reference work.
fn unit(t: &Tables) -> u64 {
    let mut at = 0u64;
    for _ in 0..100_000 {
        at = t.chase[at as usize];
    }
    let mut sum = at;
    let mut s = at;
    for _ in 0..100_000 {
        let k = t.keys[(splitmix(&mut s) % MAP as u64) as usize];
        sum = sum.wrapping_add(t.map[&k]);
    }
    let mut v: Vec<u32> = (0..20_000).map(|_| splitmix(&mut s) as u32).collect();
    v.sort_unstable();
    sum.wrapping_add(u64::from(v[v.len() / 2]))
}

/// Wall time of one unit of reference work now, in nanoseconds (median
/// of [`REPS`] units).
pub fn reference_ns() -> f64 {
    let t = tables();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(unit(black_box(t)));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}
