//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed moves by tens of percent
//! over seconds to minutes (other tenants, frequency scaling), far more
//! than the changes it has to detect. Every host time it reports is
//! therefore scaled to a reference host: a fixed kernel runs before and
//! after each repetition, and the repetition's times are multiplied by
//! [`REFERENCE_S`] ÷ the mean of the two kernel times. Each kernel time is
//! the median of three passes, so one pass that lands on a momentary stall
//! does not move it.
//!
//! The kernel is std-only and calls nothing in the simulator, so a change
//! to the simulator moves the scaled times in the same proportion as the
//! raw ones. Its traffic is the simulator's kind: a binary-heap queue of boxed
//! entries, an ordered map, and the allocator. It must never change: every
//! scaled time would move with it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// The kernel's time on the reference host, a 2-vCPU 2.1 GHz Xeon VM
/// (about its median there, so scaled times read close to raw ones).
pub const REFERENCE_S: f64 = 0.015;

/// Host seconds of the kernel: the median of three passes.
pub fn kernel_s() -> f64 {
    let mut passes = [pass_s(), pass_s(), pass_s()];
    passes.sort_by(f64::total_cmp);
    passes[1]
}

fn pass_s() -> f64 {
    let started = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut x: u64 = 12_345;
    let mut sum = 0u64;
    for i in 0..60_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        queue.push(Reverse((x >> 40, Box::new(i))));
        map.insert(x >> 44, i);
        if i % 2 == 1 {
            let Reverse((key, boxed)) = queue.pop().expect("the queue holds an entry");
            sum = sum.wrapping_add(key + *boxed);
            map.remove(&(key >> 4));
        }
    }
    std::hint::black_box((sum, queue.len(), map.len()));
    started.elapsed().as_secs_f64()
}

/// The factor that scales host times measured between two kernel passes
/// taking `before_s` and `after_s` to reference-host times.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_S / (before_s + after_s)
}
