//! Host-speed reference for host-time metrics.
//!
//! On a shared host the same code runs 10–20 % faster or slower from one
//! run to the next, as neighbours come and go. A run therefore also times
//! a fixed loop that belongs to the benchmark, not to the program — an
//! event queue on a `BinaryHeap`, branchy and allocation-free like the
//! simulator's hot path — between timed calls (never inside one), and
//! every host time it reports is scaled to what it would have been at the
//! reference loop's nominal speed. The loop cannot see changes to the
//! program, so a faster or slower program still moves the scaled figures
//! one for one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rtdvs_taskgen::SplitMix64;

/// Nanoseconds one reference loop takes on the development host (2 vCPU
/// x86-64 guest at 2.1 GHz), so scaled figures read as that host's.
pub const NOMINAL_NS: f64 = 4_000_000.0;
/// Pops and pushes per reference loop.
const OPS: usize = 50_000;
/// Minimum host time between two reference loops.
const EVERY: Duration = Duration::from_millis(100);

/// Reference loops run so far and their total time.
#[derive(Debug, Default)]
pub struct Reference {
    loops: u64,
    total_ns: f64,
    last: Option<Instant>,
}

impl Reference {
    /// Runs the reference loop if the last one is older than [`EVERY`].
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        self.total_ns += run_loop();
        self.loops += 1;
        self.last = Some(Instant::now());
    }

    /// How much slower than nominal the host ran this run (1.0 = nominal;
    /// 1.0 before any loop ran).
    pub fn slowdown(&self) -> f64 {
        if self.loops == 0 {
            return 1.0;
        }
        self.total_ns / self.loops as f64 / NOMINAL_NS
    }
}

/// One reference loop: a 512-entry event queue advanced [`OPS`] times.
fn run_loop() -> f64 {
    let mut rng = SplitMix64::seed_from_u64(0xBE7C);
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..512u32)
        .map(|i| Reverse((rng.next_u64() >> 20, i)))
        .collect();
    let mut table = [0u64; 512];
    let t0 = Instant::now();
    for _ in 0..OPS {
        let Reverse((t, i)) = heap.pop().expect("the queue never drains");
        let slot = &mut table[i as usize];
        *slot = slot.wrapping_add(t);
        let dt = (rng.next_u64() >> 44) + if *slot & 1 == 0 { 7 } else { 3 };
        heap.push(Reverse((t + dt, i)));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(&table);
    ns
}
