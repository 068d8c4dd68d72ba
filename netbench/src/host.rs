//! Host-speed reference.
//!
//! On a shared VM the same drive runs up to ~30 % faster or slower from
//! one run to the next, in phases that last minutes. Thread CPU time
//! tracks wall time, so the time is lost to the caches and memory the
//! host shares with other tenants, and no instruction counter is
//! exposed. A fixed reference loop, independent of the program, is
//! timed next to every measurement: a small event loop with the
//! program's mix — a binary-heap agenda, a fresh small heap buffer per
//! event and dependent reads across a 64 MiB arena. Wall times are
//! reported scaled to a host on which the loop runs at
//! [`NOMINAL_OPS_PER_S`]. A change to the program moves a scaled figure
//! exactly as it moves the raw one; a slow phase of the host slows the
//! loop as well and mostly cancels. The raw figures and the factors
//! are kept in the result file.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Reference-loop speed of the reference host (operations per second).
pub const NOMINAL_OPS_PER_S: f64 = 1.5e6;
const ARENA: usize = 1 << 24;
/// Resident bytes the reference adds to the process (its arena).
pub const RESIDENT_BYTES: u64 = (ARENA * std::mem::size_of::<u32>()) as u64;
const OPS: usize = 100_000;

struct Reference {
    arena: Vec<u32>,
}

thread_local! {
    static REFERENCE: Reference = Reference::new();
}

/// Builds the reference's arena, so it is resident from the start and
/// [`RESIDENT_BYTES`] can be taken off every RSS reading.
pub fn init() {
    REFERENCE.with(|_| ());
}

/// Host speed now relative to the reference host: above 1 on a faster
/// host, below 1 on a slower one.
pub fn factor() -> f64 {
    REFERENCE.with(Reference::factor)
}

impl Reference {
    fn new() -> Self {
        // A single-cycle permutation (Sattolo), so the dependent reads
        // cannot settle into a short, cached loop.
        let mut arena: Vec<u32> = (0..ARENA as u32).collect();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in (1..ARENA).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            arena.swap(i, (x % i as u64) as usize);
        }
        Reference { arena }
    }

    fn run(&self, ops: usize) -> u64 {
        let mut agenda: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(1024);
        for k in 0..1024u32 {
            agenda.push(Reverse((k as u64, self.arena[k as usize])));
        }
        let mut acc = 0u64;
        for _ in 0..ops {
            let Reverse((t, mut at)) = agenda.pop().expect("agenda never drains");
            for _ in 0..4 {
                at = self.arena[at as usize];
            }
            // A fresh small heap buffer per event, like a wire frame.
            let mut frame = Vec::with_capacity(48);
            frame.resize(48, at as u8);
            let frame = std::hint::black_box(frame);
            acc = acc.wrapping_add(frame.iter().map(|&b| b as u64).sum::<u64>());
            agenda.push(Reverse((t + 1 + (at as u64 & 1023), at)));
        }
        std::hint::black_box(acc)
    }

    /// The loop runs once untimed first, so caches and TLB start from
    /// the same state each time.
    fn factor(&self) -> f64 {
        self.run(OPS / 4);
        let t0 = Instant::now();
        self.run(OPS);
        OPS as f64 / t0.elapsed().as_secs_f64() / NOMINAL_OPS_PER_S
    }
}
