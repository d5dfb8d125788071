//! Host-speed calibration for the batch workloads.
//!
//! On a shared host one vCPU's speed swings by up to 2x, in slow
//! stretches of a fraction of a second to minutes, as other tenants come
//! and go; the engine's wall and CPU times swing with it. A fixed kernel
//! of the benchmark's own, which calls nothing in the program, is timed
//! before every timed step and after the last. Each step's time is then
//! scaled by the kernel's reference time over its median time around
//! that step, so a batch metric reads what the step would have taken on
//! a host running the kernel in [`REFERENCE_NS`]. A change to the
//! program moves the step and not the kernel, so it shows in full.

use std::hint::black_box;
use std::time::Instant;

/// Words of the kernel's working set: 16 KiB, inside L1.
const WORDS: usize = 2048;

/// Passes over the working set per sample, about 0.4 ms of work.
const PASSES: usize = 200;

/// Samples on each side of a step that its speed estimate uses.
const HALF_WINDOW: usize = 4;

/// The kernel's time on the reference host (2-vCPU Intel Xeon virtual
/// machine, release build, quiet stretch). Only ratios to it matter; it
/// fixes the scale of the reported numbers.
pub const REFERENCE_NS: f64 = 0.42e6;

/// The calibration kernel and its samples.
#[derive(Debug)]
pub struct Calibration {
    words: Vec<u64>,
    samples_ns: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// A kernel with fixed contents: the same on every run and build.
    pub fn new() -> Self {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let words = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibration {
            words,
            samples_ns: Vec::new(),
        }
    }

    /// Runs the kernel once, bit-parallel gate evaluation over the
    /// working set, and records its wall time in ns.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for pass in 0..PASSES {
            for i in 0..WORDS {
                let a = self.words[i];
                let b = self.words[(i * 7 + pass) % WORDS];
                let out = (a & b) ^ !(a | b.rotate_left(3));
                self.words[i] = out;
                acc ^= out;
            }
        }
        black_box(acc);
        let ns = t.elapsed().as_secs_f64() * 1e9;
        self.samples_ns.push(ns);
        ns
    }

    /// Samples taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples_ns
    }

    /// Speed factor of the step between samples `i` and `i + 1`:
    /// [`REFERENCE_NS`] over the median of the samples within
    /// [`HALF_WINDOW`] of it. A time times the factor is reference time.
    pub fn factor(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(HALF_WINDOW - 1);
        let hi = (i + 1 + HALF_WINDOW).min(self.samples_ns.len());
        REFERENCE_NS / median(&self.samples_ns[lo..hi])
    }

    /// Speed factor over every sample taken.
    pub fn overall_factor(&self) -> f64 {
        REFERENCE_NS / median(&self.samples_ns)
    }
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    crate::report::percentile(&s, 0.5)
}
