//! Host-speed calibration.
//!
//! The benchmark shares its host, whose speed drifts by up to about
//! 1.5x over seconds to minutes as other tenants load it. The drift
//! is measured with a fixed kernel that shares no code with the
//! program (the standard library only): short slices of it run
//! between operations all through a run, and every timing is reported
//! at the reference speed, divided by the median of the slices nearest
//! it in time over [`REF_SLICE_MS`]. A program change moves the
//! timings and not the slices, so it shows in full; a slower stretch of
//! the host moves both and largely cancels (on the reference host the
//! run-to-run spread of the `serve` latencies fell from about 0.2 to
//! 0.06). Compile times follow the host somewhat more than the kernel
//! does, so part of their drift remains. The run's median factor is
//! printed as `host_slowdown`.

use crate::stats::median;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Milliseconds one slice takes on the reference host (2-vCPU VM,
/// release build) when nothing else loads it.
pub const REF_SLICE_MS: f64 = 0.95;

/// Work between a thread's slices: about 5 % of a run calibrates.
pub const SLICE_EVERY: Duration = Duration::from_millis(20);

/// Entries of the kernel's table: 512 KiB, a working set like a
/// compile's, held by the calibrating thread so that no slice
/// allocates (the program's heap state cannot move the slices).
const ENTRIES: usize = 1 << 17;

/// Steps of one slice's walk: about [`REF_SLICE_MS`] on the reference
/// host.
const STEPS: usize = 1 << 17;

/// The kernel's table: one random cycle through every entry.
struct Kernel {
    next: Vec<u32>,
}

impl Kernel {
    /// Builds the table (Sattolo's shuffle from a fixed seed).
    fn new() -> Kernel {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Kernel { next }
    }

    /// Walks the cycle `steps` steps, mixing each entry into a hash and
    /// branching on it: dependent loads, multiplies and unpredictable
    /// branches, as in a compile. Returns the hash, so none of it can
    /// be optimised away.
    fn walk(&self, steps: usize) -> u64 {
        let (mut i, mut h) = (0usize, 0xCBF2_9CE4_8422_2325u64);
        for _ in 0..steps {
            i = self.next[i] as usize;
            h = (h ^ i as u64).wrapping_mul(0x0100_0000_01B3);
            if h & 4 == 0 {
                h = h.rotate_left(7);
            }
        }
        h
    }

    /// Times one slice, in milliseconds: a walk after an untimed one
    /// that brings the table back into cache, so what the thread did
    /// before does not move it.
    fn slice(&self) -> f64 {
        std::hint::black_box(self.walk(STEPS / 4));
        let t = Instant::now();
        std::hint::black_box(self.walk(STEPS));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Slices nearest in time whose median is a sample's local speed.
const NEAREST: usize = 15;

/// The slices of one run, from every thread, each with the seconds
/// from the start of the run at which it ran.
#[derive(Debug)]
pub struct HostSpeed {
    start: Instant,
    slices: Mutex<Vec<(f64, f64)>>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed {
            start: Instant::now(),
            slices: Mutex::new(Vec::new()),
        }
    }
}

impl HostSpeed {
    /// No slices yet; the run starts now.
    pub fn new() -> HostSpeed {
        HostSpeed::default()
    }

    /// Seconds since the start of the run: the time base of
    /// [`Speeds::at`].
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs `n` slices now.
    pub fn measure(&self, n: usize) {
        let mut pacer = self.pacer();
        for _ in 0..n {
            pacer.slice();
        }
    }

    /// A per-thread pacer that slices every [`SLICE_EVERY`].
    pub fn pacer(&self) -> Pacer<'_> {
        Pacer {
            speed: self,
            kernel: Kernel::new(),
            last: Instant::now(),
            mine: Vec::new(),
        }
    }

    /// The slices recorded so far, for looking up local speeds.
    pub fn speeds(&self) -> Speeds {
        let mut slices = self.slices.lock().expect("slices lock poisoned").clone();
        slices.sort_by(|a, b| a.0.total_cmp(&b.0));
        Speeds { slices }
    }
}

/// A run's slices in time order.
pub struct Speeds {
    slices: Vec<(f64, f64)>,
}

impl Speeds {
    /// Slices recorded.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether no slice was recorded.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// How much slower than the reference the host ran over the whole
    /// run: the median slice over [`REF_SLICE_MS`]. 1 without slices.
    pub fn slowdown(&self) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        median(&self.slices.iter().map(|s| s.1).collect::<Vec<_>>()) / REF_SLICE_MS
    }

    /// How much slower than the reference the host ran around `t`
    /// seconds into the run: the median of the [`NEAREST`] slices
    /// nearest in time, over [`REF_SLICE_MS`]. A timing that started at
    /// `t` is divided by it (a rate multiplied). 1 without slices.
    pub fn at(&self, t: f64) -> f64 {
        let n = self.slices.len();
        if n == 0 {
            return 1.0;
        }
        let k = NEAREST.min(n);
        // The window of `k` slices whose times lie nearest `t`.
        let mut lo = self
            .slices
            .partition_point(|s| s.0 < t)
            .saturating_sub(k / 2)
            .min(n - k);
        let mut hi = lo + k;
        while lo > 0 && t - self.slices[lo - 1].0 < self.slices[hi - 1].0 - t {
            lo -= 1;
            hi -= 1;
        }
        while hi < n && self.slices[hi].0 - t < t - self.slices[lo].0 {
            lo += 1;
            hi += 1;
        }
        median(&self.slices[lo..hi].iter().map(|s| s.1).collect::<Vec<_>>()) / REF_SLICE_MS
    }
}

/// Slices a thread's work: call [`Pacer::tick`] between operations.
pub struct Pacer<'a> {
    speed: &'a HostSpeed,
    kernel: Kernel,
    last: Instant,
    mine: Vec<(f64, f64)>,
}

impl Pacer<'_> {
    /// Runs a slice when [`SLICE_EVERY`] has gone since the last.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= SLICE_EVERY {
            self.slice();
        }
    }

    fn slice(&mut self) {
        let at = self.speed.now();
        self.mine.push((at, self.kernel.slice()));
        self.last = Instant::now();
    }
}

impl Drop for Pacer<'_> {
    fn drop(&mut self) {
        if let Ok(mut slices) = self.speed.slices.lock() {
            slices.append(&mut self.mine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_speed_is_the_median_of_the_nearest_slices() {
        // 40 slices a second apart: 1 ms for 20 s, then 2 ms.
        let slices = (0..40)
            .map(|i| (f64::from(i), if i < 20 { 1.0 } else { 2.0 }))
            .collect();
        let s = Speeds { slices };
        // Milliseconds of the local median slice, to nine places.
        let at = |t: f64| (s.at(t) * REF_SLICE_MS * 1e9).round() / 1e9;
        assert_eq!(at(-5.0), 1.0);
        assert_eq!(at(5.0), 1.0);
        assert_eq!(at(17.0), 1.0);
        assert_eq!(at(23.0), 2.0);
        assert_eq!(at(100.0), 2.0);
        assert!((s.slowdown() * REF_SLICE_MS - 1.5).abs() < 1e-9);
        assert_eq!(Speeds { slices: Vec::new() }.at(1.0), 1.0);
    }
}
