//! Reference-machine time.
//!
//! The shared 2-vCPU VM this benchmark was written on changes speed by up
//! to 2× within minutes: a fixed loop's thread CPU time swung as much as
//! its wall time, and qof's query latency followed both. No run length
//! averages that away, because the speed drifts over minutes as well as
//! seconds. So every operation the untraced run times is bracketed by a
//! fixed computation that involves no qof code, and its time is given on a
//! reference machine: one on which that computation takes [`NOMINAL_MS`].
//! Over 5-second windows of three `lookup` processes, raw p50 latency
//! spread 0.24 (quartile distance ÷ median) and the reference-machine p50
//! 0.04; on `partial`, 0.38 and 0.14. A larger sort (2 MiB) or a pointer
//! chase over 32 MiB, meant to follow memory-bound work, tracked `partial`
//! no better than this cache-resident sort.

use std::hint::black_box;
use std::time::Instant;

/// What the reference computation takes on the reference machine.
pub const NOMINAL_MS: f64 = 1.0;

/// Values sorted by one reference computation (128 KiB, cache-resident).
const VALUES: usize = 32 * 1024;

/// The reference computation and its buffer.
pub struct Reference {
    buf: Vec<u32>,
}

/// One operation timed between two reference computations.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time of the operation in ms.
    pub wall_ms: f64,
    /// Mean time of the reference computation just before and just after.
    pub ref_ms: f64,
}

impl Timed {
    /// The operation's time in ms on the reference machine.
    pub fn ms(self) -> f64 {
        on_reference(self.wall_ms, self.ref_ms)
    }
}

/// `wall_ms` measured while the reference computation took `ref_ms`, in ms
/// on the reference machine.
pub fn on_reference(wall_ms: f64, ref_ms: f64) -> f64 {
    wall_ms * NOMINAL_MS / ref_ms
}

impl Reference {
    pub fn new() -> Reference {
        Reference { buf: vec![0; VALUES] }
    }

    /// Runs the reference computation once: fills the buffer from a fixed
    /// xorshift stream and sorts it. Returns its wall time in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u32 = 0x9e37_79b9;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *v = x;
        }
        self.buf.sort_unstable();
        black_box(&self.buf);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `f` between two reference computations.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.sample_ms();
        let t = Instant::now();
        let out = f();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.sample_ms();
        (out, Timed { wall_ms, ref_ms: (before + after) / 2.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_wall_time_by_the_reference() {
        assert_eq!(on_reference(10.0, 0.5), 20.0);
        assert_eq!(Timed { wall_ms: 3.0, ref_ms: NOMINAL_MS }.ms(), 3.0);
        let mut r = Reference::new();
        let (v, t) = r.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.ref_ms > 0.0 && t.wall_ms >= 0.0);
        assert!(r.buf.windows(2).all(|w| w[0] <= w[1]));
    }
}
