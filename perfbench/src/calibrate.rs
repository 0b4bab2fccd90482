//! Host-speed calibration.
//!
//! The host's speed drifts by tens of percent within seconds: on the
//! 2-CPU Xeon VM this was built on, a fixed single-thread loop took
//! between 65 and 110 ms from one second to the next, with CPU time
//! equal to wall time. A fixed integer kernel timed right before and
//! right after each measured call tracks that drift (its time correlated
//! at 0.87–0.93 with the simulator's case times), so every host time the
//! benchmark reports is scaled to the speed at which the kernel takes
//! [`REFERENCE_S`].

use std::time::Instant;

/// Kernel seconds that define the reference host speed.
pub const REFERENCE_S: f64 = 0.010;

/// Kernel iterations: about [`REFERENCE_S`] on the reference host.
const ITERATIONS: u64 = 1_000_000;

/// Host seconds of one run of the kernel: xorshift steps with
/// data-dependent branches and loads over a 32 KiB table, the kind of
/// integer work the simulator does.
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut table = [0u64; 4096];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x & 4095) as usize;
        table[k] = table[k].wrapping_add(i ^ x);
        if table[k] & 1 == 0 {
            x = x.wrapping_add(table[(k * 7) & 4095]);
        }
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// Kernel timings at the boundaries of consecutive measurements.
#[derive(Debug)]
pub struct Calibration {
    last: f64,
}

impl Calibration {
    /// Time the kernel before the first measurement.
    pub fn start() -> Calibration {
        Calibration { last: kernel_s() }
    }

    /// Close the measurement since the previous boundary: time the
    /// kernel again and return the factor that scales the measurement to
    /// reference speed (above 1 when the host ran faster than reference).
    pub fn factor(&mut self) -> f64 {
        let now = kernel_s();
        let mean = (self.last + now) / 2.0;
        self.last = now;
        REFERENCE_S / mean
    }
}
