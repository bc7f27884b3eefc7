//! Clock-corrected seconds.
//!
//! This host's cores change frequency under the benchmark: mostly a base
//! level, for seconds at a time a turbo level about 1.25x faster, with
//! steps in between. Every repetition of every workload shows the same
//! levels, and so does a loop that touches no memory. Ten runs that fall
//! on both sides of a switch spread by the whole step, which is as wide as
//! the widest bound a metric may have — wall-clock time cannot tell a 20 %
//! slower program from a 20 % slower processor.
//!
//! So every end-to-end time is measured by the wall clock and then
//! expressed in seconds *at a fixed reference frequency*: around each
//! timed interval the benchmark runs a short chain of dependent integer
//! operations (a fixed number of cycles per step on a given
//! microarchitecture, whatever else the host is doing), reads the core's
//! speed off it in steps per second, and multiplies the interval by
//! speed / reference. The chain is the benchmark's own code, so no change
//! to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the chain per probe: about a quarter of a millisecond.
const PROBE_STEPS: u64 = 100_000;
/// Probes per reading of the speed.
const PROBES: usize = 8;

/// The chain's speed, in steps per second, at which a corrected second
/// equals a wall-clock second: this host's base-frequency state. Only
/// ratios between runs matter; the constant fixes the scale.
pub const REFERENCE_STEPS_PER_S: f64 = 4.2e8;

/// `steps` dependent multiply-add-shift-xor steps. Each needs the one
/// before, so the time is steps x latency in cycles, with no memory
/// traffic and nothing for a neighbour on the host to contend for.
fn chain(steps: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..steps {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    x
}

/// The core's speed now, as a multiple of the reference: the fastest of
/// eight probes. An interrupt, a preemption or an engine thread still
/// winding down can only slow a probe, never speed it up, and the fastest
/// one lands on the core's frequency steps to three digits.
pub fn speed() -> f64 {
    let fastest = (0..PROBES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(chain(PROBE_STEPS));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    PROBE_STEPS as f64 / fastest / REFERENCE_STEPS_PER_S
}

/// Runs `work` between two probes and returns its result with the mean
/// of the two speeds. An interval of `wall` seconds measured inside
/// `work` is `wall * speed` corrected seconds.
pub fn paced<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = speed();
    let out = work();
    (out, (before + speed()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_not_optimised_away_and_the_speed_is_sane() {
        assert_ne!(chain(1000), chain(1001));
        let s = speed();
        assert!(s > 0.05 && s < 20.0, "speed {s}");
    }
}
