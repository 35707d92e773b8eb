//! Host fingerprint and process memory readings.
//!
//! Every result is stamped with the host it ran on, so numbers from two
//! machines are never compared silently: the core count, the CPU model,
//! and the time of a fixed integer loop that does not touch memory.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (tens of milliseconds on a current
/// x86 core).
const CALIBRATION_ITERS: u64 = 10_000_000;

/// What a result is stamped with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// Median of five timings of the calibration loop, in nanoseconds.
    pub calibration_ns: u64,
}

impl Fingerprint {
    /// Measure this host.
    pub fn measure() -> Fingerprint {
        let mut samples: Vec<u64> = (0..5).map(|_| calibration_loop_ns()).collect();
        samples.sort_unstable();
        Fingerprint {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model: cpu_model(),
            calibration_ns: samples[2],
        }
    }

    /// One line for the report.
    pub fn render(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" calibration_ns={} (xorshift loop, {} iterations)",
            self.nproc, self.cpu_model, self.calibration_ns, CALIBRATION_ITERS
        )
    }
}

/// A dependent chain of xorshift steps: pure ALU work, so its time tracks
/// the core's clock and pipeline, not the memory system.
fn calibration_loop_ns() -> u64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_nanos() as u64
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Aggregate CPU time counters from `/proc/stat`: `(total, steal)` in
/// clock ticks, summed over all CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Share of all CPU time the hypervisor took between two [`cpu_ticks`]
/// readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    100.0 * steal as f64 / total.max(1) as f64
}
