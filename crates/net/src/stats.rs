//! Server observability: connection and request counters plus a service
//! -time histogram, shared by the readiness-loop server's event loops and
//! snapshotted for rendering by `wla-core`'s stats tables.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets (covers 1 ns ..= ~2^47 ns ≈ 39 hours).
const BUCKETS: usize = 48;

/// Lock-free log2-bucketed latency histogram (nanoseconds).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, ns: u64) {
        let idx = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate quantile (`0.0..=1.0`) in nanoseconds: the geometric
    /// midpoint of the bucket holding the q-th sample. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket i spans [2^i, 2^(i+1)); report its geometric mean.
                let lo = 1u64 << i;
                return (lo as f64 * std::f64::consts::SQRT_2) as u64;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Counters for one running server. All relaxed: these are monitoring
/// numbers, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and served (excludes shed ones).
    pub accepted: AtomicU64,
    /// Connections answered with an immediate 503 past the high-water mark.
    pub shed: AtomicU64,
    /// Currently open connections (gauge; shared across event loops so the
    /// shed decision sees the whole server).
    pub active: AtomicU64,
    /// Connections closed by the idle-timeout sweep.
    pub idle_closed: AtomicU64,
    /// Requests parsed and dispatched to the handler.
    pub requests: AtomicU64,
    /// Requests answered from a connection that had already served at
    /// least one request — the keep-alive / pipelining payoff.
    pub keepalive_requests: AtomicU64,
    /// Malformed/oversized requests answered with a 4xx and a close.
    pub parse_failures: AtomicU64,
    /// Handler service time (parse end → response buffered), nanoseconds.
    pub service: LatencyHistogram,
}

/// Plain-data copy of [`ServerStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections 503-shed at accept time.
    pub shed: u64,
    /// Currently open connections.
    pub active: u64,
    /// Connections closed by the idle sweep.
    pub idle_closed: u64,
    /// Requests served.
    pub requests: u64,
    /// Requests served on an already-warm connection.
    pub keepalive_requests: u64,
    /// Requests rejected at the codec.
    pub parse_failures: u64,
    /// Mean requests per accepted connection.
    pub requests_per_connection: f64,
    /// Median service time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile service time, microseconds.
    pub p99_us: f64,
}

impl ServerStats {
    /// Fresh zeroed stats.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// Copy every counter out.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let requests = self.requests.load(Ordering::Relaxed);
        ServerStatsSnapshot {
            accepted,
            shed: self.shed.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            requests,
            keepalive_requests: self.keepalive_requests.load(Ordering::Relaxed),
            parse_failures: self.parse_failures.load(Ordering::Relaxed),
            requests_per_connection: if accepted > 0 {
                requests as f64 / accepted as f64
            } else {
                0.0
            },
            p50_us: self.service.quantile(0.50) as f64 / 1_000.0,
            p99_us: self.service.quantile(0.99) as f64 / 1_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(1_000); // ~1 µs
        }
        h.record(1_000_000); // one 1 ms outlier
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!((512..=2048).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 <= 2048, "p99 should sit below the outlier: {p99}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= 524_288, "max must see the outlier: {p100}");
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), 0);
        h.record(0); // clamps to bucket 0
        h.record(u64::MAX); // clamps to the last bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn snapshot_derives_requests_per_connection() {
        let s = ServerStats::new();
        s.accepted.store(4, Ordering::Relaxed);
        s.requests.store(12, Ordering::Relaxed);
        s.service.record(2_000);
        let snap = s.snapshot();
        assert_eq!(snap.requests_per_connection, 3.0);
        assert!(snap.p50_us > 0.0);
        assert_eq!(ServerStats::new().snapshot().requests_per_connection, 0.0);
    }
}
