//! Per-endpoint latency and throughput accounting for `/metrics`.
//!
//! Each endpoint keeps a bounded reservoir of microsecond latencies (a
//! ring over the most recent [`LATENCY_WINDOW`] samples, allocated once
//! when the server starts, so its memory does not grow with throughput)
//! plus monotonic request/error counters. Percentiles are computed on
//! demand by sorting a copy of the window — `/metrics` is rare next to
//! `/analyze`, so the snapshot pays, not the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

use crate::cache::CacheStats;

/// Latency samples retained per endpoint (most recent wins): enough for
/// 41 samples beyond p99 at 32 KiB per endpoint.
pub const LATENCY_WINDOW: usize = 4_096;

/// One endpoint's live accounting.
#[derive(Debug)]
pub struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    /// Filled up to [`LATENCY_WINDOW`], then overwritten in request
    /// order; its capacity is reserved up front and never grows.
    window: Mutex<Vec<u64>>,
}

impl Default for EndpointMetrics {
    fn default() -> Self {
        EndpointMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            window: Mutex::new(Vec::with_capacity(LATENCY_WINDOW)),
        }
    }
}

impl EndpointMetrics {
    /// Records one served request.
    pub fn record(&self, latency_us: u64, error: bool) {
        let seen = self.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut window = self.window.lock();
        if window.len() < LATENCY_WINDOW {
            window.push(latency_us);
        } else {
            window[seen as usize % LATENCY_WINDOW] = latency_us;
        }
    }

    fn snapshot(&self) -> EndpointSnapshot {
        let mut sorted = self.window.lock().clone();
        sorted.sort_unstable();
        EndpointSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p50_us: percentile(&sorted, 50.0),
            p99_us: percentile(&sorted, 99.0),
        }
    }
}

/// The nearest-rank percentile of an ascending-sorted sample; 0 when
/// empty.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// One endpoint's `/metrics` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EndpointSnapshot {
    /// Requests served (errors included).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Median latency over the window, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency over the window, microseconds.
    pub p99_us: u64,
}

/// The whole `/metrics` response body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Verdicts returned (cache hits included) per uptime second.
    pub verdicts_per_sec: f64,
    /// `/analyze` dispatches that panicked (each answered `500`; the
    /// worker replaced its session and kept serving).
    pub panics: u64,
    /// Verdict-cache counters.
    pub cache: CacheStats,
    /// `/analyze` accounting.
    pub analyze: EndpointSnapshot,
    /// `/metrics` accounting.
    pub metrics: EndpointSnapshot,
    /// `/healthz` accounting.
    pub healthz: EndpointSnapshot,
}

/// The server's metrics registry: three endpoints plus a verdict
/// counter against the uptime clock.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    verdicts: AtomicU64,
    panics: AtomicU64,
    /// `/analyze` accounting.
    pub analyze: EndpointMetrics,
    /// `/metrics` accounting.
    pub metrics: EndpointMetrics,
    /// `/healthz` accounting.
    pub healthz: EndpointMetrics,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            verdicts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            analyze: EndpointMetrics::default(),
            metrics: EndpointMetrics::default(),
            healthz: EndpointMetrics::default(),
        }
    }
}

impl Metrics {
    /// Counts one returned verdict (hit or miss).
    pub fn count_verdict(&self) {
        self.verdicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `/analyze` dispatch that panicked.
    pub fn count_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Builds the `/metrics` response body.
    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        MetricsSnapshot {
            uptime_secs: uptime,
            verdicts_per_sec: self.verdicts.load(Ordering::Relaxed) as f64 / uptime,
            panics: self.panics.load(Ordering::Relaxed),
            cache,
            analyze: self.analyze.snapshot(),
            metrics: self.metrics.snapshot(),
            healthz: self.healthz.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn endpoint_snapshot_counts_requests_and_errors() {
        let endpoint = EndpointMetrics::default();
        endpoint.record(10, false);
        endpoint.record(20, true);
        endpoint.record(30, false);
        let snap = endpoint.snapshot();
        assert_eq!((snap.requests, snap.errors), (3, 1));
        assert_eq!(snap.p50_us, 20);
        assert_eq!(snap.p99_us, 30);
    }

    #[test]
    fn latency_window_is_allocated_once_and_keeps_the_latest_samples() {
        let endpoint = EndpointMetrics::default();
        let capacity = endpoint.window.lock().capacity();
        assert!(capacity >= LATENCY_WINDOW);
        // Three windows' worth: only the last window's latencies remain.
        for latency in 0..3 * LATENCY_WINDOW as u64 {
            endpoint.record(latency, false);
        }
        let window = endpoint.window.lock().clone();
        assert_eq!(window.len(), LATENCY_WINDOW);
        assert_eq!(endpoint.window.lock().capacity(), capacity, "never grows");
        assert_eq!(
            window.iter().min(),
            Some(&(2 * LATENCY_WINDOW as u64)),
            "older samples are overwritten"
        );
        let snap = endpoint.snapshot();
        assert_eq!(snap.requests, 3 * LATENCY_WINDOW as u64);
        assert_eq!(
            snap.p50_us,
            2 * LATENCY_WINDOW as u64 + LATENCY_WINDOW as u64 / 2 - 1
        );
    }
}
