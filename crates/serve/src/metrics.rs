//! Serving observability primitives: the log-bucketed latency histogram,
//! the per-model counter block, and the Prometheus text-format rendering
//! of a [`ServeStats`](crate::ServeStats) snapshot.
//!
//! Everything here is plain counters — no background threads, no
//! allocation on the record path — so the queue can update them under
//! its own lock.

use crate::queue::ServeStats;
use std::time::Duration;

/// Number of log2 buckets in a [`LatencyHistogram`]. Bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds (bucket 0 additionally absorbs sub-µs
/// latencies), so 32 buckets span sub-microsecond to ~71 minutes.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log2-bucketed latency histogram: constant-size, mergeable, and
/// recordable under a lock without allocating.
///
/// Bucket `i` counts latencies in `[2^i, 2^(i+1))` microseconds; the last
/// bucket absorbs everything above. Quantiles are read back as the upper
/// bound of the bucket the quantile falls in, so a reported p99 is an
/// upper estimate with at most 2× resolution error — enough to steer
/// capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }

    /// The bucket index a latency falls in.
    fn bucket_of(latency: Duration) -> usize {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        // floor(log2(us)) with us=0 landing in bucket 0.
        let idx = 63 - (us | 1).leading_zeros() as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
        self.sum_us = self
            .sum_us
            .saturating_add(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded latencies (microsecond resolution).
    pub fn sum(&self) -> Duration {
        Duration::from_micros(self.sum_us)
    }

    /// The raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))` µs).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `i`, in microseconds.
    pub fn bucket_upper_us(i: usize) -> u64 {
        1u64 << (i as u32 + 1)
    }

    /// Folds `other` into `self` (bucketwise add).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }

    /// The latency below which a `q` fraction (`0.0..=1.0`) of
    /// observations fall, as the upper bound of the bucket containing
    /// that rank — `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_micros(Self::bucket_upper_us(i)));
            }
        }
        Some(Duration::from_micros(Self::bucket_upper_us(
            HISTOGRAM_BUCKETS - 1,
        )))
    }
}

/// Per-model serving counters, in [`ServeStats::models`](crate::ServeStats)
/// (slot order — evicted models keep their row).
#[derive(Debug, Clone, Default)]
pub struct ModelStats {
    /// Registered model name.
    pub name: String,
    /// Quantization-scheme name of the model
    /// ([`cq_core::QuantScheme::name`], sniffed at registration) — the key
    /// [`ServeStats::images_by_scheme`](crate::ServeStats::images_by_scheme)
    /// aggregates under. Empty on a raw queue snapshot; the session
    /// overlays it, like `name`.
    pub scheme: String,
    /// Requests served against this model.
    pub served: u64,
    /// Coalesced sweeps executed against it.
    pub sweeps: u64,
    /// Images (batch rows) swept through it.
    pub images: u64,
    /// Whether the model has been evicted from the live session.
    pub evicted: bool,
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn push_metric_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Renders one unlabelled histogram in Prometheus exposition format
/// (cumulative `_bucket{le=..}` rows in seconds, plus `_sum` and
/// `_count`). Buckets below the first populated one are skipped; every
/// bound from there on is emitted, so the rows stay cumulative.
fn push_histogram(out: &mut String, name: &str, h: &LatencyHistogram) {
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        cumulative += c;
        if cumulative == 0 {
            continue;
        }
        let le = LatencyHistogram::bucket_upper_us(i) as f64 / 1e6;
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum().as_secs_f64()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

impl ServeStats {
    /// Renders the snapshot in the Prometheus text exposition format — a
    /// scrape body a sidecar can serve verbatim: global counters and
    /// gauges, the latency histogram (seconds), and per-model /
    /// per-scheme / per-backend counters.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);

        push_metric_header(
            &mut out,
            "cq_serve_requests_total",
            "counter",
            "Requests by admission outcome.",
        );
        out.push_str(&format!(
            "cq_serve_requests_total{{outcome=\"admitted\"}} {}\n",
            self.submitted
        ));
        out.push_str(&format!(
            "cq_serve_requests_total{{outcome=\"rejected\"}} {}\n",
            self.rejected
        ));
        push_metric_header(
            &mut out,
            "cq_serve_served_total",
            "counter",
            "Requests fulfilled.",
        );
        out.push_str(&format!("cq_serve_served_total {}\n", self.served));
        push_metric_header(
            &mut out,
            "cq_serve_sweeps_total",
            "counter",
            "Coalesced sweeps formed.",
        );
        out.push_str(&format!("cq_serve_sweeps_total {}\n", self.batches));
        push_metric_header(
            &mut out,
            "cq_serve_images_total",
            "counter",
            "Images (batch rows) swept.",
        );
        out.push_str(&format!("cq_serve_images_total {}\n", self.rows_swept));
        push_metric_header(
            &mut out,
            "cq_serve_queue_depth_peak",
            "gauge",
            "Deepest the queue ever got.",
        );
        out.push_str(&format!(
            "cq_serve_queue_depth_peak {}\n",
            self.peak_queue_depth
        ));
        push_metric_header(
            &mut out,
            "cq_serve_workers",
            "gauge",
            "Worker threads serving the session.",
        );
        out.push_str(&format!("cq_serve_workers {}\n", self.workers));
        push_metric_header(
            &mut out,
            "cq_serve_model_swaps_total",
            "counter",
            "Live registry churn events.",
        );
        out.push_str(&format!(
            "cq_serve_model_swaps_total{{op=\"register\"}} {}\n",
            self.hot_registered
        ));
        out.push_str(&format!(
            "cq_serve_model_swaps_total{{op=\"evict\"}} {}\n",
            self.evictions
        ));

        push_metric_header(
            &mut out,
            "cq_serve_latency_seconds",
            "histogram",
            "Submission-to-fulfilment latency.",
        );
        push_histogram(&mut out, "cq_serve_latency_seconds", &self.latency_hist);

        push_metric_header(
            &mut out,
            "cq_serve_model_images_total",
            "counter",
            "Images swept per resident model.",
        );
        for m in &self.models {
            out.push_str(&format!(
                "cq_serve_model_images_total{{model=\"{}\",scheme=\"{}\",evicted=\"{}\"}} {}\n",
                escape_label(&m.name),
                escape_label(&m.scheme),
                m.evicted,
                m.images
            ));
        }

        push_metric_header(
            &mut out,
            "cq_serve_scheme_images_total",
            "counter",
            "Images swept per quantization scheme.",
        );
        for (scheme, images) in self.images_by_scheme() {
            out.push_str(&format!(
                "cq_serve_scheme_images_total{{scheme=\"{}\"}} {images}\n",
                escape_label(&scheme),
            ));
        }

        push_metric_header(
            &mut out,
            "cq_serve_backend_sweeps_total",
            "counter",
            "Sweeps per execution backend.",
        );
        for (i, b) in self.backends.iter().enumerate() {
            out.push_str(&format!(
                "cq_serve_backend_sweeps_total{{backend=\"{}\"}} {}\n",
                cq_core::BackendKind::ALL[i].name(),
                b.sweeps
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_and_quantiles_upper_bound() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 0
        h.record(Duration::from_micros(3)); // bucket 1: [2,4)
        h.record(Duration::from_micros(1000)); // bucket 9: [512,1024)
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[9], 1);
        // p50 rank 2 → bucket 0 upper bound 2µs.
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(2)));
        // p100 → bucket 9 upper bound 1024µs.
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(1024)));
        assert_eq!(h.sum(), Duration::from_micros(1004));
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(5));
        b.record(Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[2], 2, "two 5µs observations in [4,8)");
    }

    #[test]
    fn histogram_clamps_huge_latencies_into_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert!(h.quantile(0.99).is_some());
    }
}
