//! Order statistics, the open-loop arrival schedule, and the SLO-ladder
//! rule — the small pure helpers every workload reports through.

use cq_tensor::CqRng;
use std::time::{Duration, Instant};

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A sorted copy.
///
/// # Panics
///
/// Panics on a NaN sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// The tail percentile to report for `want` (e.g. `0.99`): `want` itself
/// when at least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the
/// highest nearest-rank percentile that still has that many beyond.
/// Returns `(percentile used, value)`, or `None` when fewer than
/// `TAIL_MIN_BEYOND + 1` samples exist.
pub fn tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let want_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = want_rank.min(n - TAIL_MIN_BEYOND);
    let q = if rank == want_rank {
        want
    } else {
        rank as f64 / n as f64
    };
    Some((q, sorted[rank - 1]))
}

/// Seeded Poisson arrival offsets at `rate` per second over `span`:
/// exponential gaps from `rng`, so the same seed gives the same schedule.
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn poisson_offsets(rate: f64, span: Duration, rng: &mut CqRng) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        let u = 1.0 - rng.uniform() as f64;
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Latency of an open-loop request measured from when it was **due**, not
/// from when the generator got round to submitting it: `submitted +
/// service − due`. A stalled generator therefore charges its delay to
/// every late request.
pub fn due_latency(due: Instant, submitted: Instant, service: Duration) -> Duration {
    (submitted + service).saturating_duration_since(due)
}

/// One fixed-rate rung of the SLO ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency in ms; `None` when refused or unresolved requests
    /// push the tail past any finite value.
    pub tail_ms: Option<f64>,
    /// Whether the rung ended with a bounded backlog.
    pub drained: bool,
}

impl Rung {
    fn meets(&self, limit_ms: f64) -> bool {
        self.drained && self.tail_ms.is_some_and(|t| t <= limit_ms)
    }
}

/// The highest offered rate that meets `limit_ms`, read off an ascending
/// ladder. Between the last passing rung and the first failing one the
/// rate is interpolated on the tail latency, so the figure moves smoothly
/// with the system rather than jumping between rungs; a failing rung with
/// no finite tail (or a growing backlog) gives the passing rung's rate.
/// `0.0` when even the first rung fails.
pub fn slo_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let mut best = 0.0;
    for (i, r) in rungs.iter().enumerate() {
        if !r.meets(limit_ms) {
            if i > 0 && r.drained {
                if let (Some(lo), Some(hi)) = (rungs[i - 1].tail_ms, r.tail_ms) {
                    let f = ((limit_ms - lo) / (hi - lo)).clamp(0.0, 1.0);
                    best += f * (r.rate - rungs[i - 1].rate);
                }
            }
            return best;
        }
        best = r.rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_p99_when_ten_samples_lie_beyond() {
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Some((0.99, 1980.0)));
        // 20 samples lie beyond rank 1980: plenty.
        let beyond = s.iter().filter(|&&v| v > 1980.0).count();
        assert!(beyond >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_backs_off_to_the_highest_supported_percentile() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 of 200 would leave 2 beyond; rank 190 leaves exactly 10.
        let (q, v) = tail(&s, 0.99).unwrap();
        assert_eq!(v, 190.0);
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_MIN_BEYOND);
        assert_eq!(tail(&s[..10], 0.99), None);
        assert_eq!(tail(&s[..11], 0.99), Some((1.0 / 11.0, 1.0)));
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_near_rate() {
        let span = Duration::from_secs(2);
        let a = poisson_offsets(5000.0, span, &mut CqRng::new(7));
        let b = poisson_offsets(5000.0, span, &mut CqRng::new(7));
        let c = poisson_offsets(5000.0, span, &mut CqRng::new(8));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &span);
        // 10k expected arrivals, sd 100: allow 5 sd.
        assert!((a.len() as f64 - 10_000.0).abs() < 500.0, "{}", a.len());
    }

    #[test]
    fn due_latency_charges_generator_lag() {
        let due = Instant::now();
        let late = due + Duration::from_millis(3);
        let service = Duration::from_millis(2);
        assert_eq!(due_latency(due, late, service), Duration::from_millis(5));
        assert_eq!(due_latency(due, due, service), service);
        // A submission before its due time never yields negative latency.
        assert_eq!(
            due_latency(late, due, Duration::from_millis(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn slo_rate_interpolates_at_the_limit_crossing() {
        let rung = |rate, tail_ms: Option<f64>, drained| Rung {
            rate,
            tail_ms,
            drained,
        };
        let ladder = [
            rung(1000.0, Some(2.0), true),
            rung(2000.0, Some(4.0), true),
            rung(3000.0, Some(12.0), true),
        ];
        // Limit 8 ms sits halfway between 4 and 12 ms.
        assert_eq!(slo_rate(&ladder, 8.0), 2500.0);
        assert_eq!(slo_rate(&ladder, 20.0), 3000.0);
        assert_eq!(slo_rate(&ladder, 1.0), 0.0);
        // A refused or backlogged rung stops the ladder at the last pass.
        let refused = [rung(1000.0, Some(2.0), true), rung(2000.0, None, true)];
        assert_eq!(slo_rate(&refused, 8.0), 1000.0);
        let backlog = [
            rung(1000.0, Some(2.0), true),
            rung(2000.0, Some(3.0), false),
        ];
        assert_eq!(slo_rate(&backlog, 8.0), 1000.0);
    }
}
