//! Percentiles, failure accounting and open-loop schedule arithmetic.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of all samples at or below it.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` that has at least [`MIN_BEYOND`] samples
/// beyond it among `n`, or `None` when even the lowest has too few.
pub fn highest_valid_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best, p| Some(best.map_or(p, |b: f64| b.max(p))))
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency distribution reduced to what the report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The nearest-rank value of the tail percentile asked for.
    pub tail: f64,
    /// Samples beyond the tail value.
    pub beyond: usize,
}

impl Summary {
    /// Summarizes `samples` with `tail_p` as the nominal tail.
    ///
    /// # Panics
    ///
    /// On an empty slice.
    pub fn of(samples: &[f64], tail_p: f64) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail: percentile(&sorted, tail_p),
            beyond: beyond(sorted.len(), tail_p),
        }
    }

    /// Whether the tail meets the ten-samples-beyond rule.
    pub fn tail_ok(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// How one measured request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the expected response, within any latency limit.
    Ok,
    /// Answered with a typed `Error`.
    Error,
    /// Shed with a typed `Overloaded`.
    Overloaded,
    /// No answer before the request deadline (or the connection broke).
    Timeout,
    /// Answered correctly, but later than the workload's latency limit.
    OverLimit,
}

/// Attempted, succeeded and failed requests of one request type.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Answered as expected within any limit.
    pub ok: u64,
    /// Typed `Error` answers.
    pub error: u64,
    /// Typed `Overloaded` answers.
    pub overloaded: u64,
    /// Deadline misses and broken connections.
    pub timeout: u64,
    /// Correct answers past the latency limit.
    pub over_limit: u64,
}

impl Tally {
    /// Counts one request.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Error => self.error += 1,
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::OverLimit => self.over_limit += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.error += other.error;
        self.overloaded += other.overloaded;
        self.timeout += other.timeout;
        self.over_limit += other.over_limit;
    }

    /// Requests that did not succeed.
    pub fn failed(&self) -> u64 {
        self.error + self.overloaded + self.timeout + self.over_limit
    }

    /// `failed / attempted`; `0.0` when nothing was attempted.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// When a burst of an open-loop replay is due, in seconds after the
/// replay starts: the trace time of its *last* event (a gateway can
/// report an event only once it happened), compressed by `compression`.
pub fn due_s(last_event_ms: f64, compression: f64) -> f64 {
    last_event_ms / 1000.0 / compression
}

/// When trace events happen: the `n` events sharing one generator tick
/// stamp `t` are spread evenly over `[t, t + tick_ms)` in trace order,
/// so a tick arrives at its own rate instead of as one instant batch.
pub fn spread_ticks(times_ms: &[f64], tick_ms: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(times_ms.len());
    let mut start = 0;
    while start < times_ms.len() {
        let n = times_ms[start..].iter().take_while(|&&t| t == times_ms[start]).count();
        out.extend((0..n).map(|k| times_ms[start] + k as f64 / n as f64 * tick_ms));
        start += n;
    }
    out
}

/// How late the generator itself sent a request: the send time minus
/// the later of its due time and the moment its connection became free
/// (the previous answer). Waiting for the daemon is the daemon's delay,
/// counted in the latency from the due time, not the generator's.
pub fn lateness_s(sent: f64, due: f64, conn_free: f64) -> f64 {
    (sent - due.max(conn_free)).max(0.0)
}

/// Latency of an open-loop request, timed from when it was due.
pub fn latency_from_due_s(done: f64, due: f64) -> f64 {
    done - due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.9), 999.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_valid_percentile(10_000, &candidates), Some(99.9));
        assert_eq!(highest_valid_percentile(1000, &candidates), Some(99.0));
        assert_eq!(highest_valid_percentile(999, &candidates), Some(90.0));
        assert_eq!(highest_valid_percentile(100, &candidates), Some(90.0));
        assert_eq!(highest_valid_percentile(99, &candidates), Some(50.0));
        assert_eq!(highest_valid_percentile(19, &candidates), None);
        let s = Summary::of(&(1..=999).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert!(!s.tail_ok());
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert!(s.tail_ok());
        assert_eq!((s.n, s.p50, s.tail), (1000, 500.0, 990.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Error,
            Outcome::Overloaded,
            Outcome::Timeout,
            Outcome::OverLimit,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed(), 4);
        assert!((t.error_ratio() - 4.0 / 6.0).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.attempted, sum.ok, sum.over_limit), (12, 4, 2));
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }

    #[test]
    fn open_loop_due_times_and_lateness() {
        // 20 s of trace at 4x compression is due over 5 s.
        assert_eq!(due_s(20_000.0, 4.0), 5.0);
        assert_eq!(due_s(0.0, 4.0), 0.0);
        // Sent 2 ms after due on an idle connection: 2 ms late.
        assert!((lateness_s(1.002, 1.0, 0.5) - 0.002).abs() < 1e-12);
        // The previous answer came at 1.5 s; sending at 1.5005 s is the
        // generator's own 0.5 ms, the 0.5 s wait was the daemon's.
        assert!((lateness_s(1.5005, 1.0, 1.5) - 0.0005).abs() < 1e-12);
        // Sent early (never happens, but never negative).
        assert_eq!(lateness_s(0.9, 1.0, 0.0), 0.0);
        // Three events on one tick spread over it; a lone event stays.
        assert_eq!(
            spread_ticks(&[0.0, 0.0, 0.0, 500.0, 1000.0, 1000.0], 500.0),
            vec![0.0, 500.0 / 3.0, 1000.0 / 3.0, 500.0, 1000.0, 1250.0]
        );
        assert!(spread_ticks(&[], 500.0).is_empty());
        // Latency counts the whole wait from the due time.
        assert!((latency_from_due_s(1.6, 1.0) - 0.6).abs() < 1e-12);
    }
}
