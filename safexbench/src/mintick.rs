//! `min_tick_us`: the shortest real-time tick the build sustains.
//!
//! Under a [`safex_serve::WallClock`] of tick duration `D`, loop pass `k`
//! (logical tick `t_k`) starts at `max((t_k − t_0)·D, end_{k−1})` and lasts
//! its measured duration `d_k`. A request answered during the last pass at
//! its resolution tick `r`, with absolute deadline tick `dl`, meets its
//! deadline in wall time when that pass ends by `(dl − t_0)·D`; its
//! latency is counted from the time its arrival was due, `(a − t_0)·D`.
//!
//! Write `L_k = end_k − (t_k − t_0)·D` for how late pass `k` ends against
//! its tick's slot. Then `L_k = max(0, L_{k−1} − (t_k − t_{k−1})·D) + d_k`,
//! which never grows with `D`, and the condition reads `L_k ≤ (dl − t_k)·D`,
//! whose right side never shrinks: the met count is monotone in `D`, so
//! bisection finds the smallest `D` that meets a target count.

/// A completed request, on the tick axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The tick at which it resolved.
    pub resolved: u64,
    /// Its absolute deadline tick.
    pub deadline: u64,
}

/// Loop passes in order: their logical ticks (non-decreasing) and
/// measured durations.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSeries {
    ticks: Vec<u64>,
    durations_ns: Vec<f64>,
}

impl TickSeries {
    /// A series of passes.
    ///
    /// # Panics
    ///
    /// When the lengths differ or the ticks decrease; the serving loop
    /// never produces either.
    pub fn new(ticks: Vec<u64>, durations_ns: Vec<f64>) -> Self {
        assert_eq!(ticks.len(), durations_ns.len(), "one duration per pass");
        assert!(
            ticks.windows(2).all(|w| w[0] <= w[1]),
            "ticks never decrease"
        );
        TickSeries {
            ticks,
            durations_ns,
        }
    }

    /// How many of `answers` meet their deadline at tick duration `d_ns`.
    pub fn met(&self, answers: &[Answer], d_ns: f64) -> usize {
        let mut lateness = Vec::with_capacity(self.ticks.len());
        let mut late = 0.0f64;
        let mut prev = self.ticks.first().copied().unwrap_or(0);
        for (&tick, &d) in self.ticks.iter().zip(&self.durations_ns) {
            late = (late - (tick - prev) as f64 * d_ns).max(0.0) + d;
            lateness.push(late);
            prev = tick;
        }
        answers
            .iter()
            .filter(|a| {
                // The last pass at or before the resolution tick.
                match self.ticks.partition_point(|&t| t <= a.resolved) {
                    0 => false,
                    k => {
                        lateness[k - 1]
                            <= a.deadline.saturating_sub(self.ticks[k - 1]) as f64 * d_ns
                    }
                }
            })
            .count()
    }

    /// The smallest tick duration in ns at which at least `need` of
    /// `answers` meet their deadline, to a relative precision of 1e-6;
    /// `None` when no duration up to one second does.
    pub fn min_tick_ns(&self, answers: &[Answer], need: usize) -> Option<f64> {
        if need == 0 {
            return Some(0.0);
        }
        let mut hi = 1.0f64;
        while self.met(answers, hi) < need {
            hi *= 2.0;
            if hi > 1e9 {
                return None;
            }
        }
        let mut lo = 0.0f64;
        while hi - lo > hi * 1e-6 {
            let mid = 0.5 * (lo + hi);
            if self.met(answers, mid) >= need {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}
