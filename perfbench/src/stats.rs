//! Pure helpers: percentiles, the seeded arrival schedule, the goodput
//! rule and failure counting. Everything here is deterministic and
//! unit-tested; nothing here touches a clock or a thread.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p * n)`, clamped to `1..=n`. `None` when the slice is empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// A tail percentile under the reporting rule: the nearest-rank value,
/// but only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond its
/// rank. `None` when the sample is too small to support the percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Sorts a copy ascending (NaN-free input; infinities allowed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// Median by the nearest-rank rule; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: a small, seedable, well-mixed generator. The benchmark
/// derives every input, label and arrival time from one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the named `stream`, so independent uses
    /// of one seed never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase start at which the request is due.
    pub due_s: f64,
    /// Index into the tenant table, drawn by the traffic weights.
    pub tenant: usize,
    /// Index into the tenant's input pool.
    pub input: usize,
}

/// A Poisson arrival schedule: exponential gaps at `rate_hz` over
/// `duration_s`, each arrival assigned a tenant by `weights` and an input
/// index below `pool`. The same arguments always give the same schedule.
pub fn poisson_schedule(
    seed: u64,
    rate_hz: f64,
    duration_s: f64,
    weights: &[u32],
    pool: usize,
) -> Vec<Arrival> {
    assert!(rate_hz > 0.0 && !weights.is_empty() && pool > 0);
    let total: u32 = weights.iter().sum();
    let mut rng = Rng::new(seed, rate_hz.to_bits());
    let mut out = Vec::with_capacity((rate_hz * duration_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate_hz;
        if t >= duration_s {
            return out;
        }
        let mut pick = (rng.next_u64() % u64::from(total)) as u32;
        let tenant = weights
            .iter()
            .position(|&w| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick is below the weight total");
        out.push(Arrival {
            due_s: t,
            tenant,
            input: rng.below(pool),
        });
    }
}

/// Whether an open-loop phase's backlog (outstanding requests, sampled
/// at a fixed period) kept growing: the median over the phase's last
/// quarter exceeds twice the median over its second quarter plus a
/// slack of 16 requests. Medians keep a short burst from counting as
/// growth. Phases with fewer than 8 samples never count as growing.
pub fn backlog_growing(samples: &[usize]) -> bool {
    let n = samples.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let med = |s: &[usize]| median(&s.iter().map(|&v| v as f64).collect::<Vec<_>>());
    med(&samples[3 * q..]) > 2.0 * med(&samples[q..2 * q]) + 16.0
}

/// The outcome of one fixed-rate open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// The offered rate, requests per second.
    pub rate_hz: f64,
    /// Latency from due time of every attempted request, in ms; refused,
    /// failed and wrong requests are `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// Backlog samples over the phase.
    pub backlog: Vec<usize>,
    /// Correct answers per second, over the phase from its start to its
    /// last answer.
    pub good_per_s: f64,
}

impl PhaseOutcome {
    /// The phase meets the latency limit: its p99 (refusals counted as
    /// misses) is within `limit_ms`, the sample supports a p99, and the
    /// backlog did not grow.
    pub fn meets(&self, limit_ms: f64) -> bool {
        let sorted = sorted(&self.latencies_ms);
        matches!(tail_percentile(&sorted, 0.99), Some(p99) if p99 <= limit_ms)
            && !backlog_growing(&self.backlog)
    }
}

/// Goodput: the correct-answer throughput of the highest-rate phase that
/// meets `limit_ms`. `None` when no phase meets it.
pub fn goodput<'a>(
    phases: impl IntoIterator<Item = &'a PhaseOutcome>,
    limit_ms: f64,
) -> Option<&'a PhaseOutcome> {
    phases
        .into_iter()
        .filter(|p| p.meets(limit_ms))
        .max_by(|a, b| a.rate_hz.total_cmp(&b.rate_hz))
}

/// Per-request outcome counts for one workload (or one phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests the benchmark tried to send.
    pub attempted: u64,
    /// Answered with logits bit-equal to the reference.
    pub correct: u64,
    /// Answered, but not bit-equal to any admissible reference.
    pub wrong: u64,
    /// Refused at admission (shed by the governor or rejected by the
    /// fleet).
    pub refused: u64,
    /// Any other error (disconnected ticket, unanswered at the end).
    pub errored: u64,
}

impl Tally {
    /// Requests that did not end with a correct answer.
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Every attempted request is accounted for exactly once.
    pub fn conserves(&self) -> bool {
        self.correct + self.wrong + self.refused + self.errored == self.attempted
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.errored += other.errored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_ceil_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // n = 1000: p99 has rank 990, exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // n = 999: rank 990, only 9 beyond.
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        // p50 of 20 samples: rank 10, 10 beyond.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn infinities_sort_last() {
        let s = sorted(&[3.0, f64::INFINITY, 1.0]);
        assert_eq!(s, vec![1.0, 3.0, f64::INFINITY]);
    }

    #[test]
    fn poisson_schedule_is_reproducible_per_seed() {
        let a = poisson_schedule(42, 500.0, 2.0, &[3, 1], 16);
        let b = poisson_schedule(42, 500.0, 2.0, &[3, 1], 16);
        let c = poisson_schedule(43, 500.0, 2.0, &[3, 1], 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly rate × duration arrivals, ascending, within the window.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|x| x.due_s < 2.0 && x.input < 16));
        // The 3:1 tenant mix holds.
        let hi = a.iter().filter(|x| x.tenant == 0).count() as f64 / a.len() as f64;
        assert!((0.70..0.80).contains(&hi), "tenant-0 share {hi}");
    }

    #[test]
    fn backlog_rule_flags_only_sustained_growth() {
        assert!(!backlog_growing(&[0; 40]));
        assert!(!backlog_growing(&[3, 4, 2, 5, 3, 4, 2, 5, 3, 4, 2, 5]));
        let ramp: Vec<usize> = (0..40).map(|i| i * 4).collect();
        assert!(backlog_growing(&ramp));
        // A burst late in the phase is not growth.
        let mut burst = vec![6; 40];
        burst[33] = 120;
        burst[34] = 90;
        assert!(!backlog_growing(&burst));
        // Too few samples to judge.
        assert!(!backlog_growing(&[0, 100, 200]));
    }

    fn phase(rate: f64, lat: f64, n: usize, backlog: Vec<usize>) -> PhaseOutcome {
        PhaseOutcome {
            rate_hz: rate,
            latencies_ms: vec![lat; n],
            backlog,
            good_per_s: rate,
        }
    }

    #[test]
    fn goodput_is_the_highest_rate_that_meets_the_limit() {
        let ok_low = phase(100.0, 2.0, 2000, vec![1; 20]);
        let ok_mid = phase(400.0, 4.0, 2000, vec![2; 20]);
        let slow = phase(800.0, 50.0, 2000, vec![2; 20]);
        let phases = [ok_low.clone(), ok_mid.clone(), slow];
        assert_eq!(goodput(&phases, 10.0), Some(&ok_mid));
        // A growing backlog disqualifies a phase even with fast answers.
        let growing = phase(400.0, 4.0, 2000, (0..20).map(|i| i * 10).collect());
        assert_eq!(goodput(&[ok_low.clone(), growing], 10.0), Some(&ok_low));
        // Refusals count as misses: 2% refused breaks a p99 limit.
        let mut refused = phase(400.0, 1.0, 2000, vec![1; 20]);
        for l in refused.latencies_ms.iter_mut().take(40) {
            *l = f64::INFINITY;
        }
        assert!(!refused.meets(10.0));
        // Too few samples to support a p99: the phase cannot qualify.
        assert!(!phase(400.0, 1.0, 500, vec![1; 20]).meets(10.0));
        assert_eq!(goodput(std::iter::empty(), 10.0), None);
    }

    #[test]
    fn fail_frac_counts_every_non_correct_outcome() {
        let t = Tally {
            attempted: 100,
            correct: 90,
            wrong: 2,
            refused: 5,
            errored: 3,
        };
        assert!(t.conserves());
        assert_eq!(t.failed(), 10);
        assert!((t.fail_frac() - 0.1).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!(sum.attempted, 200);
        assert_eq!(sum.failed(), 20);
        assert!(!Tally {
            attempted: 3,
            correct: 1,
            ..Tally::default()
        }
        .conserves());
    }
}
