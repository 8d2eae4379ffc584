//! Runtime-wide accounting and the snapshot clients read.

use pim_device::{edp, Energy, Latency};
use pim_pe::PeStats;
use pim_telemetry::{Histogram, HistogramSnapshot, LATENCY_BUCKETS};
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thread-safe accumulator the workers and `submit` write into.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    completed: u64,
    rejected: u64,
    batches: u64,
    batch_size_sum: u64,
    max_batch_size: usize,
    model_swaps: u64,
    /// Aggregate simulated PE ledger across all batches.
    sim: PeStats,
    /// Per-request modelled latency (s).
    modelled_latency: HistogramSnapshot,
    queue_wait_sum: Duration,
    started: Instant,
}

impl StatsCollector {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                completed: 0,
                rejected: 0,
                batches: 0,
                batch_size_sum: 0,
                max_batch_size: 0,
                model_swaps: 0,
                sim: PeStats::new(),
                modelled_latency: empty_latency(),
                queue_wait_sum: Duration::ZERO,
                started: Instant::now(),
            }),
        }
    }

    /// Records one served batch: its size, PE ledger, and the wall-clock
    /// queue waits of its riders.
    pub fn record_batch(&self, size: usize, sim: PeStats, queue_waits: Duration) {
        let mut g = self.inner.lock().expect("stats lock");
        g.completed += size as u64;
        g.batches += 1;
        g.batch_size_sum += size as u64;
        g.max_batch_size = g.max_batch_size.max(size);
        g.sim += sim;
        // Every rider experiences the whole batch's simulated latency.
        g.modelled_latency.record(sim.busy_time.as_s(), size as u64);
        g.queue_wait_sum += queue_waits;
    }

    /// Records one backpressure rejection.
    pub fn record_rejection(&self) {
        self.inner.lock().expect("stats lock").rejected += 1;
    }

    /// Records one hot model swap.
    pub fn record_swap(&self) {
        self.inner.lock().expect("stats lock").model_swaps += 1;
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> RuntimeStats {
        let g = self.inner.lock().expect("stats lock");
        RuntimeStats {
            requests_completed: g.completed,
            requests_rejected: g.rejected,
            batches: g.batches,
            model_swaps: g.model_swaps,
            mean_batch_size: if g.batches == 0 {
                0.0
            } else {
                g.batch_size_sum as f64 / g.batches as f64
            },
            max_batch_size: g.max_batch_size,
            modelled_latency: g.modelled_latency.clone(),
            total_energy: g.sim.total_energy(),
            simulated_busy: g.sim.busy_time,
            edp: edp(g.sim.total_energy(), g.sim.busy_time),
            macs: g.sim.macs,
            pe_matvecs: g.sim.matvecs,
            // u128 nanoseconds: a `u32` divisor would wrap to 0 at 2^32
            // completions and panic under the lock.
            mean_queue_wait: if g.completed == 0 {
                Duration::ZERO
            } else {
                Duration::from_nanos((g.queue_wait_sum.as_nanos() / u128::from(g.completed)) as u64)
            },
            wall_elapsed: g.started.elapsed(),
        }
    }
}

/// Point-in-time view of everything the runtime has served.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Requests answered.
    pub requests_completed: u64,
    /// Requests refused with [`QueueFull`](crate::RuntimeError::QueueFull).
    pub requests_rejected: u64,
    /// PE batches dispatched.
    pub batches: u64,
    /// Hot model swaps published into the serving path.
    pub model_swaps: u64,
    /// Mean riders per batch.
    pub mean_batch_size: f64,
    /// Largest batch dispatched.
    pub max_batch_size: usize,
    /// Distribution of per-request modelled PE latency, in seconds (each
    /// rider of a batch sees the batch's simulated busy time).
    pub modelled_latency: HistogramSnapshot,
    /// Total simulated energy across all batches.
    pub total_energy: Energy,
    /// Total simulated PE busy time (summed across workers).
    pub simulated_busy: Latency,
    /// Energy-delay product (pJ·ns) of the aggregate ledger.
    pub edp: f64,
    /// Total MACs executed on the PEs.
    pub macs: u64,
    /// Total PE matvec operations.
    pub pe_matvecs: u64,
    /// Mean wall-clock time from submit to response.
    pub mean_queue_wait: Duration,
    /// Wall-clock time since the runtime started.
    pub wall_elapsed: Duration,
}

/// An empty histogram over the shared latency layout.
fn empty_latency() -> HistogramSnapshot {
    Histogram::new(&LATENCY_BUCKETS).snapshot()
}

impl RuntimeStats {
    /// Wall-clock requests per second since start.
    pub fn throughput_rps(&self) -> f64 {
        let s = self.wall_elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.requests_completed as f64 / s
        }
    }

    /// An all-zero snapshot — the identity of [`merge`](Self::merge).
    pub fn empty() -> Self {
        Self {
            requests_completed: 0,
            requests_rejected: 0,
            batches: 0,
            model_swaps: 0,
            mean_batch_size: 0.0,
            max_batch_size: 0,
            modelled_latency: empty_latency(),
            total_energy: Energy::ZERO,
            simulated_busy: Latency::ZERO,
            edp: 0.0,
            macs: 0,
            pe_matvecs: 0,
            mean_queue_wait: Duration::ZERO,
            wall_elapsed: Duration::ZERO,
        }
    }

    /// Merges two snapshots into the snapshot an imaginary single runtime
    /// serving both workloads would have produced: counters add, means
    /// re-weight, the latency histograms add bucket by bucket (so their
    /// quantiles are those of the pooled requests, not interpolated from
    /// per-snapshot percentiles), energy/busy ledgers add and the EDP is
    /// re-derived from the merged totals. Wall-clock elapsed takes the max — replicas run
    /// concurrently, their lifetimes don't stack.
    pub fn merge(&self, other: &RuntimeStats) -> RuntimeStats {
        let batches = self.batches + other.batches;
        let completed = self.requests_completed + other.requests_completed;
        let total_energy = self.total_energy + other.total_energy;
        let simulated_busy = self.simulated_busy + other.simulated_busy;
        RuntimeStats {
            requests_completed: completed,
            requests_rejected: self.requests_rejected + other.requests_rejected,
            batches,
            model_swaps: self.model_swaps + other.model_swaps,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                (self.mean_batch_size * self.batches as f64
                    + other.mean_batch_size * other.batches as f64)
                    / batches as f64
            },
            max_batch_size: self.max_batch_size.max(other.max_batch_size),
            modelled_latency: self.modelled_latency.merge(&other.modelled_latency),
            total_energy,
            simulated_busy,
            edp: edp(total_energy, simulated_busy),
            macs: self.macs + other.macs,
            pe_matvecs: self.pe_matvecs + other.pe_matvecs,
            mean_queue_wait: if completed == 0 {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(
                    (self.mean_queue_wait.as_secs_f64() * self.requests_completed as f64
                        + other.mean_queue_wait.as_secs_f64() * other.requests_completed as f64)
                        / completed as f64,
                )
            },
            wall_elapsed: self.wall_elapsed.max(other.wall_elapsed),
        }
    }
}

impl std::iter::Sum for RuntimeStats {
    fn sum<I: Iterator<Item = RuntimeStats>>(iter: I) -> Self {
        iter.fold(RuntimeStats::empty(), |acc, s| acc.merge(&s))
    }
}

impl<'a> std::iter::Sum<&'a RuntimeStats> for RuntimeStats {
    fn sum<I: Iterator<Item = &'a RuntimeStats>>(iter: I) -> Self {
        iter.fold(RuntimeStats::empty(), |acc, s| acc.merge(s))
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reqs in {} batches (mean {:.2}/batch, max {}), {} rejected; \
             sim latency p50 {} p99 {}, energy {}, EDP {:.3e} pJ·ns, {:.0} req/s",
            self.requests_completed,
            self.batches,
            self.mean_batch_size,
            self.max_batch_size,
            self.requests_rejected,
            Latency::from_ns(self.modelled_latency.quantile(0.50) * 1e9),
            Latency::from_ns(self.modelled_latency.quantile(0.99) * 1e9),
            self.total_energy,
            self.edp,
            self.throughput_rps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_device::EnergyLedger;

    /// `exact ≤ got ≤ exact·2^(1/16)`: `got` is the upper bound of the
    /// latency bucket holding `exact`, within the documented error bound.
    fn assert_in_bucket_of(got: f64, exact: f64) {
        assert!(
            exact <= got && got <= exact * 2f64.powf(1.0 / 16.0),
            "{got} s is not the bucket of {exact} s"
        );
    }

    fn batch_ledger(cycles: u64, ns: f64, pj: f64) -> PeStats {
        let mut energy = EnergyLedger::new();
        energy.add_compute(Energy::from_pj(pj));
        PeStats {
            cycles,
            busy_time: Latency::from_ns(ns),
            energy,
            loads: 0,
            matvecs: 1,
            macs: 10,
            write_bits: 0,
            write_retries: 0,
            write_faults: 0,
        }
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let c = StatsCollector::new();
        c.record_batch(3, batch_ledger(10, 100.0, 5.0), Duration::from_micros(30));
        c.record_batch(1, batch_ledger(10, 300.0, 2.0), Duration::from_micros(10));
        c.record_rejection();
        c.record_swap();
        let s = c.snapshot();
        assert_eq!(s.requests_completed, 4);
        assert_eq!(s.requests_rejected, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.model_swaps, 1);
        assert_eq!(s.max_batch_size, 3);
        assert!((s.mean_batch_size - 2.0).abs() < 1e-12);
        // Latency samples: [100, 100, 100, 300] ns.
        assert_eq!(s.modelled_latency.count(), 4);
        assert_in_bucket_of(s.modelled_latency.quantile(0.50), 100e-9);
        assert_in_bucket_of(s.modelled_latency.quantile(0.99), 300e-9);
        assert_eq!(s.total_energy, Energy::from_pj(7.0));
        assert_eq!(s.macs, 20);
        assert!(s.edp > 0.0);
        assert!(s.to_string().contains("4 reqs"));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.requests_completed, 0);
        assert_eq!(s.modelled_latency.count(), 0);
        assert_eq!(s.modelled_latency.quantile(0.99), 0.0);
        assert_eq!(s.mean_queue_wait, Duration::ZERO);
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.throughput_rps(), 0.0);
    }

    /// Two per-replica collectors vs one collector fed the union of their
    /// batches: `merge` must reproduce the flat computation — the latency
    /// histogram of the pooled requests, not per-replica percentiles.
    #[test]
    fn merged_percentiles_pin_to_the_flat_sample_computation() {
        let a = StatsCollector::new();
        let b = StatsCollector::new();
        let flat = StatsCollector::new();
        // Skewed splits so naive percentile-of-percentiles would be wrong:
        // replica a serves the fast batches, replica b the slow tail.
        let batches: &[(usize, u64, f64, f64, bool)] = &[
            (3, 10, 100.0, 5.0, true),
            (5, 12, 110.0, 6.0, true),
            (2, 20, 900.0, 9.0, false),
            (1, 30, 4000.0, 11.0, false),
            (4, 11, 105.0, 5.5, true),
        ];
        for &(size, cycles, ns, pj, on_a) in batches {
            let ledger = batch_ledger(cycles, ns, pj);
            let wait = Duration::from_micros(10 * size as u64);
            if on_a {
                a.record_batch(size, ledger, wait);
            } else {
                b.record_batch(size, ledger, wait);
            }
            flat.record_batch(size, ledger, wait);
        }
        a.record_rejection();
        b.record_rejection();
        flat.record_rejection();
        flat.record_rejection();

        let merged = a.snapshot().merge(&b.snapshot());
        let want = flat.snapshot();
        assert_eq!(merged.requests_completed, want.requests_completed);
        assert_eq!(merged.requests_rejected, want.requests_rejected);
        assert_eq!(merged.batches, want.batches);
        assert_eq!(merged.max_batch_size, want.max_batch_size);
        assert!((merged.mean_batch_size - want.mean_batch_size).abs() < 1e-12);
        // The pinned part: the pooled latency histogram, exactly.
        assert_eq!(merged.modelled_latency, want.modelled_latency);
        // Ledger sums and the re-derived EDP.
        assert_eq!(merged.total_energy, want.total_energy);
        assert_eq!(merged.simulated_busy, want.simulated_busy);
        assert_eq!(merged.edp, want.edp);
        assert_eq!(merged.macs, want.macs);
        assert_eq!(merged.pe_matvecs, want.pe_matvecs);
    }

    #[test]
    fn merge_with_empty_is_identity_and_sum_folds() {
        let c = StatsCollector::new();
        c.record_batch(2, batch_ledger(10, 50.0, 1.0), Duration::from_micros(5));
        let s = c.snapshot();
        let merged = RuntimeStats::empty().merge(&s);
        assert_eq!(merged.requests_completed, s.requests_completed);
        assert_eq!(merged.total_energy, s.total_energy);
        assert_eq!(merged.modelled_latency, s.modelled_latency);

        let summed: RuntimeStats = [s.clone(), s.clone(), s.clone()].iter().sum();
        assert_eq!(summed.requests_completed, 6);
        assert_eq!(summed.batches, 3);
        assert_eq!(
            summed.modelled_latency.quantile(0.99),
            s.modelled_latency.quantile(0.99),
            "identical replicas"
        );
        let owned: RuntimeStats = vec![s.clone(), s].into_iter().sum();
        assert_eq!(owned.requests_completed, 4);
    }

    #[test]
    fn latency_memory_stays_bounded_under_sustained_traffic() {
        let c = StatsCollector::new();
        c.record_batch(1, batch_ledger(10, 100.0, 1.0), Duration::from_micros(1));
        let after_one = c.snapshot();
        for i in 1..100_000u64 {
            let ns = 50.0 + (i % 997) as f64;
            c.record_batch(1, batch_ledger(10, ns, 1.0), Duration::from_micros(1));
        }
        let after_many = c.snapshot();
        assert_eq!(after_many.modelled_latency.count(), 100_000);
        // An empty window of a snapshot keeps its bucket vector, so equal
        // empty windows mean equal bucket counts: the histogram did not
        // grow with the traffic.
        let buckets = |s: &RuntimeStats| s.modelled_latency.since(&s.modelled_latency);
        assert_eq!(buckets(&after_many), buckets(&after_one));
    }

    #[test]
    fn mean_queue_wait_survives_2_pow_32_completions() {
        let c = StatsCollector::new();
        c.record_batch(
            1,
            batch_ledger(10, 100.0, 1.0),
            Duration::from_secs(1 << 33),
        );
        c.inner.lock().expect("stats lock").completed = 1 << 32;
        // A `u32` cast of the count would divide by zero here and poison
        // the lock for every later `record_batch`.
        assert_eq!(c.snapshot().mean_queue_wait, Duration::from_secs(2));
        c.record_batch(1, batch_ledger(10, 100.0, 1.0), Duration::ZERO);
    }
}
