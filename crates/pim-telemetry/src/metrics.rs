//! The lock-cheap metrics registry and its Prometheus text exposition.
//!
//! Registration (naming a metric, choosing histogram buckets) is rare and
//! takes the registry mutex; updates are atomic operations on cloned
//! handles and never touch the registry again. Handles are `Clone` and
//! cheap to pass around — clones share the same underlying cells, so a
//! worker pool incrementing a cloned [`Counter`] is incrementing *the*
//! counter.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

/// An atomic `f64` cell (bit-pattern CAS on an `AtomicU64`).
#[derive(Debug, Default)]
struct Cell(AtomicU64);

impl Cell {
    fn add(&self, v: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = f64::from_bits(current) + v;
            match self.0.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A monotonically increasing metric (requests served, picojoules spent).
///
/// Backed by an `f64` so energy and other fractional totals accumulate
/// with the exact rounding of the simulator ledgers' `+=` chains;
/// integer counts are exact up to 2^53.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<Cell>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Adds `v` (must be non-negative — counters are monotonic).
    pub fn add(&self, v: f64) {
        debug_assert!(v >= 0.0, "counter decremented by {v}");
        self.cell.add(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// A metric that can move both ways (queue depth, budget fraction).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<Cell>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: f64) {
        self.cell.add(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// A fixed-bucket histogram (bucket bounds chosen at construction).
///
/// Observation cost is a binary search of the bounds plus three atomic
/// updates. There is no per-sample allocation and no lock, so memory stays
/// fixed however many samples arrive. Registry histograms come from
/// [`TelemetryRegistry::histogram`]; [`Histogram::new`] builds a standalone
/// one (e.g. over [`LATENCY_BUCKETS`]) for a caller that only needs the
/// summary.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds, strictly ascending. The implicit `+Inf`
    /// bucket lives at `counts[bounds.len()]`.
    bounds: Arc<[f64]>,
    counts: Vec<AtomicU64>,
    sum: Cell,
    count: AtomicU64,
}

/// Index of the bucket holding `v`: the first bound `>= v`, or the `+Inf`
/// bucket (`bounds.len()`) past the last bound or for NaN.
fn bucket_index(bounds: &[f64], v: f64) -> usize {
    if v.is_nan() {
        bounds.len()
    } else {
        bounds.partition_point(|&b| b < v)
    }
}

impl Histogram {
    /// A standalone histogram over the given finite bucket bounds
    /// (strictly ascending; `+Inf` is implicit).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, unsorted, or not finite.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending: {bounds:?}"
        );
        Self {
            inner: Arc::new(HistogramCore {
                bounds: bounds.into(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: Cell::default(),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn observe(&self, v: f64) {
        let core = &*self.inner;
        core.counts[bucket_index(&core.bounds, v)].fetch_add(1, Ordering::Relaxed);
        core.sum.add(v);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed samples.
    pub fn sum(&self) -> f64 {
        self.inner.sum.get()
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// The bucketed `q`-quantile of everything observed so far; see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the cumulative state. Two snapshots of the
    /// same histogram can be differenced ([`HistogramSnapshot::since`]) to
    /// recover the distribution of *just the window between them* — the
    /// read side a pressure sampler needs from a forever-cumulative
    /// histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.inner;
        HistogramSnapshot {
            bounds: Arc::clone(&core.bounds),
            counts: core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s cumulative buckets, and a
/// plain (non-atomic) histogram in its own right.
///
/// A snapshot can keep [`record`](Self::record)ing, so a ledger that is
/// already behind a lock or `&mut` holds one by value instead of sharing
/// atomics. Snapshots over the same bounds [`merge`](Self::merge) (the
/// union of two sample sets) and difference with [`since`](Self::since)
/// (the samples observed between two snapshots of one histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds; the `+Inf` bucket is `counts[bounds.len()]`.
    bounds: Arc<[f64]>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl HistogramSnapshot {
    /// Total samples in the snapshot (window).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples in the snapshot (window).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Records `n` samples of value `v` at once (a batch whose `n` riders
    /// all saw the same latency costs one bucket update, not `n`).
    pub fn record(&mut self, v: f64, n: u64) {
        self.counts[bucket_index(&self.bounds, v)] += n;
        self.sum += v * n as f64;
        self.count += n;
    }

    /// Upper bound of the bucket holding the nearest-rank `q`-quantile
    /// (`q` in `[0, 1]`): the sample at 1-indexed rank `⌈q·n⌉`, clamped to
    /// `[1, n]`. Returns 0 when the snapshot is empty.
    ///
    /// **Error bound.** A sample in `(bounds[i-1], bounds[i]]` reports
    /// `bounds[i]`, so the answer never under-estimates the exact
    /// nearest-rank sample, and exceeds it by a factor below the ratio of
    /// adjacent bounds: by under `2^(1/16) − 1 ≈ 4.4%` for
    /// [`LATENCY_BUCKETS`].
    /// The bound holds for samples above the first bound and at or below
    /// the last; smaller samples report the first bound, and larger ones
    /// report the last bound (an under-estimate).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let last = self.bounds.len() - 1;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return self.bounds[i.min(last)];
            }
        }
        self.bounds[last]
    }

    /// The union of two snapshots: bucket-wise sum of the counts, totals
    /// added. Commutative; it equals recording both sample sets into one
    /// histogram, except that the two `f64` sums are added as totals, so
    /// the sum matches a single histogram's only up to rounding order.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bucket bounds.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        self.zip_with(other, "merged", |a, b| a + b, self.sum + other.sum)
    }

    /// The window between `earlier` and `self`: bucket-wise saturating
    /// difference (both snapshots must come from the same histogram, so
    /// counts only ever grow; saturation guards a mismatched pair instead
    /// of panicking).
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bucket bounds — they
    /// cannot be from the same histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        self.zip_with(
            earlier,
            "differenced",
            u64::saturating_sub,
            (self.sum - earlier.sum).max(0.0),
        )
    }

    fn zip_with(
        &self,
        other: &HistogramSnapshot,
        verb: &str,
        op: impl Fn(u64, u64) -> u64,
        sum: f64,
    ) -> HistogramSnapshot {
        assert_eq!(
            self.bounds, other.bounds,
            "snapshots of different histograms cannot be {verb}"
        );
        HistogramSnapshot {
            bounds: Arc::clone(&self.bounds),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(&a, &b)| op(a, b))
                .collect(),
            sum,
            count: op(self.count, other.count),
        }
    }
}

/// `count` exponentially spaced histogram bounds starting at `start`
/// (factor `factor` apart) — the usual shape for latency buckets.
///
/// # Panics
///
/// Panics unless `start > 0`, `factor > 1`, and `count >= 1`.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count >= 1, "bad bucket spec");
    (0..count).map(|i| start * factor.powi(i as i32)).collect()
}

/// The one bucket layout for latency summaries, in seconds: 640 bounds a
/// factor `2^(1/16)` apart, from 1 ns to about 1053 s. Modelled PE
/// latencies (ns to µs) and wall serving latencies (µs to s) share it, so
/// their snapshots merge, and [`HistogramSnapshot::quantile`]
/// over-estimates either by at most `2^(1/16) − 1 ≈ 4.4%`.
pub static LATENCY_BUCKETS: LazyLock<Vec<f64>> =
    LazyLock::new(|| exponential_buckets(1e-9, 2f64.powf(1.0 / 16.0), 640));

/// What kind of metric a registry entry is.
#[derive(Debug, Clone)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter(Counter),
    /// Up/down gauge.
    Gauge(Gauge),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: MetricKind,
}

/// The metric registry: named families of counters, gauges, and
/// histograms, each family optionally split by labels.
///
/// Registration is **get-or-register**: asking for the same
/// `(name, labels)` twice returns a handle to the same cells, so an
/// instrumented subsystem and a dashboard (or test) can both "register"
/// the metric and observe one value. Asking for an existing
/// `(name, labels)` with a *different* metric kind panics — that is a
/// programming error, not a runtime condition.
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-register an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get-or-register a labelled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_register(name, help, labels, || {
            MetricKind::Counter(Counter::default())
        }) {
            MetricKind::Counter(c) => c,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-register an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-register a labelled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_register(name, help, labels, || MetricKind::Gauge(Gauge::default())) {
            MetricKind::Gauge(g) => g,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-register an unlabelled histogram with the given finite
    /// bucket bounds (strictly ascending; `+Inf` is implicit). On
    /// get-or-register hits the *existing* buckets win.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get-or-register a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.get_or_register(name, help, labels, || {
            MetricKind::Histogram(Histogram::new(bounds))
        }) {
            MetricKind::Histogram(h) => h,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    fn get_or_register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        build: impl FnOnce() -> MetricKind,
    ) -> MetricKind {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_label_name(k)),
            "invalid label name in {labels:?}"
        );
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
        {
            return e.metric.clone();
        }
        let metric = build();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<MetricKind> {
        let entries = self.entries.lock().expect("registry lock");
        entries
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
            .map(|e| e.metric.clone())
    }

    /// Read-side lookup: the counter registered under `(name, labels)`,
    /// or `None` — unlike [`counter_with`](Self::counter_with) this never
    /// creates a series, so samplers (a governor reading pressure, a
    /// dashboard) can probe for families that may not exist without
    /// polluting the registry.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        match self.find(name, labels) {
            Some(MetricKind::Counter(c)) => Some(c),
            _ => None,
        }
    }

    /// Read-side lookup of a gauge; `None` if absent or a different kind.
    pub fn find_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<Gauge> {
        match self.find(name, labels) {
            Some(MetricKind::Gauge(g)) => Some(g),
            _ => None,
        }
    }

    /// Read-side lookup of a histogram; `None` if absent or a different
    /// kind.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self.find(name, labels) {
            Some(MetricKind::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every series of a scalar family (counters and gauges), as
    /// `(labels, current value)` in registration order. Histogram series
    /// are skipped — read those via [`find_histogram`](Self::find_histogram)
    /// and [`Histogram::snapshot`]. The family-wide view a pressure
    /// sampler folds (e.g. max queue depth across `replica="<i>"` series).
    pub fn family_values(&self, name: &str) -> Vec<(Vec<(String, String)>, f64)> {
        let entries = self.entries.lock().expect("registry lock");
        entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.metric {
                MetricKind::Counter(c) => Some((e.labels.clone(), c.value())),
                MetricKind::Gauge(g) => Some((e.labels.clone(), g.value())),
                MetricKind::Histogram(_) => None,
            })
            .collect()
    }

    /// Every registered family name, in registration order, deduplicated.
    pub fn metric_names(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("registry lock");
        let mut names: Vec<String> = Vec::new();
        for e in entries.iter() {
            if names.last() != Some(&e.name) && !names.contains(&e.name) {
                names.push(e.name.clone());
            }
        }
        names
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` once per family, histograms as cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry lock");
        let mut out = String::new();
        let mut rendered: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if rendered.contains(&e.name.as_str()) {
                continue;
            }
            rendered.push(&e.name);
            let _ = writeln!(out, "# HELP {} {}", e.name, escape_help(&e.help));
            let _ = writeln!(out, "# TYPE {} {}", e.name, e.metric.type_name());
            for member in entries.iter().filter(|m| m.name == e.name) {
                render_entry(&mut out, member);
            }
        }
        out
    }
}

fn render_entry(out: &mut String, e: &Entry) {
    match &e.metric {
        MetricKind::Counter(c) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                e.name,
                label_set(&e.labels, None),
                c.value()
            );
        }
        MetricKind::Gauge(g) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                e.name,
                label_set(&e.labels, None),
                g.value()
            );
        }
        MetricKind::Histogram(h) => {
            let snap = h.snapshot();
            let mut cumulative = 0u64;
            for (i, c) in snap.counts.iter().enumerate() {
                cumulative += c;
                let le = match snap.bounds.get(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    e.name,
                    label_set(&e.labels, Some(&le)),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                e.name,
                label_set(&e.labels, None),
                snap.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                e.name,
                label_set(&e.labels, None),
                snap.count
            );
        }
    }
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            s.push(',');
        }
        let _ = write!(s, "le=\"{le}\"");
    }
    s.push('}');
    s
}

fn label_eq(a: &[(String, String)], b: &[(&str, &str)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_shared_across_clones() {
        let r = TelemetryRegistry::new();
        let a = r.counter("reqs_total", "requests");
        let b = a.clone();
        a.inc();
        b.add(2.0);
        assert_eq!(a.value(), 3.0);
        assert_eq!(r.counter("reqs_total", "requests").value(), 3.0);
    }

    #[test]
    fn counter_addition_matches_sequential_f64_sums_bitwise() {
        // The bit-exact-ledger contract: single-threaded CAS adds round
        // exactly like a += chain.
        let c = Counter::default();
        let samples = [0.1, 0.7, 1e-9, 123.456, 0.3333333];
        let mut reference = 0.0f64;
        for s in samples {
            c.add(s);
            reference += s;
        }
        assert_eq!(c.value().to_bits(), reference.to_bits());
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = TelemetryRegistry::new();
        let g = r.gauge("queue_depth", "queue depth");
        g.set(5.0);
        g.add(-2.0);
        assert_eq!(g.value(), 3.0);
    }

    #[test]
    fn labelled_families_are_distinct_series() {
        let r = TelemetryRegistry::new();
        let read = r.counter_with("energy_pj_total", "energy", &[("channel", "read")]);
        let write = r.counter_with("energy_pj_total", "energy", &[("channel", "write")]);
        read.add(1.5);
        write.add(2.5);
        let text = r.render_prometheus();
        assert!(text.contains("energy_pj_total{channel=\"read\"} 1.5"));
        assert!(text.contains("energy_pj_total{channel=\"write\"} 2.5"));
        assert_eq!(text.matches("# TYPE energy_pj_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_the_exposition() {
        let r = TelemetryRegistry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.005, 0.005, 0.05, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5.0605).abs() < 1e-12);
        assert!((h.mean() - 1.0121).abs() < 1e-12);
        let text = r.render_prometheus();
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 4"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_seconds_count 5"));
    }

    #[test]
    fn histogram_quantile_reports_bucket_bounds() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in [0.5, 0.5, 1.5, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.99), 4.0);
        h.observe(100.0); // past the last finite bound
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn exponential_buckets_grow_by_the_factor() {
        assert_eq!(exponential_buckets(0.5, 2.0, 3), vec![0.5, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_conflicts_panic() {
        let r = TelemetryRegistry::new();
        r.counter("x_total", "x");
        r.gauge("x_total", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        TelemetryRegistry::new().counter("bad name", "x");
    }

    #[test]
    fn metric_names_lists_each_family_once() {
        let r = TelemetryRegistry::new();
        r.counter_with("a_total", "a", &[("k", "1")]);
        r.counter_with("a_total", "a", &[("k", "2")]);
        r.gauge("b", "b");
        assert_eq!(
            r.metric_names(),
            vec!["a_total".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn find_is_read_only_and_kind_checked() {
        let r = TelemetryRegistry::new();
        assert!(r.find_counter("absent_total", &[]).is_none());
        assert!(
            r.metric_names().is_empty(),
            "a failed lookup must not register the family"
        );
        let c = r.counter_with("reqs_total", "reqs", &[("tenant", "lo")]);
        c.add(3.0);
        let found = r
            .find_counter("reqs_total", &[("tenant", "lo")])
            .expect("registered series");
        assert_eq!(found.value(), 3.0);
        assert!(r.find_counter("reqs_total", &[("tenant", "hi")]).is_none());
        // Kind mismatches answer None instead of panicking (lookups are
        // probes, not registrations).
        assert!(r.find_gauge("reqs_total", &[("tenant", "lo")]).is_none());
        assert!(r
            .find_histogram("reqs_total", &[("tenant", "lo")])
            .is_none());
    }

    #[test]
    fn family_values_folds_all_scalar_series() {
        let r = TelemetryRegistry::new();
        r.gauge_with("depth", "d", &[("replica", "0")]).set(2.0);
        r.gauge_with("depth", "d", &[("replica", "1")]).set(7.0);
        r.histogram("depth_hist", "h", &[1.0]); // different family, skipped
        let values = r.family_values("depth");
        assert_eq!(values.len(), 2);
        assert_eq!(values[0].0, vec![("replica".into(), "0".into())]);
        let max = values.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert_eq!(max, 7.0);
        assert!(r.family_values("absent").is_empty());
    }

    #[test]
    fn histogram_snapshots_difference_into_windows() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0] {
            h.observe(v);
        }
        let earlier = h.snapshot();
        assert_eq!(earlier.count(), 3);
        assert_eq!(earlier.quantile(0.5), 2.0);
        for v in [3.5, 3.5, 3.5, 100.0] {
            h.observe(v);
        }
        let later = h.snapshot();
        let window = later.since(&earlier);
        // Only the four new samples: p50 sits in the (2, 4] bucket and the
        // overflow sample reports the last finite bound, like the live
        // histogram's quantile.
        assert_eq!(window.count(), 4);
        assert_eq!(window.quantile(0.5), 4.0);
        assert_eq!(window.quantile(1.0), 4.0);
        assert!((window.sum() - 110.5).abs() < 1e-9);
        assert!((window.mean() - 27.625).abs() < 1e-9);
        // An empty window answers zeros.
        let empty = later.since(&later);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different histograms")]
    fn mismatched_snapshots_refuse_to_difference() {
        let a = Histogram::new(&[1.0]).snapshot();
        let b = Histogram::new(&[2.0]).snapshot();
        let _ = a.since(&b);
    }

    #[test]
    #[should_panic(expected = "different histograms")]
    fn mismatched_snapshots_refuse_to_merge() {
        let a = Histogram::new(&[1.0]).snapshot();
        let b = Histogram::new(&[2.0]).snapshot();
        let _ = a.merge(&b);
    }

    /// `2^(1/16)`: the ratio of adjacent [`LATENCY_BUCKETS`] bounds.
    fn latency_factor() -> f64 {
        2f64.powf(1.0 / 16.0)
    }

    /// A snapshot over [`LATENCY_BUCKETS`] with `samples` recorded once each.
    fn latency_snapshot(samples: &[f64]) -> HistogramSnapshot {
        let mut s = Histogram::new(&LATENCY_BUCKETS).snapshot();
        for &v in samples {
            s.record(v, 1);
        }
        s
    }

    /// `got` is the upper bound of the latency bucket holding `exact`, so
    /// it sits within the documented error bound above it.
    fn assert_bucket_of(got: f64, exact: f64) {
        assert_eq!(got, LATENCY_BUCKETS[bucket_index(&LATENCY_BUCKETS, exact)]);
        assert!(
            exact <= got && got <= exact * latency_factor(),
            "{got} vs {exact}"
        );
    }

    #[test]
    fn latency_buckets_span_1ns_to_about_1000s() {
        let b = &*LATENCY_BUCKETS;
        assert_eq!(b.len(), 640);
        assert_eq!(b[0], 1e-9);
        assert!(b[639] > 1000.0 && b[639] < 1100.0, "{}", b[639]);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        // An empty snapshot answers exactly 0 for every quantile and the
        // mean: not NaN, not a panic, not an Option.
        let s = latency_snapshot(&[]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum(), 0.0);
        assert_eq!(s.mean(), 0.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.0);
        }
    }

    #[test]
    fn summary_matches_hand_computed_percentiles() {
        // Unsorted on purpose: [300, 100, 100, 100] ns.
        let s = latency_snapshot(&[300e-9, 100e-9, 100e-9, 100e-9]);
        assert_eq!(s.count(), 4);
        assert_bucket_of(s.quantile(0.5), 100e-9);
        assert_bucket_of(s.quantile(0.99), 300e-9);
        assert!((s.mean() - 150e-9).abs() < 1e-20);
    }

    #[test]
    fn percentile_takes_the_ceil_rank_sample() {
        let us = [1e-6, 2e-6, 3e-6, 4e-6, 5e-6];
        let s = latency_snapshot(&us);
        assert_bucket_of(s.quantile(0.0), 1e-6);
        assert_bucket_of(s.quantile(0.5), 3e-6);
        assert_bucket_of(s.quantile(1.0), 5e-6);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = latency_snapshot(&[42e-9]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_bucket_of(s.quantile(q), 42e-9);
        }
        assert_eq!(s.mean(), 42e-9);
    }

    #[test]
    fn two_samples_put_the_median_on_the_lower_one() {
        // Nearest-rank: rank ⌈0.5·2⌉ = 1 → the smaller sample's bucket.
        let s = latency_snapshot(&[200e-9, 100e-9]);
        assert_bucket_of(s.quantile(0.5), 100e-9);
        assert_bucket_of(s.quantile(0.95), 200e-9);
        assert_bucket_of(s.quantile(0.99), 200e-9);
    }

    #[test]
    fn four_samples_pin_all_ranks() {
        // ⌈0.50·4⌉ = 2 → 20, ⌈0.95·4⌉ = 4 → 40, ⌈0.99·4⌉ = 4 → 40.
        let s = latency_snapshot(&[40e-6, 10e-6, 30e-6, 20e-6]);
        assert_bucket_of(s.quantile(0.5), 20e-6);
        assert_bucket_of(s.quantile(0.95), 40e-6);
        assert_bucket_of(s.quantile(0.99), 40e-6);
    }

    #[test]
    fn hundred_samples_hit_the_exact_ranks() {
        // 1..=100 µs shuffled; nearest-rank of p on n = 100 is 100·p µs.
        let samples: Vec<f64> = (0..100)
            .map(|i| ((i * 37) % 100 + 1) as f64 * 1e-6)
            .collect();
        let s = latency_snapshot(&samples);
        assert_eq!(s.count(), 100);
        assert_bucket_of(s.quantile(0.5), 50e-6);
        assert_bucket_of(s.quantile(0.95), 95e-6);
        assert_bucket_of(s.quantile(0.99), 99e-6);
    }

    #[test]
    fn weighted_record_equals_repeated_records() {
        let mut once = latency_snapshot(&[]);
        once.record(3e-6, 5);
        assert_eq!(once, latency_snapshot(&[3e-6; 5]));
        // The atomic histogram's standalone constructor agrees too.
        let h = Histogram::new(&LATENCY_BUCKETS);
        for _ in 0..5 {
            h.observe(3e-6);
        }
        assert_eq!(h.snapshot(), once);
    }

    mod latency_props {
        use super::*;
        use proptest::prelude::*;

        /// Exact nearest-rank quantile of sorted samples: the sample at
        /// 1-indexed rank `⌈q·n⌉`, clamped to `[1, n]`.
        fn exact_rank(sorted: &[f64], q: f64) -> f64 {
            let n = sorted.len();
            let rank = (q * n as f64).ceil() as usize;
            sorted[rank.clamp(1, n) - 1]
        }

        proptest! {
            #[test]
            fn quantiles_bound_the_exact_rank_and_merge_is_the_union(
                grid in prop_oneof![1usize..3, 3usize..65]
                    .prop_flat_map(|n| proptest::collection::vec((1u64..1024, 0i32..30), n)),
                ties in 0u64..4,
                cut in 0usize..65,
            ) {
                // Samples m·2^-e seconds: between ~1.9 ns and 1023 s, inside
                // the layout's error-bounded range, and on a dyadic grid so
                // every f64 sum below is exact and the comparisons test
                // bucket arithmetic, not summation order.
                let mut samples: Vec<f64> = grid
                    .iter()
                    .map(|&(m, e)| m as f64 * 2f64.powi(-e))
                    .collect();
                // Ties: the first sample recorded again with one weight.
                let mut union = latency_snapshot(&samples);
                union.record(samples[0], ties);
                samples.extend(std::iter::repeat_n(samples[0], ties as usize));

                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                for q in [0.5, 0.95, 0.99] {
                    let exact = exact_rank(&sorted, q);
                    let hist = union.quantile(q);
                    prop_assert!(
                        exact <= hist && hist <= exact * latency_factor(),
                        "q={q} exact={exact} hist={hist}"
                    );
                }

                let cut = cut.min(samples.len());
                let a = latency_snapshot(&samples[..cut]);
                let b = latency_snapshot(&samples[cut..]);
                prop_assert_eq!(a.merge(&b), b.merge(&a));
                prop_assert_eq!(a.merge(&b), union);
            }
        }
    }

    #[test]
    fn help_and_label_values_are_escaped() {
        let r = TelemetryRegistry::new();
        r.counter_with("esc_total", "line\nbreak", &[("path", "a\"b\\c")]);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP esc_total line\\nbreak"));
        assert!(text.contains("path=\"a\\\"b\\\\c\""));
    }
}
