//! Metric records, provenance, and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// Samples the value was computed from.
    pub samples: u64,
    /// What the number is on this workload (printed, not in the result).
    pub note: String,
}

/// Builds metric lists tersely.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: u64,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            better,
            samples,
            note: note.into(),
        });
    }

    /// A per-layer reading; its direction comes from the per-layer list.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.push(name, value, unit, Better::Lower, samples, "");
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub git_commit: String,
    /// FNV-1a digest of the sources the benchmark was built from; names
    /// the code where no git metadata exists (an exported checkout).
    pub source_digest: String,
    pub rustc: &'static str,
}

impl Provenance {
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_commit: git_commit(),
            source_digest: source_digest(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"git_commit\":\"{}\",\"source_digest\":\"{}\",\"rustc\":\"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            escape(&self.git_commit),
            self.source_digest,
            escape(self.rustc)
        )
    }
}

/// The commit of the working directory's git checkout, or `"unknown"`
/// outside one. The search stops at the working directory, so an
/// enclosing repository is never reported by mistake.
fn git_commit() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    let ceiling = cwd.parent().map(|p| p.as_os_str().to_owned());
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(&cwd);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

/// Digest of every file under `crates/` and `perfbench/src/` plus the
/// manifests and lock files, in sorted path order, read from the working
/// directory. `"unknown"` if any of them cannot be read.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![
        PathBuf::from("Cargo.toml"),
        PathBuf::from("Cargo.lock"),
        PathBuf::from("perfbench/Cargo.toml"),
        PathBuf::from("perfbench/Cargo.lock"),
    ];
    let digest = (|| -> std::io::Result<u64> {
        walk(Path::new("crates"), &mut files)?;
        walk(Path::new("perfbench/src"), &mut files)?;
        files.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in &files {
            let bytes = f.to_string_lossy().into_owned().into_bytes();
            for b in bytes.iter().chain(&[0]).chain(&std::fs::read(f)?) {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Ok(h)
    })();
    digest.map_or_else(|_| "unknown".into(), |h| format!("{h:016x}"))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Peak resident set size of this process in MB (VmHWM), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Prints the human-readable table.
pub fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    println!(
        "  {:<34} {:>16} {:<6} {:<7} {:>8}  note",
        "metric", "value", "unit", "better", "samples"
    );
    for m in &metrics.0 {
        println!(
            "  {:<34} {:>16.6} {:<6} {:<7} {:>8}  {}",
            m.name,
            m.value,
            m.unit,
            m.better.as_str(),
            m.samples,
            m.note
        );
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity, so
/// those are clamped to a finite sentinel the caller has already
/// flagged as a failure.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}
