//! The repository benchmark: three workloads against the public APIs of
//! the serving, batch and learning paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice, untraced then traced (half the
//! time each), and reports the per-layer metrics of the traced pass plus
//! the tracing overhead; its spans and the stack's own telemetry are
//! written under `.perfbench-out/`. The last line of standard output is
//! the JSON result; the process exits non-zero when any answer is wrong.
//! See `NOTES.md` for what each workload and metric means.

mod fleet;
mod layers;
mod learn_publish;
mod models;
mod report;
mod serve_open;
mod serve_saturated;
mod stats;
mod trace;

use report::{Better, Metrics, Provenance};
use stats::Tally;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

use pim_telemetry::{Telemetry, TraceDump};

/// Wall time each layer probe spends timing the forward pass.
pub const PROBE_BUDGET: Duration = Duration::from_millis(500);

/// Where traced runs write spans and telemetry, under the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";

const WORKLOADS: [&str; 3] = ["serve_open", "serve_saturated", "learn_publish"];

/// Every end-to-end metric an untraced run reports, with its unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric a traced run reports, with its unit and the
/// direction a reader should take as better (informational: per-layer
/// metrics have no bound). A layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str, Better); 68] = [
    ("gen.lateness_p99_ms", "ms", Better::Lower),
    ("gen.max_backlog", "count", Better::Lower),
    ("governor.submit_us_p50", "us", Better::Lower),
    ("governor.submit_us_p99", "us", Better::Lower),
    ("governor.tick_us_p50", "us", Better::Lower),
    ("governor.shed", "count", Better::Lower),
    ("governor.rejected", "count", Better::Lower),
    ("governor.events", "count", Better::Lower),
    ("cluster.route_imbalance", "ratio", Better::Lower),
    ("cluster.queue_depth_mean", "count", Better::Lower),
    ("runtime.batch_size_mean", "count", Better::Higher),
    ("runtime.queue_wait_ms_p50", "ms", Better::Lower),
    ("runtime.queue_wait_ms_p99", "ms", Better::Lower),
    ("runtime.stage_queue_ms_mean", "ms", Better::Lower),
    ("runtime.stage_batch_form_ms_mean", "ms", Better::Lower),
    ("runtime.stage_compute_ms_mean", "ms", Better::Lower),
    ("runtime.stage_reply_ms_mean", "ms", Better::Lower),
    ("runtime.swaps", "count", Better::Lower),
    ("nn.backbone_us", "us", Better::Lower),
    ("core.predict_us", "us", Better::Lower),
    ("core.branch_us", "us", Better::Lower),
    ("core.conv3_us", "us", Better::Lower),
    ("core.backbone_share", "ratio", Better::Lower),
    ("pe.matvecs_per_image", "count", Better::Lower),
    ("pe.macs_per_image", "count", Better::Lower),
    ("pe.cycles_per_image", "cycles", Better::Lower),
    ("pe.energy_pj_per_image", "pJ", Better::Lower),
    ("pe.host_ns_per_matvec", "ns", Better::Lower),
    ("pe.rep0.proj.cycles", "cycles", Better::Lower),
    ("pe.rep0.proj.energy_pj", "pJ", Better::Lower),
    ("pe.rep0.conv3.cycles", "cycles", Better::Lower),
    ("pe.rep0.conv3.energy_pj", "pJ", Better::Lower),
    ("pe.rep0.conv1.cycles", "cycles", Better::Lower),
    ("pe.rep0.conv1.energy_pj", "pJ", Better::Lower),
    ("pe.rep1.proj.cycles", "cycles", Better::Lower),
    ("pe.rep1.proj.energy_pj", "pJ", Better::Lower),
    ("pe.rep1.conv3.cycles", "cycles", Better::Lower),
    ("pe.rep1.conv3.energy_pj", "pJ", Better::Lower),
    ("pe.rep1.conv1.cycles", "cycles", Better::Lower),
    ("pe.rep1.conv1.energy_pj", "pJ", Better::Lower),
    ("pe.rep2.proj.cycles", "cycles", Better::Lower),
    ("pe.rep2.proj.energy_pj", "pJ", Better::Lower),
    ("pe.rep2.conv3.cycles", "cycles", Better::Lower),
    ("pe.rep2.conv3.energy_pj", "pJ", Better::Lower),
    ("pe.rep2.conv1.cycles", "cycles", Better::Lower),
    ("pe.rep2.conv1.energy_pj", "pJ", Better::Lower),
    ("pe.classifier.cycles", "cycles", Better::Lower),
    ("pe.classifier.energy_pj", "pJ", Better::Lower),
    ("par.jobs", "count", Better::Lower),
    ("par.inline_jobs", "count", Better::Lower),
    ("par.steals", "count", Better::Lower),
    ("par.splits", "count", Better::Lower),
    ("par.parks", "count", Better::Lower),
    ("par.steal_ratio", "ratio", Better::Lower),
    ("learn.step_ms_p50", "ms", Better::Lower),
    ("learn.preflight_us_p50", "us", Better::Lower),
    ("learn.write_back_us_p50", "us", Better::Lower),
    ("learn.compiled_us_p50", "us", Better::Lower),
    ("learn.swap_us_p50", "us", Better::Lower),
    ("learn.write_bits_per_publish", "bits", Better::Lower),
    ("learn.mram_write_bits", "bits", Better::Lower),
    ("setup.compile_ms", "ms", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("result.attempted", "count", Better::Higher),
    ("result.failed", "count", Better::Lower),
    ("result.fail_frac", "ratio", Better::Lower),
    ("proc.peak_rss_mb", "MB", Better::Lower),
    ("proc.nproc", "count", Better::Higher),
];

/// One measured pass of a workload.
pub struct Pass {
    pub seed: u64,
    pub seconds: f64,
    /// Present only in the traced pass.
    pub tracer: Option<Tracer>,
    /// The stack's own telemetry bundle, attached only in the traced
    /// pass.
    pub telemetry: Option<Arc<Telemetry>>,
}

/// What a pass produced.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Metrics,
    /// End-to-end readings printed but not gated (see `NOTES.md`).
    pub ungated: Metrics,
    pub layers: Metrics,
    /// Requests counted against `fail_frac`.
    pub tally: Tally,
    /// Correctness checks, all of which must hold.
    pub checks: Vec<(String, bool)>,
    /// Extra human-readable lines.
    pub info: Vec<String>,
    /// The end-to-end reading the tracing overhead is computed on
    /// (a time: lower is better).
    pub primary: f64,
}

impl Outcome {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_pass(workload: &str, pass: &Pass) -> Outcome {
    match workload {
        "serve_open" => serve_open::run(pass),
        "serve_saturated" => serve_saturated::run(pass),
        "learn_publish" => learn_publish::run(pass),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::collect(&args.workload, args.seed, args.seconds, args.trace);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let seconds = args.seconds as f64;
    let (outcome, metrics, attempted, failed, correct) = if !args.trace {
        let pass = Pass {
            seed: args.seed,
            seconds,
            tracer: None,
            telemetry: None,
        };
        let mut out = run_pass(&args.workload, &pass);
        let rss = report::peak_rss_mb().unwrap_or(0.0);
        out.end_to_end.push(
            "peak_rss_mb",
            rss,
            "MB",
            Better::Lower,
            1,
            "VmHWM of the process",
        );
        out.check("peak RSS is readable", rss > 0.0);
        let metrics = std::mem::take(&mut out.end_to_end);
        assert!(
            metrics.0.len() == END_TO_END.len()
                && END_TO_END
                    .iter()
                    .all(|(n, u)| metrics.0.iter().any(|m| m.name == *n && m.unit == *u)),
            "the workload must report exactly the END_TO_END metrics"
        );
        let (attempted, failed) = (out.tally.attempted, out.tally.failed());
        let correct = out.correct();
        (out, metrics, attempted, failed, correct)
    } else {
        let bare = run_pass(
            &args.workload,
            &Pass {
                seed: args.seed,
                seconds: seconds / 2.0,
                tracer: None,
                telemetry: None,
            },
        );
        let pass = Pass {
            seed: args.seed,
            seconds: seconds / 2.0,
            tracer: Some(Tracer::new()),
            telemetry: Some(Telemetry::with_trace_capacity(1 << 16)),
        };
        let mut out = run_pass(&args.workload, &pass);
        if let Err(e) = write_trace(&args, &pass) {
            eprintln!("perfbench: could not write the trace: {e}");
            out.check("trace written", false);
        }
        let (tally, overhead) = (out.tally, out.primary / bare.primary - 1.0);
        let l = &mut out.layers;
        l.layer("trace.overhead_frac", overhead, "ratio", 2);
        l.layer("result.attempted", tally.attempted as f64, "count", 1);
        l.layer("result.failed", tally.failed() as f64, "count", 1);
        l.layer(
            "result.fail_frac",
            tally.fail_frac(),
            "ratio",
            tally.attempted,
        );
        l.layer(
            "proc.peak_rss_mb",
            report::peak_rss_mb().unwrap_or(0.0),
            "MB",
            1,
        );
        l.layer("proc.nproc", nproc() as f64, "count", 1);
        for m in &l.0 {
            assert!(
                PER_LAYER.iter().any(|(n, _, _)| *n == m.name),
                "per-layer metric {} is missing from PER_LAYER",
                m.name
            );
        }
        let mut metrics = Metrics::default();
        for (name, unit, better) in PER_LAYER {
            let found = l.0.iter().find(|m| m.name == name);
            let (value, samples) = found.map_or((0.0, 0), |m| (m.value, m.samples));
            metrics.0.push(report::Metric {
                name: name.into(),
                value,
                unit,
                better,
                samples,
                note: String::new(),
            });
        }
        for (what, ok) in &bare.checks {
            out.check(&format!("untraced pass: {what}"), *ok);
        }
        let attempted = out.tally.attempted + bare.tally.attempted;
        let failed = out.tally.failed() + bare.tally.failed();
        let correct = out.correct();
        (out, metrics, attempted, failed, correct)
    };

    for line in &outcome.info {
        println!("  {line}");
    }
    let title = if args.trace {
        "per-layer metrics (traced pass)"
    } else {
        "end-to-end metrics"
    };
    report::print_table(title, &metrics);
    if !args.trace {
        report::print_table(
            "end-to-end, printed only (run-to-run spread above every bound)",
            &outcome.ungated,
        );
    }
    println!(
        "fail_frac {:.6} ({failed} of {attempted} attempted)",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    );
    let mut correct = correct;
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    if attempted == 0 {
        println!("check FAIL: no request was attempted");
        correct = false;
    }
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        println!("check FAIL: metric {} is not finite", bad.name);
        correct = false;
    }
    println!("provenance {}", provenance.to_json());
    println!(
        "{}",
        report::result_json(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the benchmark's spans and the stack's telemetry (span ring and
/// Prometheus exposition) under [`OUT_DIR`].
fn write_trace(args: &Args, pass: &Pass) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if let Some(t) = &pass.tracer {
        t.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    if let Some(tel) = &pass.telemetry {
        TraceDump::from_tracer(&tel.tracer).save(dir.join(format!("{stem}.telemetry.jsonl")))?;
        std::fs::write(
            dir.join(format!("{stem}.prom")),
            tel.registry.render_prometheus(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER, WORKLOADS};

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                doc.contains(&format!("{{\"name\": \"{w}\"")),
                "workload {w}"
            );
        }
        let entries = doc.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
