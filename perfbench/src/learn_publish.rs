//! `learn_publish`: online learning rounds on the default model, each
//! ending in a publish (SRAM write-back plus hot swap), while one
//! closed-loop reader keeps calling `Runtime::infer` on the same slot.

use crate::fleet::{self, TenantDef};
use crate::layers;
use crate::models::{self, bit_equal, Size};
use crate::report::{Better, Metrics};
use crate::stats::{self, Rng, Tally};
use crate::trace::{timed, Tracer};
use crate::{Outcome, Pass, PROBE_BUDGET};
use pim_governor::{CompiledModel, Priority};
use pim_learn::LearnEngine;
use pim_nn::tensor::Tensor;
use pim_runtime::{ModelId, PoolCounters, Runtime};
use pim_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per block. Every block replays the same rounds from a fresh
/// engine, so the modelled write counts repeat exactly for a seed.
const ROUNDS: usize = 8;
/// Samples observed per round.
const OBSERVE: usize = 4;
/// `LearnEngine::step` calls per round.
const STEPS: usize = 4;
/// Inputs the reader cycles through.
const READ_POOL: usize = 8;
/// Reads that must start after the last publish of a block.
const TAIL_READS: usize = 8;
/// Fewest blocks a run makes, however slow the host.
const MIN_BLOCKS: usize = 3;
/// Model weight seed (fixed, not the workload seed).
const MODEL_SEED: u64 = 44;
/// The tenant the governor probe serves this workload's model as.
const PROBE_TENANT: TenantDef = TenantDef {
    name: "reader",
    priority: Priority::High,
    model_seed: MODEL_SEED,
    p99_limit: Duration::from_millis(250),
};

/// One reader observation.
struct Read {
    input: usize,
    /// Publishes completed when the read was sent.
    lo: usize,
    /// Publishes started when the answer arrived.
    hi: usize,
    logits: Vec<f32>,
    latency_ms: f64,
    /// Time since the previous read's answer (none for a block's first).
    lateness_ms: Option<f64>,
    batch_size: usize,
    queue_wait_ms: f64,
}

struct Block {
    learn_s: f64,
    reads: Vec<Read>,
    read_tally: Tally,
    write_bits: Vec<u64>,
    mram_write_bits: u64,
    swaps: u64,
    pool: PoolCounters,
}

/// The labelled training stream of one block and the reader's inputs.
struct Data {
    seed: u64,
    train: Vec<(Tensor, usize)>,
    reads: Vec<Tensor>,
}

pub fn run(pass: &Pass) -> Outcome {
    let shape = Size::Default.input_shape();
    let mut rng = Rng::new(pass.seed, 300);
    let train_inputs = models::inputs(&mut rng, &shape, ROUNDS * OBSERVE);
    let data = Data {
        seed: pass.seed,
        train: train_inputs
            .into_iter()
            .map(|x| (x, rng.below(models::CLASSES)))
            .collect(),
        reads: models::inputs(&mut Rng::new(pass.seed, 200), &shape, READ_POOL),
    };

    let mut setups = Vec::with_capacity(fleet::SETUPS);
    let mut compiles = Vec::with_capacity(fleet::SETUPS);
    for _ in 0..fleet::SETUPS {
        let (_, runtime, _, compile_s, setup_s) = set_up(Size::Default, MODEL_SEED, None);
        runtime.shutdown();
        setups.push(setup_s);
        compiles.push(compile_s * 1e3);
    }
    let mut blocks = Vec::new();
    let mut learn_s = 0.0;
    while blocks.len() < MIN_BLOCKS || learn_s < pass.seconds {
        let b = block(pass, &data, blocks.len() as u64);
        learn_s += b.learn_s;
        blocks.push(b);
    }

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    for b in &blocks {
        out.tally.add(&b.read_tally);
        latencies.extend(b.reads.iter().map(|r| r.latency_ms));
    }
    let tally = out.tally;
    out.check(
        "every read is bit-equal to an artifact published while it was in flight",
        tally.wrong == 0 && tally.conserves(),
    );
    out.check(
        "reads after the last publish match the last artifact",
        blocks
            .iter()
            .all(|b| b.reads.iter().filter(|r| r.lo == ROUNDS).count() >= TAIL_READS),
    );
    out.check(
        "no MRAM bit was written",
        blocks.iter().all(|b| b.mram_write_bits == 0),
    );
    let rounds = (blocks.len() * ROUNDS) as u64;
    let sorted = stats::sorted(&latencies);
    let n = sorted.len() as u64;
    let p50 = stats::nearest_rank(&sorted, 0.5);
    let p99 = stats::tail_percentile(&sorted, 0.99);
    let rounds_per_s = rounds as f64 / learn_s;

    let e = &mut out.end_to_end;
    e.push(
        "setup_s",
        stats::median(&setups),
        "s",
        Better::Lower,
        setups.len() as u64,
        "compile learn engine + start 1x1 runtime",
    );
    e.push(
        "latency_p50_ms",
        p50.unwrap_or(0.0),
        "ms",
        Better::Lower,
        n,
        "learn_read_p50_ms",
    );
    // Printed only when the sample supports a p99 (NOTES.md: not gated).
    if let Some(p99) = p99 {
        out.ungated.push(
            "latency_p99_ms",
            p99,
            "ms",
            Better::Lower,
            n,
            "learn_read_p99_ms",
        );
    }
    e.push(
        "throughput_per_s",
        rounds_per_s,
        "1/s",
        Better::Higher,
        rounds,
        format!("learn_rounds_per_s, {ROUNDS}-round blocks of observe {OBSERVE} + {STEPS} steps + publish"),
    );
    out.info.push(format!(
        "{} blocks, {rounds} rounds in {learn_s:.3} s of learning, {} reads",
        blocks.len(),
        tally.attempted
    ));

    if let Some(tr) = pass.tracer.as_ref() {
        let l = &mut out.layers;
        let reads: Vec<&Read> = blocks.iter().flat_map(|b| &b.reads).collect();
        let lateness: Vec<f64> = reads.iter().filter_map(|r| r.lateness_ms).collect();
        fleet::generator_layers(l, &lateness, 1);
        let batch: Vec<f64> = reads.iter().map(|r| r.batch_size as f64).collect();
        let waits: Vec<f64> = reads.iter().map(|r| r.queue_wait_ms).collect();
        fleet::runtime_layers(l, &batch, &waits, blocks.iter().map(|b| b.swaps).sum());
        fleet::stage_layers(l, pass.telemetry.as_ref(), 0);
        let pool = fleet::sum_counters(blocks.iter().map(|b| b.pool));
        fleet::par_layers(l, &PoolCounters::default(), &pool);
        l.layer(
            "setup.compile_ms",
            stats::median(&compiles),
            "ms",
            compiles.len() as u64,
        );
        let bits: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.write_bits.iter().copied())
            .collect();
        let mram = blocks.iter().map(|b| b.mram_write_bits).sum();
        learn_layers(l, tr, &bits, mram);
        let report = fleet::governor_probe(Size::Default, PROBE_TENANT, &data.reads, tr);
        fleet::governor_layers(l, tr);
        fleet::governor_counts(l, &report);
        let model = models::repnet(Size::Default, MODEL_SEED);
        let initial = models::engine("probe", Size::Default, MODEL_SEED).compiled();
        let batch = data.reads[..8].to_vec();
        let refs = models::references(&initial, &batch);
        let ok = layers::probe(&model, &batch, &refs, 1, PROBE_BUDGET, tr, l);
        out.check(
            "layer probe logits are bit-equal to the initial artifact",
            ok,
        );
    }
    out.primary = 1e3 / rounds_per_s.max(f64::MIN_POSITIVE);
    out
}

/// Compiles a fresh learn engine and starts a one-worker runtime serving
/// its artifact. Returns both, the slot, and the compile and total
/// set-up seconds.
fn set_up(
    size: Size,
    model_seed: u64,
    telemetry: Option<&Arc<Telemetry>>,
) -> (LearnEngine, Runtime, ModelId, f64, f64) {
    let t0 = Instant::now();
    let mut engine = models::engine("learner", size, model_seed);
    let compile_s = t0.elapsed().as_secs_f64();
    let mut builder = Runtime::builder()
        .workers(1)
        .par_threads(1)
        .max_wait(Duration::ZERO);
    if let Some(tel) = telemetry {
        engine.attach_telemetry(tel);
        builder = builder.telemetry(Arc::clone(tel));
    }
    let id = builder.register(engine.compiled());
    let runtime = builder.start();
    (engine, runtime, id, compile_s, t0.elapsed().as_secs_f64())
}

fn block(pass: &Pass, data: &Data, index: u64) -> Block {
    let tracer = pass.tracer.as_ref();
    let (mut engine, runtime, id, _, _) =
        set_up(Size::Default, MODEL_SEED, pass.telemetry.as_ref());
    let mut artifacts: Vec<Arc<CompiledModel>> = vec![runtime.models()[id.index()].clone()];
    let committed = AtomicU64::new(0);
    let publishing = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut write_bits = Vec::with_capacity(ROUNDS);
    let (learn_s, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            read_loop(
                &runtime,
                id,
                data,
                tracer,
                &committed,
                &publishing,
                &stop,
                index,
            )
        });
        let started = Instant::now();
        for round in 0..ROUNDS {
            let r = Some((index * ROUNDS as u64) + round as u64);
            for (x, label) in &data.train[round * OBSERVE..(round + 1) * OBSERVE] {
                engine.observe(x, *label);
            }
            for _ in 0..STEPS {
                timed(tracer, "learn.step", None, r, || engine.step())
                    .expect("the replay buffer holds samples");
            }
            publishing.store(round as u64 + 1, Ordering::SeqCst);
            match tracer {
                None => {
                    engine.publish(&runtime, id).expect("publish within budget");
                }
                Some(_) => write_bits.push(traced_publish(&mut engine, &runtime, id, tracer, r)),
            }
            committed.store(round as u64 + 1, Ordering::SeqCst);
            artifacts.push(runtime.models()[id.index()].clone());
        }
        let learn_s = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        (learn_s, reader.join().expect("reader thread"))
    });
    let pool = runtime.pool_counters();
    let stats = runtime.shutdown();

    // Check every read against the artifacts that could have served it.
    let refs: Vec<Vec<Vec<f32>>> = artifacts
        .iter()
        .map(|a| models::references(a, &data.reads))
        .collect();
    let mut read_tally = Tally {
        attempted: reads.len() as u64,
        ..Tally::default()
    };
    for r in &reads {
        if (r.lo..=r.hi).any(|v| bit_equal(&refs[v][r.input], &r.logits)) {
            read_tally.correct += 1;
        } else {
            read_tally.wrong += 1;
        }
    }
    Block {
        learn_s,
        reads,
        read_tally,
        write_bits,
        mram_write_bits: engine.report().mram_write_bits,
        swaps: stats.model_swaps,
        pool,
    }
}

/// `pim-learn` readings from the `learn.*` and swap spans, plus the
/// modelled write counts.
fn learn_layers(l: &mut Metrics, tr: &Tracer, write_bits: &[u64], mram_write_bits: u64) {
    let p50_of = |name: &str| stats::median(&tr.durations_us(name));
    let count = |name: &str| tr.durations_us(name).len() as u64;
    let steps = count("learn.step");
    l.layer("learn.step_ms_p50", p50_of("learn.step") / 1e3, "ms", steps);
    for (metric, span) in [
        ("learn.preflight_us_p50", "learn.pending_write_bits"),
        ("learn.write_back_us_p50", "learn.write_back"),
        ("learn.compiled_us_p50", "learn.compiled"),
        ("learn.swap_us_p50", "runtime.swap_model"),
    ] {
        l.layer(metric, p50_of(span), "us", count(span));
    }
    let publishes = write_bits.len() as u64;
    let mean_bits = write_bits.iter().sum::<u64>() as f64 / publishes.max(1) as f64;
    l.layer("learn.write_bits_per_publish", mean_bits, "bits", publishes);
    l.layer("learn.mram_write_bits", mram_write_bits as f64, "bits", 1);
}

/// For a serving workload: one block of learning rounds on `size`'s
/// model, without a concurrent reader, so the `pim-learn` calls are timed
/// on the model that workload serves. Records the `learn.*` readings.
pub fn probe(size: Size, model_seed: u64, seed: u64, tr: &Tracer, l: &mut Metrics) {
    let (mut engine, runtime, id, _, _) = set_up(size, model_seed, None);
    let mut rng = Rng::new(seed, 600);
    let inputs = models::inputs(&mut rng, &size.input_shape(), ROUNDS * OBSERVE);
    let mut bits = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let r = Some(round as u64);
        for x in &inputs[round * OBSERVE..(round + 1) * OBSERVE] {
            engine.observe(x, rng.below(models::CLASSES));
        }
        for _ in 0..STEPS {
            timed(Some(tr), "learn.step", None, r, || engine.step())
                .expect("the replay buffer holds samples");
        }
        bits.push(traced_publish(&mut engine, &runtime, id, Some(tr), r));
    }
    runtime.shutdown();
    learn_layers(l, tr, &bits, engine.report().mram_write_bits);
}

/// `publish` split into its public steps, each recorded as a span:
/// preflight diff, differential write-back, artifact snapshot, hot swap.
/// Returns the SRAM bits the write-back wrote.
fn traced_publish(
    engine: &mut LearnEngine,
    runtime: &Runtime,
    id: ModelId,
    tracer: Option<&Tracer>,
    round: Option<u64>,
) -> u64 {
    timed(tracer, "learn.pending_write_bits", None, round, || {
        engine.pending_write_bits()
    })
    .expect("resident tiles match the model");
    let delta = timed(tracer, "learn.write_back", None, round, || {
        engine.write_back()
    })
    .expect("write-back within budget");
    let artifact = timed(tracer, "learn.compiled", None, round, || engine.compiled());
    timed(tracer, "runtime.swap_model", None, round, || {
        runtime.swap_model(id, artifact)
    })
    .expect("compatible swap");
    delta.write_bits
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    runtime: &Runtime,
    id: ModelId,
    data: &Data,
    tracer: Option<&Tracer>,
    committed: &AtomicU64,
    publishing: &AtomicU64,
    stop: &AtomicBool,
    block: u64,
) -> Vec<Read> {
    let mut rng = Rng::new(data.seed, 500 + block);
    let mut reads = Vec::with_capacity(1024);
    let mut tail = 0;
    let mut last_answer: Option<Instant> = None;
    while !(stop.load(Ordering::SeqCst) && tail >= TAIL_READS) {
        let input = rng.below(READ_POOL);
        let lo = committed.load(Ordering::SeqCst) as usize;
        let sent = Instant::now();
        let resp = timed(
            tracer,
            "runtime.infer",
            None,
            Some(reads.len() as u64),
            || runtime.infer(id, &data.reads[input]),
        )
        .expect("the runtime answers every admitted read");
        let answered = Instant::now();
        let latency_ms = (answered - sent).as_secs_f64() * 1e3;
        let lateness_ms = last_answer.map(|a| (sent - a).as_secs_f64() * 1e3);
        last_answer = Some(answered);
        let hi = publishing.load(Ordering::SeqCst) as usize;
        if lo == ROUNDS {
            tail += 1;
        }
        reads.push(Read {
            input,
            lo,
            hi,
            logits: resp.logits,
            latency_ms,
            lateness_ms,
            batch_size: resp.batch_size,
            queue_wait_ms: resp.queue_wait.as_secs_f64() * 1e3,
        });
    }
    reads
}
