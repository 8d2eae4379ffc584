//! `serve_open`: open-loop Poisson traffic from two tenants through
//! `Governor::submit`, at fixed rates, on tiny models.

use crate::fleet::{self, Fleet, ServeSamples, TenantDef};
use crate::layers;
use crate::learn_publish;
use crate::models::{self, Size};
use crate::report::Better;
use crate::stats::{self, PhaseOutcome, Tally};
use crate::trace::{timed, Tracer};
use crate::{Outcome, Pass, PROBE_BUDGET};
use pim_governor::{ClusterBuilder, GovernorError, GovernorTicket, Priority};
use std::time::{Duration, Instant};

/// Offered rates, requests per second, ascending. Frozen: changing them
/// changes what every figure of this workload means.
pub const RATES_HZ: [f64; 3] = [2_000.0, 4_000.0, 20_000.0];
/// Index of the reference rate in [`RATES_HZ`].
pub const REFERENCE: usize = 0;
/// Share of the measuring time each rate gets.
const SHARES: [f64; 3] = [0.5, 0.3, 0.2];
/// The p99 latency limit (from due time) of the goodput rule. Far above
/// the 3–5 ms p99 below the knee, so a host stall cannot fail a healthy
/// phase; past the knee refusals alone exceed 1% and fail it.
pub const LIMIT_MS: f64 = 50.0;
/// Traffic weights of the two tenants (High : Normal).
const WEIGHTS: [u32; 2] = [3, 1];
/// Period of `Governor::tick`, driven from the generator thread.
const TICK: Duration = Duration::from_millis(10);
/// Longest sleep of the generator between polls.
const POLL: Duration = Duration::from_micros(100);
/// How long a phase may take to drain its outstanding tickets.
const DRAIN: Duration = Duration::from_secs(5);

const TENANTS: [TenantDef; 2] = [
    TenantDef {
        name: "interactive",
        priority: Priority::High,
        model_seed: 11,
        p99_limit: Duration::from_millis(LIMIT_MS as u64),
    },
    TenantDef {
        name: "background",
        priority: Priority::Normal,
        model_seed: 22,
        p99_limit: Duration::from_millis(250),
    },
];

struct Pending {
    ticket: GovernorTicket,
    due: Instant,
    tenant: usize,
    input: usize,
    root: Option<usize>,
    request: u64,
}

/// What one phase observed, beyond its [`PhaseOutcome`].
struct Phase {
    outcome: PhaseOutcome,
    tally: Tally,
    lateness_ms: Vec<f64>,
    max_backlog: usize,
}

pub fn run(pass: &Pass) -> Outcome {
    let cluster = || {
        ClusterBuilder::new()
            .replicas(2)
            .workers(1)
            .par_threads(1)
            .router_seed(pass.seed)
    };
    let fleet = Fleet::start(
        Size::Tiny,
        &TENANTS,
        cluster,
        pass.telemetry.as_ref(),
        pass.seed,
    );
    let tracer = pass.tracer.as_ref();
    let pool_before = fleet::pool_counters(&fleet.governor);
    let mut samples = ServeSamples::new(2);
    let mut phases = Vec::with_capacity(RATES_HZ.len());
    let mut request = 0u64;
    for (i, (&rate, &share)) in RATES_HZ.iter().zip(&SHARES).enumerate() {
        let phase = run_phase(
            &fleet,
            rate,
            pass.seconds * share,
            pass.seed.wrapping_add(i as u64),
            tracer,
            &mut samples,
            &mut request,
        );
        phases.push(phase);
    }
    let pool_after = fleet::pool_counters(&fleet.governor);
    let (setup, compile) = fleet.setup_medians();
    let probe_inputs = fleet.pools[0][..8].to_vec();
    let probe_refs = fleet.refs[0][0][..8].to_vec();
    let (stats, report) = fleet.shutdown();

    let mut out = Outcome::default();
    let reference = &phases[REFERENCE];
    out.tally = reference.tally;
    for p in &phases {
        out.check(
            &format!(
                "answers at {} rps are bit-equal to a tier reference",
                p.outcome.rate_hz
            ),
            p.tally.wrong == 0 && p.tally.conserves(),
        );
    }
    out.check("every tenant ledger conserves", report.conserves());

    let sorted = stats::sorted(&reference.outcome.latencies_ms);
    let n = sorted.len() as u64;
    let p50 = stats::nearest_rank(&sorted, 0.5);
    let p99 = stats::tail_percentile(&sorted, 0.99);
    let good = stats::goodput(phases.iter().map(|p| &p.outcome), LIMIT_MS)
        .map(|p| (p.rate_hz, p.good_per_s, p.latencies_ms.len() as u64));
    let (good_rate, good_per_s, good_n) = good.unwrap_or((0.0, 0.0, 0));

    let e = &mut out.end_to_end;
    e.push(
        "setup_s",
        setup,
        "s",
        Better::Lower,
        fleet::SETUPS as u64,
        "compile 2 tier pairs + start 2x1 fleet",
    );
    let ref_note = format!(
        "serve_{{p50,p99}}_ms at {} rps, from due time",
        RATES_HZ[REFERENCE]
    );
    e.push(
        "latency_p50_ms",
        p50.unwrap_or(0.0),
        "ms",
        Better::Lower,
        n,
        ref_note.clone(),
    );
    // Printed only when the sample supports a p99 (NOTES.md: not gated).
    if let Some(p99) = p99 {
        out.ungated
            .push("latency_p99_ms", p99, "ms", Better::Lower, n, ref_note);
    }
    e.push(
        "throughput_per_s",
        good_per_s,
        "1/s",
        Better::Higher,
        good_n,
        format!("serve_goodput_rps: correct answers/s at {good_rate} rps (p99 <= {LIMIT_MS} ms)"),
    );
    for (p, rate) in phases.iter().zip(RATES_HZ) {
        let s = stats::sorted(&p.outcome.latencies_ms);
        out.info.push(format!(
            "rate {rate:>6} rps: {} attempted, {} correct, {} refused, {} errored, p50 {:.3} ms, p99 {}, backlog max {}, meets limit: {}",
            p.tally.attempted,
            p.tally.correct,
            p.tally.refused,
            p.tally.errored,
            stats::nearest_rank(&s, 0.5).unwrap_or(0.0),
            stats::tail_percentile(&s, 0.99).map_or("n/a".into(), |v| format!("{v:.3} ms")),
            p.max_backlog,
            p.outcome.meets(LIMIT_MS),
        ));
    }

    if let Some(tr) = tracer {
        let l = &mut out.layers;
        let lateness: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.lateness_ms.iter().copied())
            .collect();
        let max_backlog = phases.iter().map(|p| p.max_backlog).max().unwrap_or(0);
        fleet::generator_layers(l, &lateness, max_backlog);
        fleet::governor_layers(l, tr);
        fleet::governor_counts(l, &report);
        fleet::serve_layers(l, &samples, &stats, pass.telemetry.as_ref());
        l.layer(
            "setup.compile_ms",
            compile * 1e3,
            "ms",
            fleet::SETUPS as u64,
        );
        fleet::par_layers(l, &pool_before, &pool_after);
        learn_publish::probe(Size::Tiny, TENANTS[0].model_seed, pass.seed, tr, l);
        let model = models::repnet(Size::Tiny, TENANTS[0].model_seed);
        let ok = layers::probe(&model, &probe_inputs, &probe_refs, 1, PROBE_BUDGET, tr, l);
        out.check("layer probe logits are bit-equal to the served tier", ok);
    }
    out.primary = p50.unwrap_or(0.0);
    out
}

fn run_phase(
    fleet: &Fleet,
    rate: f64,
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
    samples: &mut ServeSamples,
    request: &mut u64,
) -> Phase {
    let schedule = stats::poisson_schedule(seed, rate, seconds, &WEIGHTS, fleet::POOL);
    let governor = &fleet.governor;
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(schedule.len());
    let mut lateness_ms = Vec::with_capacity(schedule.len());
    let mut backlog = Vec::new();
    let mut pending: Vec<Pending> = Vec::with_capacity(256);
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + Duration::from_secs_f64(seconds);
    let mut next = 0;
    let mut next_tick = start;
    let mut good = 0u64;
    let mut last_answer = end;
    loop {
        let now = Instant::now();
        // Submit everything that is due.
        while next < schedule.len() {
            let a = schedule[next];
            let due = start + Duration::from_secs_f64(a.due_s);
            if due > now {
                break;
            }
            next += 1;
            *request += 1;
            tally.attempted += 1;
            let id = *request;
            let root = tracer.map(|t| t.open("serve.request", due, Some(id)));
            let submitted_at = Instant::now();
            lateness_ms.push((submitted_at - due).as_secs_f64() * 1e3);
            let input = &fleet.pools[a.tenant][a.input];
            let result = timed(tracer, "governor.submit", root, Some(id), || {
                governor.submit(fleet.ids[a.tenant], input)
            });
            match result {
                Ok(ticket) => {
                    samples.per_replica[ticket.replica()] += 1;
                    pending.push(Pending {
                        ticket,
                        due,
                        tenant: a.tenant,
                        input: a.input,
                        root,
                        request: id,
                    });
                }
                Err(GovernorError::Shed { .. }) | Err(GovernorError::Cluster(_)) => {
                    tally.refused += 1;
                    latencies.push(f64::INFINITY);
                    if let (Some(t), Some(r)) = (tracer, root) {
                        t.close(r, Instant::now());
                    }
                }
                Err(e) => panic!("submit of a well-formed request failed: {e}"),
            }
        }
        // Poll every outstanding ticket once.
        pending.retain(|p| {
            let polled = Instant::now();
            let Some(resp) = p.ticket.try_wait() else {
                return true;
            };
            let answered = Instant::now();
            last_answer = last_answer.max(answered);
            if let Some(t) = tracer {
                t.record("ticket.try_wait", polled, answered, p.root, Some(p.request));
                if let Some(r) = p.root {
                    t.close(r, answered);
                }
            }
            samples.batch_sizes.push(resp.batch_size as f64);
            samples
                .queue_wait_ms
                .push(resp.queue_wait.as_secs_f64() * 1e3);
            if fleet.check(p.tenant, p.input, &resp.logits) {
                tally.correct += 1;
                good += 1;
                latencies.push((answered - p.due).as_secs_f64() * 1e3);
            } else {
                tally.wrong += 1;
                latencies.push(f64::INFINITY);
            }
            false
        });
        if now >= next_tick && now < end {
            timed(tracer, "governor.tick", None, None, || governor.tick());
            backlog.push(pending.len());
            samples
                .queue_depths
                .push(governor.cluster().queue_depths().iter().sum::<usize>() as f64);
            next_tick += TICK;
        }
        if next >= schedule.len() && pending.is_empty() {
            break;
        }
        if now > end + DRAIN {
            // Unanswered after the drain window: count, never wait forever.
            tally.errored += pending.len() as u64;
            latencies.extend(std::iter::repeat_n(f64::INFINITY, pending.len()));
            pending.clear();
            break;
        }
        let mut wake = now + POLL;
        if let Some(a) = schedule.get(next) {
            wake = wake.min(start + Duration::from_secs_f64(a.due_s));
        }
        if now < end {
            wake = wake.min(next_tick);
        }
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    let max_backlog = backlog.iter().copied().max().unwrap_or(0);
    Phase {
        outcome: PhaseOutcome {
            rate_hz: rate,
            latencies_ms: latencies,
            backlog,
            good_per_s: good as f64 / (last_answer - start).as_secs_f64(),
        },
        tally,
        lateness_ms,
        max_backlog,
    }
}
