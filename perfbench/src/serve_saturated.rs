//! `serve_saturated`: a closed loop holding 16 requests in flight
//! through `Governor::submit`, on the default model, so batches are full
//! and the backbone does most of the work.

use crate::fleet::{self, Fleet, ServeSamples, TenantDef};
use crate::layers;
use crate::learn_publish;
use crate::models::{self, Size};
use crate::report::Better;
use crate::stats::{self, Rng, Tally};
use crate::trace::timed;
use crate::{nproc, Outcome, Pass, PROBE_BUDGET};
use pim_governor::{ClusterBuilder, GovernorTicket, Priority};
use std::time::{Duration, Instant};

/// Requests kept in flight.
const IN_FLIGHT: usize = 16;
/// Longest sleep of the generator between polls.
const POLL: Duration = Duration::from_millis(1);
/// Period of `Governor::tick`, driven from the generator thread.
const TICK: Duration = Duration::from_millis(10);
/// How long to wait for the last in-flight answers.
const DRAIN: Duration = Duration::from_secs(10);

const TENANT: TenantDef = TenantDef {
    name: "batch",
    priority: Priority::High,
    model_seed: 33,
    p99_limit: Duration::from_millis(250),
};

struct Slot {
    ticket: GovernorTicket,
    sent: Instant,
    input: usize,
    root: Option<usize>,
    request: u64,
}

pub fn run(pass: &Pass) -> Outcome {
    let width = nproc();
    let cluster = || {
        ClusterBuilder::new()
            .replicas(1)
            .workers(1)
            .par_threads(width)
            .router_seed(pass.seed)
    };
    let fleet = Fleet::start(
        Size::Default,
        &[TENANT],
        cluster,
        pass.telemetry.as_ref(),
        pass.seed,
    );
    let tracer = pass.tracer.as_ref();
    let governor = &fleet.governor;
    let id = fleet.ids[0];
    let pool_before = fleet::pool_counters(governor);
    let mut rng = Rng::new(pass.seed, 1);
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut lateness_ms = Vec::new();
    let mut samples = ServeSamples::new(1);
    let mut slots: Vec<Slot> = Vec::with_capacity(IN_FLIGHT);
    let mut request = 0u64;

    let mut send = |request: &mut u64, tally: &mut Tally| -> Option<Slot> {
        *request += 1;
        tally.attempted += 1;
        let input = rng.below(fleet::POOL);
        let r = *request;
        let sent = Instant::now();
        let root = tracer.map(|t| t.open("serve.request", sent, Some(r)));
        let result = timed(tracer, "governor.submit", root, Some(r), || {
            governor.submit(id, &fleet.pools[0][input])
        });
        match result {
            Ok(ticket) => Some(Slot {
                ticket,
                sent,
                input,
                root,
                request: r,
            }),
            Err(_) => {
                tally.refused += 1;
                None
            }
        }
    };

    let started = Instant::now();
    let end = started + Duration::from_secs_f64(pass.seconds);
    for _ in 0..IN_FLIGHT {
        slots.extend(send(&mut request, &mut tally));
    }
    let mut max_backlog = slots.len();
    let mut next_tick = started;
    loop {
        let now = Instant::now();
        if now >= next_tick && now < end {
            timed(tracer, "governor.tick", None, None, || governor.tick());
            next_tick += TICK;
        }
        let mut i = 0;
        while i < slots.len() {
            let polled = Instant::now();
            let Some(resp) = slots[i].ticket.try_wait() else {
                i += 1;
                continue;
            };
            let answered = Instant::now();
            let done = slots.swap_remove(i);
            samples.per_replica[done.ticket.replica()] += 1;
            if let Some(t) = tracer {
                t.record(
                    "ticket.try_wait",
                    polled,
                    answered,
                    done.root,
                    Some(done.request),
                );
                if let Some(r) = done.root {
                    t.close(r, answered);
                }
            }
            samples.batch_sizes.push(resp.batch_size as f64);
            samples
                .queue_wait_ms
                .push(resp.queue_wait.as_secs_f64() * 1e3);
            if fleet.check(0, done.input, &resp.logits) {
                tally.correct += 1;
                latencies.push((answered - done.sent).as_secs_f64() * 1e3);
            } else {
                tally.wrong += 1;
            }
            if answered < end {
                let refill = send(&mut request, &mut tally);
                if let Some(s) = &refill {
                    lateness_ms.push((s.sent - answered).as_secs_f64() * 1e3);
                }
                slots.extend(refill);
            }
        }
        max_backlog = max_backlog.max(slots.len());
        if tracer.is_some() {
            let depth: usize = governor.cluster().queue_depths().iter().sum();
            samples.queue_depths.push(depth as f64);
        }
        if slots.is_empty() {
            break;
        }
        if now > end + DRAIN {
            tally.errored += slots.len() as u64;
            slots.clear();
            break;
        }
        std::thread::sleep(POLL);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let pool_after = fleet::pool_counters(governor);
    let (setup, compile) = fleet.setup_medians();
    let probe_inputs = fleet.pools[0][..8].to_vec();
    let probe_refs = fleet.refs[0][0][..8].to_vec();
    let (stats, report) = fleet.shutdown();

    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    out.check(
        "answers are bit-equal to the full-tier reference",
        tally.wrong == 0 && tally.conserves(),
    );
    out.check("the tenant ledger conserves", report.conserves());
    let sorted = stats::sorted(&latencies);
    let n = sorted.len() as u64;
    let p50 = stats::nearest_rank(&sorted, 0.5);
    let p99 = stats::tail_percentile(&sorted, 0.99);
    let images_per_s = tally.correct as f64 / elapsed;

    let e = &mut out.end_to_end;
    e.push(
        "setup_s",
        setup,
        "s",
        Better::Lower,
        fleet::SETUPS as u64,
        "compile 1 tier pair + start 1x1 fleet",
    );
    e.push(
        "latency_p50_ms",
        p50.unwrap_or(0.0),
        "ms",
        Better::Lower,
        n,
        "batch_p50_ms, submit to answer",
    );
    // Printed only when the sample supports a p99 (NOTES.md: not gated).
    if let Some(p99) = p99 {
        out.ungated.push(
            "latency_p99_ms",
            p99,
            "ms",
            Better::Lower,
            n,
            "batch_p99_ms, submit to answer",
        );
    }
    e.push(
        "throughput_per_s",
        images_per_s,
        "1/s",
        Better::Higher,
        tally.correct,
        format!("batch_images_per_s, {IN_FLIGHT} in flight"),
    );

    if let Some(tr) = tracer {
        let l = &mut out.layers;
        fleet::generator_layers(l, &lateness_ms, max_backlog);
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
        learn_publish::probe(Size::Default, TENANT.model_seed, pass.seed, tr, l);
        let model = models::repnet(Size::Default, TENANT.model_seed);
        let ok = layers::probe(
            &model,
            &probe_inputs,
            &probe_refs,
            width,
            PROBE_BUDGET,
            tr,
            l,
        );
        out.check("layer probe logits are bit-equal to the served tier", ok);
    }
    out.primary = 1e3 / images_per_s.max(f64::MIN_POSITIVE);
    out
}
