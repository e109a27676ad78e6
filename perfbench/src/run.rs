//! One benchmark run: set-up (repeated, median reported), the measured
//! phase(s), the traced replay and probes, output checks and metrics.

use crate::check;
use crate::drive::{self, Phase};
use crate::env;
use crate::gen::{self, Stream, DATASET};
use crate::replay;
use crate::spec::{MetricDef, Spec, Traffic, END_TO_END, PER_LAYER};
use crate::stack::{self, Stack};
use crate::stats::{
    highest_supported, mean, median, sorted, supported_percentile, windowed_percentile,
};
use crate::trace::{child_coverage, self_times, Recorder};
use pcor::service::{BatchReleaseRequest, ReleaseRequest};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Requests per p50 window: a second of traffic or less on every workload.
const P50_WINDOW: usize = 100;
/// Requests per p99 window: the fewest that put 10 samples beyond a p99
/// (see [`windowed_percentile`]).
const P99_WINDOW: usize = 1_000;
/// Unmeasured traffic between set-up and the measured phase.
const SETTLE: Duration = Duration::from_secs(4);
/// Percentiles tried, highest first, when a tail is reported.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload spec.
    pub spec: Spec,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Full set-ups to run (the last one serves the phase).
    pub setups: usize,
    /// Directory inside the checkout for the WAL and the span file.
    pub work_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics in `BENCHMARK.json` order with their values.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Units attempted in the measured phase(s).
    pub attempted: usize,
    /// Units that failed (errors, refusals, sheds, failed checks).
    pub failed: usize,
    /// Failed output checks; empty when every check passed.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Set when the phase was too short for a reported percentile; the
    /// metrics are then not a valid result.
    pub too_few_samples: Option<String>,
}

/// Server-side counters read before and after a phase.
#[derive(Debug, Clone)]
struct Counters {
    cpu_s: f64,
    server: pcor::service::ServerMetricsSnapshot,
    cache: pcor::service::CacheStats,
    pool: pcor::runtime::PoolStats,
    wal: Option<pcor::wal::WalStats>,
}

impl Counters {
    fn read(stack: &Stack) -> Self {
        Counters {
            cpu_s: env::cpu_seconds(),
            server: stack.server.metrics(),
            cache: stack.registry.cache_stats(),
            pool: stack.server.pool().stats(),
            wal: stack.durable.as_ref().map(|d| d.wal_stats()),
        }
    }
}

/// Closed-loop batch source: per-client seeded streams, with an optional
/// log of what each client sent (for the replay).
struct BatchSource<'a> {
    spec: &'a Spec,
    records: Vec<usize>,
    rngs: Vec<Mutex<rand_chacha::ChaCha12Rng>>,
    log: Option<Vec<Mutex<Vec<BatchReleaseRequest>>>>,
}

impl BatchSource<'_> {
    fn clear_log(&self) {
        if let Some(log) = &self.log {
            log.iter().for_each(|l| l.lock().expect("log poisoned").clear());
        }
    }

    fn next(&self, client: usize, items: usize) -> BatchReleaseRequest {
        let mut rng = self.rngs[client].lock().expect("rng poisoned");
        let batch = gen::batch(self.spec, &self.records, items, &mut rng);
        if let Some(log) = &self.log {
            log[client].lock().expect("log poisoned").push(batch.clone());
        }
        batch
    }

    /// The logged batches keyed like `drive::closed_loop`'s reply ids
    /// (`client << 32 | n`), interleaved by `n`.
    fn sent(&self) -> Vec<(u64, BatchReleaseRequest)> {
        let mut out = Vec::new();
        for (client, log) in self.log.iter().flatten().enumerate() {
            for (n, batch) in log.lock().expect("log poisoned").iter().enumerate() {
                out.push(((client as u64) << 32 | n as u64, batch.clone()));
            }
        }
        out.sort_by_key(|(id, _)| (id & 0xFFFF_FFFF, id >> 32));
        out
    }
}

/// Runs one phase of `span` against the stack; returns it with the
/// open-loop requests it sent, keyed like its reply ids.
fn phase(
    stack: &Stack,
    seed_rng: &mut rand_chacha::ChaCha12Rng,
    source: &BatchSource<'_>,
    span: Duration,
    recorder: Option<&mut Recorder>,
) -> Result<(Phase, Vec<(u64, ReleaseRequest)>), String> {
    match stack.spec.traffic {
        Traffic::OpenLoop { rate } => {
            let plan = gen::schedule(&stack.spec, &stack.records, rate, span, seed_rng);
            let addr = stack.front.as_ref().expect("open loop runs over the wire").rpc_addr();
            let phase =
                drive::open_loop(addr, &plan, recorder).map_err(|e| format!("open loop: {e}"))?;
            let sent = plan.into_iter().enumerate().map(|(i, p)| (i as u64, p.request)).collect();
            Ok((phase, sent))
        }
        Traffic::ClosedLoop { clients, batch } => {
            let next = |client: usize| source.next(client, batch);
            Ok((drive::closed_loop(&stack.server, clients, span, &next, recorder), Vec::new()))
        }
    }
}

fn describe(spec: &Spec) -> String {
    let traffic = match spec.traffic {
        Traffic::OpenLoop { rate } => {
            format!("open loop, Poisson {rate} req/s, one connection over NetFront")
        }
        Traffic::ClosedLoop { clients, batch } => {
            format!("closed loop, {clients} clients x one {batch}-item streamed batch, in process")
        }
    };
    let mix: Vec<String> = spec.mix.iter().map(|(a, n)| format!("{a:?} n={n}")).collect();
    format!(
        "workload {}: {traffic}; {:?} {} records, {} outliers (zipf {}), {} analysts, eps {}, {}; \
         ledger {}",
        spec.name,
        spec.dataset,
        spec.records,
        spec.outliers,
        spec.zipf,
        spec.analysts,
        spec.epsilon,
        mix.join(" / "),
        if spec.durable { "DurableLedger (default WalConfig)" } else { "in memory" },
    )
}

/// Counts the phase's units and failures; `invalid` are releases that
/// failed an output check.
fn counts(phase: &Phase, invalid: usize) -> (usize, usize, usize, usize) {
    let attempted = phase.attempted();
    let failed = phase.replies.iter().map(|r| r.failures.len()).sum::<usize>() + invalid;
    let shed = phase.replies.iter().map(|r| r.shed).sum();
    (attempted, attempted.saturating_sub(failed), failed, shed)
}

/// A request's latency; a failed request counts as infinitely slow.
fn latency(reply: &drive::Reply) -> f64 {
    if reply.failures.is_empty() {
        reply.latency_ms()
    } else {
        f64::INFINITY
    }
}

fn latencies(phase: &Phase) -> Vec<f64> {
    sorted(&phase.replies.iter().map(latency).collect::<Vec<_>>())
}

/// The phase's latencies in send order.
fn in_send_order(phase: &Phase) -> Vec<f64> {
    let mut replies: Vec<&drive::Reply> = phase.replies.iter().collect();
    replies.sort_by_key(|r| r.due);
    replies.iter().map(|r| latency(r)).collect()
}

/// The phase's p50 latency: the median of the p50s of consecutive windows
/// of at least [`P50_WINDOW`] requests in send order, with the window
/// count. The host's speed changes for seconds at a time; a slow stretch
/// over fewer than half the windows then moves those windows' p50s, not
/// their median, where it would shift a p50 pooled over the whole phase.
fn p50(phase: &Phase) -> Option<(f64, usize)> {
    let in_order = in_send_order(phase);
    windowed_percentile(&in_order, 50.0, in_order.len() / P50_WINDOW)
        .map(|(p50, windows)| (p50, windows.len()))
}

/// Runs everything and returns the outcome; `Err` when the run could not
/// complete at all.
///
/// # Errors
/// Set-up, load-generator or replay failures.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = &opts.spec;
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let mut out = Outcome::default();
    out.lines.push(describe(spec));

    let (mut setups, mut discoveries) = (Vec::new(), Vec::new());
    let mut stack = None;
    for i in 0..opts.setups.max(1) {
        let built = stack::build(spec, opts.seed, &opts.work_dir)?;
        setups.push(built.setup_s);
        discoveries.push(built.discovery_s);
        if i + 1 < opts.setups {
            built.teardown();
        } else {
            stack = Some(built);
        }
    }
    let mut stack = stack.expect("at least one set-up");
    let flush = if spec.durable {
        "OnCommit fsync, group commit, checkpoint every 4096 records"
    } else {
        "none (in-memory ledger)"
    };
    out.lines.push(format!("env {}", env::stamp(opts.seed, stack.wal_dir.as_deref(), flush)));
    out.lines.push(format!(
        "setup: {} runs, setup_s {:?}, discovery_s {:?}, records {:?}",
        setups.len(),
        setups,
        discoveries,
        stack.records
    ));

    let mut schedule_rng = gen::rng(opts.seed, Stream::Schedule);
    let clients = match spec.traffic {
        Traffic::ClosedLoop { clients, .. } => clients,
        Traffic::OpenLoop { .. } => 0,
    };
    let source = BatchSource {
        spec,
        records: stack.records.clone(),
        rngs: (0..clients)
            .map(|c| Mutex::new(gen::rng(opts.seed, Stream::Client(c as u64))))
            .collect(),
        log: opts.trace.then(|| (0..clients).map(|_| Mutex::new(Vec::new())).collect()),
    };
    let full = Duration::from_secs_f64(opts.seconds);

    // Unmeasured traffic first, so the measured phase starts in the steady
    // state rather than right after set-up's burst of work.
    let (settle, _) = phase(&stack, &mut schedule_rng, &source, SETTLE, None)?;
    source.clear_log();
    let mut phases: Vec<Phase> = Vec::new();
    let mut traced_parts = None;
    let (before, after) = if opts.trace {
        // Untraced first half, traced second half: the difference in p50
        // is the tracing overhead.
        let half = full / 2;
        let (plain, _) = phase(&stack, &mut schedule_rng, &source, half, None)?;
        source.clear_log();
        let before = Counters::read(&stack);
        let mut recorder = Recorder::new(Instant::now(), 0);
        let (traced, sent) = phase(&stack, &mut schedule_rng, &source, half, Some(&mut recorder))?;
        let after = Counters::read(&stack);
        traced_parts = Some((recorder, sent));
        phases.push(plain);
        phases.push(traced);
        (before, after)
    } else {
        let before = Counters::read(&stack);
        let (measured, _) = phase(&stack, &mut schedule_rng, &source, full, None)?;
        phases.push(measured);
        (before, Counters::read(&stack))
    };

    let cpu_s = after.cpu_s - before.cpu_s;
    if let Some((recorder, sent)) = traced_parts {
        let layers = Layers {
            before,
            after,
            plain: &phases[0],
            traced: &phases[1],
            sent: &sent,
            discovery_s: median(&discoveries).unwrap_or(0.0),
        };
        out.metrics = per_layer(opts, &stack, &source, &layers, recorder, &mut out.lines)?;
    }

    // Off the clock: stop, then check every output of the run.
    stack.stop();
    let releases: Vec<&drive::Release> = stack
        .warm
        .iter()
        .chain(settle.releases())
        .chain(phases.iter().flat_map(|p| p.releases()))
        .collect();
    let mut problems = check::contexts_match(&stack.dataset, spec.detector, &releases);
    let invalid = problems.len();
    let snapshot = stack.server.ledger().snapshot();
    problems.extend(check::ledger_consistent(
        &snapshot,
        stack.server.telemetry().audit(),
        &releases,
        DATASET,
    ));

    let measured = phases.last().expect("a phase ran");
    let (attempted, succeeded, failed, shed) = phases.iter().fold((0, 0, 0, 0), |acc, p| {
        let c = counts(p, 0);
        (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2, acc.3 + c.3)
    });
    out.attempted = attempted;
    out.failed = (failed + invalid).min(attempted);
    out.lines.push(format!(
        "counts: sent {attempted}, succeeded {}, failed {} (shed {shed}), failed_frac {:.6}",
        succeeded.saturating_sub(invalid),
        out.failed,
        out.failed as f64 / attempted.max(1) as f64
    ));
    if !opts.trace {
        let setup_s = median(&setups).unwrap_or(0.0);
        out.metrics = end_to_end(
            &stack,
            measured,
            setup_s,
            cpu_s,
            invalid,
            &mut out.lines,
            &mut out.too_few_samples,
        );
    }

    let checked = releases.len();
    drop(releases);
    drop(source);
    let wal_dir = stack.close();
    if let Some(dir) = wal_dir {
        problems.extend(check::wal_replays(&dir, &snapshot));
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.lines.push(format!(
        "checks: {checked} releases checked against Def. 3.2(a); ledger, audit fold{}: {}",
        if spec.durable { " and WAL replay" } else { "" },
        if problems.is_empty() { "ok".to_string() } else { format!("{} problems", problems.len()) },
    ));
    out.problems = problems;
    Ok(out)
}

/// End-to-end metrics of an untraced measured phase.
fn end_to_end(
    stack: &Stack,
    phase: &Phase,
    setup_s: f64,
    cpu_s: f64,
    invalid: usize,
    lines: &mut Vec<String>,
    too_few: &mut Option<String>,
) -> Vec<(MetricDef, f64)> {
    let lat = latencies(phase);
    lines.push(format!("samples: {} requests, phase {:.3} s", lat.len(), phase.seconds()));
    let p50 = match p50(phase) {
        Some((p50, windows)) => {
            lines.push(format!(
                "latency_p50_ms = {p50:?} ms: median of the p50s of {windows} windows of {} \
                 requests in send order (pooled over the phase: {:?} ms)",
                lat.len() / windows,
                supported_percentile(&lat, 50.0).unwrap_or(f64::NAN),
            ));
            p50
        }
        None => {
            *too_few = Some(format!("{} samples are too few for a median", lat.len()));
            0.0
        }
    };
    p99(phase, lines);
    let (attempted, _, failed, _) = counts(phase, invalid);
    let released = phase.released();
    let ratios: Vec<f64> =
        phase.releases().map(|r| stack.references[&r.record].utility_ratio(r.utility)).collect();
    let values = [
        setup_s,
        p50,
        released as f64 / phase.seconds(),
        1.0 - failed.min(attempted) as f64 / attempted.max(1) as f64,
        mean(&ratios).unwrap_or(0.0),
        cpu_s * 1e3 / released.max(1) as f64,
        env::peak_rss_mb(),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// The phase's p99 latency: the median of the p99s of as many consecutive
/// windows (in send order) of at least [`P99_WINDOW`] requests as the
/// phase holds, so a slow stretch of the host moves one window rather
/// than the result. Reported with its windows; `None` below one window.
fn p99(phase: &Phase, lines: &mut Vec<String>) -> Option<f64> {
    let in_order = in_send_order(phase);
    let Some((p99, windows)) = windowed_percentile(&in_order, 99.0, in_order.len() / P99_WINDOW)
    else {
        lines.push(format!(
            "latency_p99_ms: {} requests are too few (a p99 needs 1000, 10 beyond it)",
            in_order.len()
        ));
        return None;
    };
    let size = in_order.len() / windows.len();
    lines.push(format!(
        "latency_p99_ms = {p99:?} ms (reported, not gated): median of {} windows of {size} \
         requests, {} beyond p99 in each: {windows:.3?} ms",
        windows.len(),
        size - (size * 99).div_ceil(100),
    ));
    Some(p99)
}

/// The traced phase and what surrounds it.
struct Layers<'a> {
    before: Counters,
    after: Counters,
    plain: &'a Phase,
    traced: &'a Phase,
    sent: &'a [(u64, ReleaseRequest)],
    discovery_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics: client spans of the traced phase, the in-process
/// replay, the `f_M` and draw probes, and stats-struct deltas.
fn per_layer(
    opts: &Options,
    stack: &Stack,
    source: &BatchSource<'_>,
    l: &Layers<'_>,
    mut rec: Recorder,
    lines: &mut Vec<String>,
) -> Result<Vec<(MetricDef, f64)>, String> {
    let spec = &stack.spec;
    let traced = l.traced;
    let released = traced.released() as f64;

    // (a) Client side.
    let server_us: HashMap<u64, f64> = traced
        .replies
        .iter()
        .filter_map(|r| r.server_latency.map(|d| (r.id, d.as_secs_f64() * 1e6)))
        .collect();
    let rtt_minus: Vec<f64> = traced
        .replies
        .iter()
        .filter_map(|r| {
            let server = server_us.get(&r.id)?;
            Some(r.done.saturating_duration_since(r.sent).as_secs_f64() * 1e6 - server)
        })
        .collect();
    let codec: f64 = rec.durations_us("net.encode_request").iter().sum::<f64>()
        + rec.durations_us("net.decode_reply").iter().sum::<f64>();
    let shed: usize = traced.replies.iter().map(|r| r.shed).sum();

    // (b) In-process replay of the traced phase's stream, while idle.
    let budget = Duration::from_secs_f64((opts.seconds / 3.0).max(0.5));
    let batches = source.sent();
    let replayed = if batches.is_empty() {
        replay::singles(stack, l.sent, &opts.work_dir, budget, &mut rec)?
    } else {
        replay::batches(stack, &batches, &opts.work_dir, budget, &mut rec)?
    };
    let own = self_times(rec.spans());
    let covered = child_coverage(rec.spans());
    let (mut queue_wait, mut server_total, mut covered_total) = (Vec::new(), 0.0, 0.0);
    for root in rec.spans().iter().filter(|s| s.name == "replay.request") {
        if let Some(&server) = server_us.get(&root.request) {
            queue_wait.push(server - root.duration() as f64 / 1e3);
            server_total += server;
            covered_total += covered.get(&root.id).copied().unwrap_or(0) as f64 / 1e3;
        }
    }
    let queue_wait = sorted(&queue_wait);
    let queue_tail = highest_supported(&queue_wait, &TAILS);
    let span_median = |name: &str| median(&rec.durations_us(name)).unwrap_or(0.0);
    let release_self: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "session.release_with_seed")
        .map(|s| own[&s.id] as f64 / 1e3)
        .collect();
    let commit = if !batches.is_empty() {
        span_median("ledger.commit_partial")
    } else {
        span_median("ledger.commit")
    };

    // Probes.
    let probe = Duration::from_millis(300);
    let (fm_ns, words, fm_calls) = replay::fm_probe(stack, probe);
    let draw_us = replay::draw_probe(spec.mix[0].1, spec.epsilon, probe);

    // Stats-struct deltas over the traced phase.
    let (b, a) = (&l.before, &l.after);
    let lookups = (a.cache.hits + a.cache.misses).saturating_sub(b.cache.hits + b.cache.misses);
    let verifier_lookups = a.server.verifier_lookups - b.server.verifier_lookups;
    let executed = (a.pool.tasks_executed - b.pool.tasks_executed) as f64;
    let wal = match (&b.wal, &a.wal) {
        (Some(b), Some(a)) => [
            (a.fsyncs - b.fsyncs) as f64,
            (a.appended_bytes - b.appended_bytes) as f64,
            (a.checkpoints - b.checkpoints) as f64,
        ],
        _ => [0.0; 3],
    };
    let plain_p50 = p50(l.plain).map_or(0.0, |(p50, _)| p50);
    let traced_p50 = p50(traced).map_or(0.0, |(p50, _)| p50);
    let lags = sorted(
        &[l.plain, traced]
            .iter()
            .flat_map(|p| p.replies.iter().map(|r| r.lag.as_secs_f64() * 1e3))
            .collect::<Vec<_>>(),
    );
    let lag_tail = highest_supported(&lags, &TAILS);
    let (sent_n, succeeded_n, failed_n) = [l.plain, traced].iter().fold((0, 0, 0), |acc, p| {
        let (att, ok, bad, _) = counts(p, 0);
        (acc.0 + att, acc.1 + ok, acc.2 + bad)
    });
    let fm_per_release = mean(&traced.releases().map(|r| r.fm_calls as f64).collect::<Vec<_>>());

    let values = [
        p99(l.plain, lines).unwrap_or(0.0),
        median(&rtt_minus).unwrap_or(0.0),
        ratio(codec, traced.replies.len() as f64),
        shed as f64,
        supported_percentile(&queue_wait, 50.0).unwrap_or(0.0),
        queue_tail.map_or(0.0, |(_, v)| v),
        ratio((a.cache.hits - b.cache.hits) as f64, lookups as f64),
        span_median("ledger.reserve"),
        commit,
        (a.server.refused - b.server.refused) as f64,
        ratio(wal[0], released),
        ratio(wal[1], released),
        wal[2],
        stack.ledger_open_s,
        span_median("session.resolve_starting_context"),
        median(&release_self).unwrap_or(0.0),
        fm_per_release.unwrap_or(0.0),
        ratio(
            (a.server.verifier_cache_hits - b.server.verifier_cache_hits) as f64,
            verifier_lookups as f64,
        ),
        fm_ns,
        l.discovery_s,
        words,
        ratio(words * 8.0, fm_ns),
        draw_us,
        ratio(executed, released),
        ratio((a.pool.worker_parks - b.pool.worker_parks) as f64, released),
        ratio((a.pool.tasks_stolen - b.pool.tasks_stolen) as f64, executed),
        ratio(server_total - covered_total, server_total),
        traced_p50 - plain_p50,
        rec.spans().len() as f64,
        lag_tail.map_or(0.0, |(_, v)| v),
        sent_n as f64,
        succeeded_n as f64,
        failed_n as f64,
    ];

    lines.push(format!(
        "trace: {} spans, {replayed} of {} requests replayed, queue wait tail p{}, lag tail p{}, \
         {fm_calls} probe f_M calls; data.scan_gbps is computed from words scanned x 8 bytes, not measured",
        rec.spans().len(),
        traced.replies.len(),
        queue_tail.map_or(0.0, |(q, _)| q),
        lag_tail.map_or(0.0, |(q, _)| q),
    ));
    let p50_us = plain_p50 * 1e3;
    lines.push(format!(
        "trace: share of untraced latency_p50_ms ({plain_p50:.4} ms): net.rtt_minus_server_us {:.3}, \
         core.release_us {:.3}",
        ratio(values[1], p50_us),
        ratio(values[15], p50_us),
    ));
    let path = opts.work_dir.join(format!("trace-{}-seed{}.jsonl", spec.name, opts.seed));
    rec.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    lines.push(format!("trace: spans written to {}", path.display()));
    Ok(PER_LAYER.iter().copied().zip(values).collect())
}
