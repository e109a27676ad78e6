//! The traced run's in-process replay and layer probes.
//!
//! The replay sends the traced phase's request stream again, this time
//! through the public entry points a served request passes, with one span
//! around each: `registry.get`, `ledger.reserve`,
//! `registry.cached_starting_context`, `session.resolve_starting_context`,
//! `session.release_with_seed`, `ledger.commit` / `ledger.commit_partial`
//! and `wire.encode_reply`. It runs on a fresh registry (so first touches
//! of a record miss, as on a cold server), a ledger of the workload's kind
//! and the server's own pool, while the server is idle.

use crate::gen::DATASET;
use crate::spec::GRANT;
use crate::stack::Stack;
use crate::trace::Recorder;
use pcor::core::{MechanismKind, ReleaseSession, Verifier};
use pcor::dp::PopulationSizeUtility;
use pcor::service::{
    encode_reply, BatchItemResponse, BatchReleaseRequest, BatchReleaseResponse, BudgetLedger,
    DatasetRegistry, DurableLedger, ItemOutcome, ItemRelease, ReleaseRequest, ReleaseResponse,
    ResponseEnvelope, WalConfig, WireReply,
};
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ledger the replay charges: in memory, or journaled like the
/// workload's.
struct ReplayLedger {
    ledger: BudgetLedger,
    durable: Option<(DurableLedger, std::path::PathBuf)>,
}

impl ReplayLedger {
    fn open(stack: &Stack, work_dir: &Path) -> Result<Self, String> {
        if !stack.spec.durable {
            return Ok(ReplayLedger { ledger: BudgetLedger::new(GRANT), durable: None });
        }
        let dir = work_dir.join(format!("replay-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = DurableLedger::open(WalConfig::at(&dir), BudgetLedger::new(GRANT))
            .map_err(|e| format!("replay DurableLedger::open: {e}"))?;
        Ok(ReplayLedger { ledger: durable.ledger().clone(), durable: Some((durable, dir)) })
    }

    fn close(self) {
        if let Some((durable, dir)) = self.durable {
            drop(durable);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn fresh_registry(stack: &Stack) -> DatasetRegistry {
    let registry = DatasetRegistry::new();
    registry.register(DATASET, stack.dataset.clone());
    registry
}

/// Replays single requests; `replay.request` roots carry the request's
/// index. Stops early once `budget` has passed.
///
/// # Errors
/// Any layer error: the same requests were served successfully, so the
/// replay must succeed too.
pub fn singles(
    stack: &Stack,
    requests: &[(u64, ReleaseRequest)],
    work_dir: &Path,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<usize, String> {
    let registry = fresh_registry(stack);
    let ledger = ReplayLedger::open(stack, work_dir)?;
    let pool = Arc::clone(stack.server.pool());
    let stop = Instant::now() + budget;
    let mut replayed = 0;
    for (index, request) in requests {
        if Instant::now() >= stop {
            break;
        }
        let (id, root, t0) = (*index, rec.reserve_id(), Instant::now());
        let parent = Some(root);
        let entry = rec.time("registry.get", id, parent, || registry.get(DATASET));
        let entry = entry.map_err(|e| e.to_string())?;
        let reservation = rec.time("ledger.reserve", id, parent, || {
            ledger.ledger.reserve(&request.analyst, DATASET, request.epsilon)
        });
        let reservation = reservation.map_err(|e| e.to_string())?;
        let detector = request.detector.build();
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(entry.dataset(), detector.as_ref(), &utility)
            .pool(Arc::clone(&pool))
            .build();
        let record = request.record_id;
        let cached = rec.time("registry.cached_starting_context", id, parent, || {
            registry.cached_starting_context(DATASET, record, request.detector)
        });
        let hit = cached.is_some();
        if let Some(context) = cached {
            session.seed_starting_context(record, context);
        } else if request.algorithm.needs_starting_context() {
            let calls = session.stats().verification_calls as u64;
            let context = rec.time("session.resolve_starting_context", id, parent, || {
                session.resolve_starting_context(record)
            });
            let context = context.map_err(|e| e.to_string())?;
            let cost = session.stats().verification_calls as u64 - calls;
            registry.store_starting_context(DATASET, record, request.detector, context, cost);
        }
        let result = rec.time("session.release_with_seed", id, parent, || {
            session.release_with_seed(record, &request.to_config(), request.seed)
        });
        let result = result.map_err(|e| format!("replayed release of record {record}: {e}"))?;
        let remaining = rec.time("ledger.commit", id, parent, || ledger.ledger.commit(reservation));
        let response = ReleaseResponse {
            analyst: request.analyst.clone(),
            dataset: DATASET.to_string(),
            record_id: record,
            predicate: result.context.to_predicate_string(entry.dataset().schema()),
            context: result.context,
            utility: result.utility,
            samples_collected: result.samples_collected,
            verification_calls: result.verification_calls,
            guarantee: result.guarantee,
            mechanism: result.mechanism,
            epsilon_spent: request.epsilon,
            remaining_budget: remaining,
            cache_hit: hit,
            latency: t0.elapsed(),
            worker: 0,
        };
        rec.time("wire.encode_reply", id, parent, || {
            std::hint::black_box(encode_reply(&WireReply::Response(ResponseEnvelope::single(
                response,
            ))))
        });
        rec.record_as(root, "replay.request", id, None, t0, Instant::now());
        replayed += 1;
    }
    ledger.close();
    Ok(replayed)
}

/// Replays batches the way the server serves one: a summed-ε reserve, one
/// shared session, per-item resolve and release, `commit_partial`, and the
/// encoding of every streamed item and the summary.
///
/// # Errors
/// Any layer error.
pub fn batches(
    stack: &Stack,
    batches: &[(u64, BatchReleaseRequest)],
    work_dir: &Path,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<usize, String> {
    let registry = fresh_registry(stack);
    let ledger = ReplayLedger::open(stack, work_dir)?;
    let pool = Arc::clone(stack.server.pool());
    let stop = Instant::now() + budget;
    let mut replayed = 0;
    for (index, batch) in batches {
        if Instant::now() >= stop {
            break;
        }
        let (id, root, t0) = (*index, rec.reserve_id(), Instant::now());
        let parent = Some(root);
        let entry = rec.time("registry.get", id, parent, || registry.get(DATASET));
        let entry = entry.map_err(|e| e.to_string())?;
        let total = batch.total_epsilon();
        let reservation = rec.time("ledger.reserve", id, parent, || {
            ledger.ledger.reserve(&batch.analyst, DATASET, total)
        });
        let reservation = reservation.map_err(|e| e.to_string())?;
        let detector = batch.detector.build();
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(entry.dataset(), detector.as_ref(), &utility)
            .pool(Arc::clone(&pool))
            .build();
        let mut items = Vec::with_capacity(batch.items.len());
        let mut committed = 0.0;
        for item in &batch.items {
            let record = item.record_id;
            let mut hit = session.starting_context(record).is_some();
            if !hit {
                let cached = rec.time("registry.cached_starting_context", id, parent, || {
                    registry.cached_starting_context(DATASET, record, batch.detector)
                });
                if let Some(context) = cached {
                    session.seed_starting_context(record, context);
                    hit = true;
                }
            }
            if !hit && batch.algorithm.needs_starting_context() {
                let calls = session.stats().verification_calls as u64;
                let context = rec.time("session.resolve_starting_context", id, parent, || {
                    session.resolve_starting_context(record)
                });
                let context = context.map_err(|e| e.to_string())?;
                let cost = session.stats().verification_calls as u64 - calls;
                registry.store_starting_context(DATASET, record, batch.detector, context, cost);
            }
            let result = rec.time("session.release_with_seed", id, parent, || {
                session.release_with_seed(record, &batch.item_config(item), item.seed)
            });
            let result = result.map_err(|e| format!("replayed item of record {record}: {e}"))?;
            committed += item.epsilon;
            let response = BatchItemResponse {
                record_id: record,
                epsilon: item.epsilon,
                outcome: ItemOutcome::Released(ItemRelease {
                    predicate: result.context.to_predicate_string(entry.dataset().schema()),
                    context: result.context,
                    utility: result.utility,
                    samples_collected: result.samples_collected,
                    verification_calls: result.verification_calls,
                    guarantee: result.guarantee,
                    mechanism: result.mechanism,
                    cache_hit: hit,
                }),
            };
            rec.time("wire.encode_reply", id, parent, || {
                std::hint::black_box(encode_reply(&WireReply::Item(response.clone())))
            });
            items.push(response);
        }
        let remaining = rec.time("ledger.commit_partial", id, parent, || {
            ledger.ledger.commit_partial(reservation, committed)
        });
        let summary = BatchReleaseResponse {
            analyst: batch.analyst.clone(),
            dataset: DATASET.to_string(),
            verification_calls: session.stats().verification_calls,
            items,
            epsilon_committed: committed,
            epsilon_refunded: total - committed,
            remaining_budget: remaining,
            latency: t0.elapsed(),
            worker: 0,
        };
        rec.time("wire.encode_reply", id, parent, || {
            std::hint::black_box(encode_reply(&WireReply::Response(ResponseEnvelope::batch(
                summary,
            ))))
        });
        rec.record_as(root, "replay.request", id, None, t0, Instant::now());
        replayed += 1;
    }
    ledger.close();
    Ok(replayed)
}

/// `f_M` timed directly: for each record, a fresh verifier evaluates the
/// neighbours of its starting context. Returns (ns per fresh call, words
/// scanned per call, fresh calls).
pub fn fm_probe(stack: &Stack, budget: Duration) -> (f64, f64, u64) {
    let detector = stack.spec.detector.build();
    let utility = PopulationSizeUtility;
    let (mut ns, mut words, mut calls) = (0u128, 0u64, 0u64);
    let stop = Instant::now() + budget;
    while Instant::now() < stop || calls == 0 {
        for &record in &stack.records {
            let start = &stack.starts[&record];
            let mut verifier = Verifier::new(&stack.dataset, detector.as_ref(), &utility, record);
            let t = Instant::now();
            let evaluations = verifier.evaluate_neighbors(start);
            ns += t.elapsed().as_nanos();
            std::hint::black_box(evaluations.ok());
            words += verifier.words_scanned();
            calls += verifier.calls() as u64;
        }
    }
    let calls_f = calls.max(1) as f64;
    (ns as f64 / calls_f, words as f64 / calls_f, calls)
}

/// Mean µs of one `SelectionMechanism::select` draw over `n` scores.
pub fn draw_probe(n: usize, epsilon: f64, budget: Duration) -> f64 {
    let mechanism = MechanismKind::Exponential
        .build(epsilon / n.max(1) as f64, 1.0)
        .expect("positive epsilon and sensitivity");
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xD12A);
    let scores: Vec<f64> = (0..n.max(1)).map(|_| rng.random::<f64>() * 100.0).collect();
    let (mut draws, t) = (0u64, Instant::now());
    while t.elapsed() < budget || draws == 0 {
        for _ in 0..256 {
            std::hint::black_box(mechanism.select(&scores, &mut rng).ok());
        }
        draws += 256;
    }
    t.elapsed().as_secs_f64() * 1e6 / draws as f64
}
