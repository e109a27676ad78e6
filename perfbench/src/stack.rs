//! Set-up of the real serving stack in this process: dataset, outlier
//! discovery, COE reference files, registry, ledger (in memory or
//! WAL-backed), server, wire front and warm-up.

use crate::drive::{self, Release, Reply};
use crate::gen::{self, Stream, DATASET};
use crate::spec::{DatasetKind, Spec, DISCOVERY_SEED, GRANT};
use pcor::core::runner::find_random_outliers;
use pcor::core::{enumerate_coe, ReferenceFile};
use pcor::data::generator::{homicide_dataset, salary_dataset, HomicideConfig, SalaryConfig};
use pcor::data::{Context, Dataset};
use pcor::dp::PopulationSizeUtility;
use pcor::net::{NetConfig, NetFront};
use pcor::service::{
    BatchReleaseRequest, BudgetLedger, DatasetRegistry, DurableLedger, Server, ServerConfig,
    WalConfig,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Random candidates examined while discovering serviceable outliers.
const DISCOVERY_CANDIDATES: usize = 50_000;
/// Largest schema (in attribute values) whose COE is enumerated.
const COE_LIMIT: usize = 22;

/// A running stack plus everything set-up learned about its inputs.
pub struct Stack {
    /// The workload.
    pub spec: Spec,
    /// The served dataset (a copy the checks and the replay read).
    pub dataset: Dataset,
    /// Serviceable outlier records, in popularity order.
    pub records: Vec<usize>,
    /// The starting context discovery found for each record.
    pub starts: HashMap<usize, Context>,
    /// Each record's COE reference file (best utility for the ratio).
    pub references: HashMap<usize, ReferenceFile>,
    /// The registry the server reads.
    pub registry: Arc<DatasetRegistry>,
    /// The server.
    pub server: Arc<Server>,
    /// The wire front, on wire workloads.
    pub front: Option<NetFront>,
    /// The WAL-backed ledger, on durable workloads.
    pub durable: Option<Arc<DurableLedger>>,
    /// The WAL directory, on durable workloads.
    pub wal_dir: Option<PathBuf>,
    /// Releases made during warm-up (they count in the ledger checks).
    pub warm: Vec<Release>,
    /// Set-up wall time, start to first timed request.
    pub setup_s: f64,
    /// Outlier discovery wall time.
    pub discovery_s: f64,
    /// Ledger open wall time (`DurableLedger::open` on durable workloads).
    pub ledger_open_s: f64,
}

/// Generates the workload's dataset.
pub fn dataset(spec: &Spec) -> Result<Dataset, String> {
    match spec.dataset {
        DatasetKind::Salary => salary_dataset(&SalaryConfig::reduced().with_records(spec.records)),
        DatasetKind::Homicide => {
            homicide_dataset(&HomicideConfig::reduced().with_records(spec.records))
        }
    }
    .map_err(|e| format!("dataset generation: {e}"))
}

/// Builds and warms the stack. `work_dir` is a directory inside the
/// checkout for the WAL.
pub fn build(spec: &Spec, seed: u64, work_dir: &Path) -> Result<Stack, String> {
    let started = Instant::now();
    let dataset = dataset(spec)?;

    let detector = spec.detector.build();
    let discovery = Instant::now();
    let found = find_random_outliers(
        &dataset,
        detector.as_ref(),
        spec.outliers,
        DISCOVERY_CANDIDATES,
        &mut gen::rng(DISCOVERY_SEED, Stream::Discovery),
    )
    .map_err(|e| format!("outlier discovery: {e}"))?;
    let discovery_s = discovery.elapsed().as_secs_f64();
    if found.len() < spec.outliers {
        return Err(format!("discovery found {} of {} outliers", found.len(), spec.outliers));
    }
    let records: Vec<usize> = found.iter().map(|q| q.record_id).collect();
    let starts = found.into_iter().map(|q| (q.record_id, q.starting_context)).collect();
    let mut references = HashMap::new();
    for &record in &records {
        let reference =
            enumerate_coe(&dataset, record, detector.as_ref(), &PopulationSizeUtility, COE_LIMIT)
                .map_err(|e| format!("COE enumeration of record {record}: {e}"))?;
        references.insert(record, reference);
    }

    let registry = Arc::new(DatasetRegistry::new());
    registry.register(DATASET, dataset.clone());
    let ledger_open = Instant::now();
    let (server, durable, wal_dir) = if spec.durable {
        let dir = work_dir.join(format!("wal-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        let durable = Arc::new(
            DurableLedger::open(WalConfig::at(&dir), BudgetLedger::new(GRANT))
                .map_err(|e| format!("DurableLedger::open: {e}"))?,
        );
        let server = Server::start_durable(
            ServerConfig::default(),
            Arc::clone(&registry),
            Arc::clone(&durable),
        );
        (server, Some(durable), Some(dir))
    } else {
        let server = Server::start(
            ServerConfig::default(),
            Arc::clone(&registry),
            Arc::new(BudgetLedger::new(GRANT)),
        );
        (server, None, None)
    };
    let ledger_open_s = ledger_open.elapsed().as_secs_f64();
    let server = Arc::new(server);
    let front = if spec.wire() {
        Some(
            NetFront::bind(NetConfig::default().with_http_addr(None), Arc::clone(&server))
                .map_err(|e| format!("NetFront::bind: {e}"))?,
        )
    } else {
        None
    };

    let mut stack = Stack {
        spec: spec.clone(),
        dataset,
        records,
        starts,
        references,
        registry,
        server,
        front,
        durable,
        wal_dir,
        warm: Vec::new(),
        setup_s: 0.0,
        discovery_s,
        ledger_open_s,
    };
    stack.warm = warm_up(&stack, seed)?;
    stack.setup_s = started.elapsed().as_secs_f64();
    Ok(stack)
}

/// Sends every record once under every algorithm of the mix, so caches
/// are full before timing; any failure aborts set-up.
fn warm_up(stack: &Stack, seed: u64) -> Result<Vec<Release>, String> {
    let spec = &stack.spec;
    let requests = gen::warmup(spec, &stack.records, &mut gen::rng(seed, Stream::Warmup));
    let replies: Vec<Reply> = match &stack.front {
        Some(front) => {
            let plan: Vec<gen::Planned> = requests
                .into_iter()
                .map(|request| gen::Planned { due: Duration::ZERO, request })
                .collect();
            drive::open_loop(front.rpc_addr(), &plan, None)
                .map_err(|e| format!("warm-up over the wire: {e}"))?
                .replies
        }
        None => {
            let (algorithm, _) = spec.mix[0];
            let mut batch = BatchReleaseRequest::new("warmup", DATASET)
                .with_detector(spec.detector)
                .with_algorithm(algorithm);
            for request in requests {
                batch = batch.push(
                    pcor::service::BatchItem::new(request.record_id)
                        .with_epsilon(request.epsilon)
                        .with_samples(request.samples)
                        .with_seed(request.seed),
                );
            }
            vec![drive::batch_once(&stack.server, batch, None)]
        }
    };
    let mut releases = Vec::new();
    for reply in replies {
        if let Some(problem) = reply.failures.first() {
            return Err(format!("warm-up request failed: {problem}"));
        }
        releases.extend(reply.releases);
    }
    Ok(releases)
}

impl Stack {
    /// Stops the front and the server (draining in-flight work).
    pub fn stop(&mut self) {
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        self.server.shutdown();
    }

    /// Stops and drops everything, releasing the WAL; returns its
    /// directory so it can be reopened.
    pub fn close(mut self) -> Option<PathBuf> {
        self.stop();
        self.wal_dir.take()
    }

    /// Stops everything and removes the WAL directory.
    pub fn teardown(self) {
        if let Some(dir) = self.close() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
