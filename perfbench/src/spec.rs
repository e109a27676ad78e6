//! The three workloads and the metrics the benchmark reports.
//!
//! Names here are the public contract: `BENCHMARK.json` lists the same
//! workloads and metrics, and a test keeps the two in step.

use pcor::core::SamplingAlgorithm;
use pcor::outlier::DetectorKind;

/// Which synthetic dataset a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// The reduced salary schema (t = 14).
    Salary,
    /// The reduced homicide schema (t = 12).
    Homicide,
}

/// How the load generator offers requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Poisson arrivals at a fixed absolute rate, single envelopes over
    /// the wire front on one connection (a sender and a receiver thread).
    OpenLoop {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// `clients` threads, each keeping one streamed batch of `batch` items
    /// outstanding, in process.
    ClosedLoop {
        /// Client threads.
        clients: usize,
        /// Items per batch.
        batch: usize,
    },
}

/// Everything that defines one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The workload name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Records generated.
    pub records: usize,
    /// Distinct serviceable outliers the traffic targets.
    pub outliers: usize,
    /// Zipf exponent of record popularity (`0` = uniform).
    pub zipf: f64,
    /// Detector every request names.
    pub detector: DetectorKind,
    /// Release algorithms with their sample counts; each request picks one
    /// uniformly.
    pub mix: &'static [(SamplingAlgorithm, usize)],
    /// ε of every request (or batch item).
    pub epsilon: f64,
    /// Distinct analysts the requests are spread over.
    pub analysts: usize,
    /// Offered load.
    pub traffic: Traffic,
    /// Whether the ledger is a WAL-backed `DurableLedger`.
    pub durable: bool,
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["bfs_heavy", "light_durable", "batch_repeat"];

/// Per-analyst grant: ample, so no request of a run is refused for budget.
pub const GRANT: f64 = 1.0e6;

/// Seed of outlier discovery. The served records are part of a workload's
/// definition, like its dataset, so every workload seed offers statistically
/// the same load; the workload seed drives everything that is sent.
pub const DISCOVERY_SEED: u64 = 1;

impl Spec {
    /// The full-size spec of the named workload.
    pub fn named(name: &str) -> Option<Spec> {
        Some(match name {
            "bfs_heavy" => Spec {
                name: "bfs_heavy",
                dataset: DatasetKind::Salary,
                records: 8_000,
                outliers: 16,
                zipf: 1.0,
                detector: DetectorKind::ZScore,
                mix: &[(SamplingAlgorithm::Bfs, 50)],
                epsilon: 0.2,
                analysts: 32,
                traffic: Traffic::OpenLoop { rate: 100.0 },
                durable: false,
            },
            "light_durable" => Spec {
                name: "light_durable",
                dataset: DatasetKind::Salary,
                records: 2_000,
                outliers: 8,
                zipf: 0.0,
                detector: DetectorKind::ZScore,
                mix: &[(SamplingAlgorithm::RandomWalk, 10), (SamplingAlgorithm::Dfs, 10)],
                epsilon: 0.2,
                analysts: 32,
                traffic: Traffic::OpenLoop { rate: 300.0 },
                durable: true,
            },
            "batch_repeat" => Spec {
                name: "batch_repeat",
                dataset: DatasetKind::Homicide,
                records: 8_000,
                outliers: 4,
                zipf: 0.0,
                detector: DetectorKind::ZScore,
                mix: &[(SamplingAlgorithm::Bfs, 20)],
                epsilon: 0.2,
                analysts: 32,
                traffic: Traffic::ClosedLoop { clients: 2, batch: 16 },
                durable: false,
            },
            _ => return None,
        })
    }

    /// A smoke-size copy: fewer records and outliers, a lower rate, so a
    /// whole run takes about a second (tests only).
    pub fn smoke(mut self) -> Spec {
        self.records = self.records.min(1_500);
        self.outliers = self.outliers.min(3);
        self.analysts = 4;
        if let Traffic::OpenLoop { rate } = &mut self.traffic {
            *rate = rate.min(60.0);
        }
        if let Traffic::ClosedLoop { batch, .. } = &mut self.traffic {
            *batch = (*batch).min(4);
        }
        self
    }

    /// Whether requests travel over the `NetFront` wire.
    pub fn wire(&self) -> bool {
        matches!(self.traffic, Traffic::OpenLoop { .. })
    }
}

/// One reported metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [MetricDef; 7] = [
    m("setup_s", "s", "lower"),
    m("latency_p50_ms", "ms", "lower"),
    m("throughput_rps", "1/s", "higher"),
    m("success_frac", "ratio", "higher"),
    m("utility_ratio", "ratio", "higher"),
    m("cpu_ms_per_release", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by a traced run. The first is the end-to-end
/// p99 latency of the traced run's untraced half: on a shared 2-vCPU host
/// it spreads across runs by more than any gate allows, so it is reported
/// here, ungated, and printed by every untraced run.
pub const PER_LAYER: [MetricDef; 33] = [
    m("e2e.latency_p99_ms", "ms", "lower"),
    m("net.rtt_minus_server_us", "us", "lower"),
    m("net.codec_us", "us", "lower"),
    m("net.shed", "count", "lower"),
    m("service.queue_wait_p50_us", "us", "lower"),
    m("service.queue_wait_tail_us", "us", "lower"),
    m("service.registry_hit_ratio", "ratio", "higher"),
    m("service.ledger_reserve_us", "us", "lower"),
    m("service.ledger_commit_us", "us", "lower"),
    m("service.refused", "count", "lower"),
    m("wal.fsyncs_per_release", "count", "lower"),
    m("wal.bytes_per_release", "B", "lower"),
    m("wal.checkpoints", "count", "lower"),
    m("wal.open_s", "s", "lower"),
    m("core.resolve_us", "us", "lower"),
    m("core.release_us", "us", "lower"),
    m("core.fm_calls_per_release", "count", "lower"),
    m("core.verifier_hit_ratio", "ratio", "higher"),
    m("core.fm_ns_per_call", "ns", "lower"),
    m("core.discovery_s", "s", "lower"),
    m("data.words_per_fm_call", "count", "lower"),
    m("data.scan_gbps", "GB/s", "higher"),
    m("dp.draw_us", "us", "lower"),
    m("runtime.tasks_per_release", "count", "lower"),
    m("runtime.parks_per_release", "count", "lower"),
    m("runtime.steal_ratio", "ratio", "lower"),
    m("trace.unattributed_frac", "ratio", "lower"),
    m("trace.overhead_ms", "ms", "lower"),
    m("trace.spans", "count", "higher"),
    m("loadgen.lag_p99_ms", "ms", "lower"),
    m("loadgen.sent", "count", "higher"),
    m("loadgen.succeeded", "count", "higher"),
    m("loadgen.failed", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_spec() {
        for name in WORKLOADS {
            let spec = Spec::named(name).expect("spec");
            assert_eq!(spec.name, name);
            assert!(!spec.mix.is_empty());
        }
        assert!(Spec::named("nope").is_none());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
