//! Smoke-size runs of every workload, untraced under two seeds and traced
//! under one: each must pass its output checks.

use pcor_perfbench::run::{run, Options};
use pcor_perfbench::spec::{Spec, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{tag}"))
}

fn smoke(workload: &str, seed: u64, trace: bool) {
    let opts = Options {
        spec: Spec::named(workload).expect("known workload").smoke(),
        seed,
        seconds: 1.0,
        trace,
        setups: 1,
        work_dir: work_dir(&format!("{workload}-{seed}-{trace}")),
    };
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"));
    assert!(outcome.problems.is_empty(), "{workload} seed {seed}: {:?}", outcome.problems);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0, "{workload} seed {seed}: {:?}", outcome.lines);
    let expected = if trace { PER_LAYER.len() } else { END_TO_END.len() };
    assert_eq!(outcome.metrics.len(), expected);
    assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}

#[test]
fn every_workload_passes_its_checks_under_two_seeds() {
    for workload in WORKLOADS {
        smoke(workload, 11, false);
        smoke(workload, 12, false);
    }
}

#[test]
fn every_workload_traces() {
    for workload in WORKLOADS {
        smoke(workload, 13, true);
    }
}
