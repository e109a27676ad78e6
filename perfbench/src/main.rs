//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an
//! output check fails and 2 when the run cannot complete.

use pcor_perfbench::run::{run, Options, Outcome, SETUP_REPEATS};
use pcor_perfbench::spec::Spec;
use std::process::ExitCode;

/// Directory, relative to the working directory, for the WAL and spans.
const WORK_DIR: &str = ".perfbench_run";

fn usage() -> String {
    "usage: perfbench --workload <bfs_heavy|light_durable|batch_repeat> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let name = workload.ok_or_else(usage)?;
    let spec = Spec::named(&name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Options {
        spec,
        seed,
        seconds,
        trace,
        setups: if trace { 1 } else { SETUP_REPEATS },
        work_dir: WORK_DIR.into(),
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(def, value)| {
            // JSON has no infinities; a tail lost to failures reads as the
            // largest finite number.
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.spec.name, opts.seed, opts.seconds, opts.trace as u8
    );
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    if let Some(reason) = &outcome.too_few_samples {
        eprintln!("perfbench: no valid result: {reason}");
        return ExitCode::from(2);
    }
    for (def, value) in &outcome.metrics {
        println!("metric {} = {value} {} ({} is better)", def.name, def.unit, def.better);
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", result_json(&outcome));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
