//! `reproduce` — regenerate the tables and figures of the PCOR paper.
//!
//! ```text
//! Usage: reproduce [--scale smoke|quick|paper] [--json <path>] [SELECTOR ...]
//!
//! Selectors (default: all):
//!   all                 every experiment
//!   table2 .. table13   the corresponding table (paired tables run together)
//!   figure1 .. figure5  the experiment behind the corresponding figure
//!   sampling overlap detectors epsilon samples coe-salary coe-homicide
//!   ratio direct figures service batch verify pool mechanisms wal net
//! ```
//!
//! Examples:
//!
//! ```bash
//! cargo run --release -p pcor-bench --bin reproduce -- table2 table3
//! cargo run --release -p pcor-bench --bin reproduce -- --scale quick all
//! cargo run --release -p pcor-bench --bin reproduce -- --json results.json all
//! ```

use pcor_bench::experiments::{self, ExperimentId, ExperimentOutput};
use pcor_bench::ExperimentScale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::time::Instant;

/// System allocator wrapper feeding `pcor_bench::alloc_probe` so experiments
/// (notably `verify-hotpath`) can report allocations per call. Counting is
/// one relaxed atomic increment per allocation — noise for the wall-clock
/// numbers, which measure µs-scale sections.
struct CountingAllocator;

// SAFETY: delegates allocation verbatim to `System`; the only addition is a
// side-effect-free atomic counter bump.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        pcor_bench::alloc_probe::note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        pcor_bench::alloc_probe::note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    pcor_bench::alloc_probe::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::quick();
    let mut selectors: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let name = args.get(i).map(String::as_str).unwrap_or("");
                match ExperimentScale::by_name(name) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{name}' (expected smoke, quick or paper)");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
                if json_path.is_none() {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "Usage: reproduce [--scale smoke|quick|paper] [--json <path>] [SELECTOR ...]"
                );
                println!("Selectors (aliases on one line select the same experiments):");
                for (names, _) in ExperimentId::SELECTORS {
                    println!("  {}", names.join(", "));
                }
                return;
            }
            other => selectors.push(other.to_string()),
        }
        i += 1;
    }
    if selectors.is_empty() {
        selectors.push("all".to_string());
    }

    let mut ids: Vec<ExperimentId> = Vec::new();
    for selector in &selectors {
        let parsed = ExperimentId::parse(selector);
        if parsed.is_empty() {
            eprintln!("unknown experiment selector '{selector}' (try --help)");
            std::process::exit(2);
        }
        for id in parsed {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }

    println!(
        "PCOR reproduction harness — scale: {} records (salary), {} repetitions, eps = {}, n = {}\n",
        scale.salary_records, scale.repetitions, scale.epsilon, scale.samples
    );

    let mut combined = ExperimentOutput::default();
    for id in ids {
        println!(">>> running {id}");
        let start = Instant::now();
        match experiments::run(id, &scale) {
            Ok(output) => {
                println!("    done in {:.1?}\n", start.elapsed());
                print!("{output}");
                combined.extend(output);
            }
            Err(err) => {
                eprintln!("    FAILED: {err}\n");
            }
        }
    }

    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&combined) {
            Ok(json) => {
                if let Err(err) = std::fs::write(&path, json) {
                    eprintln!("could not write {path}: {err}");
                } else {
                    println!("wrote results to {path}");
                }
            }
            Err(err) => eprintln!("could not serialize results: {err}"),
        }
    }
}
