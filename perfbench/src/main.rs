//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on
//! bad arguments and 1 when a check fails.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{run, RunArgs};

/// Artifacts (per-run JSON, spans) go here, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench_out";

fn compact(v: &serde_json::Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("<unserializable: {e}>"))
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let result = match std::fs::create_dir_all(out).and_then(|()| run(&args, out)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{} seed {} ({} s{}): attempted {}, failed {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        result.attempted,
        result.failed
    );
    for (name, value, unit) in result.metrics.iter() {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    for key in ["ungated", "layer_share", "host", "checks", "accounting"] {
        if let Some(v) = result.detail.get(key) {
            println!("  {key}: {}", compact(v));
        }
    }
    println!("{}", compact(&result.summary()));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
