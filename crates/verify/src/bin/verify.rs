//! The conformance gate: corpus replay, fuzzing, and mutation smoke.
//!
//! ```text
//! verify --corpus [DIR]                      # replay checked-in repros (CI gate)
//! verify --fuzz [--seed S] [--iters N] [--repro-dir DIR]
//! verify --stream [--seed S] [--iters N] [--repro-dir DIR]
//! verify --train [--seed S] [--iters N] [--repro-dir DIR]
//! verify --mutation-smoke [--repro-dir DIR]  # requires --features mutate
//! ```
//!
//! `--stream` fuzzes frame-delta sequences through the incremental
//! kernel-map engine (structural equivalence to from-scratch rebuilds);
//! `--train` fuzzes whole training steps (forward + loss + dgrad +
//! wgrad + micro-batch accumulation) against the full-batch reference.
//! Both compose with `--corpus` and `--fuzz` the same way they compose
//! with each other.
//!
//! Exit status: 0 = clean, 1 = conformance failure (counterexample
//! written when a repro dir applies), 2 = usage or environment error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ts_verify::{
    fuzz, replay_corpus, write_repro, Conformance, Scenario, StreamScenario, TrainScenario,
};

/// Default corpus/repro directory: `tests/repros/` at the workspace
/// root, resolved relative to this crate so the binary works from any
/// working directory.
fn default_repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("repros")
}

struct Args {
    corpus: Option<PathBuf>,
    fuzz: bool,
    stream: bool,
    train: bool,
    mutation_smoke: bool,
    seed: u64,
    iters: usize,
    repro_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: verify --corpus [DIR]\n       verify --fuzz [--seed S] [--iters N] [--repro-dir DIR]\n       verify --stream [--seed S] [--iters N] [--repro-dir DIR]\n       verify --train [--seed S] [--iters N] [--repro-dir DIR]\n       verify --mutation-smoke [--repro-dir DIR]"
    );
    ExitCode::from(2)
}

/// Seeds parse as decimal or `0x`-prefixed hex (the binary reports
/// seeds in hex, so pasting one back must round-trip).
fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        v.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        corpus: None,
        fuzz: false,
        stream: false,
        train: false,
        mutation_smoke: false,
        seed: 0x5EED,
        iters: 16,
        repro_dir: default_repro_dir(),
    };
    let mut it = std::env::args().skip(1).peekable();
    let mut saw_mode = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--corpus" => {
                saw_mode = true;
                let dir = match it.peek() {
                    Some(v) if !v.starts_with("--") => PathBuf::from(it.next().unwrap()),
                    _ => default_repro_dir(),
                };
                args.corpus = Some(dir);
            }
            "--fuzz" => {
                saw_mode = true;
                args.fuzz = true;
            }
            "--stream" => {
                saw_mode = true;
                args.stream = true;
            }
            "--train" => {
                saw_mode = true;
                args.train = true;
            }
            "--mutation-smoke" => {
                saw_mode = true;
                args.mutation_smoke = true;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = parse_seed(&v).ok_or(format!("bad seed: {v}"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad iters: {v}"))?;
            }
            "--repro-dir" => {
                let v = it.next().ok_or("--repro-dir needs a value")?;
                args.repro_dir = PathBuf::from(v);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !saw_mode {
        return Err(
            "pick a mode: --corpus, --fuzz, --stream, --train or --mutation-smoke".to_owned(),
        );
    }
    Ok(args)
}

fn run_corpus(dir: &Path) -> bool {
    let results = match replay_corpus(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus error: {e}");
            return false;
        }
    };
    let mut failed = 0usize;
    for r in &results {
        if r.passed() {
            println!("PASS {}", r.path.display());
        } else {
            failed += 1;
            println!("FAIL {}", r.path.display());
            for f in &r.failures {
                println!("  {f}");
            }
        }
    }
    println!("corpus: {} file(s), {} failed", results.len(), failed);
    failed == 0
}

/// Fuzzes family `C` and reports in its words; a counterexample is
/// written under `--repro-dir`.
fn run_mode<C: Conformance>(args: &Args) -> bool {
    let seed = args.seed;
    let (iterations, found) = fuzz::<C>(seed, args.iters);
    let Some(ce) = found else {
        println!(
            "{}: {iterations} {} from seed {seed:#x}, {}",
            C::MODE,
            C::SCENARIOS,
            C::VERDICT
        );
        return true;
    };
    eprintln!(
        "{}: counterexample after {iterations} {}: {}",
        C::MODE,
        C::FOUND_AFTER,
        ce.scenario.summary()
    );
    for m in &ce.mismatches {
        eprintln!("  {m}");
    }
    match write_repro(&args.repro_dir, &ce) {
        Ok(path) => eprintln!("repro written to {}", path.display()),
        Err(e) => eprintln!("could not write repro: {e}"),
    }
    false
}

/// Fuzzes family `C` with the dataflow mutation `mutation` planted
/// (the `mutate` feature's `TS_MUTATE` hook in `ts-dataflow`).
#[cfg(feature = "mutate")]
fn fuzz_mutated<C: Conformance>(mutation: &str) -> Option<ts_verify::Counterexample<C>> {
    std::env::set_var("TS_MUTATE", mutation);
    let (_, found) = fuzz::<C>(0x5EED_F11B, 8);
    std::env::remove_var("TS_MUTATE");
    found
}

/// Flips a sign inside one dataflow's forward kernel and one's wgrad
/// kernel (the `mutate` feature's hooks in `ts-dataflow`) and asserts
/// the matching harness catches each with a shrunken repro of at most 8
/// points. Proves the conformance gate — differential *and* training —
/// detects real defects rather than vacuously passing.
#[cfg(feature = "mutate")]
fn run_mutation_smoke(repro_dir: &Path) -> ExitCode {
    let Some(ce) = fuzz_mutated::<Scenario>("sign-flip") else {
        eprintln!("mutation smoke FAILED: sign-flipped dataflow was not caught");
        return ExitCode::FAILURE;
    };
    let points = ce.scenario.coords.len();
    if points > 8 {
        eprintln!("mutation smoke FAILED: repro has {points} points, expected <= 8");
        return ExitCode::FAILURE;
    }
    let smoke_dir = repro_dir.join("mutation-smoke");
    match write_repro(&smoke_dir, &ce) {
        Ok(path) => println!(
            "mutation smoke passed: sign flip caught, shrunk to {points} point(s), repro at {}",
            path.display()
        ),
        Err(e) => {
            eprintln!("mutation smoke FAILED: could not persist repro: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Second leg: a wgrad-only sign flip is invisible to inference but
    // must be caught (and shrunk) by the training harness.
    let Some(ce) = fuzz_mutated::<TrainScenario>("wgrad-sign-flip") else {
        eprintln!("mutation smoke FAILED: wgrad sign flip was not caught by --train");
        return ExitCode::FAILURE;
    };
    if !ce
        .mismatches
        .iter()
        .any(|m| matches!(m.pass, ts_verify::Pass::Wgrad))
    {
        eprintln!("mutation smoke FAILED: wgrad flip surfaced without a wgrad mismatch");
        return ExitCode::FAILURE;
    }
    let points = ce.scenario.coords.len();
    if points > 8 {
        eprintln!("mutation smoke FAILED: train repro has {points} points, expected <= 8");
        return ExitCode::FAILURE;
    }
    match write_repro(&smoke_dir, &ce) {
        Ok(path) => println!(
            "mutation smoke passed: wgrad sign flip caught by --train, shrunk to {points} point(s), repro at {}",
            path.display()
        ),
        Err(e) => {
            eprintln!("mutation smoke FAILED: could not persist train repro: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(not(feature = "mutate"))]
fn run_mutation_smoke(_repro_dir: &Path) -> ExitCode {
    eprintln!("mutation smoke needs `--features mutate` (cargo run -p ts-verify --features mutate --bin verify -- --mutation-smoke)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.mutation_smoke {
        return run_mutation_smoke(&args.repro_dir);
    }
    // Corpus and fuzz compose: `--corpus --fuzz` replays the corpus
    // then hunts for new counterexamples (the CI verify job's shape).
    let mut failed = false;
    let mut ran = false;
    if let Some(dir) = &args.corpus {
        ran = true;
        failed |= !run_corpus(dir);
    }
    if args.fuzz && !failed {
        ran = true;
        failed |= !run_mode::<Scenario>(&args);
    }
    if args.stream && !failed {
        ran = true;
        failed |= !run_mode::<StreamScenario>(&args);
    }
    if args.train && !failed {
        ran = true;
        failed |= !run_mode::<TrainScenario>(&args);
    }
    if !ran {
        return usage();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
