//! The benchmark's own contract: deterministic inputs, every metric
//! named in `BENCHMARK.json` emitted with its unit, and repeatable
//! simulated results.

use std::path::PathBuf;

use perfbench::{run, serve, train, RunArgs, RunResult, WORKLOADS};
use serde_json::Value;

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("test output directory");
    dir
}

fn run_once(workload: &str, seed: u64, trace: bool, tag: &str) -> RunResult {
    let args = RunArgs {
        workload: workload.to_owned(),
        seed,
        seconds: 1,
        trace,
    };
    let r = run(&args, &out_dir(tag)).expect("run completes");
    assert!(
        r.correct(),
        "{workload} (trace {trace}) checks failed: {:?}",
        r.summary()
    );
    r
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

#[test]
fn input_digest_depends_only_on_the_seed() {
    for spec in [&serve::PRICE, &serve::INFER] {
        let a = serve::input_digest(spec, 5, 20);
        assert_eq!(a, serve::input_digest(spec, 5, 20), "{}", spec.name);
        assert_ne!(a, serve::input_digest(spec, 6, 20), "{}", spec.name);
    }
    let a = train::input_digest(5, 20);
    assert_eq!(a, train::input_digest(5, 20));
    assert_ne!(a, train::input_digest(6, 20));
}

#[test]
fn declared_workloads_are_the_ones_implemented() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(section);
        for w in WORKLOADS {
            let r = run_once(w, 3, trace, &format!("metrics-{w}-{trace}"));
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_owned(), u.to_owned()))
                .collect();
            let mut a = got.clone();
            let mut b = want.clone();
            a.sort();
            b.sort();
            assert_eq!(
                a, b,
                "{w}: emitted {section} metrics differ from BENCHMARK.json"
            );
            if !trace {
                for (n, v, _) in r.metrics.iter() {
                    assert!(
                        v > 0.0,
                        "{w}: end-to-end metric {n} must never be 0, got {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_simulated_cost_and_trained_weights() {
    for w in WORKLOADS {
        let a = run_once(w, 9, false, &format!("repeat-a-{w}"));
        let b = run_once(w, 9, false, &format!("repeat-b-{w}"));
        let sim = |r: &RunResult| r.metrics.get("sim_us_per_frame").expect("sim metric");
        assert_eq!(
            sim(&a).to_bits(),
            sim(&b).to_bits(),
            "{w}: sim_us_per_frame"
        );
        if w == train::NAME {
            let digest = |r: &RunResult| r.detail.get("weights_digest").cloned();
            assert!(digest(&a).is_some());
            assert_eq!(digest(&a), digest(&b), "train weights digest");
        }
    }
}

#[test]
fn pregenerated_windows_train_exactly_like_run_stream() {
    let steps = 3;
    let (losses, digest) = train::run_stream_reference(4, steps);
    let (got_losses, got_digest) = train::step_windows(4, steps);
    assert_eq!(
        losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        got_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(digest, got_digest);
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |s: &str| RunArgs::parse(s.split_whitespace().map(str::to_owned));
    assert!(parse("--workload price-serve --seed 1 --seconds 10 --trace 0").is_ok());
    assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
    assert!(parse("--workload price-serve --seed 1 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload price-serve --seed 1 --seconds 10 --trace 2").is_err());
    assert!(parse("--workload price-serve --seed 1 --seconds 10").is_err());
    assert!(parse("--workload price-serve --seed x --seconds 10 --trace 0").is_err());
}
