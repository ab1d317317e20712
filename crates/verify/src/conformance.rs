//! The one fuzz → shrink → repro → replay driver behind every
//! conformance family.
//!
//! A family (the differential [`Scenario`], the temporal
//! [`StreamScenario`], the whole-step [`TrainScenario`]) implements
//! [`Conformance`]: a seeded generator, the check that runs a scenario,
//! and its shrink passes. This module owns everything else — the fuzz
//! loop, the budgeted adopt-if-still-failing shrink loop, the
//! halve-then-drop list pass, repro files and corpus replay.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::{Scenario, StreamScenario, TrainScenario, Violation};

/// One conformance family.
pub trait Conformance: Clone + PartialEq + fmt::Debug + Serialize + Deserialize {
    /// One disagreement the check reports.
    type Failure: Clone + PartialEq + fmt::Debug + fmt::Display + Serialize + Deserialize;

    /// File-name prefix of this family's repros (`{prefix}{seed}.json`).
    const REPRO_PREFIX: &'static str;
    /// How corpus replay labels this family's failures.
    const FAILURE_LABEL: &'static str;
    /// Name of the family's fuzz mode in fuzz reports.
    const MODE: &'static str;
    /// What the scenarios of a clean fuzz run are (plural).
    const SCENARIOS: &'static str;
    /// What a clean fuzz run shows.
    const VERDICT: &'static str;
    /// What a counterexample is reported as found after (plural).
    const FOUND_AFTER: &'static str;
    /// Cap on scenario evaluations one shrink may spend.
    const SHRINK_BUDGET: usize;

    /// Deterministically generates the scenario for `seed`.
    fn generate(seed: u64) -> Self;
    /// The seed the scenario was generated from (names its repro).
    fn seed(&self) -> u64;
    /// Runs the scenario, returning every failure (empty = conformant).
    fn run(&self) -> Vec<Self::Failure>;
    /// One-line size summary of the scenario for fuzz reports.
    fn summary(&self) -> String;
    /// Shrink steps tried once, before the shrink rounds.
    fn shrink_first(sh: &mut Shrinker<Self>);
    /// One round of shrink passes; returns whether any candidate was
    /// adopted.
    fn shrink_round(sh: &mut Shrinker<Self>) -> bool;
    /// Structural checks that corpus replay runs besides [`run`](Self::run).
    fn corpus_violations(&self) -> Vec<Violation> {
        Vec::new()
    }
}

/// A (shrunken) failing scenario plus the failures it reproduces.
/// Every family serializes it as `{"scenario": ..., "mismatches": ...}`;
/// corpus seeds that never failed carry an empty `mismatches` list.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample<C: Conformance> {
    /// The minimal failing scenario.
    pub scenario: C,
    /// Failures observed when the counterexample was produced.
    pub mismatches: Vec<C::Failure>,
}

impl<C: Conformance> Serialize for Counterexample<C> {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("scenario".to_owned(), self.scenario.serialize_value()),
            ("mismatches".to_owned(), self.mismatches.serialize_value()),
        ])
    }
}

impl<C: Conformance> Deserialize for Counterexample<C> {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            scenario: serde::__de_field(v, "scenario")?,
            mismatches: serde::__de_field(v, "mismatches")?,
        })
    }
}

/// Budgeted shrink state handed to a family's shrink passes.
#[derive(Debug)]
pub struct Shrinker<C: Conformance> {
    /// The smallest failing scenario found so far.
    pub(crate) best: C,
    /// The failures `best` reproduces.
    pub(crate) failures: Vec<C::Failure>,
    evals: usize,
}

impl<C: Conformance> Shrinker<C> {
    /// Whether the evaluation budget is spent.
    pub(crate) fn exhausted(&self) -> bool {
        self.evals >= C::SHRINK_BUDGET
    }

    /// Runs `cand` and adopts it iff it still fails. Returns whether it
    /// was adopted (never, once the budget is spent).
    pub(crate) fn attempt(&mut self, cand: C) -> bool {
        if self.exhausted() {
            return false;
        }
        self.evals += 1;
        let failures = cand.run();
        if failures.is_empty() {
            return false;
        }
        self.best = cand;
        self.failures = failures;
        true
    }

    /// Halves the list `field` selects while either half still fails,
    /// then drops single elements greedily; never empties the list.
    /// Returns whether anything was adopted.
    pub(crate) fn halve_then_drop<T>(&mut self, field: impl Fn(&mut C) -> &mut Vec<T>) -> bool {
        let mut progress = false;
        while field(&mut self.best).len() > 1 && !self.exhausted() {
            let half = field(&mut self.best).len() / 2;
            let mut front = self.best.clone();
            field(&mut front).truncate(half);
            let mut back = self.best.clone();
            field(&mut back).drain(..half);
            if self.attempt(front) || self.attempt(back) {
                progress = true;
            } else {
                break;
            }
        }
        self.drop_each(1, &field) || progress
    }

    /// Drops single elements of the list `field` selects, front to
    /// back, while it holds more than `min`. Returns whether anything
    /// was adopted.
    pub(crate) fn drop_each<T>(
        &mut self,
        min: usize,
        field: impl Fn(&mut C) -> &mut Vec<T>,
    ) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < field(&mut self.best).len()
            && field(&mut self.best).len() > min
            && !self.exhausted()
        {
            let mut cand = self.best.clone();
            field(&mut cand).remove(i);
            if self.attempt(cand) {
                progress = true; // same index now holds the next element
            } else {
                i += 1;
            }
        }
        progress
    }
}

/// Shrinks a failing scenario to a local minimum: the result still
/// fails, and no single step of the family's passes keeps it failing
/// (or the evaluation budget ran out).
pub fn shrink<C: Conformance>(found: Counterexample<C>) -> Counterexample<C> {
    let mut sh = Shrinker {
        best: found.scenario,
        failures: found.mismatches,
        evals: 0,
    };
    C::shrink_first(&mut sh);
    while !sh.exhausted() && C::shrink_round(&mut sh) {}
    Counterexample {
        scenario: sh.best,
        mismatches: sh.failures,
    }
}

/// Runs `iters` seeded scenarios of family `C` starting at `seed`;
/// stops at (and shrinks) the first failure. Returns how many
/// scenarios ran and the counterexample, if any.
pub fn fuzz<C: Conformance>(seed: u64, iters: usize) -> (usize, Option<Counterexample<C>>) {
    for i in 0..iters {
        let scenario = C::generate(seed.wrapping_add(i as u64));
        let mismatches = scenario.run();
        if !mismatches.is_empty() {
            let found = Counterexample {
                scenario,
                mismatches,
            };
            return (i + 1, Some(shrink(found)));
        }
    }
    (iters, None)
}

/// Writes a counterexample as pretty JSON under `dir`, named by its
/// family prefix and seed. Returns the written path.
pub fn write_repro<C: Conformance>(dir: &Path, ce: &Counterexample<C>) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}{}.json", C::REPRO_PREFIX, ce.scenario.seed()));
    let json = serde_json::to_string_pretty(ce)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs::write(&path, json)?;
    Ok(path)
}

/// One corpus file's replay outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusResult {
    /// The replayed file.
    pub path: PathBuf,
    /// Every violation and mismatch found on replay, labelled by kind
    /// (empty = conformant now).
    pub failures: Vec<String>,
}

impl CorpusResult {
    /// Whether the replay was clean.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn replay<C: Conformance>(value: &Value) -> Result<Vec<String>, serde::Error> {
    let ce = Counterexample::<C>::deserialize_value(value)?;
    let violations = ce.scenario.corpus_violations();
    let violations = violations.iter().map(|v| format!("violation: {v}"));
    let mismatches = ce.scenario.run();
    let mismatches = mismatches
        .iter()
        .map(|m| format!("{}: {m}", C::FAILURE_LABEL));
    Ok(violations.chain(mismatches).collect())
}

/// Replays every `*.json` counterexample under `dir`. Stream-scenario
/// files (recognized by a `scenario.frames` field) replay through the
/// incremental kernel-map engine, training-scenario files (recognized
/// by a `scenario.micro_batches` field) through the whole-training-step
/// engine, and the rest through the invariant checker and differential
/// engine. Checked-in repros record *fixed* bugs, so a healthy corpus
/// replays clean.
///
/// # Errors
///
/// I/O errors reading the directory, or parse errors on any corpus file
/// (a corrupt corpus is a failure, not a skip).
pub fn replay_corpus(dir: &Path) -> io::Result<Vec<CorpusResult>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let bad = |e: serde::Error| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            };
            let value: Value = serde_json::from_str(&fs::read_to_string(&path)?).map_err(bad)?;
            let has = |key| value.get("scenario").and_then(|s| s.get(key)).is_some();
            let failures = if has("frames") {
                replay::<StreamScenario>(&value)
            } else if has("micro_batches") {
                replay::<TrainScenario>(&value)
            } else {
                replay::<Scenario>(&value)
            }
            .map_err(bad)?;
            Ok(CorpusResult { path, failures })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counterexample_json_round_trip() {
        let ce = Counterexample {
            scenario: Scenario::generate(5),
            mismatches: Vec::new(),
        };
        let json = serde_json::to_string_pretty(&ce).expect("serializes");
        let back: Counterexample<Scenario> = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(ce, back);
    }

    #[test]
    fn corpus_dispatches_stream_train_and_differential_files() {
        let dir = std::env::temp_dir().join(format!("ts-verify-mixed-{}", std::process::id()));
        let diff = Counterexample {
            scenario: Scenario::generate(11),
            mismatches: Vec::new(),
        };
        let stream = Counterexample {
            scenario: StreamScenario::generate(11),
            mismatches: Vec::new(),
        };
        let train = Counterexample {
            scenario: TrainScenario::generate(11),
            mismatches: Vec::new(),
        };
        write_repro(&dir, &diff).expect("writes differential");
        write_repro(&dir, &stream).expect("writes stream");
        write_repro(&dir, &train).expect("writes train");
        let results = replay_corpus(&dir).expect("replays");
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.passed(), "{r:#?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repro_write_and_replay() {
        let dir = std::env::temp_dir().join(format!("ts-verify-test-{}", std::process::id()));
        let ce = Counterexample {
            scenario: Scenario::generate(7),
            mismatches: Vec::new(),
        };
        let path = write_repro(&dir, &ce).expect("writes");
        assert!(path.exists());
        let results = replay_corpus(&dir).expect("replays");
        assert_eq!(results.len(), 1);
        assert!(results[0].passed(), "{:#?}", results[0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
