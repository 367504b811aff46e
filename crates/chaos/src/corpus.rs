//! Regression corpora: shrunk failing cases (and historical regression
//! seeds) checked in as JSON and replayed as permanent tests.
//!
//! Two formats are supported:
//!
//! * `tcc-chaos-scenario/v1` — full [`Scenario`] artifacts written by
//!   the shrinker (one scenario per file, in `crates/chaos/corpus/`).
//! * `tcc-regression-corpus/v1` — bare program lists (no chaos config),
//!   the format `crates/core/tests/regression_corpus.json` uses for the
//!   seeds converted from the old proptest regression file. The chaos
//!   suite replays these both benignly and under a fixed set of chaos
//!   profiles.

use std::path::Path;

use tcc_trace::json::{JsonCodec, NonEmpty};
use tcc_trace::{json_fields, Json};

use crate::scenario::{POp, Scenario};

/// The directory holding this crate's scenario corpus.
#[must_use]
pub fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Loads every `*.json` scenario artifact in `dir`, sorted by file name
/// so replay order is stable.
pub fn load_scenarios(dir: &Path) -> Result<Vec<Scenario>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|x| x == "json")).then_some(path)
        })
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let scenario =
            Scenario::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(scenario);
    }
    Ok(out)
}

/// One shrunk witness program: a named machine-wide program of
/// transactional threads (each thread a list of transactions, each
/// transaction a list of [`POp`]s), stripped of chaos/schedule config.
/// It is also one case of a `tcc-regression-corpus/v1` file.
///
/// This is the backend-agnostic view of the corpus: the programs were
/// minimized against the *simulator*, but they only describe memory
/// accesses, so any other implementation of the protocol (`tcc-stm`'s
/// real-thread STM, future backends) can replay them and check the
/// resulting history against the serializability oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    pub name: String,
    pub threads: Vec<Vec<Vec<POp>>>,
}

json_fields!(Witness {
    name,
    threads with NonEmpty,
});

/// A `tcc-regression-corpus/v1` document: named programs with no chaos
/// (the replayer applies the schedule axes).
struct RegressionCorpus {
    cases: Vec<Witness>,
}

json_fields!(
    #[schema = "tcc-regression-corpus/v1"]
    RegressionCorpus { cases }
);

/// Parses a `tcc-regression-corpus/v1` document.
pub fn parse_regression_corpus(text: &str) -> Result<Vec<Witness>, String> {
    Ok(RegressionCorpus::from_json(&Json::parse(text)?)?.cases)
}

/// Every shrunk witness program checked into the repo: the scenario
/// corpus in `crates/chaos/corpus/` plus the shared regression-seed
/// corpus, in stable order. Names are unique (scenario corpus names are
/// file-derived, regression names are prefixed with `regression/`).
pub fn witnesses() -> Result<Vec<Witness>, String> {
    let scenarios = load_scenarios(&corpus_dir())?.into_iter().map(|s| Witness {
        name: s.name,
        threads: s.threads,
    });
    let regressions = load_core_regression_corpus()?.into_iter().map(|c| Witness {
        name: format!("regression/{}", c.name),
        ..c
    });
    Ok(scenarios.chain(regressions).collect())
}

/// The shared regression-seed corpus converted from the old proptest
/// artifact, also replayed by `crates/core/tests/random.rs`.
pub fn load_core_regression_corpus() -> Result<Vec<Witness>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/regression_corpus.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_regression_corpus(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_regression_corpus_document() {
        let text = r#"{
            "schema": "tcc-regression-corpus/v1",
            "cases": [
                {
                    "name": "one",
                    "threads": [
                        [[["store", 0, 0], ["load", 1, 0]]],
                        [[["compute", 7]], [["store", 2, 6]]]
                    ]
                }
            ]
        }"#;
        let cases = parse_regression_corpus(text).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].name, "one");
        assert_eq!(cases[0].threads.len(), 2);
        assert_eq!(cases[0].threads[0][0][0], POp::Store(0, 0));
        assert_eq!(cases[0].threads[1][1][0], POp::Store(2, 6));
    }

    #[test]
    fn rejects_unknown_schema() {
        assert!(parse_regression_corpus(r#"{"schema": "nope", "cases": []}"#).is_err());
    }
}
