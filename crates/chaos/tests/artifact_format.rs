//! The chaos artifact format, pinned.
//!
//! Scenario JSON files are replayable artifacts: the corpus in
//! `crates/chaos/corpus/` must keep parsing unedited, and the writer must
//! keep producing the same bytes. These pins fix the writer's output for
//! every corpus scenario and for one scenario with every field set, and
//! list every malformed input the decoders refuse.

use tcc_chaos::corpus::{corpus_dir, load_scenarios, parse_regression_corpus};
use tcc_chaos::Scenario;
use tcc_core::SystemConfig;
use tcc_network::{ChaosConfig, DropRule, DupRule, HotSpot, KindDelay};
use tcc_types::hash::fnv1a;
use tcc_types::{NodeId, ProtocolBugs};

/// A scenario with every field away from its default: drop, dup and
/// reorder rules, a finite and an open window end, seeds above 2^53
/// (which a JSON number cannot hold), the Tardis backend, two mutation
/// knobs, a program seed and every configuration tweak. It is built
/// from text so the pin does not depend on the struct layout.
const EVERY_FIELD: &str = r#"{
  "schema": "tcc-chaos-scenario/v1",
  "name": "every-field",
  "config": {
    "link_latency": 9,
    "torus": true,
    "owner_flush_keeps_line": false,
    "starvation_threshold": 3,
    "exec_chunk": 50,
    "line_granularity": true,
    "small_caches": true,
    "dir_cache_entries": 16,
    "max_cycles": 1000000,
    "transport": true,
    "protocol": "tardis"
  },
  "bugs": ["skip_ack_wait", "transport_no_dedup"],
  "tie_break_seed": "12345678901234567890",
  "program_seed": "9007199254740993",
  "chaos": {
    "seed": "18446744073709551557",
    "jitter": 10,
    "jitter_prob": 0.5,
    "kind_delays": [{"kind": "Mark", "extra": 30, "prob": 1, "from": 0, "until": null}],
    "hotspots": [{"node": 1, "extra": 5, "from": 0, "until": 1000}],
    "preserve_channel_fifo": false,
    "drops": [{"kind": "Mark", "prob": 0.05, "from": 100, "until": 5000}],
    "dups": [{"kind": "*", "prob": 0.1, "delay": 7, "from": 0, "until": null}],
    "reorder": 40,
    "reorder_prob": 0.25
  },
  "threads": [
    [[["store", 0, 0], ["load", 1, 2]], [["compute", 9]]],
    [[["load", 0, 0], ["store", 1, 2]]]
  ]
}"#;

fn assert_pinned(s: &Scenario, bytes: usize, hash: u64) {
    let text = s.to_json_string();
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (bytes, hash),
        "writer output of {} moved:\n{text}",
        s.name
    );
    assert_eq!(&Scenario::from_json_str(&text).unwrap(), s, "{}", s.name);
}

#[test]
fn corpus_scenarios_write_pinned_bytes() {
    let pins: [(&str, usize, u64); 6] = [
        ("accept_stale_fills", 492, 0xfc9e_6348_78aa_720e),
        ("skip_ack_wait", 1_391, 0x0e1b_80e7_3c49_8b50),
        ("transport_no_dedup", 574, 0xdab8_e447_8b87_c918),
        ("transport_no_reorder", 364, 0x83b7_5efc_8b8c_cbf1),
        ("unlocked_window_loads", 892, 0x567b_6dad_1a2d_4d69),
        ("writeback_latest_tid", 2_694, 0xa161_c84c_56e2_343c),
    ];
    let scenarios = load_scenarios(&corpus_dir()).expect("corpus must load");
    assert_eq!(scenarios.len(), pins.len());
    for (s, (knob, bytes, hash)) in scenarios.iter().zip(pins) {
        assert_eq!(s.bugs.enabled_names(), vec![knob], "{}", s.name);
        assert_pinned(s, bytes, hash);
    }
}

#[test]
fn every_field_scenario_writes_pinned_bytes() {
    let s = Scenario::from_json_str(EVERY_FIELD).unwrap();
    assert_pinned(&s, 1_638, 0xc2e0_6789_00ce_4ca4);
}

/// Snapshots store this digest; resuming one taken before a change to
/// `ProtocolBugs` or `ChaosConfig` needs it unchanged.
#[test]
fn config_digest_with_every_knob_and_chaos_rule_is_pinned() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.bugs = ProtocolBugs {
        skip_ack_wait: true,
        writeback_latest_tid: true,
        unlocked_window_loads: true,
        accept_stale_fills: true,
        transport_no_dedup: true,
        transport_no_reorder: true,
    };
    cfg.chaos = Some(ChaosConfig {
        seed: 1 << 60,
        jitter: 10,
        jitter_prob: 0.5,
        kind_delays: vec![KindDelay {
            kind: "Mark".to_string(),
            extra: 30,
            prob: 1.0,
            from: 0,
            until: u64::MAX,
        }],
        hotspots: vec![HotSpot {
            node: NodeId(1),
            extra: 5,
            from: 0,
            until: 1000,
        }],
        preserve_channel_fifo: false,
        drops: vec![DropRule {
            kind: "Mark".to_string(),
            prob: 0.05,
            from: 100,
            until: 5000,
        }],
        dups: vec![DupRule {
            kind: "*".to_string(),
            prob: 0.1,
            delay: 7,
            from: 0,
            until: u64::MAX,
        }],
        reorder: 40,
        reorder_prob: 0.25,
    });
    assert_eq!(cfg.digest(), 0x27bf_b5eb_57c0_d03c);
}

/// Every input the decoders refuse. Each entry is a scenario document
/// (or, for the regression corpus, a corpus document) that must come
/// back as `Err`; the messages are not part of the format.
#[test]
fn malformed_inputs_are_refused() {
    const OK_THREADS: &str = r#""threads": [[[["load", 0, 0]]]]"#;
    let doc = |body: &str| format!(r#"{{"schema": "tcc-chaos-scenario/v1", "name": "x", {body}}}"#);
    let chaos = |fields: &str| doc(&format!(r#""chaos": {{{fields}}}, {OK_THREADS}"#));
    const SEED: &str = r#""seed": "1""#;
    const JITTER: &str = r#""jitter": 2"#;
    const JITTER_PROB: &str = r#""jitter_prob": 0.5"#;
    const KIND_DELAYS: &str = r#""kind_delays": []"#;
    const HOTSPOTS: &str = r#""hotspots": []"#;
    let chaos_without = |skip: &str| {
        let kept: Vec<&str> = [SEED, JITTER, JITTER_PROB, KIND_DELAYS, HOTSPOTS]
            .into_iter()
            .filter(|f| *f != skip)
            .collect();
        chaos(&kept.join(", "))
    };
    let with_rule = |list: &str, rule: &str| {
        chaos(&format!(
            "{SEED}, {JITTER}, {JITTER_PROB}, {}",
            match list {
                "kind_delays" => format!(r#""kind_delays": [{rule}], {HOTSPOTS}"#),
                "hotspots" => format!(r#"{KIND_DELAYS}, "hotspots": [{rule}]"#),
                other => format!(r#"{KIND_DELAYS}, {HOTSPOTS}, "{other}": [{rule}]"#),
            }
        ))
    };

    // The base documents parse, so each refusal below is the named defect.
    assert!(Scenario::from_json_str(&doc(OK_THREADS)).is_ok());
    let full = [SEED, JITTER, JITTER_PROB, KIND_DELAYS, HOTSPOTS].join(", ");
    assert!(Scenario::from_json_str(&chaos(&full)).is_ok());
    for (list, rule) in [
        (
            "kind_delays",
            r#"{"kind": "Mark", "extra": 1, "prob": 1, "from": 0}"#,
        ),
        ("hotspots", r#"{"node": 0, "extra": 1, "from": 0}"#),
        ("drops", r#"{"kind": "*", "prob": 1, "from": 0}"#),
        ("dups", r#"{"kind": "*", "prob": 1, "delay": 1, "from": 0}"#),
    ] {
        assert!(
            Scenario::from_json_str(&with_rule(list, rule)).is_ok(),
            "{list}"
        );
    }

    let scenarios: Vec<(&str, String)> = vec![
        (
            "wrong schema",
            format!(r#"{{"schema": "tcc-chaos-scenario/v2", "name": "x", {OK_THREADS}}}"#),
        ),
        ("no schema", format!(r#"{{"name": "x", {OK_THREADS}}}"#)),
        ("not an object", "[]".to_string()),
        (
            "missing name",
            format!(r#"{{"schema": "tcc-chaos-scenario/v1", {OK_THREADS}}}"#),
        ),
        ("missing threads", doc(r#""bugs": []"#)),
        ("empty threads", doc(r#""threads": []"#)),
        ("non-array thread", doc(r#""threads": [3]"#)),
        ("non-array transaction", doc(r#""threads": [[3]]"#)),
        ("non-array op", doc(r#""threads": [[["load"]]]"#)),
        ("unknown op kind", doc(r#""threads": [[[["jump", 0, 0]]]]"#)),
        ("op without kind", doc(r#""threads": [[[[0, 0]]]]"#)),
        ("missing operand", doc(r#""threads": [[[["load", 0]]]]"#)),
        (
            "missing compute operand",
            doc(r#""threads": [[[["compute"]]]]"#),
        ),
        (
            "unknown bug knob",
            doc(&format!(r#""bugs": ["no_such_knob"], {OK_THREADS}"#)),
        ),
        (
            "non-string bug knob",
            doc(&format!(r#""bugs": [3], {OK_THREADS}"#)),
        ),
        (
            "bad tie-break seed",
            doc(&format!(r#""tie_break_seed": "12x", {OK_THREADS}"#)),
        ),
        (
            "bad program seed",
            doc(&format!(r#""program_seed": "-1", {OK_THREADS}"#)),
        ),
        (
            "unknown protocol",
            doc(&format!(
                r#""config": {{"protocol": "paxos"}}, {OK_THREADS}"#
            )),
        ),
        ("bad chaos seed", chaos(&full.replace(r#""1""#, r#""x""#))),
        ("numeric chaos seed", chaos(&full.replace(r#""1""#, "1"))),
        ("chaos without seed", chaos_without(SEED)),
        ("chaos without jitter", chaos_without(JITTER)),
        ("chaos without jitter_prob", chaos_without(JITTER_PROB)),
        ("chaos without kind_delays", chaos_without(KIND_DELAYS)),
        ("chaos without hotspots", chaos_without(HOTSPOTS)),
        (
            "kind delay without kind",
            with_rule("kind_delays", r#"{"extra": 1, "prob": 1, "from": 0}"#),
        ),
        (
            "kind delay without prob",
            with_rule("kind_delays", r#"{"kind": "Mark", "extra": 1, "from": 0}"#),
        ),
        (
            "kind delay without extra",
            with_rule("kind_delays", r#"{"kind": "Mark", "prob": 1, "from": 0}"#),
        ),
        (
            "kind delay without from",
            with_rule("kind_delays", r#"{"kind": "Mark", "extra": 1, "prob": 1}"#),
        ),
        (
            "hotspot without node",
            with_rule("hotspots", r#"{"extra": 1, "from": 0}"#),
        ),
        (
            "hotspot without extra",
            with_rule("hotspots", r#"{"node": 0, "from": 0}"#),
        ),
        (
            "drop rule without kind",
            with_rule("drops", r#"{"prob": 1, "from": 0}"#),
        ),
        (
            "drop rule without prob",
            with_rule("drops", r#"{"kind": "*", "from": 0}"#),
        ),
        (
            "dup rule without kind",
            with_rule("dups", r#"{"prob": 1, "delay": 1, "from": 0}"#),
        ),
        (
            "dup rule without prob",
            with_rule("dups", r#"{"kind": "*", "delay": 1, "from": 0}"#),
        ),
        (
            "dup rule without delay",
            with_rule("dups", r#"{"kind": "*", "prob": 1, "from": 0}"#),
        ),
        ("not JSON", "{".to_string()),
    ];
    for (what, text) in &scenarios {
        assert!(
            Scenario::from_json_str(text).is_err(),
            "{what} was accepted: {text}"
        );
    }

    let corpus =
        |cases: &str| format!(r#"{{"schema": "tcc-regression-corpus/v1", "cases": [{cases}]}}"#);
    assert!(parse_regression_corpus(&corpus(r#"{"name": "a", "threads": [[]]}"#)).is_ok());
    for (what, text) in [
        (
            "wrong corpus schema",
            r#"{"schema": "tcc-chaos-scenario/v1", "cases": []}"#.to_string(),
        ),
        (
            "missing cases",
            r#"{"schema": "tcc-regression-corpus/v1"}"#.to_string(),
        ),
        ("case without name", corpus(r#"{"threads": [[]]}"#)),
        ("case without threads", corpus(r#"{"name": "a"}"#)),
        (
            "case with empty threads",
            corpus(r#"{"name": "a", "threads": []}"#),
        ),
        (
            "case with a bad op",
            corpus(r#"{"name": "a", "threads": [[[["jump"]]]]}"#),
        ),
    ] {
        assert!(
            parse_regression_corpus(&text).is_err(),
            "{what} was accepted: {text}"
        );
    }
}
