//! Self-contained, replayable test cases.
//!
//! A [`Scenario`] bundles everything one adversarial run needs: the
//! transactional programs, the machine-configuration tweaks, the chaos
//! schedule ([`ChaosConfig`]), the tie-break salt, and any mutation
//! knobs — and it round-trips through JSON so a failing case becomes a
//! checked-in artifact the corpus suite replays forever.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tcc_core::{
    ConfigError, RunError, Simulator, Snapshot, Step, SystemConfig, ThreadProgram, Transaction,
    TransportConfig, TxOp, WatchdogConfig, WorkItem,
};
use tcc_network::ChaosConfig;
use tcc_trace::json::{DecimalString, JsonCodec, NonEmpty};
use tcc_trace::{json_fields, Json};
use tcc_types::{Addr, Cycle, ProtocolBugs, ProtocolKind};

/// One portable program operation. Addresses are `(line, word)` pairs
/// over 32-byte lines of 4-byte words, matching the random stress tests
/// in `tcc-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum POp {
    Load(u64, u64),
    Store(u64, u64),
    Compute(u32),
}

impl POp {
    fn to_tx_op(self) -> TxOp {
        match self {
            POp::Load(l, w) => TxOp::Load(Addr(l * 32 + w * 4)),
            POp::Store(l, w) => TxOp::Store(Addr(l * 32 + w * 4)),
            POp::Compute(c) => TxOp::Compute(c),
        }
    }
}

// Hand-written: an op is a tagged array (`["load", line, word]`), not a
// record.
impl JsonCodec for POp {
    fn to_json(&self) -> Json {
        match *self {
            POp::Load(l, w) => Json::Arr(vec!["load".into(), l.into(), w.into()]),
            POp::Store(l, w) => Json::Arr(vec!["store".into(), l.into(), w.into()]),
            POp::Compute(c) => Json::Arr(vec!["compute".into(), c.into()]),
        }
    }

    fn from_json(json: &Json) -> Result<POp, String> {
        let arr = json.as_arr().ok_or("op must be an array")?;
        let operand =
            |i: usize| u64::from_json(arr.get(i).ok_or_else(|| format!("no operand {i}"))?);
        match arr.first().and_then(Json::as_str) {
            Some("load") => Ok(POp::Load(operand(1)?, operand(2)?)),
            Some("store") => Ok(POp::Store(operand(1)?, operand(2)?)),
            Some("compute") => Ok(POp::Compute(
                operand(1)?
                    .try_into()
                    .map_err(|_| "compute cycles overflow u32")?,
            )),
            other => Err(format!("unknown op kind {other:?}")),
        }
    }
}

/// Machine-configuration knobs a scenario can vary, as deltas against
/// the Table 2 defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigTweaks {
    pub link_latency: u64,
    pub torus: bool,
    pub owner_flush_keeps_line: bool,
    pub starvation_threshold: u32,
    pub exec_chunk: u64,
    pub line_granularity: bool,
    /// Shrink the caches to a few lines so transactions overflow and
    /// evictions (write-backs) are frequent.
    pub small_caches: bool,
    pub dir_cache_entries: Option<usize>,
    /// Livelock guard: chaos scenarios are tiny, so a clock that runs
    /// past this indicates the (possibly mutated) protocol stopped
    /// making progress; the simulator panics, which the oracle records
    /// as a failure.
    pub max_cycles: u64,
    /// Run with the reliable transport (and the commit-progress
    /// watchdog) enabled. Implied whenever the chaos schedule contains
    /// drop/dup/reorder wire faults, which are meaningless without it.
    pub transport: bool,
    /// Coherence/commit backend. Defaults to the paper's scalable TCC.
    pub protocol: ProtocolKind,
}

// Each tweak is written only when it differs from its default, so
// artifacts stay small and every older one means what it always meant.
json_fields!(
    #[omit_defaults]
    ConfigTweaks {
        link_latency,
        torus,
        owner_flush_keeps_line,
        starvation_threshold,
        exec_chunk,
        line_granularity,
        small_caches,
        dir_cache_entries,
        max_cycles,
        transport,
        protocol,
    }
);

impl Default for ConfigTweaks {
    fn default() -> Self {
        ConfigTweaks {
            link_latency: 4,
            torus: false,
            owner_flush_keeps_line: true,
            starvation_threshold: 8,
            exec_chunk: 200,
            line_granularity: false,
            small_caches: false,
            dir_cache_entries: None,
            max_cycles: 20_000_000,
            transport: false,
            protocol: ProtocolKind::Tcc,
        }
    }
}

/// How one adversarial run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The serializability checker rejected the committed history.
    NotSerializable(String),
    /// The run finished but committed fewer transactions than the
    /// programs contain (lost transactions).
    CommitShortfall { expected: u64, got: u64 },
    /// The simulator panicked: a protocol assert or a quiescence
    /// check (genuine bugs, not outcomes).
    Panic(String),
    /// The run stopped making progress and returned a typed
    /// [`tcc_core::RunError::Stalled`]: livelock guard, watchdog,
    /// transport retry-budget exhaustion, or deadlock. `reason` is the
    /// stable [`tcc_core::StallReason::kind`] tag; `detail` is the
    /// rendered diagnostic.
    Stalled { reason: String, detail: String },
    /// `SystemConfig::validate` refused the scenario's configuration
    /// before any cycle ran — e.g. a TCC-only mutation knob under a
    /// non-TCC backend. A grid that mixes protocol and knob axes
    /// records these as typed outcomes instead of panicking.
    Rejected(String),
}

impl Failure {
    /// Stable, machine-readable failure class.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::NotSerializable(_) => "not_serializable",
            Failure::CommitShortfall { .. } => "commit_shortfall",
            Failure::Panic(_) => "panic",
            Failure::Stalled { .. } => "stalled",
            Failure::Rejected(_) => "rejected",
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::NotSerializable(e) => write!(f, "not serializable: {e}"),
            Failure::CommitShortfall { expected, got } => {
                write!(f, "commit shortfall: {got}/{expected} committed")
            }
            Failure::Panic(msg) => write!(f, "panic: {msg}"),
            Failure::Stalled { reason, detail } => write!(f, "stalled ({reason}): {detail}"),
            Failure::Rejected(e) => write!(f, "config rejected: {e}"),
        }
    }
}

/// Result of running one scenario through the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Transactions committed (0 if the run panicked).
    pub commits: u64,
    /// `None` means the run passed.
    pub failure: Option<Failure>,
    /// Cycle at which the failure was observed (stall cycle for stalls,
    /// end-of-run cycle for oracle failures). `None` for passes and for
    /// panics, whose cycle is unknowable from outside.
    pub fail_cycle: Option<u64>,
}

/// A complete, replayable adversarial test case.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub tweaks: ConfigTweaks,
    /// Mutation knobs (all-default outside the mutation self-test).
    pub bugs: ProtocolBugs,
    /// Adversarial network schedule; `None` is the benign mesh.
    pub chaos: Option<ChaosConfig>,
    /// Same-cycle event-ordering salt; `None` is FIFO.
    pub tie_break_seed: Option<u64>,
    /// Seed the program generator used to produce `threads`, carried as
    /// provenance: it lands in stall diagnostics so a failure names the
    /// exact grid coordinate that produced it.
    pub program_seed: Option<u64>,
    /// Per-thread transaction programs: `threads[t][tx]` is an op list.
    pub threads: Vec<Vec<Vec<POp>>>,
}

impl Scenario {
    /// A scenario over `threads` with everything else benign/default.
    #[must_use]
    pub fn new(name: impl Into<String>, threads: Vec<Vec<Vec<POp>>>) -> Scenario {
        Scenario {
            name: name.into(),
            tweaks: ConfigTweaks::default(),
            bugs: ProtocolBugs::default(),
            chaos: None,
            tie_break_seed: None,
            program_seed: None,
            threads,
        }
    }

    /// Total transactions across all threads.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.threads.iter().map(|t| t.len() as u64).sum()
    }

    /// Total operations across all transactions.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.iter())
            .map(|tx| tx.len() as u64)
            .sum()
    }

    /// The full `SystemConfig` this scenario runs under (checker on).
    #[must_use]
    pub fn to_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::with_procs(self.threads.len());
        cfg.protocol = self.tweaks.protocol;
        cfg.check_serializability = true;
        cfg.network.link_latency = self.tweaks.link_latency;
        cfg.network.torus = self.tweaks.torus;
        cfg.owner_flush_keeps_line = self.tweaks.owner_flush_keeps_line;
        cfg.starvation_threshold = self.tweaks.starvation_threshold;
        cfg.exec_chunk = self.tweaks.exec_chunk;
        cfg.dir_cache_entries = self.tweaks.dir_cache_entries;
        cfg.max_cycles = self.tweaks.max_cycles;
        if self.tweaks.line_granularity {
            cfg.cache.granularity = tcc_cache::Granularity::Line;
        }
        if self.tweaks.small_caches {
            cfg.cache.l1_bytes = 64;
            cfg.cache.l1_ways = 1;
            cfg.cache.l2_bytes = 256;
            cfg.cache.l2_ways = 2;
        }
        cfg.bugs = self.bugs;
        cfg.chaos = self.chaos.clone();
        cfg.tie_break_seed = self.tie_break_seed;
        let wire_faults = self
            .chaos
            .as_ref()
            .is_some_and(tcc_network::ChaosConfig::has_wire_faults);
        if self.tweaks.transport || wire_faults {
            cfg.transport = Some(TransportConfig::default());
            cfg.watchdog = Some(WatchdogConfig::default());
        }
        cfg
    }

    /// The materialized per-thread programs this scenario executes.
    /// Exposed so a harness can re-run the same workload, e.g. resumed
    /// from a snapshot.
    #[must_use]
    pub fn programs(&self) -> Vec<ThreadProgram> {
        self.threads
            .iter()
            .map(|txs| {
                let items = txs
                    .iter()
                    .map(|ops| {
                        WorkItem::Tx(Transaction::new(
                            ops.iter().map(|op| op.to_tx_op()).collect(),
                        ))
                    })
                    .collect();
                ThreadProgram::new(items)
            })
            .collect()
    }

    /// Runs the scenario through the full simulator with the
    /// serializability checker as oracle. Stalls come back as typed
    /// [`RunError::Stalled`] values; panics inside the simulator
    /// (protocol asserts) are caught and classified as failures, not
    /// propagated.
    #[must_use]
    pub fn run(&self) -> RunOutcome {
        let expected = self.transactions();
        let sim = match self.build() {
            Ok(sim) => sim,
            Err(e) => {
                return RunOutcome {
                    commits: 0,
                    failure: Some(Failure::Rejected(e.to_string())),
                    fail_cycle: None,
                }
            }
        };
        let result = catch_unwind(AssertUnwindSafe(move || match sim.try_run() {
            Ok(r) => {
                let failure = match &r.serializability {
                    Some(Err(e)) => Some(Failure::NotSerializable(e.to_string())),
                    _ if r.commits != expected => Some(Failure::CommitShortfall {
                        expected,
                        got: r.commits,
                    }),
                    _ => None,
                };
                RunOutcome {
                    commits: r.commits,
                    fail_cycle: failure.as_ref().map(|_| r.total_cycles),
                    failure,
                }
            }
            Err(RunError::Stalled(d)) => RunOutcome {
                commits: d.commits,
                fail_cycle: Some(d.at),
                failure: Some(Failure::Stalled {
                    reason: d.reason.kind().to_string(),
                    detail: d.to_string(),
                }),
            },
        }));
        match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                RunOutcome {
                    commits: 0,
                    failure: Some(Failure::Panic(msg)),
                    fail_cycle: None,
                }
            }
        }
    }

    /// A simulator for this scenario with the provenance seeds stamped
    /// on, ready to run. `Err` when `SystemConfig::validate` refuses
    /// the combination (see [`Failure::Rejected`]).
    fn build(&self) -> Result<Simulator, ConfigError> {
        let mut sim = Simulator::builder(self.to_config())
            .programs(self.programs())
            .build()?;
        if let Some(ps) = self.program_seed {
            sim.set_program_seed(ps);
        }
        Ok(sim)
    }

    /// Like [`Scenario::run`], but when the run fails, deterministically
    /// re-runs to `lookback` cycles before the failure and ships that
    /// checkpoint: a [`Snapshot`] that replays straight into the failure
    /// under [`Simulator::resume`].
    ///
    /// Panicking runs carry no snapshot (the failing cycle is
    /// unknowable), and neither do failures observed before `lookback`
    /// cycles have elapsed if the machine finishes before the rewind
    /// point. The re-run relies on the simulator's determinism — the
    /// same scenario replayed to the same cycle *is* the failing
    /// machine's past.
    #[must_use]
    pub fn run_with_snapshot(&self, lookback: u64) -> (RunOutcome, Option<Snapshot>) {
        let outcome = self.run();
        let snap = outcome
            .fail_cycle
            .and_then(|at| self.checkpoint_before(at, lookback));
        (outcome, snap)
    }

    /// Deterministically re-runs this scenario to `lookback` cycles
    /// before `fail_cycle` and returns that machine's checkpoint. The
    /// simulator's determinism makes the partial re-run *the* failing
    /// machine's past, so resuming the returned snapshot replays the
    /// final approach into the failure.
    ///
    /// `None` if the re-run finishes or wedges before the rewind point
    /// (oracle failures observed at the very end of a short run), or if
    /// it panics first (protocol asserts under mutation knobs).
    #[must_use]
    pub fn checkpoint_before(&self, fail_cycle: u64, lookback: u64) -> Option<Snapshot> {
        let pause = fail_cycle.saturating_sub(lookback);
        let sim = self.build().ok()?;
        catch_unwind(AssertUnwindSafe(move || {
            match sim.try_run_until(Some(Cycle(pause))) {
                Ok(Step::Paused(paused)) => Some(paused.checkpoint()),
                _ => None,
            }
        }))
        .ok()
        .flatten()
    }

    /// Pretty JSON artifact text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_pretty();
        s.push('\n');
        s
    }

    pub fn from_json_str(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&Json::parse(text)?)
    }
}

json_fields!(#[schema = "tcc-chaos-scenario/v1"] Scenario {
    name,
    tweaks as "config" = ConfigTweaks::default(),
    bugs = ProtocolBugs::default(),
    tie_break_seed with DecimalString = None,
    program_seed with DecimalString = None,
    chaos = None,
    threads with NonEmpty,
});

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_network::{DropRule, DupRule, HotSpot, KindDelay};
    use tcc_types::NodeId;

    fn sample() -> Scenario {
        let mut s = Scenario::new(
            "sample",
            vec![
                vec![
                    vec![POp::Store(0, 0), POp::Load(1, 2)],
                    vec![POp::Compute(9)],
                ],
                vec![vec![POp::Load(0, 0), POp::Store(1, 2)]],
            ],
        );
        s.tweaks.protocol = ProtocolKind::Tardis;
        s.tweaks.link_latency = 9;
        s.tweaks.torus = true;
        s.tweaks.small_caches = true;
        s.bugs.skip_ack_wait = true;
        s.tie_break_seed = Some(12345);
        s.program_seed = Some(67890);
        s.chaos = Some(ChaosConfig {
            seed: 42,
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
            preserve_channel_fifo: true,
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
        s
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = sample();
        let text = s.to_json_string();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn benign_scenario_passes_the_oracle() {
        let s = Scenario::new(
            "benign",
            vec![
                vec![vec![POp::Store(0, 0)], vec![POp::Load(1, 0)]],
                vec![vec![POp::Load(0, 0), POp::Store(1, 0)]],
            ],
        );
        let out = s.run();
        assert_eq!(out.failure, None);
        assert_eq!(out.commits, 3);
    }

    #[test]
    fn counts_transactions_and_ops() {
        let s = sample();
        assert_eq!(s.transactions(), 3);
        assert_eq!(s.ops(), 5);
    }

    #[test]
    fn v1_artifacts_without_a_protocol_field_replay_as_tcc() {
        let mut s = sample();
        s.tweaks.protocol = ProtocolKind::Tcc;
        let text = s.to_json_string();
        assert!(!text.contains("protocol"), "default must not be written");
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back.tweaks.protocol, ProtocolKind::Tcc);
    }

    #[test]
    fn non_tcc_scenarios_pass_the_oracle() {
        for protocol in [ProtocolKind::SerializedCommit, ProtocolKind::Tardis] {
            let mut s = Scenario::new(
                format!("benign-{protocol}"),
                vec![
                    vec![vec![POp::Store(0, 0)], vec![POp::Load(1, 0)]],
                    vec![vec![POp::Load(0, 0), POp::Store(1, 0)]],
                ],
            );
            s.tweaks.protocol = protocol;
            let out = s.run();
            assert_eq!(out.failure, None, "{protocol}");
            assert_eq!(out.commits, 3, "{protocol}");
        }
    }

    /// A TCC-only mutation knob under a non-TCC backend is refused by
    /// `SystemConfig::validate`; the oracle reports that as a typed
    /// `rejected` outcome rather than panicking the sweep.
    #[test]
    fn refused_combinations_come_back_as_typed_rejections() {
        let mut s = Scenario::new("bad", vec![vec![vec![POp::Store(0, 0)]]]);
        s.tweaks.protocol = ProtocolKind::Tardis;
        s.bugs.skip_ack_wait = true;
        let out = s.run();
        let failure = out.failure.expect("combination must be refused");
        assert_eq!(failure.kind(), "rejected");
        assert!(failure.to_string().contains("tardis"), "{failure}");
        assert_eq!(out.commits, 0);
    }
}
