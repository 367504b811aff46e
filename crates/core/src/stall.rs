//! Typed stall reporting: structured diagnostics instead of opaque
//! panics.
//!
//! A wedged protocol run used to die in one of two places — the
//! `max_cycles` livelock guard or the drained-queue deadlock check —
//! both as panics whose message was all the post-mortem you got. With
//! the commit-progress watchdog and the reliable transport's retry
//! budget there are now four distinct ways a run can stop making
//! progress, and all of them funnel into one structure:
//! [`Simulator::try_run`](crate::Simulator::try_run) returns
//! [`RunError::Stalled`] carrying a [`StallDiagnostic`] — the
//! watchdog's last-progress snapshot: per-directory NSTIDs,
//! per-processor protocol phase, queued/in-flight message counts, and
//! the transport counters. The chaos explorer consumes this as a
//! first-class oracle outcome; `Simulator::run` keeps its panicking
//! contract by formatting the same diagnostic.

use tcc_network::TransportStats;
use tcc_trace::Json;
use tcc_types::{NodeId, ProtocolKind, Tid};

/// Why the simulator declared the run stuck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallReason {
    /// The clock passed `cfg.max_cycles` (the legacy livelock guard).
    CycleLimit { limit: u64 },
    /// The commit-progress watchdog saw no change in the global
    /// progress signature for `window` consecutive cycles.
    NoProgress { window: u64 },
    /// A transport channel exhausted its retransmission budget:
    /// `retries` consecutive timeouts without an ack advancing the
    /// window (the oldest unacked frame is identified).
    RetryExhausted {
        src: NodeId,
        dst: NodeId,
        seq: u64,
        kind: &'static str,
        retries: u32,
    },
    /// The event queue drained while processors were still blocked (the
    /// legacy protocol-deadlock check).
    Deadlock,
    /// A transport-only event (`Wire`/`RetxTimer`/`AckTimer`) was
    /// scheduled in a run with no transport configured. Formerly a
    /// hot-path `expect` panic.
    MissingTransport { event: &'static str },
    /// A directory refused a skip/abort whose TID was further than
    /// [`tcc_directory::SkipVector::MAX_WINDOW`] ahead of its
    /// Now-Serving TID — the bounded-growth refusal that replaces
    /// unbounded skip-vector allocation.
    SkipRefused {
        dir: NodeId,
        tid: Tid,
        now_serving: Tid,
        window: u64,
    },
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallReason::CycleLimit { limit } => {
                write!(f, "simulation exceeded {limit} cycles: protocol livelock?")
            }
            StallReason::NoProgress { window } => {
                write!(f, "watchdog: no commit progress for {window} cycles")
            }
            StallReason::RetryExhausted {
                src,
                dst,
                seq,
                kind,
                retries,
            } => write!(
                f,
                "transport retry budget exhausted on {src}->{dst}: \
                 {kind} seq {seq} unacked after {retries} retransmission timeouts"
            ),
            StallReason::Deadlock => write!(f, "protocol deadlock: event queue drained"),
            StallReason::MissingTransport { event } => {
                write!(f, "{event} event scheduled without a transport configured")
            }
            StallReason::SkipRefused {
                dir,
                tid,
                now_serving,
                window,
            } => write!(
                f,
                "directory {dir} refused skip for {tid}: {} TIDs ahead of \
                 now-serving {now_serving} (window bound {window})",
                tid.0.saturating_sub(now_serving.0)
            ),
        }
    }
}

impl StallReason {
    /// Stable machine-readable tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            StallReason::CycleLimit { .. } => "cycle_limit",
            StallReason::NoProgress { .. } => "no_progress",
            StallReason::RetryExhausted { .. } => "retry_exhausted",
            StallReason::Deadlock => "deadlock",
            StallReason::MissingTransport { .. } => "missing_transport",
            StallReason::SkipRefused { .. } => "skip_refused",
        }
    }
}

/// Everything needed to re-create the stalled run from scratch,
/// embedded in every [`StallDiagnostic`] so a stall report is
/// standalone-replayable: the seeds pin the workload generator, the
/// chaos injector, and the same-cycle tie-break, and the config digest
/// proves the reconstructed machine matches the one that stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunProvenance {
    /// Seed the workload generator derived the programs from, when the
    /// caller registered one (see `Simulator::set_program_seed`).
    pub program_seed: Option<u64>,
    /// Seed of the chaos fault injector, when chaos was configured.
    pub chaos_seed: Option<u64>,
    /// Same-cycle tie-break salt, when seeded ordering was configured.
    pub tie_break_seed: Option<u64>,
    /// [`SystemConfig::digest`](crate::SystemConfig::digest) of the
    /// stalled run's configuration.
    pub config_digest: u64,
}

impl RunProvenance {
    fn seed_json(seed: Option<u64>) -> Json {
        seed.map_or(Json::Null, Json::from)
    }
}

/// The last-progress snapshot assembled when a run stalls.
#[derive(Debug, Clone, PartialEq)]
pub struct StallDiagnostic {
    /// What tripped.
    pub reason: StallReason,
    /// The protocol backend that was running when the stall tripped;
    /// named in the rendered diagnostic so a report from a protocol
    /// sweep identifies its cell without external context.
    pub protocol: ProtocolKind,
    /// Replay coordinates of the stalled run.
    pub provenance: RunProvenance,
    /// Cycle at which the fault occurred.
    pub at: u64,
    /// Transactions committed machine-wide before the stall.
    pub commits: u64,
    /// Processors that had not finished their programs.
    pub active_procs: usize,
    /// Per-processor protocol phase, e.g. `(P3, "wait-probes")`.
    pub proc_states: Vec<(NodeId, String)>,
    /// Per-directory Now-Serving TID.
    pub dir_nstids: Vec<Tid>,
    /// Events still queued in the simulator when the stall tripped.
    pub queued_events: usize,
    /// Transport data frames sent but not yet acked (0 without the
    /// transport).
    pub in_flight_frames: u64,
    /// Frames parked in receiver reorder buffers.
    pub reorder_buffered: u64,
    /// Per-channel in-flight detail: `(src, dst, unacked, oldest_seq,
    /// retries)` for every channel with outstanding frames.
    pub in_flight_channels: Vec<(NodeId, NodeId, u64, u64, u32)>,
    /// Transport counters at stall time, when the transport was on.
    pub transport: Option<TransportStats>,
}

impl StallDiagnostic {
    /// Machine-readable form, embedded in run reports and chaos
    /// artifacts (additive `tcc-run-report/v1` section).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("reason", self.reason.kind().into()),
            ("protocol", self.protocol.as_str().into()),
            ("detail", self.reason.to_string().as_str().into()),
            ("at", self.at.into()),
            ("commits", self.commits.into()),
            ("active_procs", (self.active_procs as u64).into()),
            (
                "proc_states",
                Json::Arr(
                    self.proc_states
                        .iter()
                        .map(|(n, s)| format!("{n}={s}").as_str().into())
                        .collect(),
                ),
            ),
            (
                "dir_nstids",
                Json::Arr(self.dir_nstids.iter().map(|t| t.0.into()).collect()),
            ),
            ("queued_events", (self.queued_events as u64).into()),
            ("in_flight_frames", self.in_flight_frames.into()),
            ("reorder_buffered", self.reorder_buffered.into()),
            (
                "provenance",
                Json::obj(vec![
                    (
                        "program_seed",
                        RunProvenance::seed_json(self.provenance.program_seed),
                    ),
                    (
                        "chaos_seed",
                        RunProvenance::seed_json(self.provenance.chaos_seed),
                    ),
                    (
                        "tie_break_seed",
                        RunProvenance::seed_json(self.provenance.tie_break_seed),
                    ),
                    (
                        "config_digest",
                        format!("{:016x}", self.provenance.config_digest)
                            .as_str()
                            .into(),
                    ),
                ]),
            ),
        ];
        if let Some(t) = &self.transport {
            fields.push((
                "transport",
                Json::obj(vec![
                    ("retransmits", t.retransmits.into()),
                    ("dup_drops", t.dup_drops.into()),
                    ("timeout_fires", t.timeout_fires.into()),
                    ("acks", t.acks.into()),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

impl std::fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{} protocol] {} (at cycle {})",
            self.protocol, self.reason, self.at
        )?;
        writeln!(
            f,
            "  commits: {}, active processors: {}, queued events: {}",
            self.commits, self.active_procs, self.queued_events
        )?;
        let states: Vec<String> = self
            .proc_states
            .iter()
            .map(|(n, s)| format!("{n}={s}"))
            .collect();
        writeln!(f, "  proc states: [{}]", states.join(", "))?;
        let nst: Vec<String> = self.dir_nstids.iter().map(|t| format!("{t}")).collect();
        writeln!(f, "  directory NSTIDs: [{}]", nst.join(", "))?;
        let seed = |s: Option<u64>| s.map_or_else(|| "-".to_string(), |v| v.to_string());
        writeln!(
            f,
            "  replay: program_seed={} chaos_seed={} tie_break_seed={} config_digest={:016x}",
            seed(self.provenance.program_seed),
            seed(self.provenance.chaos_seed),
            seed(self.provenance.tie_break_seed),
            self.provenance.config_digest
        )?;
        if let Some(t) = &self.transport {
            writeln!(
                f,
                "  transport: {} in flight ({} buffered out-of-order), \
                 {} retransmits, {} dup drops, {} timeout fires, {} acks",
                self.in_flight_frames,
                self.reorder_buffered,
                t.retransmits,
                t.dup_drops,
                t.timeout_fires,
                t.acks
            )?;
            for (src, dst, unacked, oldest, retries) in &self.in_flight_channels {
                writeln!(
                    f,
                    "    channel {src}->{dst}: {unacked} unacked \
                     (oldest seq {oldest}, {retries} retries)"
                )?;
            }
        }
        Ok(())
    }
}

/// A simulation run that could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The run stopped making progress; the diagnostic says how and
    /// where.
    Stalled(Box<StallDiagnostic>),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for RunError {}
