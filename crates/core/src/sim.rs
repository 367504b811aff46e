//! The full-system simulator: the event loop and its event step,
//! barriers, snapshots, and result assembly.

use std::collections::VecDeque;
use tcc_types::hash::{fnv1a, Fnv1a, FxHashSet};

use tcc_engine::{EventQueue, ProgressWatchdog, TieBreak};
use tcc_network::{
    Network, SeededInjector, TrafficStats, Transport, TransportAction, TransportStats,
};
use tcc_snapshot::{Snapshot, SnapshotError};
use tcc_trace::{TraceReport, Tracer};
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::{snap_variants, Cycle, Frame, LineAddr, Message, NodeId};

use crate::breakdown::{Breakdown, TxCharacteristics};
use crate::checker::{Checker, SerializabilityError};
use crate::config::{ConfigError, SystemConfig};
use crate::driver::{Effects, ProcCounters};
use crate::profiling::ProfileReport;
use crate::program::ThreadProgram;
use crate::protocol::{HomeTiming, Machine};
use crate::stall::{RunError, RunProvenance, StallDiagnostic, StallReason};

/// Vendor service time per TID request, in cycles.
pub(crate) const VENDOR_SERVICE: u64 = 2;

/// A FIFO directory cache: tracks which lines' directory state is
/// resident. Misses cost an extra memory access (the sharers vector and
/// state bits live in a dedicated DRAM region when they spill).
#[derive(Debug)]
struct DirCache {
    cap: usize,
    resident: FxHashSet<LineAddr>,
    fifo: VecDeque<LineAddr>,
    /// Lines whose state has been evicted to memory at least once; only
    /// these pay a fetch on re-reference (a never-seen line's entry is
    /// synthesized empty, no memory read needed). Grows with the
    /// evicted-line population — acceptable for simulation bookkeeping.
    spilled: FxHashSet<LineAddr>,
}

impl DirCache {
    fn new(cap: usize) -> DirCache {
        DirCache {
            cap: cap.max(1),
            resident: FxHashSet::default(),
            fifo: VecDeque::new(),
            spilled: FxHashSet::default(),
        }
    }

    /// Touches `line`'s entry; returns true unless the state must be
    /// fetched back from memory.
    fn touch(&mut self, line: LineAddr) -> bool {
        if self.resident.contains(&line) {
            return true;
        }
        let refetch = self.spilled.contains(&line);
        if self.resident.len() >= self.cap {
            if let Some(victim) = self.fifo.pop_front() {
                self.resident.remove(&victim);
                self.spilled.insert(victim);
            }
        }
        self.resident.insert(line);
        self.fifo.push_back(line);
        !refetch
    }

    /// Serializes the cache's mutable state. `resident` is implied by
    /// the FIFO (every inserted line enters both, every eviction leaves
    /// both), so only the FIFO order is stored.
    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.fifo);
        w.put(&self.spilled);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let fifo: VecDeque<LineAddr> = r.get()?;
        if fifo.len() > self.cap {
            return Err(SnapError::invalid(
                "DirCache.fifo",
                format!("{} resident lines exceed capacity {}", fifo.len(), self.cap),
            ));
        }
        self.resident = fifo.iter().copied().collect();
        self.fifo = fifo;
        self.spilled = r.get()?;
        Ok(())
    }
}

/// The home-occupancy step, the one home-delivery path of every
/// backend: a message serializes on its controller behind
/// `busy`, and a capacity-limited directory cache that misses on the
/// line the message walks fetches its state from memory first
/// (`mem_latency` on top of the service time). Returns the
/// service-complete cycle, which is also the controller's new `busy`.
fn occupy_home(
    busy: &mut Cycle,
    cache: Option<&mut DirCache>,
    cfg: &SystemConfig,
    now: Cycle,
    timing: HomeTiming,
) -> Cycle {
    let mut service = timing.service;
    if let (Some(cache), Some(line)) = (cache, timing.touch) {
        if !cache.touch(line) {
            service += cfg.mem_latency;
        }
    }
    let done = now.max(*busy) + service;
    *busy = done;
    done
}

/// The transport step: one reliable-transport event (a frame off the
/// wire, or a retransmission/ack timer) against the transport state.
/// Returns the messages it delivers in order and the actions to
/// schedule; the loop schedules the actions first, then delivers the
/// messages, and reports an error as a stall.
fn transport_step(
    t: Option<&mut Transport>,
    now: Cycle,
    ev: Event,
) -> Result<(Vec<Message>, Vec<TransportAction>), StallReason> {
    let missing = |event| StallReason::MissingTransport { event };
    Ok(match ev {
        Event::Wire(frame) => t.ok_or(missing("wire"))?.on_frame(frame),
        Event::RetxTimer { src, dst, epoch } => {
            let t = t.ok_or(missing("retx timer"))?;
            let actions = t.on_retx_timer(now, src, dst, epoch).map_err(|ex| {
                StallReason::RetryExhausted {
                    src: ex.src,
                    dst: ex.dst,
                    seq: ex.seq,
                    kind: ex.kind,
                    retries: ex.retries,
                }
            })?;
            (Vec::new(), actions)
        }
        Event::AckTimer { src, dst, epoch } => {
            let t = t.ok_or(missing("ack timer"))?;
            (Vec::new(), t.on_ack_timer(src, dst, epoch))
        }
        other => unreachable!("{other:?} is not a transport event"),
    })
}

#[derive(Debug, Clone)]
enum Event {
    /// A message arrives at its destination node.
    Deliver(Message),
    /// A message is injected into the network now (used for sends that
    /// a component issued with a delay).
    Inject(Message),
    /// A processor continues executing. The second field is the wake
    /// sequence number at scheduling time; a mismatch with the
    /// processor's current sequence marks the event stale (superseded by
    /// a violation restart or another state change) and it is dropped.
    ProcStep(NodeId, u64),
    /// A transport frame arrives off the (possibly faulty) wire
    /// (reliable-transport runs only).
    Wire(Frame),
    /// A transport retransmission timer fires for channel `src → dst`.
    /// A stale `epoch` marks a cancelled timer (dropped).
    RetxTimer {
        src: NodeId,
        dst: NodeId,
        epoch: u64,
    },
    /// A transport standalone-ack timer fires for data channel
    /// `src → dst`.
    AckTimer {
        src: NodeId,
        dst: NodeId,
        epoch: u64,
    },
}

snap_variants!(Event {
    Deliver(m),
    Inject(m),
    ProcStep(n, seq),
    Wire(f),
    RetxTimer { src, dst, epoch },
    AckTimer { src, dst, epoch },
});

/// Results of one complete simulation.
#[derive(Debug)]
pub struct SimResult {
    /// Application makespan: the cycle at which the last processor
    /// finished.
    pub total_cycles: u64,
    /// Per-processor execution-time breakdown, idle-padded to the
    /// makespan so each row sums to `total_cycles`.
    pub breakdowns: Vec<Breakdown>,
    /// Per-processor protocol counters.
    pub proc_counters: Vec<ProcCounters>,
    /// Committed transactions across the machine.
    pub commits: u64,
    /// Violated transaction attempts.
    pub violations: u64,
    /// Committed instructions (the Figure 9 normalizer).
    pub instructions: u64,
    /// Remote-traffic accounting by category and node.
    pub traffic: TrafficStats,
    /// Per-committed-transaction characteristics (Table 3).
    pub tx_chars: Vec<TxCharacteristics>,
    /// Directory occupancy samples across all directories (cycles per
    /// commit; Table 3). Empty for the serialized and Tardis backends,
    /// whose homes record no per-commit busy span.
    pub dir_occupancy: Vec<u64>,
    /// Directory working-set size (entries with remote sharers) at end
    /// of run, per directory (Table 3).
    pub dir_working_set: Vec<usize>,
    /// Simulator events processed (diagnostics).
    pub events: u64,
    /// Serializability verdict, when the checker was enabled.
    pub serializability: Option<Result<(), SerializabilityError>>,
    /// TAPE profiling report, when `cfg.profile` was enabled.
    pub profile: Option<ProfileReport>,
    /// Protocol trace and metrics, when a tracer was attached
    /// ([`SimulatorBuilder::tracer`]).
    pub trace: Option<TraceReport>,
    /// Reliable-transport counters, when `cfg.transport` was enabled.
    pub transport: Option<TransportStats>,
}

impl SimResult {
    /// Machine-wide breakdown (sum over processors).
    #[must_use]
    pub fn aggregate(&self) -> Breakdown {
        self.breakdowns
            .iter()
            .fold(Breakdown::default(), |acc, b| acc.merged(b))
    }

    /// A human-readable one-screen summary of the run.
    #[must_use]
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let agg = self.aggregate();
        let t = agg.total().max(1) as f64;
        let _ = writeln!(s, "cycles           : {}", self.total_cycles);
        let _ = writeln!(
            s,
            "commits          : {} ({} violated attempts)",
            self.commits, self.violations
        );
        let _ = writeln!(s, "instructions     : {}", self.instructions);
        let _ = writeln!(
            s,
            "breakdown        : useful {:.1}% | miss {:.1}% | idle {:.1}% | commit {:.1}% | violation {:.1}%",
            100.0 * agg.useful as f64 / t,
            100.0 * agg.cache_miss as f64 / t,
            100.0 * agg.idle as f64 / t,
            100.0 * agg.commit as f64 / t,
            100.0 * agg.violation as f64 / t,
        );
        let _ = writeln!(
            s,
            "remote traffic   : {} bytes in {} messages",
            self.traffic.total_bytes(),
            self.traffic.total_messages()
        );
        let _ = writeln!(s, "simulator events : {}", self.events);
        s
    }

    /// Deterministic digest of the run's plain-data outputs: FNV-1a
    /// over the debug rendering of the cycle count, breakdowns,
    /// counters, commit/violation/instruction totals, traffic, and
    /// event count. Contains no wall-clock or host metadata, so equal
    /// fingerprints mean equal simulation results across machines and
    /// scheduler implementations — the identity the perf harness and
    /// CI golden checks rely on.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let s = format!(
            "{} {:?} {:?} {} {} {} {} {} {}",
            self.total_cycles,
            self.breakdowns,
            self.proc_counters,
            self.commits,
            self.violations,
            self.instructions,
            self.traffic.total_bytes(),
            self.traffic.total_messages(),
            self.events,
        );
        format!("{:016x}", fnv1a(s.as_bytes()))
    }

    /// Asserts that the run was serializable (checker must be enabled).
    ///
    /// # Panics
    ///
    /// Panics if the checker was disabled or found a violation.
    pub fn assert_serializable(&self) {
        match &self.serializability {
            Some(Ok(())) => {}
            Some(Err(e)) => panic!("serializability violated: {e}"),
            None => panic!("checker was not enabled"),
        }
    }
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_summary())
    }
}

/// Outcome of [`Simulator::try_run_until`].
///
/// `Done` carries the full `SimResult` inline: a `Step` lives exactly
/// long enough to be matched once per segment, so boxing the result
/// would buy nothing but an extra allocation on the terminal step.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Step {
    /// The application completed; results as from
    /// [`Simulator::try_run`].
    Done(SimResult),
    /// The next pending event lies beyond the pause cycle. The machine
    /// is returned intact, frozen between events — ready for
    /// [`Simulator::checkpoint`] or further
    /// [`Simulator::try_run_until`] calls.
    Paused(Box<Simulator>),
}

/// Why [`Simulator::resume`] refused to reconstruct a machine from a
/// snapshot.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot container was damaged, truncated, from an
    /// unsupported format version, or captured under a different
    /// [`SystemConfig`] (digest mismatch).
    Container(SnapshotError),
    /// The supplied config or programs failed the normal construction
    /// checks.
    Config(ConfigError),
    /// The snapshot body decoded inconsistently with the machine the
    /// config describes.
    State(SnapError),
    /// The supplied programs are not the programs the checkpoint was
    /// captured with (workload digests differ).
    ProgramMismatch {
        /// Digest recorded in the snapshot.
        snapshot: u64,
        /// Digest of the programs handed to `resume`.
        current: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Container(e) => write!(f, "snapshot container: {e}"),
            ResumeError::Config(e) => write!(f, "resume config: {e}"),
            ResumeError::State(e) => write!(f, "snapshot state: {e}"),
            ResumeError::ProgramMismatch { snapshot, current } => write!(
                f,
                "snapshot was captured with a different workload: \
                 program digest {snapshot:016x} in snapshot, {current:016x} supplied"
            ),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Container(e) => Some(e),
            ResumeError::Config(e) => Some(e),
            ResumeError::State(e) => Some(e),
            ResumeError::ProgramMismatch { .. } => None,
        }
    }
}

impl From<SnapshotError> for ResumeError {
    fn from(e: SnapshotError) -> ResumeError {
        ResumeError::Container(e)
    }
}

impl From<ConfigError> for ResumeError {
    fn from(e: ConfigError) -> ResumeError {
        ResumeError::Config(e)
    }
}

impl From<SnapError> for ResumeError {
    fn from(e: SnapError) -> ResumeError {
        ResumeError::State(e)
    }
}

/// The full-system simulator: one of the protocol backends, selected by
/// [`SystemConfig::protocol`], driven by a shared event loop.
///
/// # Example
///
/// ```
/// use tcc_core::{Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem};
/// use tcc_types::Addr;
///
/// let mut cfg = SystemConfig::with_procs(2);
/// cfg.check_serializability = true;
/// let tx = Transaction::new(vec![TxOp::Load(Addr(0)), TxOp::Compute(10)]);
/// let programs = vec![
///     ThreadProgram::new(vec![WorkItem::Tx(tx.clone())]),
///     ThreadProgram::new(vec![WorkItem::Tx(tx)]),
/// ];
/// let result = Simulator::builder(cfg)
///     .programs(programs)
///     .build()
///     .expect("valid config")
///     .run();
/// assert_eq!(result.commits, 2);
/// result.assert_serializable();
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    /// The active protocol backend: all per-processor and per-home
    /// protocol state, selected by `cfg.protocol`.
    machine: Machine,
    net: Network,
    /// Earliest cycle each directory controller is free (occupancy).
    dir_busy: Vec<Cycle>,
    /// Per-node directory caches, when capacity-limited.
    dir_caches: Vec<Option<DirCache>>,
    /// Reusable scratch buffer for home-message replies (always empty
    /// between events; never snapshotted).
    home_out: Vec<(u64, Message)>,
    barrier_waiting: Vec<NodeId>,
    checker: Option<Checker>,
    tx_chars: Vec<TxCharacteristics>,
    active: usize,
    tracer: Tracer,
    /// Reliable transport over the unreliable wire; `None` keeps the
    /// mesh's native delivery guarantees (the pre-transport fast path).
    transport: Option<Transport>,
    /// Commit-progress watchdog (observation-only).
    watchdog: Option<ProgressWatchdog>,
    /// Sticky fault raised by a component mid-delivery (e.g. a
    /// directory's bounded skip-vector refusal); the event loop turns
    /// it into a typed stall right after the current event.
    fault: Option<StallReason>,
    /// Whether the initial `start()` pass over the processors has run.
    /// A paused or resumed simulator must not restart its programs.
    started: bool,
    /// Workload-generator seed registered by the caller (provenance
    /// only; see [`Simulator::set_program_seed`]).
    program_seed: Option<u64>,
}

/// Fluent, validating constructor for [`Simulator`], whichever
/// protocol backend it runs. Obtained from [`Simulator::builder`].
///
/// Construction goes through [`SystemConfig::validate`] plus
/// program-shape checks, so every refusal is a typed [`ConfigError`]
/// naming the offending field instead of a panic buried in a
/// constructor:
///
/// ```
/// use tcc_core::{Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem};
/// use tcc_types::Addr;
///
/// let cfg = SystemConfig::with_procs(2);
/// let programs = (0..2u64)
///     .map(|p| {
///         let tx = Transaction::new(vec![TxOp::Store(Addr(p * 256))]);
///         ThreadProgram::new(vec![WorkItem::Tx(tx)])
///     })
///     .collect();
/// let result = Simulator::builder(cfg)
///     .programs(programs)
///     .build()?
///     .try_run()?;
/// assert_eq!(result.commits, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct SimulatorBuilder {
    cfg: SystemConfig,
    programs: Vec<ThreadProgram>,
    tracer: Tracer,
}

impl SimulatorBuilder {
    /// One [`ThreadProgram`] per processor (`cfg.n_procs` of them).
    pub fn programs(mut self, programs: Vec<ThreadProgram>) -> SimulatorBuilder {
        self.programs = programs;
        self
    }

    /// Attach a [`Tracer`] (observation-only: it never changes cycle
    /// counts or checker verdicts). Without one, tracing is disabled.
    /// Keep a clone to share one metrics registry across several runs,
    /// or to inspect the trace after `run`.
    pub fn tracer(mut self, tracer: Tracer) -> SimulatorBuilder {
        self.tracer = tracer;
        self
    }

    /// Validates the config and program shape.
    fn check(&self) -> Result<(), ConfigError> {
        self.cfg.validate()?;
        if self.programs.len() != self.cfg.n_procs {
            return Err(ConfigError::invalid(
                "programs",
                format!(
                    "{} programs for {} processors",
                    self.programs.len(),
                    self.cfg.n_procs
                ),
                "pass exactly one ThreadProgram per processor",
            ));
        }
        let counts: Vec<usize> = self.programs.iter().map(ThreadProgram::barriers).collect();
        if !counts.windows(2).all(|w| w[0] == w[1]) {
            return Err(ConfigError::invalid(
                "programs",
                format!("programs disagree on barrier counts: {counts:?}"),
                "give every thread the same number of barriers, \
                 or the barrier protocol deadlocks",
            ));
        }
        Ok(())
    }

    /// Builds the [`Simulator`] for the configured protocol backend.
    ///
    /// # Errors
    ///
    /// Any [`SystemConfig::validate`] refusal; a program count that
    /// differs from the processor count; programs that disagree on
    /// barrier counts.
    pub fn build(self) -> Result<Simulator, ConfigError> {
        self.check()?;
        let SimulatorBuilder {
            cfg,
            programs,
            tracer,
        } = self;
        Ok(Simulator::construct(cfg, programs, tracer))
    }
}

impl Simulator {
    /// Starts a [`SimulatorBuilder`] for the given machine
    /// configuration. This is the front door for constructing
    /// simulators; see the [`SimulatorBuilder`] docs for an example.
    pub fn builder(cfg: SystemConfig) -> SimulatorBuilder {
        SimulatorBuilder {
            cfg,
            programs: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The validated construction path shared by the builder.
    fn construct(cfg: SystemConfig, programs: Vec<ThreadProgram>, tracer: Tracer) -> Simulator {
        let machine = Machine::new(cfg.clone(), programs, &tracer);
        let mut net = Network::new(
            cfg.n_procs,
            cfg.cache.geometry.line_bytes(),
            cfg.network.clone(),
        );
        net.set_tracer(tracer.clone());
        // Wire faults without a transport are refused up front by
        // `SystemConfig::validate`.
        if let Some(chaos) = &cfg.chaos {
            net.set_injector(SeededInjector::new(chaos.clone()));
        }
        let transport = cfg.transport.map(|tc| {
            let mut t = Transport::new(tc, cfg.bugs);
            t.set_tracer(tracer.clone());
            t
        });
        let watchdog = cfg.watchdog.map(ProgressWatchdog::new);
        let tie_break = match cfg.tie_break_seed {
            Some(salt) => TieBreak::Seeded(salt),
            None => TieBreak::Fifo,
        };
        let mut queue = EventQueue::with_tie_break(tie_break);
        queue.set_tracer(tracer.clone());
        let checker = cfg.check_serializability.then(Checker::new);
        let active = cfg.n_procs;
        let dir_caches = (0..cfg.n_procs)
            .map(|_| cfg.dir_cache_entries.map(DirCache::new))
            .collect();
        Simulator {
            dir_busy: vec![Cycle::ZERO; cfg.n_procs],
            dir_caches,
            home_out: Vec::new(),
            cfg,
            queue,
            machine,
            net,
            barrier_waiting: Vec::new(),
            checker,
            tx_chars: Vec::new(),
            active,
            tracer,
            transport,
            watchdog,
            fault: None,
            started: false,
            program_seed: None,
        }
    }

    /// Registers the seed the workload generator derived the programs
    /// from. Pure provenance: it is embedded in stall diagnostics and
    /// snapshots so a failure report is standalone-replayable, and is
    /// never read by the protocol.
    pub fn set_program_seed(&mut self, seed: u64) {
        self.program_seed = Some(seed);
    }

    /// The event clock: the time of the last popped event (also the
    /// snapshot header's `at_cycle`).
    #[must_use]
    pub fn queue_now(&self) -> Cycle {
        self.queue.now()
    }

    /// The replay coordinates of this run (seeds + config digest).
    #[must_use]
    pub(crate) fn provenance(&self) -> RunProvenance {
        RunProvenance {
            program_seed: self.program_seed,
            chaos_seed: self.cfg.chaos.as_ref().map(|c| c.seed),
            tie_break_seed: self.cfg.tie_break_seed,
            config_digest: self.cfg.digest(),
        }
    }

    /// Runs the simulation to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics (with the full [`StallDiagnostic`]) on protocol deadlock
    /// (events drained while processors are still blocked), when
    /// `cfg.max_cycles` is exceeded, when the commit-progress watchdog
    /// trips, or when a transport retry budget is exhausted. Callers
    /// that want the stall as data use [`Simulator::try_run`].
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation to completion, surfacing stalls as typed
    /// [`RunError::Stalled`] values (with a populated
    /// [`StallDiagnostic`]) instead of panicking. Protocol-invariant
    /// violations (broken asserts) still panic — those are bugs, not
    /// outcomes.
    pub fn try_run(self) -> Result<SimResult, RunError> {
        match self.try_run_until(None)? {
            Step::Done(r) => Ok(r),
            Step::Paused(_) => unreachable!("no pause cycle was given"),
        }
    }

    /// Runs until the application completes or the event clock would
    /// pass `pause_at`, whichever comes first.
    ///
    /// The pause check happens *before* popping: no event scheduled
    /// after `pause_at` executes, so a [`Step::Paused`] simulator is
    /// exactly the uninterrupted machine frozen at that boundary — it
    /// can be [`checkpoint`](Simulator::checkpoint)ed, resumed in
    /// place with another `try_run_until`, or both; the final
    /// [`SimResult::fingerprint`] is identical either way. A run whose
    /// queue drains before the pause cycle completes normally.
    ///
    /// # Errors
    ///
    /// The same typed stalls as [`Simulator::try_run`].
    pub fn try_run_until(mut self, pause_at: Option<Cycle>) -> Result<Step, RunError> {
        if !self.started {
            self.started = true;
            for i in 0..self.cfg.n_procs {
                let n = NodeId(i as u16);
                let fx = self.machine.start(Cycle::ZERO, n);
                self.apply(Cycle::ZERO, n, fx);
            }
        }
        loop {
            if let Some(limit) = pause_at {
                if self.queue.peek_time().is_some_and(|t| t > limit) {
                    return Ok(Step::Paused(Box::new(self)));
                }
            }
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            if now.0 > self.cfg.max_cycles {
                let limit = self.cfg.max_cycles;
                return Err(self.stalled(now, StallReason::CycleLimit { limit }));
            }
            if self.watchdog.as_ref().is_some_and(|w| w.due(now)) {
                let sig = self.progress_signature();
                let wd = self.watchdog.as_mut().expect("checked above");
                if wd.observe(now, sig) {
                    let window = wd.window();
                    return Err(self.stalled(now, StallReason::NoProgress { window }));
                }
            }
            self.handle(now, ev);
            if let Some(reason) = self.fault.take() {
                return Err(self.stalled(now, reason));
            }
        }
        if self.active > 0 {
            let now = self.queue.now();
            return Err(self.stalled(now, StallReason::Deadlock));
        }
        Ok(Step::Done(self.finish()))
    }

    /// Assembles the stall diagnostic for a run that stopped making
    /// progress.
    fn stalled(&self, now: Cycle, reason: StallReason) -> RunError {
        let diag = StallDiagnostic {
            reason,
            protocol: self.cfg.protocol,
            provenance: self.provenance(),
            at: now.0,
            commits: self.machine.commits_total(),
            active_procs: self.active,
            proc_states: (0..self.cfg.n_procs)
                .map(|i| {
                    let n = NodeId(i as u16);
                    (n, self.machine.state_name(n).to_string())
                })
                .collect(),
            dir_nstids: self.machine.dir_nstids(),
            queued_events: self.queue.len(),
            in_flight_frames: self.transport.as_ref().map_or(0, Transport::in_flight),
            reorder_buffered: self
                .transport
                .as_ref()
                .map_or(0, Transport::reorder_buffered),
            in_flight_channels: self
                .transport
                .as_ref()
                .map_or_else(Vec::new, Transport::in_flight_channels),
            transport: self.transport.as_ref().map(Transport::stats),
        };
        self.tracer.count("sim.stalls", 1);
        RunError::Stalled(Box::new(diag))
    }

    /// Folds the progress-relevant state into one signature word for
    /// the watchdog: commits, per-directory NSTIDs, vended TIDs, active
    /// processors, barrier arrivals, and in-order transport deliveries.
    /// Churn counters (violations, retransmits, dup drops) are
    /// deliberately excluded — they advance even while the system spins
    /// in place.
    fn progress_signature(&self) -> u64 {
        self.machine.progress_signature([
            self.active as u64,
            self.barrier_waiting.len() as u64,
            self.transport.as_ref().map_or(0, |t| t.stats().delivered),
        ])
    }

    /// Captures the machine's complete mutable state as a
    /// `tcc-snapshot/v1` [`Snapshot`].
    ///
    /// Meant to be called between events — at a [`Step::Paused`]
    /// boundary or before the run starts. The construction inputs
    /// (config, programs) are *not* stored; the caller supplies them
    /// again to [`Simulator::resume`], gated by the config and program
    /// digests. Observation-only state (the tracer, its rings and
    /// metric counters) is deliberately excluded: it never feeds back
    /// into protocol decisions, so resumed-run *results* are still
    /// byte-identical (see DESIGN.md §14).
    ///
    /// # Panics
    ///
    /// Panics if a component fault is pending (the run is about to
    /// stall; there is no consistent state to save).
    #[must_use]
    pub fn checkpoint(&self) -> Snapshot {
        assert!(
            self.fault.is_none(),
            "checkpoint with a component fault pending"
        );
        let mut w = SnapWriter::new();
        self.save_body(&mut w);
        Snapshot {
            config_digest: Self::resume_digest(&self.cfg),
            at_cycle: self.queue.now().0,
            body: w.into_bytes(),
        }
    }

    /// Config digest used to gate resume, normalized with
    /// `parallel = None`: `parallel` does not change the run, so a
    /// snapshot resumes whatever either config says about it.
    fn resume_digest(cfg: &SystemConfig) -> u64 {
        if cfg.parallel.is_none() {
            return cfg.digest();
        }
        let mut norm = cfg.clone();
        norm.parallel = None;
        norm.digest()
    }

    /// Reconstructs a machine from a checkpoint: builds a fresh
    /// simulator from `cfg` and `programs` through the normal validated
    /// path, then overlays the snapshotted state. Running the result
    /// continues the captured run exactly — same events in the same
    /// order, same final fingerprint as the uninterrupted run, whether
    /// or not that run was traced. The resumed run is untraced.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Container`] if the snapshot's config digest does
    /// not match `cfg` (the digest is normalized with
    /// `parallel = None`); [`ResumeError::Config`] on any normal
    /// construction refusal; [`ResumeError::ProgramMismatch`] if
    /// `programs` differ from the capturing run's;
    /// [`ResumeError::State`] on any body decode inconsistency.
    pub fn resume(
        cfg: SystemConfig,
        programs: Vec<ThreadProgram>,
        snapshot: &Snapshot,
    ) -> Result<Simulator, ResumeError> {
        snapshot.check_config(Self::resume_digest(&cfg))?;
        let mut sim = Simulator::builder(cfg).programs(programs).build()?;
        sim.restore_body(&snapshot.body)?;
        Ok(sim)
    }

    /// Workload identity, for snapshot gating: FNV-1a of the `Debug`
    /// rendering of the machine's programs (a `Vec<ThreadProgram>`).
    /// [`Simulator::resume`] rebuilds the machine from caller-supplied
    /// programs, and this digest proves they are the programs the
    /// checkpoint came from. Computed on demand, streamed: only
    /// checkpoint and resume read it.
    fn program_digest(&self) -> u64 {
        use std::fmt::Write;
        let mut h = Fnv1a::default();
        write!(h, "{:?}", self.machine.programs()).expect("FNV sink never fails");
        h.finish()
    }

    /// Body layout (order is the format): program digest, protocol
    /// tag, started flag, event queue (clock, counters, entries with
    /// original ordering keys), the protocol backend's state, network,
    /// directory occupancy/caches, barrier, checker records, tx
    /// characteristics, active count, transport, watchdog, program
    /// seed.
    fn save_body(&self, w: &mut SnapWriter) {
        w.put(&self.program_digest());
        w.put(&self.cfg.protocol);
        w.put(&self.started);
        self.queue.save_state(w);
        self.machine.save_state(w);
        self.net.save_state(w);
        w.put(&self.dir_busy);
        for c in &self.dir_caches {
            w.save_present(c.as_ref(), DirCache::save_state);
        }
        w.put(&self.barrier_waiting);
        w.save_present(self.checker.as_ref(), Checker::save);
        w.put(&self.tx_chars);
        w.put(&self.active);
        w.save_present(self.transport.as_ref(), Transport::save_state);
        w.save_present(self.watchdog.as_ref(), ProgressWatchdog::save_state);
        w.put(&self.program_seed);
    }

    /// Overlays a snapshot body onto this freshly constructed machine.
    fn restore_body(&mut self, body: &[u8]) -> Result<(), ResumeError> {
        let mut r = SnapReader::new(body);
        let program_digest: u64 = r.get().map_err(ResumeError::State)?;
        let current = self.program_digest();
        if program_digest != current {
            return Err(ResumeError::ProgramMismatch {
                snapshot: program_digest,
                current,
            });
        }
        // Backend-tagged state: a snapshot only restores onto the
        // protocol machine that captured it.
        let protocol: tcc_types::ProtocolKind = r.get().map_err(ResumeError::State)?;
        if protocol != self.cfg.protocol {
            return Err(ResumeError::State(SnapError::invalid(
                "Simulator.protocol",
                format!(
                    "snapshot was captured under the {protocol} protocol, \
                     config selects {}",
                    self.cfg.protocol
                ),
            )));
        }
        self.restore_state(&mut r)?;
        if !r.is_done() {
            return Err(ResumeError::State(SnapError::invalid(
                "Simulator",
                format!("{} trailing bytes after state", r.remaining()),
            )));
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.started = r.get()?;
        let tie_break = match self.cfg.tie_break_seed {
            Some(salt) => TieBreak::Seeded(salt),
            None => TieBreak::Fifo,
        };
        self.queue = EventQueue::restore_state(tie_break, r)?;
        self.queue.set_tracer(self.tracer.clone());
        self.machine.restore_state(r)?;
        self.net.restore_state(r)?;
        let dir_busy: Vec<Cycle> = r.get()?;
        if dir_busy.len() != self.dir_busy.len() {
            return Err(SnapError::invalid(
                "Simulator.dir_busy",
                format!(
                    "snapshot has {} directories, config {}",
                    dir_busy.len(),
                    self.dir_busy.len()
                ),
            ));
        }
        self.dir_busy = dir_busy;
        for c in &mut self.dir_caches {
            r.restore_present("Simulator.dir_caches", c.as_mut(), DirCache::restore_state)?;
        }
        self.barrier_waiting = r.get()?;
        r.restore_present("Simulator.checker", self.checker.as_mut(), |c, r| {
            *c = r.get()?;
            Ok(())
        })?;
        self.tx_chars = r.get()?;
        self.active = r.get()?;
        let transport = self.transport.as_mut();
        r.restore_present("Simulator.transport", transport, Transport::restore_state)?;
        let watchdog = self.watchdog.as_mut();
        r.restore_present(
            "Simulator.watchdog",
            watchdog,
            ProgressWatchdog::restore_state,
        )?;
        self.program_seed = r.get()?;
        Ok(())
    }

    /// End-of-run invariants: with the event queue drained, the
    /// transport must have nothing in flight and the protocol backend's
    /// own quiescence invariants must hold (no data can be lost in
    /// flight once nothing is in flight).
    fn assert_quiescent(&self) {
        if let Some(t) = &self.transport {
            assert!(
                t.is_quiescent(),
                "run finished with transport state in flight: \
                 {} unacked frames, {} buffered out of order",
                t.in_flight(),
                t.reorder_buffered()
            );
        }
        self.machine.assert_quiescent();
    }

    /// Assembles the final [`SimResult`].
    fn finish(mut self) -> SimResult {
        self.assert_quiescent();
        let end = self.machine.done_at_max();
        self.machine.pad_idle_to(end);
        let breakdowns: Vec<Breakdown> = self.machine.breakdowns();
        // Accounting invariant: every cycle of every processor is
        // attributed to exactly one breakdown component, so each row
        // sums to the makespan.
        for (i, b) in breakdowns.iter().enumerate() {
            assert_eq!(
                b.total(),
                end.0,
                "P{i}: breakdown {b:?} does not sum to the makespan {end}"
            );
        }
        let proc_counters: Vec<ProcCounters> = self.machine.proc_counters();
        let commits = proc_counters.iter().map(|c| c.commits).sum();
        let violations = proc_counters.iter().map(|c| c.violations).sum();
        let instructions = proc_counters.iter().map(|c| c.instructions).sum();
        let dir_occupancy = self.machine.dir_occupancy();
        let dir_working_set = self.machine.dir_working_set();
        let serializability = self.checker.as_ref().map(Checker::verify);
        let profile = self.cfg.profile.then(|| {
            let mut report = ProfileReport::default();
            self.machine.take_profile(&mut report);
            report.violations.sort_by_key(|v| v.at);
            report.starvation.sort_by_key(|s| s.at);
            report
        });
        let trace = self.tracer.take_report();
        let transport = self.transport.as_ref().map(Transport::stats);
        SimResult {
            total_cycles: end.0,
            breakdowns,
            proc_counters,
            commits,
            violations,
            instructions,
            traffic: self.net.stats().clone(),
            tx_chars: self.tx_chars,
            dir_occupancy,
            dir_working_set,
            events: self.queue.events_processed(),
            serializability,
            profile,
            trace,
            transport,
        }
    }
}

/// The event step: what one popped event does to the machine.
impl Simulator {
    fn handle(&mut self, now: Cycle, ev: Event) {
        match ev {
            Event::ProcStep(n, seq) => {
                if self.machine.wake_seq(n) == seq {
                    let fx = self.machine.step(now, n);
                    self.apply(now, n, fx);
                }
            }
            Event::Inject(msg) => self.send(now, msg),
            Event::Deliver(msg) => self.deliver(now, msg),
            ev => match transport_step(self.transport.as_mut(), now, ev) {
                Ok((delivered, actions)) => {
                    self.apply_transport_actions(now, actions);
                    for m in delivered {
                        self.deliver(now, m);
                    }
                }
                Err(reason) => {
                    self.fault.get_or_insert(reason);
                }
            },
        }
    }

    /// The single choke point for putting a message in flight: with the
    /// reliable transport on, every remote message is sequenced into a
    /// frame and subjected to the chaos wire; without it (or for
    /// node-local messages) the mesh's native exactly-once path is used
    /// unchanged.
    fn send(&mut self, now: Cycle, msg: Message) {
        if msg.src != msg.dst {
            if let Some(t) = &mut self.transport {
                let actions = t.send(msg);
                self.apply_transport_actions(now, actions);
                return;
            }
        }
        let arrival = self.net.route(now, &msg);
        self.queue.schedule(arrival, Event::Deliver(msg));
    }

    /// Turns transport actions into queued events: frames go through
    /// the (possibly faulty) wire, one delivery per surviving copy;
    /// timers arm directly.
    fn apply_transport_actions(&mut self, now: Cycle, actions: Vec<TransportAction>) {
        for a in actions {
            match a {
                TransportAction::Wire(frame) => {
                    for at in self.net.send_frame(now, &frame) {
                        self.queue.schedule(at, Event::Wire(frame.clone()));
                    }
                }
                TransportAction::RetxTimer {
                    src,
                    dst,
                    delay,
                    epoch,
                } => self
                    .queue
                    .schedule(now + delay, Event::RetxTimer { src, dst, epoch }),
                TransportAction::AckTimer {
                    src,
                    dst,
                    delay,
                    epoch,
                } => self
                    .queue
                    .schedule(now + delay, Event::AckTimer { src, dst, epoch }),
            }
        }
    }

    /// Applies `node`'s processor [`Effects`]; the last barrier arrival
    /// releases everyone.
    fn apply(&mut self, now: Cycle, node: NodeId, fx: Effects) {
        for (offset, msg) in fx.immediate_sends {
            self.send(now + offset, msg);
        }
        for (delay, msg) in fx.sends {
            if delay == 0 {
                self.send(now, msg);
            } else {
                self.queue.schedule(now + delay, Event::Inject(msg));
            }
        }
        if let Some(d) = fx.wake_in {
            let seq = self.machine.wake_seq(node);
            self.queue.schedule(now + d, Event::ProcStep(node, seq));
        }
        if let Some((record, chars)) = fx.committed {
            if let (Some(c), Some(record)) = (&mut self.checker, record) {
                c.record(record);
            }
            self.tx_chars.push(chars);
        }
        if fx.reached_barrier {
            self.barrier_waiting.push(node);
            if self.barrier_waiting.len() == self.cfg.n_procs {
                for n in std::mem::take(&mut self.barrier_waiting) {
                    let fx = self.machine.release_barrier(now, n);
                    self.apply(now, n, fx);
                }
            }
        }
        if fx.finished {
            self.active -= 1;
        }
    }

    /// Routes a delivered message: a home (directory-controller) message
    /// goes through the occupancy step, then the home handler, whose
    /// replies leave at the service-complete cycle; a node message runs
    /// at arrival. A component fault raised by either handler stalls
    /// the run right after this event.
    fn deliver(&mut self, now: Cycle, msg: Message) {
        let Some(timing) = self.machine.home_timing(&self.cfg, &msg.payload) else {
            let dst = msg.dst;
            let fx = self.machine.on_node_message(now, &self.cfg, msg);
            if let Some(f) = self.machine.take_fault() {
                self.fault.get_or_insert(f);
            }
            self.apply(now, dst, fx);
            return;
        };
        let d = msg.dst.index();
        let cache = self.dir_caches[d].as_mut();
        let done = occupy_home(&mut self.dir_busy[d], cache, &self.cfg, now, timing);
        let mut out = std::mem::take(&mut self.home_out);
        self.machine.on_home_message(done, &self.cfg, msg, &mut out);
        if let Some(f) = self.machine.take_fault() {
            self.fault.get_or_insert(f);
        }
        for (extra, reply) in out.drain(..) {
            self.queue.schedule(done + extra, Event::Inject(reply));
        }
        self.home_out = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_timing(cfg: &SystemConfig, touch: Option<LineAddr>) -> HomeTiming {
        HomeTiming {
            service: cfg.dir_line_latency,
            touch,
        }
    }

    #[test]
    fn back_to_back_home_messages_serialize_on_the_busy_cycle() {
        let cfg = SystemConfig::with_procs(2);
        let svc = cfg.dir_line_latency;
        let t = line_timing(&cfg, None);
        let mut busy = Cycle::ZERO;
        let first = occupy_home(&mut busy, None, &cfg, Cycle(100), t);
        assert_eq!(first, Cycle(100 + svc));
        // Arrives while the controller is still busy: starts when it
        // frees up, not at arrival.
        let second = occupy_home(&mut busy, None, &cfg, Cycle(101), t);
        assert_eq!(second, first + svc);
        assert_eq!(busy, second);
        // Arrives after the controller went idle: starts at arrival.
        let later = Cycle(second.0 + 50);
        assert_eq!(occupy_home(&mut busy, None, &cfg, later, t), later + svc);
    }

    #[test]
    fn directory_cache_miss_adds_mem_latency_and_a_hit_does_not() {
        let cfg = SystemConfig::with_procs(2);
        let svc = cfg.dir_line_latency;
        let mut cache = DirCache::new(1);
        let mut busy = Cycle::ZERO;
        // Service time of one message walking `touch`, arriving at an
        // idle controller.
        let mut service = |cache: &mut DirCache, touch: Option<LineAddr>| {
            let now = Cycle(busy.0 + 1_000);
            occupy_home(&mut busy, Some(cache), &cfg, now, line_timing(&cfg, touch)).0 - now.0
        };
        let (a, b) = (LineAddr(1), LineAddr(2));
        // A never-seen line's entry is synthesized: no fetch.
        assert_eq!(service(&mut cache, Some(a)), svc);
        // Resident: a hit.
        assert_eq!(service(&mut cache, Some(a)), svc);
        // `b` evicts `a` to memory (capacity 1) ...
        assert_eq!(service(&mut cache, Some(b)), svc);
        // ... so re-walking `a` misses and pays the memory access.
        assert_eq!(service(&mut cache, Some(a)), svc + cfg.mem_latency);
        // A message that walks no line never consults the cache.
        assert_eq!(service(&mut cache, None), svc);
    }

    #[test]
    fn transport_events_without_a_transport_are_typed_stalls() {
        let ev = Event::AckTimer {
            src: NodeId(0),
            dst: NodeId(1),
            epoch: 0,
        };
        assert!(matches!(
            transport_step(None, Cycle(5), ev),
            Err(StallReason::MissingTransport { event: "ack timer" })
        ));
    }
}
