//! The program driver shared by every backend.
//!
//! The TCC, serialized-commit and Tardis backends run programs the same
//! way: walk the [`ThreadProgram`], execute bodies in `exec_chunk`
//! slices over a private [`HierCache`], stall on misses, park at
//! barriers, and book every cycle into a [`Breakdown`]. [`Proc`] owns
//! that loop and [`Driver`] holds a machine's processors; a backend
//! supplies the hooks of [`Backend`] and starts its commit when
//! [`Driver::run_chunk`] reports a completed body. The `Machine` enum
//! reaches each backend's `drv` field directly for everything that only
//! drives or reads processors. The hook defaults are the write-through
//! behaviour of the serialized and Tardis backends; the TCC
//! `Processor` overrides them with its victim buffer, early TIDs and
//! dirty-data write-backs (DESIGN.md §15.4).

use tcc_cache::{Eviction, HierCache, LoadOutcome, StoreOutcome};
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::{
    Cycle, DirId, LineAddr, LineGeometry, LineValues, Message, NodeId, Payload, Tid, WordMask,
};

use crate::breakdown::{Breakdown, TxCharacteristics};
use crate::checker::TxRecord;
use crate::config::SystemConfig;
use crate::program::{ThreadProgram, TxOp, WorkItem};

/// Everything a processor transition asks the simulation layer to do.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to inject, each after the given delay (cycles from now).
    pub sends: Vec<(u64, Message)>,
    /// Messages put on the wire *now*, timestamped `now + offset`.
    ///
    /// Unlike [`Effects::sends`], these claim network links at apply
    /// time, in emission order — the mesh sees the reservation before
    /// any event scheduled between `now` and `now + offset` does. The
    /// serialized baseline's mid-chunk sends work this way; TCC never
    /// uses this channel.
    pub immediate_sends: Vec<(u64, Message)>,
    /// Re-schedule this processor's execution after the given delay.
    pub wake_in: Option<u64>,
    /// The processor reached a barrier.
    pub reached_barrier: bool,
    /// The processor finished its program.
    pub finished: bool,
    /// A transaction committed: its checker record, built only when
    /// `check_serializability` is on, and its Table 3 characteristics.
    pub committed: Option<(Option<TxRecord>, TxCharacteristics)>,
}

impl Effects {
    /// Appends `other`. At most one of the two may schedule a wake or
    /// report a commit: a second one would be lost.
    pub(crate) fn merge(&mut self, other: Effects) {
        self.sends.extend(other.sends);
        self.immediate_sends.extend(other.immediate_sends);
        assert!(
            self.wake_in.is_none() || other.wake_in.is_none(),
            "two wakes in one transition"
        );
        self.wake_in = self.wake_in.take().or(other.wake_in);
        self.reached_barrier |= other.reached_barrier;
        self.finished |= other.finished;
        assert!(
            self.committed.is_none() || other.committed.is_none(),
            "two commits in one transition"
        );
        if other.committed.is_some() {
            self.committed = other.committed;
        }
    }
}

/// Lifetime counters of one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Transactions committed.
    pub commits: u64,
    /// Transaction attempts violated.
    pub violations: u64,
    /// Violations caused by speculative-buffer overflow.
    pub overflows: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Re-executions performed in serialized (early-TID) mode.
    pub serialized_retries: u64,
    /// Cycles committed transactions spent waiting for the TID vendor.
    pub tid_wait: u64,
    /// Cycles committed transactions spent between announcing (skips +
    /// probes out) and the last probe reply (NSTID waits).
    pub probe_wait: u64,
}

/// The directory that is home to `line`.
pub(crate) fn home_of(cfg: &SystemConfig, line: LineAddr) -> DirId {
    cfg.cache.geometry.home_of(line, cfg.n_procs)
}

/// What a backend plugs into the driver. Implemented by the backend's
/// per-processor state (the [`Proc::x`] slot). Every hook has the
/// write-through behaviour as its default except the two that name
/// the backend's phases and fill request.
pub trait Backend: Snap + Default + std::fmt::Debug {
    /// The backend's own processor phases (commit protocol steps).
    type Phase: Copy + Eq + std::fmt::Debug + Snap;

    /// Stall-diagnostic name of a backend phase.
    fn phase_name(phase: Self::Phase) -> &'static str;

    /// The payload requesting `line` from its home after a miss.
    fn fill_request(line: LineAddr, requester: NodeId, req: u64) -> Payload;

    /// Sends `msg` `delay` cycles into the event being handled.
    fn send(fx: &mut Effects, delay: u64, msg: Message) {
        fx.sends.push((delay, msg));
    }

    /// Attempt-start gate: runs as a transaction attempt starts, after
    /// the shared attempt state is reset. Returns `true` if the backend
    /// parked the processor; otherwise the body starts running `delay`
    /// cycles out.
    fn gate(
        _p: &mut Proc<Self>,
        _cfg: &SystemConfig,
        _now: Cycle,
        _delay: u64,
        _fx: &mut Effects,
    ) -> bool {
        false
    }

    /// Per-access hook: runs before a body load (`store == false`) or
    /// store of word `word` reaches the cache, `delay` cycles into the
    /// event. `Some(latency)` services the access without the cache.
    fn access(
        _p: &mut Proc<Self>,
        _cfg: &SystemConfig,
        _line: LineAddr,
        _word: usize,
        _store: bool,
        _delay: u64,
        _fx: &mut Effects,
    ) -> Option<u64> {
        None
    }

    /// A store hit a line holding committed data newer than its home
    /// (the §3.1 dirty-bit rule): `ev` must be written home before the
    /// speculative write can be undone. A write-through cache holds no
    /// such data, so the default never sees one.
    fn dirty_store(_p: &mut Proc<Self>, _cfg: &SystemConfig, _ev: Eviction, _fx: &mut Effects) {}

    /// Fill handling: the reply to the stalled access's request arrived
    /// at `now`; the stall began at `stall_start`. Installs the line
    /// and resumes the body.
    fn fill(
        p: &mut Proc<Self>,
        _cfg: &SystemConfig,
        now: Cycle,
        line: LineAddr,
        values: LineValues,
        stall_start: Cycle,
        fx: &mut Effects,
    ) {
        let r = p.cache.fill(line, values, false);
        assert!(
            !r.overflow,
            "write-through backend overflow: size workloads within the L2"
        );
        p.attempt_miss += now.since(stall_start);
        p.phase = Phase::Running;
        p.wake(0, fx);
    }

    /// The backend's own lifetime counters; the driver fills in
    /// commits, violations and instructions.
    fn counters(&self) -> ProcCounters {
        ProcCounters::default()
    }
}

/// Processor phase: the driver's own phases plus the backend's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase<B> {
    /// Not started yet.
    Fresh,
    /// Executing a transaction body.
    Running,
    /// Stalled since `stall_start` on a miss of `line`, until the fill
    /// echoing request `req` arrives.
    WaitFill {
        line: LineAddr,
        stall_start: Cycle,
        req: u64,
    },
    /// Parked at a barrier since cycle `since`.
    AtBarrier { since: Cycle },
    /// Program finished.
    Done,
    /// A backend-specific phase.
    Backend(B),
}

impl<B: Snap> Snap for Phase<B> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Phase::Fresh => 0u8.save(w),
            Phase::Running => 1u8.save(w),
            Phase::WaitFill {
                line,
                stall_start,
                req,
            } => {
                2u8.save(w);
                line.save(w);
                stall_start.save(w);
                req.save(w);
            }
            Phase::AtBarrier { since } => {
                3u8.save(w);
                since.save(w);
            }
            Phase::Done => 4u8.save(w),
            Phase::Backend(b) => {
                5u8.save(w);
                b.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match u8::load(r)? {
            0 => Phase::Fresh,
            1 => Phase::Running,
            2 => Phase::WaitFill {
                line: r.get()?,
                stall_start: r.get()?,
                req: r.get()?,
            },
            3 => Phase::AtBarrier { since: r.get()? },
            4 => Phase::Done,
            5 => Phase::Backend(r.get()?),
            t => return Err(SnapError::invalid("driver Phase", format!("tag {t}"))),
        })
    }
}

/// Read-log entries a processor keeps room for after a transaction
/// whose log grew past [`READS_LOG_SHRINK_AT`]; below that, the buffer
/// is kept as it is. The Table 2 workloads' logs stay within 1,024
/// entries, so neither bound fires on them.
const READS_LOG_FLOOR: usize = 256;
const READS_LOG_SHRINK_AT: usize = 4 * READS_LOG_FLOOR;

/// One driven processor: program cursor, attempt bookkeeping, and
/// lifetime counters, plus the backend's own state in `x`.
#[derive(Debug)]
pub struct Proc<X: Backend> {
    pub(crate) id: NodeId,
    pub(crate) cache: HierCache,
    pub(crate) program: ThreadProgram,
    pub(crate) item: usize,
    pub(crate) op: usize,
    pub(crate) phase: Phase<X::Phase>,
    pub(crate) tx_start: Cycle,
    pub(crate) commit_start: Cycle,
    pub(crate) attempt_useful: u64,
    pub(crate) attempt_miss: u64,
    pub(crate) tx_instr: u64,
    pub(crate) reads_log: Vec<(LineAddr, usize, Option<Tid>)>,
    /// Monotonic load-request id. Echoed in replies; only the reply to
    /// the *latest* request is consumed (§3.3 "drop that load" race
    /// elimination, generalized to rolled-back attempts).
    pub(crate) req_seq: u64,
    /// Monotonic wake-up sequence; a `ProcStep` event stamped with an
    /// older value is stale and dropped.
    pub(crate) wake_seq: u64,
    pub(crate) totals: Breakdown,
    pub(crate) commits: u64,
    pub(crate) violations: u64,
    pub(crate) instructions: u64,
    pub(crate) done_at: Option<Cycle>,
    /// The backend's per-processor state.
    pub(crate) x: X,
}

impl<X: Backend> Proc<X> {
    pub(crate) fn new(id: NodeId, cfg: &SystemConfig, program: ThreadProgram) -> Proc<X> {
        Proc {
            id,
            cache: HierCache::new(cfg.cache.clone()),
            program,
            item: 0,
            op: 0,
            phase: Phase::Fresh,
            tx_start: Cycle::ZERO,
            commit_start: Cycle::ZERO,
            attempt_useful: 0,
            attempt_miss: 0,
            tx_instr: 0,
            reads_log: Vec::new(),
            req_seq: 0,
            wake_seq: 0,
            totals: Breakdown::default(),
            commits: 0,
            violations: 0,
            instructions: 0,
            done_at: None,
            x: X::default(),
        }
    }

    /// Lifetime counters.
    pub(crate) fn counters(&self) -> ProcCounters {
        ProcCounters {
            commits: self.commits,
            violations: self.violations,
            instructions: self.instructions,
            ..self.x.counters()
        }
    }

    /// Human-readable phase tag for stall diagnostics.
    #[must_use]
    pub fn state_name(&self) -> &'static str {
        match self.phase {
            Phase::Fresh => "fresh",
            Phase::Running => "running",
            Phase::WaitFill { .. } => "wait-fill",
            Phase::AtBarrier { .. } => "at-barrier",
            Phase::Done => "done",
            Phase::Backend(b) => X::phase_name(b),
        }
    }

    /// Supersedes any earlier wake and schedules the next continuation
    /// `delay` cycles out.
    pub(crate) fn wake(&mut self, delay: u64, fx: &mut Effects) {
        self.wake_seq += 1;
        fx.wake_in = Some(delay);
    }

    /// Begins execution (called once per processor, at simulation
    /// start).
    pub(crate) fn start(&mut self, cfg: &SystemConfig, now: Cycle) -> Effects {
        assert_eq!(self.phase, Phase::Fresh, "start() called twice");
        let mut fx = Effects::default();
        self.enter_item(cfg, now, 0, &mut fx);
        fx
    }

    /// Enters the current work item: begins a transaction attempt,
    /// reaches a barrier, or finishes. `now` is the absolute cycle the
    /// transition logically happens at; `delay` is its offset from the
    /// event being handled (effects are applied by the simulator at
    /// event time, so scheduling must carry the offset explicitly).
    fn enter_item(&mut self, cfg: &SystemConfig, now: Cycle, delay: u64, fx: &mut Effects) {
        match self.program.items.get(self.item) {
            Some(WorkItem::Tx(_)) => self.begin_attempt(cfg, now, delay, fx),
            Some(WorkItem::Barrier) => {
                self.phase = Phase::AtBarrier { since: now };
                fx.reached_barrier = true;
            }
            None => {
                self.phase = Phase::Done;
                self.done_at = Some(now);
                fx.finished = true;
            }
        }
    }

    /// Starts a fresh attempt of the current transaction at `now`: it
    /// runs `delay` cycles out unless the backend's gate parks it.
    pub(crate) fn begin_attempt(
        &mut self,
        cfg: &SystemConfig,
        now: Cycle,
        delay: u64,
        fx: &mut Effects,
    ) {
        self.reset_attempt(now);
        if !X::gate(self, cfg, now, delay, fx) {
            self.phase = Phase::Running;
            self.wake(delay, fx);
        }
    }

    /// Every processor reached the barrier: release this one.
    pub(crate) fn release_barrier(&mut self, cfg: &SystemConfig, now: Cycle) -> Effects {
        let Phase::AtBarrier { since } = self.phase else {
            panic!("release_barrier while {}", self.state_name())
        };
        // A single-processor machine can arrive mid-chunk, `since`
        // cycles into the event being handled; the release then happens
        // at the arrival instant, not the (earlier) event time.
        let at = now.max(since);
        self.totals.idle += at.since(since);
        self.item += 1;
        let mut fx = Effects::default();
        self.enter_item(cfg, at, at.since(now), &mut fx);
        fx
    }

    /// The commit finished at `now`: book its time and move on.
    pub(crate) fn next_item(
        &mut self,
        cfg: &SystemConfig,
        now: Cycle,
        delay: u64,
        fx: &mut Effects,
    ) {
        self.totals.commit += now.since(self.commit_start);
        self.item += 1;
        self.enter_item(cfg, now, delay, fx);
    }

    /// Terminal idle time: a processor that finished before the
    /// slowest one idles until the application completes at `end`.
    pub(crate) fn pad_idle_to(&mut self, end: Cycle) {
        if let Some(done) = self.done_at {
            self.totals.idle += end.since(done);
        }
    }

    /// Runs up to one `exec_chunk` of the transaction body. Returns
    /// `Some((at, delay))` when the body completed at cycle `at`,
    /// `delay` cycles into the event; the backend then starts its
    /// commit.
    pub(crate) fn run_chunk(
        &mut self,
        cfg: &SystemConfig,
        now: Cycle,
        fx: &mut Effects,
    ) -> Option<(Cycle, u64)> {
        let geom = cfg.cache.geometry;
        let mut elapsed = 0u64;
        loop {
            if self.phase != Phase::Running {
                return None; // a violation mid-event restarted us elsewhere
            }
            if elapsed >= cfg.exec_chunk {
                self.wake(elapsed, fx);
                return None;
            }
            let Some(WorkItem::Tx(tx)) = self.program.items.get(self.item) else {
                unreachable!("running outside a transaction")
            };
            let Some(op) = tx.op(self.op) else {
                return Some((now + elapsed, elapsed));
            };
            let (cycles, instr) = match op {
                TxOp::Compute(c) => (u64::from(c), u64::from(c)),
                TxOp::Load(a) | TxOp::Store(a) => {
                    let (line, word) = (geom.line_of(a), geom.word_index(a));
                    let store = matches!(op, TxOp::Store(_));
                    let latency = X::access(self, cfg, line, word, store, elapsed, fx)
                        .or_else(|| self.cache_access(cfg, line, word, store, fx));
                    let Some(latency) = latency else {
                        self.fill_miss(cfg, line, now + elapsed, elapsed, fx);
                        return None;
                    };
                    (latency, 1)
                }
            };
            elapsed += cycles;
            self.attempt_useful += cycles;
            self.tx_instr += instr;
            self.op += 1;
        }
    }

    /// One load or store against the cache: the hit latency, or `None`
    /// on a miss.
    fn cache_access(
        &mut self,
        cfg: &SystemConfig,
        line: LineAddr,
        word: usize,
        store: bool,
        fx: &mut Effects,
    ) -> Option<u64> {
        let level = if store {
            let StoreOutcome::Hit {
                level,
                pre_writeback,
            } = self.cache.store(line, word)
            else {
                return None;
            };
            if let Some(ev) = pre_writeback {
                X::dirty_store(self, cfg, ev, fx);
            }
            level
        } else {
            let LoadOutcome::Hit {
                level,
                value,
                own_speculative,
                first_read,
            } = self.cache.load(line, word)
            else {
                return None;
            };
            if !own_speculative && first_read {
                self.reads_log.push((line, word, value));
            }
            level
        };
        Some(cfg.cache.latency(level))
    }

    /// A load/store missed: stall in `WaitFill` and request the line
    /// from its home, departing when the miss logically occurred.
    fn fill_miss(
        &mut self,
        cfg: &SystemConfig,
        line: LineAddr,
        stall_start: Cycle,
        delay: u64,
        fx: &mut Effects,
    ) {
        self.req_seq += 1;
        self.phase = Phase::WaitFill {
            line,
            stall_start,
            req: self.req_seq,
        };
        let home = home_of(cfg, line).node();
        let msg = Message::new(self.id, home, X::fill_request(line, self.id, self.req_seq));
        X::send(fx, delay, msg);
    }

    /// A fill reply arrived. Only the reply to the *latest* outstanding
    /// request is consumed; anything else — a reply to a request of a
    /// rolled-back attempt, or one superseded after an in-flight
    /// invalidation — is dropped, per the §3.3 load/invalidate race
    /// rule, and `false` is returned. The same check makes fills
    /// idempotent: a duplicate finds no matching request.
    pub(crate) fn on_fill(
        &mut self,
        cfg: &SystemConfig,
        now: Cycle,
        line: LineAddr,
        values: LineValues,
        req: u64,
        fx: &mut Effects,
    ) -> bool {
        let Phase::WaitFill {
            line: expected,
            stall_start,
            req: want,
        } = self.phase
        else {
            return false;
        };
        // Mutation knob: ignoring the request id accepts fills an
        // invalidation superseded while they were in flight — the §3.3
        // load/invalidate race the re-request rule eliminates.
        let current = if cfg.bugs.accept_stale_fills {
            line == expected
        } else {
            req == want
        };
        if !current {
            return false;
        }
        assert_eq!(line, expected, "fill for a line not requested");
        X::fill(self, cfg, now, line, values, stall_start, fx);
        true
    }

    /// The transaction commits as `tid` with write-set `writes`: stamp
    /// the cached values, report the checker record (when the checker
    /// runs) and Table 3 characteristics, and book the attempt as useful
    /// work.
    pub(crate) fn retire(
        &mut self,
        cfg: &SystemConfig,
        tid: Tid,
        writes: &[(LineAddr, WordMask)],
        fx: &mut Effects,
    ) {
        self.cache.commit_tx(tid);
        let chars = characteristics(
            self.tx_instr,
            &self.reads_log,
            writes,
            cfg.cache.geometry,
            cfg.n_procs,
        );
        let record = cfg.check_serializability.then(|| TxRecord {
            tid,
            reads: std::mem::take(&mut self.reads_log),
            writes: writes.to_vec(),
        });
        // Without the checker the log keeps its buffer for the next
        // transaction, unless one long transaction grew it far past
        // what the usual one needs.
        self.reads_log.clear();
        if self.reads_log.capacity() > READS_LOG_SHRINK_AT {
            self.reads_log.shrink_to(READS_LOG_FLOOR);
        }
        fx.committed = Some((record, chars));
        self.commits += 1;
        self.instructions += self.tx_instr;
        self.totals.useful += self.attempt_useful;
        self.totals.cache_miss += self.attempt_miss;
    }

    /// The attempt failed at `now`: discard its speculative state, book
    /// it as violation time, and re-execute the transaction at once.
    pub(crate) fn restart(&mut self, now: Cycle, fx: &mut Effects) {
        self.violations += 1;
        self.cache.abort_tx();
        self.totals.violation += now.since(self.tx_start);
        self.reset_attempt(now);
        self.phase = Phase::Running;
        self.wake(0, fx);
    }

    /// Resets the shared attempt state for an attempt starting at `now`.
    fn reset_attempt(&mut self, now: Cycle) {
        self.op = 0;
        self.tx_start = now;
        self.attempt_useful = 0;
        self.attempt_miss = 0;
        self.tx_instr = 0;
        self.reads_log.clear();
    }

    /// Serializes the processor's mutable state. The identity, program
    /// and wiring are construction inputs the resuming caller supplies
    /// again (gated by the snapshot's config and program digests); only
    /// the *position* within the program (`item`/`op`) travels.
    fn save_state(&self, w: &mut SnapWriter) {
        self.cache.save_state(w);
        self.item.save(w);
        self.op.save(w);
        self.phase.save(w);
        self.tx_start.save(w);
        self.commit_start.save(w);
        self.attempt_useful.save(w);
        self.attempt_miss.save(w);
        self.tx_instr.save(w);
        self.reads_log.save(w);
        self.req_seq.save(w);
        self.wake_seq.save(w);
        self.totals.save(w);
        self.commits.save(w);
        self.violations.save(w);
        self.instructions.save(w);
        self.done_at.save(w);
        self.x.save(w);
    }

    /// Overlays checkpointed state onto a freshly constructed processor
    /// (same config and program as the capturing run).
    ///
    /// # Errors
    ///
    /// Any decode failure, or a program position past the end of the
    /// program this processor was constructed with.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.restore_state(r)?;
        let item: usize = r.get()?;
        let len = self.program.items.len();
        if item > len {
            return Err(SnapError::invalid(
                "Proc.item",
                format!("snapshot at item {item}, program has {len}"),
            ));
        }
        self.item = item;
        self.op = r.get()?;
        self.phase = r.get()?;
        self.tx_start = r.get()?;
        self.commit_start = r.get()?;
        self.attempt_useful = r.get()?;
        self.attempt_miss = r.get()?;
        self.tx_instr = r.get()?;
        self.reads_log = r.get()?;
        self.req_seq = r.get()?;
        self.wake_seq = r.get()?;
        self.totals = r.get()?;
        self.commits = r.get()?;
        self.violations = r.get()?;
        self.instructions = r.get()?;
        self.done_at = r.get()?;
        self.x = r.get()?;
        Ok(())
    }
}

/// Every processor of a machine, driven through its program.
#[derive(Debug)]
pub(crate) struct Driver<X: Backend> {
    pub(crate) cfg: SystemConfig,
    pub(crate) procs: Vec<Proc<X>>,
}

impl<X: Backend> Driver<X> {
    pub(crate) fn new(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> Driver<X> {
        let procs = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Proc::new(NodeId(i as u16), &cfg, p))
            .collect();
        Driver { cfg, procs }
    }

    pub(crate) fn home_node(&self, line: LineAddr) -> NodeId {
        home_of(&self.cfg, line).node()
    }

    /// The programs the processors run, in processor order.
    pub(crate) fn programs(&self) -> Vec<&ThreadProgram> {
        self.procs.iter().map(|p| &p.program).collect()
    }

    /// Starts `node`'s program at cycle `now`.
    pub(crate) fn start(&mut self, now: Cycle, node: NodeId) -> Effects {
        self.procs[node.index()].start(&self.cfg, now)
    }

    /// Runs up to one `exec_chunk` of `node`'s body (see
    /// [`Proc::run_chunk`]): `Some((at, delay))` once the body completed.
    pub(crate) fn run_chunk(
        &mut self,
        now: Cycle,
        node: NodeId,
        fx: &mut Effects,
    ) -> Option<(Cycle, u64)> {
        self.procs[node.index()].run_chunk(&self.cfg, now, fx)
    }

    /// Releases `node` from the barrier every processor reached.
    pub(crate) fn release_barrier(&mut self, now: Cycle, node: NodeId) -> Effects {
        self.procs[node.index()].release_barrier(&self.cfg, now)
    }

    /// Cycle at which the last processor finished (the makespan).
    pub(crate) fn done_at_max(&self) -> Cycle {
        let done = self.procs.iter().filter_map(|p| p.done_at);
        done.max().unwrap_or(Cycle::ZERO)
    }

    /// Pads every processor's breakdown with idle time up to `end`.
    pub(crate) fn pad_idle_to(&mut self, end: Cycle) {
        for p in &mut self.procs {
            p.pad_idle_to(end);
        }
    }

    /// Per-processor execution-time breakdowns.
    pub(crate) fn breakdowns(&self) -> Vec<Breakdown> {
        self.procs.iter().map(|p| p.totals).collect()
    }

    /// Per-processor lifetime counters.
    pub(crate) fn proc_counters(&self) -> Vec<ProcCounters> {
        self.procs.iter().map(Proc::counters).collect()
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        for p in &self.procs {
            p.save_state(w);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for p in &mut self.procs {
            p.restore_state(r)?;
        }
        Ok(())
    }

    /// Quiescence invariant: every processor finished its program.
    pub(crate) fn assert_all_done(&self) {
        for (i, p) in self.procs.iter().enumerate() {
            assert!(
                p.phase == Phase::Done && p.done_at.is_some(),
                "P{i} in state {:?} at quiescence",
                p.phase
            );
        }
    }
}

/// Table 3 characteristics of one committed transaction, derived from
/// the read log and write-set at commit time.
fn characteristics(
    instructions: u64,
    reads: &[(LineAddr, usize, Option<Tid>)],
    writes: &[(LineAddr, WordMask)],
    geom: LineGeometry,
    n_procs: usize,
) -> TxCharacteristics {
    let line_bytes = geom.line_bytes() as u64;
    let home = |l: &LineAddr| geom.home_of(*l, n_procs).0;
    let mut read_lines: Vec<LineAddr> = reads.iter().map(|&(l, _, _)| l).collect();
    read_lines.sort_unstable();
    read_lines.dedup();
    // One buffer of distinct homes: the written ones first, then every
    // touched one.
    let mut homes: Vec<u16> = writes.iter().map(|(l, _)| home(l)).collect();
    homes.sort_unstable();
    homes.dedup();
    let dirs_written = homes.len() as u32;
    homes.extend(read_lines.iter().map(home));
    homes.sort_unstable();
    homes.dedup();
    TxCharacteristics {
        instructions,
        read_set_bytes: read_lines.len() as u64 * line_bytes,
        write_set_bytes: writes.len() as u64 * line_bytes,
        words_written: writes.iter().map(|&(_, m)| u64::from(m.count())).sum(),
        dirs_written,
        dirs_touched: homes.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{TccPhase, TccState};
    use crate::program::Transaction;
    use crate::serialized::TokenState;
    use crate::tardis::LeaseState;
    use tcc_types::Addr;

    /// A minimal backend: plain load requests, and a gate that parks
    /// the attempt when `park` is set.
    #[derive(Debug, Default)]
    struct Probe {
        park: bool,
    }

    impl Snap for Probe {
        fn save(&self, w: &mut SnapWriter) {
            self.park.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Probe { park: r.get()? })
        }
    }

    impl Backend for Probe {
        type Phase = u8;

        fn phase_name(_phase: u8) -> &'static str {
            "probe"
        }

        fn fill_request(line: LineAddr, requester: NodeId, req: u64) -> Payload {
            Payload::LoadRequest {
                line,
                requester,
                req,
            }
        }

        fn gate(
            p: &mut Proc<Probe>,
            _cfg: &SystemConfig,
            _now: Cycle,
            _delay: u64,
            _fx: &mut Effects,
        ) -> bool {
            if p.x.park {
                p.phase = Phase::Backend(7);
            }
            p.x.park
        }
    }

    const P0: NodeId = NodeId(0);

    fn proc_<X: Backend>(items: Vec<WorkItem>) -> (SystemConfig, Proc<X>) {
        let cfg = SystemConfig::with_procs(1);
        let p = Proc::new(P0, &cfg, ThreadProgram::new(items));
        (cfg, p)
    }

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Tx(Transaction::new(ops))
    }

    fn round_trip<B: Snap + Copy + Eq + std::fmt::Debug>(phases: &[Phase<B>]) {
        for &phase in phases {
            let mut w = SnapWriter::new();
            phase.save(&mut w);
            let bytes = w.into_bytes();
            let back: Phase<B> = SnapReader::new(&bytes).get().unwrap();
            assert_eq!(back, phase);
        }
    }

    #[test]
    fn driver_phase_tags_round_trip() {
        round_trip(&[
            Phase::Fresh,
            Phase::Running,
            Phase::WaitFill {
                line: LineAddr(3),
                stall_start: Cycle(9),
                req: 4,
            },
            Phase::AtBarrier { since: Cycle(5) },
            Phase::Done,
            Phase::Backend(42u8),
        ]);
        assert!(SnapReader::new(&[6u8]).get::<Phase<u8>>().is_err());
        // The TCC commit phases travel as backend phases.
        round_trip(&[
            Phase::Backend(TccPhase::WaitTid),
            Phase::Backend(TccPhase::WaitTidEarly),
            Phase::Backend(TccPhase::Validating),
        ]);
        assert!(SnapReader::new(&[5u8, 3]).get::<Phase<TccPhase>>().is_err());
    }

    #[test]
    fn driver_runs_bodies_in_chunks_and_reports_the_end() {
        let (cfg, mut p) = proc_::<Probe>(vec![tx(vec![TxOp::Compute(150), TxOp::Compute(150)])]);
        let fx = p.start(&cfg, Cycle::ZERO);
        assert_eq!(fx.wake_in, Some(0));
        assert_eq!(p.state_name(), "running");
        // 300 cycles of work overrun the 200-cycle chunk: yield first.
        let mut fx = Effects::default();
        assert_eq!(p.run_chunk(&cfg, Cycle::ZERO, &mut fx), None);
        assert_eq!(fx.wake_in, Some(300));
        let mut fx = Effects::default();
        assert_eq!(
            p.run_chunk(&cfg, Cycle(300), &mut fx),
            Some((Cycle(300), 0))
        );
        assert_eq!(p.attempt_useful, 300);
        assert_eq!(p.tx_instr, 300);
    }

    #[test]
    fn driver_stalls_on_a_miss_until_the_matching_fill() {
        let (cfg, mut p) = proc_::<Probe>(vec![tx(vec![TxOp::Load(Addr(0x40))])]);
        p.start(&cfg, Cycle::ZERO);
        let mut fx = Effects::default();
        assert_eq!(p.run_chunk(&cfg, Cycle::ZERO, &mut fx), None);
        assert_eq!(p.state_name(), "wait-fill");
        let [(0, msg)] = fx.sends.as_slice() else {
            panic!("one fill request expected: {:?}", fx.sends)
        };
        let Payload::LoadRequest { line, req, .. } = msg.payload else {
            panic!("not a load request: {msg:?}")
        };
        let words = cfg.cache.geometry.words_per_line() as usize;
        let seq = p.wake_seq;
        let mut fx = Effects::default();
        let stale = p.on_fill(
            &cfg,
            Cycle(50),
            line,
            LineValues::fresh(words),
            req + 1,
            &mut fx,
        );
        assert!(!stale, "a superseded reply is dropped");
        assert_eq!(p.wake_seq, seq);
        assert!(p.on_fill(
            &cfg,
            Cycle(150),
            line,
            LineValues::fresh(words),
            req,
            &mut fx
        ));
        assert_eq!(p.attempt_miss, 150);
        assert_eq!(fx.wake_in, Some(0));
        let mut fx = Effects::default();
        assert!(p.run_chunk(&cfg, Cycle(150), &mut fx).is_some());
        assert_eq!(p.reads_log.len(), 1);
    }

    #[test]
    fn driver_books_retired_and_restarted_attempts() {
        let (cfg, mut p) = proc_::<Probe>(vec![tx(vec![TxOp::Compute(40)]), tx(vec![])]);
        p.start(&cfg, Cycle::ZERO);
        let mut fx = Effects::default();
        assert!(p.run_chunk(&cfg, Cycle::ZERO, &mut fx).is_some());
        // A failed attempt: its cycles become violation time and the
        // body restarts from the top.
        p.restart(Cycle(40), &mut fx);
        assert_eq!((p.violations, p.totals.violation, p.op), (1, 40, 0));
        assert_eq!((p.attempt_useful, p.tx_start), (0, Cycle(40)));
        let mut fx = Effects::default();
        assert!(p.run_chunk(&cfg, Cycle(40), &mut fx).is_some());
        p.commit_start = Cycle(80);
        p.retire(&cfg, Tid(9), &[], &mut fx);
        let (record, chars) = fx.committed.take().expect("commit reported");
        assert!(record.is_none(), "no checker record without the checker");
        assert_eq!(chars.instructions, 40);
        p.next_item(&cfg, Cycle(90), 0, &mut fx);
        assert_eq!((p.commits, p.totals.useful, p.totals.commit), (1, 40, 10));
        assert_eq!((p.item, p.instructions), (1, 40));
    }

    /// A long transaction's read log does not stay with the processor
    /// for the rest of the run; a short one's buffer is kept.
    #[test]
    fn retire_trims_only_a_read_log_far_above_the_floor() {
        let (cfg, mut p) = proc_::<Probe>(vec![tx(vec![]), tx(vec![])]);
        let mut fx = Effects::default();
        p.reads_log = Vec::with_capacity(READS_LOG_SHRINK_AT);
        p.reads_log.push((LineAddr(0), 0, None));
        p.retire(&cfg, Tid(0), &[], &mut fx);
        assert_eq!(p.reads_log.capacity(), READS_LOG_SHRINK_AT, "kept");
        p.reads_log
            .extend((0..=READS_LOG_SHRINK_AT as u64).map(|l| (LineAddr(l), 0, None)));
        p.retire(&cfg, Tid(1), &[], &mut fx);
        assert!(p.reads_log.is_empty());
        assert!(p.reads_log.capacity() <= READS_LOG_FLOOR, "trimmed");
    }

    #[test]
    fn driver_gate_parks_an_attempt() {
        let (cfg, mut p) = proc_::<Probe>(vec![tx(vec![TxOp::Compute(5)])]);
        p.x.park = true;
        let fx = p.start(&cfg, Cycle::ZERO);
        assert_eq!(fx.wake_in, None, "a parked attempt is not scheduled");
        assert_eq!(p.state_name(), "probe");
    }

    #[test]
    fn driver_books_barrier_idle_time_and_program_end() {
        let (cfg, mut p) = proc_::<Probe>(vec![WorkItem::Barrier]);
        let fx = p.start(&cfg, Cycle::ZERO);
        assert!(fx.reached_barrier);
        let fx = p.release_barrier(&cfg, Cycle(100));
        assert!(fx.finished);
        assert_eq!(p.phase, Phase::Done);
        assert_eq!((p.done_at, p.totals.idle), (Some(Cycle(100)), 100));
    }

    /// Saves a processor whose program position is `item` and restores
    /// the bytes into a fresh processor of the same one-item program.
    fn restore_at<X: Backend>(item: usize) -> Result<(), SnapError> {
        let (_, mut saved) = proc_::<X>(vec![tx(vec![TxOp::Compute(1)])]);
        saved.item = item;
        let mut w = SnapWriter::new();
        saved.save_state(&mut w);
        let bytes = w.into_bytes();
        let (_, mut fresh) = proc_::<X>(vec![tx(vec![TxOp::Compute(1)])]);
        fresh.restore_state(&mut SnapReader::new(&bytes))
    }

    #[test]
    fn restore_refuses_a_position_past_the_program_end_on_every_backend() {
        for result in [
            restore_at::<TokenState>(2),
            restore_at::<LeaseState>(2),
            restore_at::<TccState>(2),
        ] {
            assert!(
                matches!(
                    result,
                    Err(SnapError::Invalid {
                        what: "Proc.item",
                        ..
                    })
                ),
                "{result:?}"
            );
        }
        // One past the last item is a finished program, not an error.
        restore_at::<TokenState>(1).unwrap();
        restore_at::<LeaseState>(1).unwrap();
        restore_at::<TccState>(1).unwrap();
    }
}
