//! The program driver shared by the write-through backends.
//!
//! The serialized-commit and Tardis backends run programs the same way:
//! walk the [`ThreadProgram`], execute bodies in `exec_chunk` slices
//! over a private [`HierCache`], stall on misses, park at barriers, and
//! book every cycle into a [`Breakdown`]. [`Driver`] owns that loop; a
//! backend supplies the hooks of [`Backend`], starts its commit when
//! [`Driver::run_chunk`] reports a completed body, and gets its shared
//! `Protocol` methods from [`protocol_plumbing!`]. DESIGN.md §15.4
//! explains why the TCC [`Processor`](crate::Processor) keeps its own
//! loop.

use tcc_cache::{HierCache, LoadOutcome, StoreOutcome};
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::{
    Cycle, LineAddr, LineGeometry, LineValues, Message, NodeId, Payload, Tid, WordMask,
};

use crate::breakdown::{Breakdown, TxCharacteristics};
use crate::checker::TxRecord;
use crate::config::SystemConfig;
use crate::processor::Effects;
use crate::program::{ThreadProgram, TxOp, WorkItem};

/// What a backend plugs into the [`Driver`]. Implemented by the
/// backend's per-processor state (the [`Proc::x`] slot).
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

    /// Runs as a transaction is entered, after the attempt state is
    /// reset. Returns `true` if the backend parked the processor;
    /// otherwise the body starts running `delay` cycles out.
    fn gate(
        _p: &mut Proc<Self>,
        _cfg: &SystemConfig,
        _now: Cycle,
        _delay: u64,
        _n: NodeId,
        _fx: &mut Effects,
    ) -> bool {
        false
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

/// One driven processor: program cursor, attempt bookkeeping, and
/// lifetime counters, plus the backend's own state in `x`.
#[derive(Debug)]
pub struct Proc<X: Backend> {
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
    pub(crate) req_seq: u64,
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
    fn new(cache: HierCache, program: ThreadProgram) -> Proc<X> {
        Proc {
            cache,
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

    /// Starts a fresh attempt of the current transaction at `now`.
    fn reset_attempt(&mut self, now: Cycle) {
        self.op = 0;
        self.tx_start = now;
        self.attempt_useful = 0;
        self.attempt_miss = 0;
        self.tx_instr = 0;
        self.reads_log.clear();
    }

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

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.restore_state(r)?;
        self.item = r.get()?;
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

/// Every processor of a write-through machine, driven through its
/// program.
#[derive(Debug)]
pub(crate) struct Driver<X: Backend> {
    pub(crate) cfg: SystemConfig,
    pub(crate) procs: Vec<Proc<X>>,
}

impl<X: Backend> Driver<X> {
    pub(crate) fn new(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> Driver<X> {
        let procs = programs
            .into_iter()
            .map(|p| Proc::new(HierCache::new(cfg.cache.clone()), p))
            .collect();
        Driver { cfg, procs }
    }

    pub(crate) fn home_node(&self, line: LineAddr) -> NodeId {
        self.cfg
            .cache
            .geometry
            .home_of(line, self.cfg.n_procs)
            .node()
    }

    /// Supersedes any earlier wake and schedules the next continuation
    /// `delay` cycles out.
    pub(crate) fn wake(&mut self, n: NodeId, delay: u64, fx: &mut Effects) {
        self.procs[n.index()].wake_seq += 1;
        fx.wake_in = Some(delay);
    }

    /// `now` is the absolute cycle the transition logically happens at;
    /// `delay` is its offset from the event being handled (effects are
    /// applied by the simulator at event time, so scheduling must carry
    /// the offset explicitly — mirrors the scalable processor's
    /// `begin_validation(now, elapsed)`).
    pub(crate) fn enter_item(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.procs[n.index()];
        match p.program.items.get(p.item) {
            Some(WorkItem::Tx(_)) => {
                p.reset_attempt(now);
                if !X::gate(p, &self.cfg, now, delay, n, fx) {
                    p.phase = Phase::Running;
                    self.wake(n, delay, fx);
                }
            }
            Some(WorkItem::Barrier) => {
                p.phase = Phase::AtBarrier { since: now };
                fx.reached_barrier = true;
            }
            None => {
                p.phase = Phase::Done;
                p.done_at = Some(now);
                fx.finished = true;
            }
        }
    }

    /// Every processor reached the barrier: release `n`.
    pub(crate) fn release_barrier(&mut self, now: Cycle, n: NodeId) -> Effects {
        let mut fx = Effects::default();
        let p = &mut self.procs[n.index()];
        let Phase::AtBarrier { since } = p.phase else {
            unreachable!("releasing a processor not at the barrier")
        };
        // A single-processor machine can arrive mid-chunk, `since`
        // cycles into the event being handled; the release then happens
        // at the arrival instant, not the (earlier) event time.
        let at = now.max(since);
        p.totals.idle += at.since(since);
        p.item += 1;
        self.enter_item(at, at.since(now), n, &mut fx);
        fx
    }

    /// The commit finished at `now`: book its time and move on.
    pub(crate) fn next_item(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.procs[n.index()];
        p.totals.commit += now.since(p.commit_start);
        p.item += 1;
        self.enter_item(now, delay, n, fx);
    }

    /// Runs up to one `exec_chunk` of `n`'s transaction body. Returns
    /// `Some((at, delay))` when the body completed at cycle `at`,
    /// `delay` cycles into the event; the backend then starts its
    /// commit.
    pub(crate) fn run_chunk(
        &mut self,
        now: Cycle,
        n: NodeId,
        fx: &mut Effects,
    ) -> Option<(Cycle, u64)> {
        let chunk = self.cfg.exec_chunk;
        let geom = self.cfg.cache.geometry;
        let mut elapsed = 0u64;
        loop {
            let p = &mut self.procs[n.index()];
            if p.phase != Phase::Running {
                return None; // a violation mid-event restarted us elsewhere
            }
            if elapsed >= chunk {
                self.wake(n, elapsed, fx);
                return None;
            }
            let Some(WorkItem::Tx(tx)) = p.program.items.get(p.item) else {
                unreachable!("running outside a transaction")
            };
            let Some(&op) = tx.ops.get(p.op) else {
                return Some((now + elapsed, elapsed));
            };
            let (cycles, instr) = match op {
                TxOp::Compute(c) => (u64::from(c), u64::from(c)),
                TxOp::Load(a) => {
                    let (line, word) = (geom.line_of(a), geom.word_index(a));
                    let LoadOutcome::Hit {
                        level,
                        value,
                        own_speculative,
                        first_read,
                    } = p.cache.load(line, word)
                    else {
                        self.fill_miss(n, line, now + elapsed, elapsed, fx);
                        return None;
                    };
                    if !own_speculative && first_read {
                        p.reads_log.push((line, word, value));
                    }
                    (self.cfg.cache.latency(level), 1)
                }
                TxOp::Store(a) => {
                    let line = geom.line_of(a);
                    // Write-through: no pre-write-back needed.
                    let StoreOutcome::Hit { level, .. } = p.cache.store(line, geom.word_index(a))
                    else {
                        self.fill_miss(n, line, now + elapsed, elapsed, fx);
                        return None;
                    };
                    (self.cfg.cache.latency(level), 1)
                }
            };
            elapsed += cycles;
            p.attempt_useful += cycles;
            p.tx_instr += instr;
            p.op += 1;
        }
    }

    /// A load/store missed: stall in `WaitFill` and request the line
    /// from its home, departing when the miss logically occurred.
    fn fill_miss(
        &mut self,
        n: NodeId,
        line: LineAddr,
        stall_start: Cycle,
        delay: u64,
        fx: &mut Effects,
    ) {
        let home = self.home_node(line);
        let p = &mut self.procs[n.index()];
        p.req_seq += 1;
        p.phase = Phase::WaitFill {
            line,
            stall_start,
            req: p.req_seq,
        };
        let msg = Message::new(n, home, X::fill_request(line, n, p.req_seq));
        X::send(fx, delay, msg);
    }

    /// A fill reply arrived: install the line and resume. Returns
    /// `false` (and drops the reply) when it is stale — the attempt was
    /// restarted or the request superseded.
    pub(crate) fn on_fill(
        &mut self,
        now: Cycle,
        n: NodeId,
        line: LineAddr,
        values: LineValues,
        req: u64,
        fx: &mut Effects,
    ) -> bool {
        let p = &mut self.procs[n.index()];
        let Phase::WaitFill {
            line: expected,
            stall_start,
            req: want,
        } = p.phase
        else {
            return false;
        };
        if req != want {
            return false;
        }
        debug_assert_eq!(line, expected);
        let r = p.cache.fill(line, values, false);
        assert!(
            !r.overflow,
            "write-through backend overflow: size workloads within the L2"
        );
        p.attempt_miss += now.since(stall_start);
        p.phase = Phase::Running;
        self.wake(n, 0, fx);
        true
    }

    /// `n`'s transaction commits as `tid` with write-set `writes`:
    /// stamp the cached values, report the checker record and Table 3
    /// characteristics, and book the attempt as useful work.
    pub(crate) fn retire(
        &mut self,
        n: NodeId,
        tid: Tid,
        writes: &[(LineAddr, WordMask)],
        fx: &mut Effects,
    ) {
        let geom = self.cfg.cache.geometry;
        let n_procs = self.cfg.n_procs;
        let p = &mut self.procs[n.index()];
        p.cache.commit_tx(tid);
        p.cache.clear_dirty_bits(); // write-through: the homes are current
        let reads = std::mem::take(&mut p.reads_log);
        let chars = characteristics(p.tx_instr, &reads, writes, geom, n_procs);
        let writes = writes.to_vec();
        fx.committed = Some((TxRecord { tid, reads, writes }, chars));
        p.commits += 1;
        p.instructions += p.tx_instr;
        p.totals.useful += p.attempt_useful;
        p.totals.cache_miss += p.attempt_miss;
    }

    /// `n`'s attempt failed at `now`: discard its speculative state,
    /// book the attempt as violation time, and re-execute the
    /// transaction immediately.
    pub(crate) fn restart(&mut self, now: Cycle, n: NodeId, fx: &mut Effects) {
        let p = &mut self.procs[n.index()];
        p.violations += 1;
        p.cache.abort_tx();
        p.totals.violation += now.since(p.tx_start);
        p.reset_attempt(now);
        p.phase = Phase::Running;
        self.wake(n, 0, fx);
    }

    pub(crate) fn state_name(&self, n: NodeId) -> &'static str {
        match self.procs[n.index()].phase {
            Phase::Fresh => "fresh",
            Phase::Running => "running",
            Phase::WaitFill { .. } => "wait-fill",
            Phase::AtBarrier { .. } => "at-barrier",
            Phase::Done => "done",
            Phase::Backend(b) => X::phase_name(b),
        }
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
    let mut written: Vec<u16> = writes.iter().map(|(l, _)| home(l)).collect();
    let mut touched: Vec<u16> = read_lines.iter().map(home).chain(written.clone()).collect();
    for homes in [&mut written, &mut touched] {
        homes.sort_unstable();
        homes.dedup();
    }
    TxCharacteristics {
        instructions,
        read_set_bytes: read_lines.len() as u64 * line_bytes,
        write_set_bytes: writes.len() as u64 * line_bytes,
        words_written: writes.iter().map(|&(_, m)| u64::from(m.count())).sum(),
        dirs_written: written.len() as u32,
        dirs_touched: touched.len() as u32,
    }
}

/// Defines, inside a driven backend's `impl Protocol` block, the
/// `Protocol` methods that only read or drive its processors. The
/// machine keeps them in a `drv: Driver<_>` field; `$body_end` names
/// its method that starts a commit once a body completes.
macro_rules! protocol_plumbing {
    ($body_end:ident) => {
        fn proc_state(&self, node: ::tcc_types::NodeId) -> &Self::ProcState {
            &self.drv.procs[node.index()]
        }

        fn start(&mut self, now: ::tcc_types::Cycle, node: ::tcc_types::NodeId) -> $crate::Effects {
            let mut fx = $crate::Effects::default();
            self.drv.enter_item(now, 0, node, &mut fx);
            fx
        }

        fn step(&mut self, now: ::tcc_types::Cycle, node: ::tcc_types::NodeId) -> $crate::Effects {
            let mut fx = $crate::Effects::default();
            if let Some((at, delay)) = self.drv.run_chunk(now, node, &mut fx) {
                self.$body_end(at, delay, node, &mut fx);
            }
            fx
        }

        fn release_barrier(
            &mut self,
            now: ::tcc_types::Cycle,
            node: ::tcc_types::NodeId,
        ) -> $crate::Effects {
            self.drv.release_barrier(now, node)
        }

        fn wake_seq(&self, node: ::tcc_types::NodeId) -> u64 {
            self.drv.procs[node.index()].wake_seq
        }

        fn state_name(&self, node: ::tcc_types::NodeId) -> &'static str {
            self.drv.state_name(node)
        }

        fn done_at_max(&self) -> ::tcc_types::Cycle {
            let done = self.drv.procs.iter().filter_map(|p| p.done_at);
            done.max().unwrap_or(::tcc_types::Cycle::ZERO)
        }

        fn pad_idle_to(&mut self, end: ::tcc_types::Cycle) {
            for p in &mut self.drv.procs {
                if let Some(done) = p.done_at {
                    p.totals.idle += end.since(done);
                }
            }
        }

        fn breakdowns(&self) -> Vec<$crate::Breakdown> {
            self.drv.procs.iter().map(|p| p.totals).collect()
        }

        fn proc_counters(&self) -> Vec<$crate::ProcCounters> {
            let counters = self.drv.procs.iter().map(|p| $crate::ProcCounters {
                commits: p.commits,
                violations: p.violations,
                instructions: p.instructions,
                ..$crate::ProcCounters::default()
            });
            counters.collect()
        }
    };
}
pub(crate) use protocol_plumbing;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Transaction;
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
            _n: NodeId,
            _fx: &mut Effects,
        ) -> bool {
            if p.x.park {
                p.phase = Phase::Backend(7);
            }
            p.x.park
        }
    }

    const P0: NodeId = NodeId(0);

    fn driver(items: Vec<WorkItem>) -> Driver<Probe> {
        Driver::new(SystemConfig::with_procs(1), vec![ThreadProgram::new(items)])
    }

    fn start(d: &mut Driver<Probe>) -> Effects {
        let mut fx = Effects::default();
        d.enter_item(Cycle::ZERO, 0, P0, &mut fx);
        fx
    }

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Tx(Transaction::new(ops))
    }

    #[test]
    fn driver_phase_tags_round_trip() {
        let phases = [
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
        ];
        for phase in phases {
            let mut w = SnapWriter::new();
            phase.save(&mut w);
            let bytes = w.into_bytes();
            let back: Phase<u8> = SnapReader::new(&bytes).get().unwrap();
            assert_eq!(back, phase);
        }
        assert!(SnapReader::new(&[6u8]).get::<Phase<u8>>().is_err());
    }

    #[test]
    fn driver_runs_bodies_in_chunks_and_reports_the_end() {
        let mut d = driver(vec![tx(vec![TxOp::Compute(150), TxOp::Compute(150)])]);
        let fx = start(&mut d);
        assert_eq!(fx.wake_in, Some(0));
        assert_eq!(d.state_name(P0), "running");
        // 300 cycles of work overrun the 200-cycle chunk: yield first.
        let mut fx = Effects::default();
        assert_eq!(d.run_chunk(Cycle::ZERO, P0, &mut fx), None);
        assert_eq!(fx.wake_in, Some(300));
        let mut fx = Effects::default();
        assert_eq!(d.run_chunk(Cycle(300), P0, &mut fx), Some((Cycle(300), 0)));
        assert_eq!(d.procs[0].attempt_useful, 300);
        assert_eq!(d.procs[0].tx_instr, 300);
    }

    #[test]
    fn driver_stalls_on_a_miss_until_the_matching_fill() {
        let mut d = driver(vec![tx(vec![TxOp::Load(Addr(0x40))])]);
        start(&mut d);
        let mut fx = Effects::default();
        assert_eq!(d.run_chunk(Cycle::ZERO, P0, &mut fx), None);
        assert_eq!(d.state_name(P0), "wait-fill");
        let [(0, msg)] = fx.sends.as_slice() else {
            panic!("one fill request expected: {:?}", fx.sends)
        };
        let Payload::LoadRequest { line, req, .. } = msg.payload else {
            panic!("not a load request: {msg:?}")
        };
        let words = d.cfg.cache.geometry.words_per_line() as usize;
        let seq = d.procs[0].wake_seq;
        let mut fx = Effects::default();
        let stale = d.on_fill(
            Cycle(50),
            P0,
            line,
            LineValues::fresh(words),
            req + 1,
            &mut fx,
        );
        assert!(!stale, "a superseded reply is dropped");
        assert_eq!(d.procs[0].wake_seq, seq);
        assert!(d.on_fill(Cycle(150), P0, line, LineValues::fresh(words), req, &mut fx));
        assert_eq!(d.procs[0].attempt_miss, 150);
        assert_eq!(fx.wake_in, Some(0));
        let mut fx = Effects::default();
        assert!(d.run_chunk(Cycle(150), P0, &mut fx).is_some());
        assert_eq!(d.procs[0].reads_log.len(), 1);
    }

    #[test]
    fn driver_books_retired_and_restarted_attempts() {
        let mut d = driver(vec![tx(vec![TxOp::Compute(40)]), tx(vec![])]);
        start(&mut d);
        let mut fx = Effects::default();
        assert!(d.run_chunk(Cycle::ZERO, P0, &mut fx).is_some());
        // A failed attempt: its cycles become violation time and the
        // body restarts from the top.
        d.restart(Cycle(40), P0, &mut fx);
        let p = &d.procs[0];
        assert_eq!((p.violations, p.totals.violation, p.op), (1, 40, 0));
        assert_eq!((p.attempt_useful, p.tx_start), (0, Cycle(40)));
        let mut fx = Effects::default();
        assert!(d.run_chunk(Cycle(40), P0, &mut fx).is_some());
        d.procs[0].commit_start = Cycle(80);
        d.retire(P0, Tid(9), &[], &mut fx);
        let (record, chars) = fx.committed.take().expect("commit reported");
        assert_eq!((record.tid, chars.instructions), (Tid(9), 40));
        d.next_item(Cycle(90), 0, P0, &mut fx);
        let p = &d.procs[0];
        assert_eq!((p.commits, p.totals.useful, p.totals.commit), (1, 40, 10));
        assert_eq!((p.item, p.instructions), (1, 40));
    }

    #[test]
    fn driver_gate_parks_an_attempt() {
        let mut d = driver(vec![tx(vec![TxOp::Compute(5)])]);
        d.procs[0].x.park = true;
        let fx = start(&mut d);
        assert_eq!(fx.wake_in, None, "a parked attempt is not scheduled");
        assert_eq!(d.state_name(P0), "probe");
    }

    #[test]
    fn driver_books_barrier_idle_time_and_program_end() {
        let mut d = driver(vec![WorkItem::Barrier]);
        let fx = start(&mut d);
        assert!(fx.reached_barrier);
        let fx = d.release_barrier(Cycle(100), P0);
        assert!(fx.finished);
        d.assert_all_done();
        let p = &d.procs[0];
        assert_eq!((p.done_at, p.totals.idle), (Some(Cycle(100)), 100));
    }
}
