//! The small-scale TCC baseline: serialized, write-through commits.
//!
//! §2.2 of the paper describes the original TCC implementation that
//! Scalable TCC improves on: every committing transaction arbitrates
//! for a single global **commit token** (OCC condition 2 — one commit
//! at a time) and then pushes its entire write-set — addresses *and
//! data* — to every node over an ordered bus (write-through with
//! broadcast invalidation). Commit serialization places the sum of all
//! commit times on the critical path, which is exactly the scaling
//! bottleneck Figures 7–9 quantify against.
//!
//! This module is a **test-only oracle**: a second, standalone event
//! loop for the machine that production runs drive through the
//! serialized-commit backend ([`crate::serialized`], with
//! [`SystemConfig::serial_execution`] selecting OCC condition 1). The
//! differential tests in that module run both on identical workloads
//! and require identical results, so the two implementations check
//! each other.
//!
//! Modelling notes:
//! * The token arbiter lives on node 0 and grants FIFO.
//! * Memory is flat (no directories): loads are serviced by the home
//!   node from a global memory image at main-memory latency. Because
//!   commits are write-through, memory is always current.
//! * A transaction violated while queued for the token keeps its place;
//!   if the token arrives before it finishes re-executing, it holds the
//!   token (serializing the machine) and commits on completion — the
//!   simplest starvation-safe policy.
//! * The serializability checker is supported, but on an unordered mesh
//!   an in-flight stale fill can race a broadcast invalidation (the
//!   paper's bus is ordered, our mesh is not), so checked baseline
//!   workloads in the test suite avoid that race; the scalable protocol
//!   needs no such caveat.

use std::collections::HashMap;

use tcc_cache::{HierCache, LoadOutcome, StoreOutcome};
use tcc_engine::EventQueue;
use tcc_network::{Network, TrafficStats};
use tcc_types::{Cycle, DataSource, LineAddr, LineValues, Message, NodeId, Payload, Tid};

use crate::breakdown::Breakdown;
use crate::checker::{Checker, SerializabilityError, TxRecord};
use crate::config::SystemConfig;
use crate::program::{ThreadProgram, TxOp, WorkItem};

/// Memory service time at the home node, in cycles (symmetric with the
/// scalable protocol's directory-cache lookup).
const HOME_SERVICE: u64 = 10;
/// Token arbiter service time, in cycles.
const ARBITER_SERVICE: u64 = 2;

/// Which of Kung & Robinson's OCC overlap conditions (§2.1 of the
/// paper) the baseline machine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OccCondition {
    /// Condition 1: no execution overlap at all — a transaction may not
    /// even *start* until its predecessor finishes committing. The
    /// commit token is acquired before execution. Yields no concurrency
    /// whatsoever; the paper's lower bound.
    SerialExecution,
    /// Condition 2: execution overlaps, commits serialize — the original
    /// small-scale TCC (token acquired at validation, write-through
    /// broadcast commit).
    #[default]
    SerializedCommit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Fresh,
    Running,
    WaitFill {
        line: LineAddr,
        stall_start: Cycle,
        req: u64,
    },
    /// Condition 1 only: waiting for the token before *starting*.
    WaitTokenStart,
    WaitToken,
    Broadcasting {
        acks_left: u32,
    },
    AtBarrier {
        since: Cycle,
    },
    Done,
}

/// Results of a baseline run (a subset of the scalable
/// [`crate::SimResult`], same semantics).
#[derive(Debug)]
pub struct BaselineResult {
    /// Application makespan in cycles.
    pub total_cycles: u64,
    /// Per-processor breakdown, idle-padded to the makespan.
    pub breakdowns: Vec<Breakdown>,
    /// Committed transactions.
    pub commits: u64,
    /// Violated attempts.
    pub violations: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Remote-traffic accounting.
    pub traffic: TrafficStats,
    /// Serializability verdict, when the checker was enabled.
    pub serializability: Option<Result<(), SerializabilityError>>,
}

/// One processor of the baseline machine.
#[derive(Debug)]
struct BaseProc {
    cache: HierCache,
    program: ThreadProgram,
    item: usize,
    op: usize,
    state: State,
    has_token: bool,
    token_requested: bool,
    tx_start: Cycle,
    commit_start: Cycle,
    attempt_useful: u64,
    attempt_miss: u64,
    tx_instr: u64,
    reads_log: Vec<(LineAddr, usize, Option<Tid>)>,
    req_seq: u64,
    wake_seq: u64,
    totals: Breakdown,
    commits: u64,
    violations: u64,
    instructions: u64,
    done_at: Option<Cycle>,
}

#[derive(Debug)]
enum Event {
    Deliver(Message),
    Inject(Message),
    /// Processor continuation, tagged with the wake sequence at
    /// scheduling time (stale events are dropped).
    ProcStep(NodeId, u64),
}

/// The standalone small-scale TCC simulator.
#[derive(Debug)]
pub struct BaselineSimulator {
    cfg: SystemConfig,
    condition: OccCondition,
    queue: EventQueue<Event>,
    procs: Vec<BaseProc>,
    net: Network,
    memory: HashMap<LineAddr, LineValues>,
    home_busy: Vec<Cycle>,
    token_holder: Option<NodeId>,
    token_queue: Vec<NodeId>,
    commit_seq: u64,
    barrier_waiting: Vec<NodeId>,
    checker: Option<Checker>,
    active: usize,
}

impl BaselineSimulator {
    /// Builds a baseline machine; same contract as
    /// [`crate::Simulator::new`].
    ///
    /// # Panics
    ///
    /// Panics if the program count differs from the processor count or
    /// the programs disagree on barrier counts.
    #[must_use]
    pub fn new(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> BaselineSimulator {
        BaselineSimulator::with_condition(cfg, programs, OccCondition::SerializedCommit)
    }

    /// Builds a baseline machine implementing the given OCC condition.
    ///
    /// # Panics
    ///
    /// As [`BaselineSimulator::new`].
    #[must_use]
    pub fn with_condition(
        cfg: SystemConfig,
        programs: Vec<ThreadProgram>,
        condition: OccCondition,
    ) -> BaselineSimulator {
        assert_eq!(programs.len(), cfg.n_procs, "one program per processor");
        let counts: Vec<usize> = programs.iter().map(ThreadProgram::barriers).collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "barrier counts differ"
        );
        let procs: Vec<BaseProc> = programs
            .into_iter()
            .map(|p| BaseProc {
                cache: HierCache::new(cfg.cache.clone()),
                program: p,
                item: 0,
                op: 0,
                state: State::Fresh,
                has_token: false,
                token_requested: false,
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
            })
            .collect();
        let net = Network::new(
            cfg.n_procs,
            cfg.cache.geometry.line_bytes(),
            cfg.network.clone(),
        );
        let checker = cfg.check_serializability.then(Checker::new);
        let active = cfg.n_procs;
        BaselineSimulator {
            home_busy: vec![Cycle::ZERO; cfg.n_procs],
            cfg,
            condition,
            queue: EventQueue::new(),
            procs,
            net,
            memory: HashMap::new(),
            token_holder: None,
            token_queue: Vec::new(),
            commit_seq: 0,
            barrier_waiting: Vec::new(),
            checker,
            active,
        }
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics on deadlock or when `cfg.max_cycles` is exceeded.
    pub fn run(mut self) -> BaselineResult {
        for i in 0..self.procs.len() {
            self.enter_item(Cycle::ZERO, NodeId(i as u16));
        }
        while let Some((now, ev)) = self.queue.pop() {
            assert!(now.0 <= self.cfg.max_cycles, "baseline exceeded max_cycles");
            match ev {
                Event::ProcStep(n, seq) => {
                    if self.procs[n.index()].wake_seq == seq {
                        self.step(now, n);
                    }
                }
                Event::Inject(msg) => {
                    let arrival = self.net.send(now, &msg);
                    self.queue.schedule(arrival, Event::Deliver(msg));
                }
                Event::Deliver(msg) => self.deliver(now, msg),
            }
        }
        assert_eq!(
            self.active, 0,
            "baseline deadlock: processors never finished"
        );
        let end = self
            .procs
            .iter()
            .filter_map(|p| p.done_at)
            .max()
            .unwrap_or(Cycle::ZERO);
        for (i, p) in self.procs.iter_mut().enumerate() {
            if let Some(done) = p.done_at {
                p.totals.idle += end.since(done);
            }
            debug_assert_eq!(
                p.totals.total(),
                end.0,
                "P{i}: baseline breakdown does not sum to the makespan"
            );
        }
        BaselineResult {
            total_cycles: end.0,
            breakdowns: self.procs.iter().map(|p| p.totals).collect(),
            commits: self.procs.iter().map(|p| p.commits).sum(),
            violations: self.procs.iter().map(|p| p.violations).sum(),
            instructions: self.procs.iter().map(|p| p.instructions).sum(),
            traffic: self.net.stats().clone(),
            serializability: self.checker.as_ref().map(Checker::verify),
        }
    }

    /// Schedules a processor continuation, superseding earlier wakes.
    fn wake(&mut self, at: Cycle, n: NodeId) {
        let p = &mut self.procs[n.index()];
        p.wake_seq += 1;
        let seq = p.wake_seq;
        self.queue.schedule(at, Event::ProcStep(n, seq));
    }

    fn send(&mut self, now: Cycle, delay: u64, msg: Message) {
        if delay == 0 {
            let arrival = self.net.send(now, &msg);
            self.queue.schedule(arrival, Event::Deliver(msg));
        } else {
            self.queue.schedule(now + delay, Event::Inject(msg));
        }
    }

    fn geometry(&self) -> tcc_types::LineGeometry {
        self.cfg.cache.geometry
    }

    fn home_node(&self, line: LineAddr) -> NodeId {
        self.geometry().home_of(line, self.cfg.n_procs).node()
    }

    // ------------------------------------------------------------------
    // Program advancement
    // ------------------------------------------------------------------

    fn enter_item(&mut self, now: Cycle, n: NodeId) {
        let p = &mut self.procs[n.index()];
        match p.program.items.get(p.item) {
            Some(WorkItem::Tx(_)) => {
                p.op = 0;
                p.tx_start = now;
                p.attempt_useful = 0;
                p.attempt_miss = 0;
                p.tx_instr = 0;
                p.reads_log.clear();
                if self.condition == OccCondition::SerialExecution && !p.has_token {
                    // Condition 1: the predecessor must finish its
                    // commit before we may begin executing.
                    p.state = State::WaitTokenStart;
                    p.commit_start = now; // token wait counts as commit time
                    if !p.token_requested {
                        p.token_requested = true;
                        let msg =
                            Message::new(n, NodeId(0), Payload::TokenRequest { requester: n });
                        self.send(now, 0, msg);
                    }
                } else {
                    p.state = State::Running;
                    self.wake(now, n);
                }
            }
            Some(WorkItem::Barrier) => {
                p.state = State::AtBarrier { since: now };
                self.barrier_arrive(now, n);
            }
            None => {
                p.state = State::Done;
                p.done_at = Some(now);
                self.active -= 1;
            }
        }
    }

    fn barrier_arrive(&mut self, now: Cycle, n: NodeId) {
        self.barrier_waiting.push(n);
        if self.barrier_waiting.len() == self.cfg.n_procs {
            for n in std::mem::take(&mut self.barrier_waiting) {
                let p = &mut self.procs[n.index()];
                let State::AtBarrier { since } = p.state else {
                    unreachable!()
                };
                p.totals.idle += now.since(since);
                p.item += 1;
                self.enter_item(now, n);
            }
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn step(&mut self, now: Cycle, n: NodeId) {
        let chunk = self.cfg.exec_chunk;
        let geom = self.geometry();
        let mut elapsed = 0u64;
        loop {
            let p = &mut self.procs[n.index()];
            if p.state != State::Running {
                return; // a violation mid-event restarted us elsewhere
            }
            if elapsed >= chunk {
                self.wake(now + elapsed, n);
                return;
            }
            let Some(WorkItem::Tx(tx)) = p.program.items.get(p.item) else {
                unreachable!("running outside a transaction")
            };
            let Some(op) = tx.op(p.op) else {
                // Body complete: arbitrate for the commit token.
                self.tx_end(now + elapsed, n);
                return;
            };
            match op {
                TxOp::Compute(c) => {
                    elapsed += u64::from(c);
                    p.attempt_useful += u64::from(c);
                    p.tx_instr += u64::from(c);
                    p.op += 1;
                }
                TxOp::Load(a) => {
                    let line = geom.line_of(a);
                    let word = geom.word_index(a);
                    match p.cache.load(line, word) {
                        LoadOutcome::Hit {
                            level,
                            value,
                            own_speculative,
                            first_read,
                        } => {
                            let lat = self.cfg.cache.latency(level);
                            elapsed += lat;
                            p.attempt_useful += lat;
                            p.tx_instr += 1;
                            if !own_speculative && first_read {
                                p.reads_log.push((line, word, value));
                            }
                            p.op += 1;
                        }
                        LoadOutcome::Miss => {
                            p.req_seq += 1;
                            p.state = State::WaitFill {
                                line,
                                stall_start: now + elapsed,
                                req: p.req_seq,
                            };
                            let req = p.req_seq;
                            let msg = Message::new(
                                n,
                                self.home_node(line),
                                Payload::LoadRequest {
                                    line,
                                    requester: n,
                                    req,
                                },
                            );
                            self.send(now, elapsed, msg);
                            return;
                        }
                    }
                }
                TxOp::Store(a) => {
                    let line = geom.line_of(a);
                    let word = geom.word_index(a);
                    match p.cache.store(line, word) {
                        StoreOutcome::Hit { level, .. } => {
                            // Write-through: no pre-write-back needed.
                            let lat = self.cfg.cache.latency(level);
                            elapsed += lat;
                            p.attempt_useful += lat;
                            p.tx_instr += 1;
                            p.op += 1;
                        }
                        StoreOutcome::Miss => {
                            p.req_seq += 1;
                            p.state = State::WaitFill {
                                line,
                                stall_start: now + elapsed,
                                req: p.req_seq,
                            };
                            let req = p.req_seq;
                            let msg = Message::new(
                                n,
                                self.home_node(line),
                                Payload::LoadRequest {
                                    line,
                                    requester: n,
                                    req,
                                },
                            );
                            self.send(now, elapsed, msg);
                            return;
                        }
                    }
                }
            }
        }
    }

    fn tx_end(&mut self, now: Cycle, n: NodeId) {
        let p = &mut self.procs[n.index()];
        p.commit_start = now;
        if p.has_token {
            self.broadcast_commit(now, n);
            return;
        }
        p.state = State::WaitToken;
        if !p.token_requested {
            p.token_requested = true;
            let msg = Message::new(n, NodeId(0), Payload::TokenRequest { requester: n });
            self.send(now, 0, msg);
        }
    }

    /// Token-holder commits: push the write-set to every other node.
    fn broadcast_commit(&mut self, now: Cycle, n: NodeId) {
        let seq = Tid(self.commit_seq);
        self.commit_seq += 1;
        let p = &mut self.procs[n.index()];
        let write_set = p.cache.write_set();
        // Stamp values locally (commit order = token order).
        p.cache.commit_tx(seq);
        p.cache.clear_dirty_bits(); // write-through: memory is current
                                    // Record for the checker.
        let record = TxRecord {
            tid: seq,
            reads: std::mem::take(&mut p.reads_log),
            writes: write_set.clone(),
        };
        if let Some(c) = &mut self.checker {
            c.record(record);
        }
        // Gather the committed data to broadcast.
        let geom = self.geometry();
        let words = geom.words_per_line() as usize;
        let mut writes = Vec::with_capacity(write_set.len());
        for (line, mask) in &write_set {
            let mem = self
                .memory
                .entry(*line)
                .or_insert_with(|| LineValues::fresh(words));
            mem.apply_write(*mask, seq);
            writes.push((*line, *mask, mem.clone()));
        }
        let p = &mut self.procs[n.index()];
        p.commits += 1;
        p.instructions += p.tx_instr;
        p.totals.useful += p.attempt_useful;
        p.totals.cache_miss += p.attempt_miss;
        let n_others = (self.cfg.n_procs - 1) as u32;
        if n_others == 0 {
            self.finish_commit(now, n);
            return;
        }
        p.state = State::Broadcasting {
            acks_left: n_others,
        };
        for i in 0..self.cfg.n_procs {
            let dst = NodeId(i as u16);
            if dst == n {
                continue;
            }
            let msg = Message::new(
                n,
                dst,
                Payload::BaselineCommit {
                    writes: writes.clone(),
                    committer: n,
                    seq,
                },
            );
            self.send(now, 0, msg);
        }
    }

    /// All acks in: release the token and move on.
    fn finish_commit(&mut self, now: Cycle, n: NodeId) {
        let p = &mut self.procs[n.index()];
        p.totals.commit += now.since(p.commit_start);
        p.has_token = false;
        p.token_requested = false;
        p.item += 1;
        let msg = Message::new(n, NodeId(0), Payload::TokenRelease);
        self.send(now, 0, msg);
        self.enter_item(now, n);
    }

    fn violate(&mut self, now: Cycle, n: NodeId) {
        let p = &mut self.procs[n.index()];
        debug_assert!(!p.has_token, "token holder cannot be violated");
        p.violations += 1;
        p.cache.abort_tx();
        p.totals.violation += now.since(p.tx_start);
        p.op = 0;
        p.tx_start = now;
        p.attempt_useful = 0;
        p.attempt_miss = 0;
        p.tx_instr = 0;
        p.reads_log.clear();
        // Keep the token-queue position (token_requested stays set);
        // resume execution immediately.
        p.state = State::Running;
        self.wake(now, n);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn deliver(&mut self, now: Cycle, msg: Message) {
        let dst = msg.dst;
        match msg.payload {
            Payload::LoadRequest {
                line,
                requester,
                req,
            } => {
                // Home node services the load from flat memory.
                let d = dst.index();
                let words = self.geometry().words_per_line() as usize;
                let start = now.max(self.home_busy[d]);
                self.home_busy[d] = start + HOME_SERVICE;
                let values = self
                    .memory
                    .entry(line)
                    .or_insert_with(|| LineValues::fresh(words))
                    .clone();
                let reply = Message::new(
                    dst,
                    requester,
                    Payload::LoadReply {
                        line,
                        source: DataSource::Memory,
                        values,
                        req,
                    },
                );
                let at = start + HOME_SERVICE + self.cfg.mem_latency;
                self.queue.schedule(at, Event::Inject(reply));
            }
            Payload::LoadReply {
                line, values, req, ..
            } => self.on_fill(now, dst, line, values, req),
            Payload::TokenRequest { requester } => {
                debug_assert_eq!(dst, NodeId(0));
                if self.token_holder.is_none() {
                    self.token_holder = Some(requester);
                    let msg = Message::new(dst, requester, Payload::TokenGrant);
                    self.send(now, ARBITER_SERVICE, msg);
                } else {
                    self.token_queue.push(requester);
                }
            }
            Payload::TokenGrant => {
                let p = &mut self.procs[dst.index()];
                p.has_token = true;
                match p.state {
                    State::WaitToken => self.broadcast_commit(now, dst),
                    State::WaitTokenStart => {
                        // Condition 1: account the wait as commit time
                        // (the serialization the token imposes), then run.
                        p.totals.commit += now.since(p.commit_start);
                        p.tx_start = now;
                        p.state = State::Running;
                        self.wake(now, dst);
                    }
                    // A violation restarted the transaction; the token
                    // is held and the commit happens at the next tx_end.
                    _ => {}
                }
            }
            Payload::TokenRelease => {
                debug_assert_eq!(dst, NodeId(0));
                self.token_holder = None;
                if !self.token_queue.is_empty() {
                    let next = self.token_queue.remove(0);
                    self.token_holder = Some(next);
                    let msg = Message::new(dst, next, Payload::TokenGrant);
                    self.send(now, ARBITER_SERVICE, msg);
                }
            }
            Payload::BaselineCommit {
                writes, committer, ..
            } => {
                let mut conflict = false;
                let mut rerequests = Vec::new();
                {
                    let p = &mut self.procs[dst.index()];
                    for (line, mask, _) in &writes {
                        conflict |= p.cache.invalidate(*line, *mask).conflict;
                        // Supersede an in-flight fill of an invalidated
                        // line: its data predates this commit. The
                        // replacement departs no earlier than the
                        // original request's logical issue time (see
                        // the scalable processor's on_invalidate).
                        if let State::WaitFill {
                            line: l,
                            req,
                            stall_start,
                        } = &mut p.state
                        {
                            if l == line {
                                p.req_seq += 1;
                                *req = p.req_seq;
                                rerequests.push((*line, p.req_seq, stall_start.since(now)));
                            }
                        }
                    }
                }
                for (line, req, delay) in rerequests {
                    let m = Message::new(
                        dst,
                        self.home_node(line),
                        Payload::LoadRequest {
                            line,
                            requester: dst,
                            req,
                        },
                    );
                    self.send(now, delay, m);
                }
                let ack = Message::new(dst, committer, Payload::BaselineAck { from: dst });
                self.send(now, 1, ack);
                if conflict {
                    self.violate(now, dst);
                }
            }
            Payload::BaselineAck { .. } => {
                let p = &mut self.procs[dst.index()];
                let State::Broadcasting { acks_left } = &mut p.state else {
                    panic!("ack while not broadcasting");
                };
                *acks_left -= 1;
                if *acks_left == 0 {
                    self.finish_commit(now, dst);
                }
            }
            other => unreachable!("baseline received {:?}", other.kind_name()),
        }
    }

    fn on_fill(&mut self, now: Cycle, n: NodeId, line: LineAddr, values: LineValues, req: u64) {
        let p = &mut self.procs[n.index()];
        let State::WaitFill {
            line: expected,
            stall_start,
            req: want,
        } = p.state
        else {
            return; // stale fill after a violation restart: drop it
        };
        if req != want {
            return; // reply to a superseded request: drop it
        }
        debug_assert_eq!(line, expected);
        let r = p.cache.fill(line, values, false);
        assert!(
            !r.overflow,
            "baseline overflow: size workloads within the L2 for baseline runs"
        );
        p.attempt_miss += now.since(stall_start);
        p.state = State::Running;
        self.wake(now, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Transaction;
    use tcc_types::Addr;

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Tx(Transaction::new(ops))
    }

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig {
            check_serializability: true,
            ..SystemConfig::with_procs(n)
        }
    }

    #[test]
    fn single_processor_commits() {
        let programs = vec![ThreadProgram::new(vec![tx(vec![
            TxOp::Load(Addr(0x100)),
            TxOp::Compute(50),
            TxOp::Store(Addr(0x100)),
        ])])];
        let r = BaselineSimulator::new(cfg(1), programs).run();
        assert_eq!(r.commits, 1);
        assert_eq!(r.violations, 0);
        assert!(r.serializability.unwrap().is_ok());
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn commits_serialize_through_the_token() {
        // Four processors, disjoint data: all commit, zero violations,
        // but commit phases cannot overlap.
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Store(Addr(0x1000 * (p + 1))),
                    TxOp::Compute(10),
                ])])
            })
            .collect();
        let r = BaselineSimulator::new(cfg(4), programs).run();
        assert_eq!(r.commits, 4);
        assert_eq!(r.violations, 0);
        assert!(r.serializability.unwrap().is_ok());
    }

    #[test]
    fn conflicting_writer_violates_reader() {
        // P0 reads X then computes for a long time; P1 writes X and
        // commits quickly. P0 must violate at least once, then succeed.
        let x = Addr(0x40);
        let programs = vec![
            ThreadProgram::new(vec![tx(vec![TxOp::Load(x), TxOp::Compute(20_000)])]),
            ThreadProgram::new(vec![tx(vec![TxOp::Store(x), TxOp::Compute(10)])]),
        ];
        let r = BaselineSimulator::new(cfg(2), programs).run();
        assert_eq!(r.commits, 2);
        assert!(r.violations >= 1, "the long reader must be violated");
        assert!(r.serializability.unwrap().is_ok());
    }

    #[test]
    fn barriers_synchronize() {
        let programs: Vec<ThreadProgram> = (0..2u64)
            .map(|p| {
                ThreadProgram::new(vec![
                    tx(vec![TxOp::Compute(if p == 0 { 10 } else { 5000 })]),
                    WorkItem::Barrier,
                    tx(vec![TxOp::Compute(10)]),
                ])
            })
            .collect();
        let r = BaselineSimulator::new(cfg(2), programs).run();
        assert_eq!(r.commits, 4);
        // The fast processor idles at the barrier.
        assert!(r.breakdowns[0].idle > 0);
    }

    #[test]
    fn breakdown_sums_to_makespan() {
        let programs: Vec<ThreadProgram> = (0..2u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Load(Addr(0x1000 * (p + 1))),
                    TxOp::Compute(100),
                ])])
            })
            .collect();
        let r = BaselineSimulator::new(cfg(2), programs).run();
        for b in &r.breakdowns {
            assert_eq!(b.total(), r.total_cycles);
        }
    }
}
