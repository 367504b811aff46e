//! The serialized-commit baseline backend.
//!
//! This is the §2.2 small-scale TCC machine — a single global commit
//! token arbitrated FIFO on node 0, write-through broadcast commits,
//! flat memory at the home nodes — inside the full
//! [`Simulator`](crate::Simulator) event loop. The shared program
//! driver (`driver.rs`) runs the programs; this module owns the token,
//! the broadcast commit, and the homes. It runs two of Kung &
//! Robinson's OCC overlap conditions (§2.1): condition 2 by default
//! (execution overlaps, the token is taken once the body completes)
//! and condition 1 under [`SystemConfig::serial_execution`] (the token
//! is taken *before* the body runs, so only its holder executes; the
//! wait counts as commit time).
//!
//! The differential tests at the bottom of this module require a
//! second, test-only implementation of the same machine to produce
//! identical results on identical workloads under both conditions.

use std::collections::BTreeMap;

use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{
    snap_fields, snap_variants, Cycle, DataSource, LineAddr, LineValues, Message, NodeId, Payload,
    Tid, WordMask,
};

use crate::config::SystemConfig;
use crate::driver::{Backend, Driver, Effects, Phase, Proc};
use crate::program::ThreadProgram;
use crate::protocol::HomeTiming;

/// Memory service time at the home node, in cycles (symmetric with the
/// scalable protocol's directory-cache lookup).
const HOME_SERVICE: u64 = 10;
/// Token arbiter service time, in cycles.
const ARBITER_SERVICE: u64 = 2;

/// Commit-side phase of one serialized-commit processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenPhase {
    /// Condition 1: waiting for the token before *starting* the body.
    WaitTokenStart,
    /// Body complete, waiting for the token to commit.
    WaitToken,
    /// Write-set broadcast out, waiting for `acks_left` more acks.
    Broadcasting { acks_left: u32 },
}

snap_variants!(TokenPhase {
    WaitTokenStart,
    WaitToken,
    Broadcasting { acks_left },
});

/// A processor's standing with the commit token.
#[derive(Debug, Default)]
pub struct TokenState {
    has_token: bool,
    token_requested: bool,
}

snap_fields!(TokenState {
    has_token,
    token_requested,
});

/// One processor of the serialized-commit machine.
pub type SerializedProc = Proc<TokenState>;

impl Backend for TokenState {
    type Phase = TokenPhase;

    fn phase_name(phase: TokenPhase) -> &'static str {
        match phase {
            TokenPhase::WaitTokenStart => "wait-token-start",
            TokenPhase::WaitToken => "wait-token",
            TokenPhase::Broadcasting { .. } => "broadcasting",
        }
    }

    fn fill_request(line: LineAddr, requester: NodeId, req: u64) -> Payload {
        Payload::LoadRequest {
            line,
            requester,
            req,
        }
    }

    fn send(fx: &mut Effects, delay: u64, msg: Message) {
        emit(fx, 0, delay, msg);
    }

    /// Condition 1: the predecessor must finish its commit before this
    /// transaction may begin executing.
    fn gate(
        p: &mut SerializedProc,
        cfg: &SystemConfig,
        now: Cycle,
        delay: u64,
        fx: &mut Effects,
    ) -> bool {
        if !cfg.serial_execution || p.x.has_token {
            return false;
        }
        p.phase = Phase::Backend(TokenPhase::WaitTokenStart);
        p.commit_start = now; // the token wait counts as commit time
        request_token(p, delay, fx);
        true
    }
}

/// Puts zero-delay messages on the wire at *call* time (stamped
/// `now + offset`, claiming links in emission order, even when the
/// stamp is in the future of other queued events), while delayed
/// messages are injected later in time order — the small-scale
/// machine's send discipline, which decides mesh contention.
fn emit(fx: &mut Effects, offset: u64, delay: u64, msg: Message) {
    if delay == 0 {
        fx.immediate_sends.push((offset, msg));
    } else {
        fx.sends.push((offset + delay, msg));
    }
}

/// Queues `p` at the token arbiter unless it already is.
fn request_token(p: &mut SerializedProc, delay: u64, fx: &mut Effects) {
    if !p.x.token_requested {
        p.x.token_requested = true;
        let n = p.id;
        let msg = Message::new(n, NodeId(0), Payload::TokenRequest { requester: n });
        emit(fx, delay, 0, msg);
    }
}

/// The serialized-commit (small-scale TCC) backend.
#[derive(Debug)]
pub(crate) struct SerializedMachine {
    pub(crate) drv: Driver<TokenState>,
    /// Flat global memory at the home nodes; write-through commits keep
    /// it always current.
    memory: BTreeMap<LineAddr, LineValues>,
    /// The commit token: holder, FIFO wait queue (arbiter on node 0).
    token_holder: Option<NodeId>,
    token_queue: Vec<NodeId>,
    /// Commit (token-grant) order; doubles as the TID sequence.
    commit_seq: u64,
}

impl SerializedMachine {
    pub(crate) fn new(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> SerializedMachine {
        SerializedMachine {
            drv: Driver::new(cfg, programs),
            memory: BTreeMap::new(),
            token_holder: None,
            token_queue: Vec::new(),
            commit_seq: 0,
        }
    }

    /// Body complete: commit if the token is already held, otherwise
    /// arbitrate for it.
    pub(crate) fn body_end(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        p.commit_start = now;
        if p.x.has_token {
            self.broadcast_commit(now, delay, n, fx);
            return;
        }
        p.phase = Phase::Backend(TokenPhase::WaitToken);
        request_token(p, delay, fx);
    }

    /// Token-holder commits: push the write-set to every other node.
    fn broadcast_commit(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let seq = Tid(self.commit_seq);
        self.commit_seq += 1;
        let write_set = self.drv.procs[n.index()].cache.write_set();
        // Stamp values locally (commit order = token order); the
        // write-through commit leaves the cached copies clean.
        let p = &mut self.drv.procs[n.index()];
        p.retire(&self.drv.cfg, seq, &write_set, fx);
        p.cache.clear_dirty_bits();
        // Gather the committed data to broadcast.
        let n_procs = self.drv.cfg.n_procs;
        let words = self.drv.cfg.cache.geometry.words_per_line() as usize;
        let mut writes = Vec::with_capacity(write_set.len());
        for (line, mask) in &write_set {
            let mem = self
                .memory
                .entry(*line)
                .or_insert_with(|| LineValues::fresh(words));
            mem.apply_write(*mask, seq);
            writes.push((*line, *mask, mem.clone()));
        }
        let n_others = (n_procs - 1) as u32;
        if n_others == 0 {
            self.finish_commit(now, delay, n, fx);
            return;
        }
        self.drv.procs[n.index()].phase = Phase::Backend(TokenPhase::Broadcasting {
            acks_left: n_others,
        });
        for i in 0..n_procs {
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
            emit(fx, delay, 0, msg);
        }
    }

    /// All acks in: release the token and move on.
    fn finish_commit(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        p.x.has_token = false;
        p.x.token_requested = false;
        let release = Message::new(n, NodeId(0), Payload::TokenRelease);
        emit(fx, delay, 0, release);
        p.next_item(&self.drv.cfg, now, delay, fx);
    }

    /// A token grant arrived at `n`.
    fn on_grant(&mut self, now: Cycle, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        p.x.has_token = true;
        match p.phase {
            Phase::Backend(TokenPhase::WaitToken) => self.broadcast_commit(now, 0, n, fx),
            Phase::Backend(TokenPhase::WaitTokenStart) => {
                // Condition 1: account the wait as commit time (the
                // serialization the token imposes), then run.
                p.totals.commit += now.since(p.commit_start);
                p.tx_start = now;
                p.phase = Phase::Running;
                p.wake(0, fx);
            }
            // A violation restarted the transaction while queued: the
            // token is held and the commit happens at the next tx_end.
            _ => {}
        }
    }

    /// Another node's write-set broadcast arrived at `n`: invalidate,
    /// re-request any in-flight fill it supersedes, ack, and violate on
    /// a conflict.
    fn on_broadcast(
        &mut self,
        now: Cycle,
        n: NodeId,
        writes: &[(LineAddr, WordMask, LineValues)],
        committer: NodeId,
        fx: &mut Effects,
    ) {
        let mut conflict = false;
        let mut rerequests = Vec::new();
        let p = &mut self.drv.procs[n.index()];
        for (line, mask, _) in writes {
            conflict |= p.cache.invalidate(*line, *mask).conflict;
            // Supersede an in-flight fill of an invalidated line: its
            // data predates this commit. The replacement departs no
            // earlier than the original request's logical issue time
            // (see the scalable processor's on_invalidate).
            if let Phase::WaitFill {
                line: l,
                req,
                stall_start,
            } = &mut p.phase
            {
                if l == line {
                    p.req_seq += 1;
                    *req = p.req_seq;
                    rerequests.push((*line, p.req_seq, stall_start.since(now)));
                }
            }
        }
        for (line, req, delay) in rerequests {
            let msg = Message::new(
                n,
                self.drv.home_node(line),
                TokenState::fill_request(line, n, req),
            );
            TokenState::send(fx, delay, msg);
        }
        let ack = Message::new(n, committer, Payload::BaselineAck { from: n });
        fx.sends.push((1, ack));
        if conflict {
            assert!(
                !self.drv.procs[n.index()].x.has_token,
                "token holder violated"
            );
            // Keep the token-queue position (token_requested stays set);
            // resume execution immediately.
            self.drv.procs[n.index()].restart(now, fx);
        }
    }

    pub(crate) fn home_timing(&self, _cfg: &SystemConfig, payload: &Payload) -> Option<HomeTiming> {
        match payload {
            // Home nodes service loads from flat memory; no directory
            // cache exists (validate refuses `dir_cache_entries`), so no
            // line is touched.
            Payload::LoadRequest { .. } => Some(HomeTiming {
                service: HOME_SERVICE,
                touch: None,
            }),
            _ => None,
        }
    }

    pub(crate) fn on_home_message(
        &mut self,
        _done: Cycle,
        cfg: &SystemConfig,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) {
        let Payload::LoadRequest {
            line,
            requester,
            req,
        } = msg.payload
        else {
            unreachable!("non-load payload routed to a serialized home node")
        };
        let words = cfg.cache.geometry.words_per_line() as usize;
        let values = self
            .memory
            .entry(line)
            .or_insert_with(|| LineValues::fresh(words))
            .clone();
        let reply = Message::new(
            msg.dst,
            requester,
            Payload::LoadReply {
                line,
                source: DataSource::Memory,
                values,
                req,
            },
        );
        out.push((cfg.mem_latency, reply));
    }

    pub(crate) fn on_node_message(
        &mut self,
        now: Cycle,
        _cfg: &SystemConfig,
        msg: Message,
    ) -> Effects {
        let mut fx = Effects::default();
        let dst = msg.dst;
        match msg.payload {
            Payload::LoadReply {
                line, values, req, ..
            } => {
                let p = &mut self.drv.procs[dst.index()];
                p.on_fill(&self.drv.cfg, now, line, values, req, &mut fx);
            }
            Payload::TokenRequest { requester } => {
                debug_assert_eq!(dst, NodeId(0));
                if self.token_holder.is_none() {
                    self.token_holder = Some(requester);
                    let msg = Message::new(dst, requester, Payload::TokenGrant);
                    fx.sends.push((ARBITER_SERVICE, msg));
                } else {
                    self.token_queue.push(requester);
                }
            }
            Payload::TokenGrant => self.on_grant(now, dst, &mut fx),
            Payload::TokenRelease => {
                debug_assert_eq!(dst, NodeId(0));
                self.token_holder = None;
                if !self.token_queue.is_empty() {
                    let next = self.token_queue.remove(0);
                    self.token_holder = Some(next);
                    let msg = Message::new(dst, next, Payload::TokenGrant);
                    fx.sends.push((ARBITER_SERVICE, msg));
                }
            }
            Payload::BaselineCommit {
                writes, committer, ..
            } => self.on_broadcast(now, dst, &writes, committer, &mut fx),
            Payload::BaselineAck { .. } => {
                let p = &mut self.drv.procs[dst.index()];
                let Phase::Backend(TokenPhase::Broadcasting { acks_left }) = &mut p.phase else {
                    panic!("ack while not broadcasting");
                };
                *acks_left -= 1;
                if *acks_left == 0 {
                    self.finish_commit(now, 0, dst, &mut fx);
                }
            }
            other => unreachable!(
                "foreign-protocol message {:?} in the serialized baseline",
                other.kind_name()
            ),
        }
        fx
    }

    /// There are no directories; the token-grant sequence is the
    /// machine-wide notion of commit progress.
    pub(crate) fn dir_nstids(&self) -> Vec<Tid> {
        vec![Tid(self.commit_seq)]
    }

    pub(crate) fn progress_signature(&self, extra: [u64; 3]) -> u64 {
        let procs = &self.drv.procs;
        let words = procs
            .iter()
            .map(|p| p.commits)
            .chain(procs.iter().map(|p| p.item as u64))
            .chain([self.commit_seq])
            .chain(extra);
        tcc_engine::progress_signature(words)
    }

    /// Processors, home memory, then the token; the config is rebuilt
    /// by the resuming caller, not written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        self.drv.save_state(w);
        w.put(&self.memory);
        w.put(&self.token_holder);
        w.put(&self.token_queue);
        w.put(&self.commit_seq);
    }

    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.drv.restore_state(r)?;
        self.memory = r.get()?;
        self.token_holder = r.get()?;
        self.token_queue = r.get()?;
        self.commit_seq = r.get()?;
        Ok(())
    }

    /// With the queue drained, the token must be free with nobody
    /// queued, and every processor must have finished its program.
    pub(crate) fn assert_quiescent(&self) {
        assert!(
            self.token_holder.is_none(),
            "token still held at quiescence by {:?}",
            self.token_holder
        );
        assert!(
            self.token_queue.is_empty(),
            "processors still queued for the token at quiescence: {:?}",
            self.token_queue
        );
        self.drv.assert_all_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineSimulator, OccCondition};
    use crate::program::{Transaction, TxOp, WorkItem};
    use crate::sim::Simulator;
    use tcc_types::{Addr, ProtocolKind};

    const CONDITIONS: [OccCondition; 2] = [
        OccCondition::SerializedCommit,
        OccCondition::SerialExecution,
    ];

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Tx(Transaction::new(ops))
    }

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig {
            check_serializability: true,
            protocol: ProtocolKind::SerializedCommit,
            ..SystemConfig::with_procs(n)
        }
    }

    fn run(cfg_: SystemConfig, programs: Vec<ThreadProgram>) -> crate::SimResult {
        Simulator::builder(cfg_)
            .programs(programs)
            .build()
            .expect("valid serialized config")
            .run()
    }

    /// Runs the same workload through the standalone baseline simulator
    /// (the test-only oracle) in OCC `condition` and through the
    /// trait-hosted backend in the matching mode, and requires
    /// identical results — makespan, per-processor breakdowns,
    /// commit/violation/instruction counts, and traffic, down to the
    /// byte.
    fn differential(cfg_: SystemConfig, programs: Vec<ThreadProgram>, condition: OccCondition) {
        let base = BaselineSimulator::with_condition(
            SystemConfig {
                protocol: ProtocolKind::Tcc,
                ..cfg_.clone()
            },
            programs.clone(),
            condition,
        )
        .run();
        let ported = run(
            SystemConfig {
                serial_execution: condition == OccCondition::SerialExecution,
                ..cfg_
            },
            programs,
        );
        let what = format!("{condition:?}");
        assert_eq!(ported.total_cycles, base.total_cycles, "{what}: makespan");
        assert_eq!(ported.breakdowns, base.breakdowns, "{what}: breakdowns");
        assert_eq!(ported.commits, base.commits, "{what}: commits");
        assert_eq!(ported.violations, base.violations, "{what}: violations");
        assert_eq!(
            ported.instructions, base.instructions,
            "{what}: instructions"
        );
        assert_eq!(
            ported.traffic.total_bytes(),
            base.traffic.total_bytes(),
            "{what}: traffic bytes"
        );
        assert_eq!(
            ported.traffic.total_messages(),
            base.traffic.total_messages(),
            "{what}: traffic messages"
        );
        assert!(
            base.serializability.unwrap().is_ok(),
            "{what}: oracle run not serializable"
        );
        ported.assert_serializable();
    }

    /// [`differential`] under both OCC conditions.
    fn differential_both(cfg_: SystemConfig, programs: Vec<ThreadProgram>) {
        for condition in CONDITIONS {
            differential(cfg_.clone(), programs.clone(), condition);
        }
    }

    #[test]
    fn differential_single_processor() {
        let programs = vec![ThreadProgram::new(vec![tx(vec![
            TxOp::Load(Addr(0x100)),
            TxOp::Compute(50),
            TxOp::Store(Addr(0x100)),
        ])])];
        differential_both(cfg(1), programs);
    }

    #[test]
    fn differential_disjoint_writers() {
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Store(Addr(0x1000 * (p + 1))),
                    TxOp::Compute(10),
                ])])
            })
            .collect();
        differential_both(cfg(4), programs);
    }

    #[test]
    fn differential_conflicting_writer_violates_reader() {
        let x = Addr(0x40);
        let programs = vec![
            ThreadProgram::new(vec![tx(vec![TxOp::Load(x), TxOp::Compute(20_000)])]),
            ThreadProgram::new(vec![tx(vec![TxOp::Store(x), TxOp::Compute(10)])]),
        ];
        differential_both(cfg(2), programs);
    }

    #[test]
    fn differential_hot_line_contention() {
        // Every processor loads and stores the same line with skewed
        // compute times — maximal token contention plus the baseline's
        // call-order link reservations (a mid-chunk token request claims
        // the mesh ahead of an already-injected reply).
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Load(Addr(0x40)),
                    TxOp::Compute(40 + 13 * p as u32),
                    TxOp::Store(Addr(0x40)),
                ])])
            })
            .collect();
        differential_both(cfg(4), programs);
    }

    #[test]
    fn differential_barriers_and_shared_lines() {
        // Mixed phases: shared-counter contention, a barrier, then a
        // shuffle over neighbor lines — exercises violations, fill
        // rerequests, token queueing, and barrier release in both
        // implementations.
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![
                    tx(vec![
                        TxOp::Load(Addr(0x40)),
                        TxOp::Compute(40 + 13 * p as u32),
                        TxOp::Store(Addr(0x40)),
                    ]),
                    WorkItem::Barrier,
                    tx(vec![
                        TxOp::Load(Addr(0x200 * ((p + 1) % 4 + 1))),
                        TxOp::Compute(25),
                        TxOp::Store(Addr(0x200 * (p + 1))),
                    ]),
                ])
            })
            .collect();
        differential_both(cfg(4), programs);
    }

    /// Rebuilds programs generated by `tcc-workloads`. That crate links
    /// the non-test build of this one, so its program types are foreign
    /// here; the derived `Debug` rendering carries every field, and the
    /// round trip is checked against it.
    fn app_programs(app: &tcc_workloads::AppProfile, n: usize) -> Vec<ThreadProgram> {
        const SEED: u64 = 0x7cc_5eed;
        fn operand<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> u64 {
            tokens
                .find_map(|t| t.parse().ok())
                .expect("numeric operand")
        }
        app.generate_scaled(n, SEED, tcc_workloads::Scale::Smoke)
            .iter()
            .map(|foreign| {
                let debug = format!("{foreign:?}");
                let mut items: Vec<WorkItem> = Vec::new();
                let mut tokens = debug
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .filter(|t| !t.is_empty());
                while let Some(t) = tokens.next() {
                    let op = match t {
                        "Tx" => {
                            items.push(tx(Vec::new()));
                            continue;
                        }
                        "Barrier" => {
                            items.push(WorkItem::Barrier);
                            continue;
                        }
                        "Compute" => TxOp::Compute(operand(&mut tokens) as u32),
                        "Load" => TxOp::Load(Addr(operand(&mut tokens))),
                        "Store" => TxOp::Store(Addr(operand(&mut tokens))),
                        _ => continue,
                    };
                    let Some(WorkItem::Tx(t)) = items.last_mut() else {
                        panic!("operation outside a transaction")
                    };
                    t.push(op);
                }
                let program = ThreadProgram::new(items);
                assert_eq!(format!("{program:?}"), debug, "program round trip");
                program
            })
            .collect()
    }

    #[test]
    fn differential_volrend() {
        let app = tcc_workloads::apps::volrend();
        for n in [1, 4, 16] {
            differential_both(cfg(n), app_programs(&app, n));
        }
    }

    #[test]
    fn differential_swim_and_water_spatial() {
        for app in [
            tcc_workloads::apps::swim(),
            tcc_workloads::apps::water_spatial(),
        ] {
            differential_both(cfg(16), app_programs(&app, 16));
        }
    }

    #[test]
    fn serial_execution_never_overlaps_or_violates() {
        // OCC condition 1: even wildly conflicting transactions cannot
        // violate because only the token holder ever executes.
        let x = Addr(0x40);
        let programs: Vec<ThreadProgram> = (0..4)
            .map(|_| {
                ThreadProgram::new(vec![
                    tx(vec![TxOp::Load(x), TxOp::Compute(500), TxOp::Store(x)]),
                    tx(vec![TxOp::Load(x), TxOp::Store(x)]),
                ])
            })
            .collect();
        let serial = SystemConfig {
            serial_execution: true,
            ..cfg(4)
        };
        let r = run(serial, programs);
        assert_eq!(r.commits, 8);
        assert_eq!(r.violations, 0, "serial execution cannot conflict");
        r.assert_serializable();
    }

    #[test]
    fn serial_execution_is_slower_than_serialized_commit() {
        // Condition 1 gives strictly less concurrency than condition 2
        // on independent work.
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Store(Addr(0x4000 * (p + 1))),
                    TxOp::Compute(5_000),
                ])])
            })
            .collect();
        let serial = SystemConfig {
            serial_execution: true,
            ..cfg(4)
        };
        let c1 = run(serial, programs.clone()).total_cycles;
        let c2 = run(cfg(4), programs).total_cycles;
        assert!(
            c1 as f64 > c2 as f64 * 2.0,
            "serial execution ({c1}) should be far slower than serialized commit ({c2})"
        );
    }

    #[test]
    fn serialized_commits_never_overlap() {
        // The trait-hosted backend preserves the defining property:
        // exactly one committer at a time, FIFO through the token.
        let programs: Vec<ThreadProgram> = (0..8u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Store(Addr(0x800 * (p + 1))),
                    TxOp::Compute(30),
                ])])
            })
            .collect();
        let r = run(cfg(8), programs);
        assert_eq!(r.commits, 8);
        assert_eq!(r.violations, 0);
        r.assert_serializable();
    }

    #[test]
    fn serialized_checkpoint_round_trips() {
        // Pause mid-run, checkpoint, resume in a fresh machine: the
        // final results must be identical to the uninterrupted run, in
        // either OCC condition.
        let mk_programs = || -> Vec<ThreadProgram> {
            (0..4u64)
                .map(|p| {
                    ThreadProgram::new(vec![
                        tx(vec![
                            TxOp::Load(Addr(0x40)),
                            TxOp::Compute(50 + 7 * p as u32),
                            TxOp::Store(Addr(0x40)),
                        ]),
                        tx(vec![TxOp::Store(Addr(0x900 * (p + 1))), TxOp::Compute(20)]),
                    ])
                })
                .collect()
        };
        for serial_execution in [false, true] {
            let c = SystemConfig {
                serial_execution,
                ..cfg(4)
            };
            let uninterrupted = run(c.clone(), mk_programs());
            let stepped = Simulator::builder(c.clone())
                .programs(mk_programs())
                .build()
                .expect("valid config")
                .try_run_until(Some(Cycle(300)))
                .expect("no stall");
            let resumed = match stepped {
                crate::sim::Step::Paused(sim) => {
                    let snap = sim.checkpoint();
                    Simulator::resume(c, mk_programs(), &snap)
                        .expect("resume accepts its own checkpoint")
                        .run()
                }
                crate::sim::Step::Done(_) => panic!("run finished before the pause cycle"),
            };
            assert_eq!(resumed.total_cycles, uninterrupted.total_cycles);
            assert_eq!(resumed.commits, uninterrupted.commits);
            assert_eq!(resumed.violations, uninterrupted.violations);
            assert_eq!(resumed.breakdowns, uninterrupted.breakdowns);
            resumed.assert_serializable();
        }
    }

    #[test]
    fn snapshot_protocol_tag_is_gated() {
        // A snapshot captured under the serialized backend must be
        // refused by a TCC-configured resume (and the refusal must name
        // both protocols).
        let programs = vec![ThreadProgram::new(vec![tx(vec![TxOp::Compute(10_000)])])];
        let sim = Simulator::builder(cfg(1))
            .programs(programs.clone())
            .build()
            .expect("valid config");
        let snap = sim.checkpoint();
        let tcc_cfg = SystemConfig {
            protocol: ProtocolKind::Tcc,
            ..cfg(1)
        };
        let err = Simulator::resume(tcc_cfg, programs, &snap);
        assert!(err.is_err(), "cross-protocol resume must be refused");
    }
}
