//! The backend boundary: [`Machine`], the statically dispatched sum of
//! the three coherence/commit backends the simulator can run.
//!
//! The event loop (`sim.rs`) owns everything backends have in common —
//! the event queue, the mesh network and its traffic accounting, the
//! reliable transport and chaos wire, directory-controller occupancy
//! and the capacity-limited directory caches, barriers, the
//! serializability checker, watchdog, tracer, and snapshot plumbing. A
//! backend owns what differs: the per-processor commit state machine,
//! the per-line home state, and the message vocabulary flowing between
//! them. Its processors run on the shared program driver (`driver.rs`),
//! which the machine keeps in a `drv` field.
//!
//! The set of backends is closed — one per [`ProtocolKind`] — so
//! `Machine` is the whole contract: each backend names its handlers as
//! inherent methods of one shape, `dispatch!` forwards to them with a
//! `match`, and the few hooks only some backends have are matched here
//! with a default arm. Every backend thereby inherits checkpoint/resume,
//! the chaos fault injector and schedule explorer, `tcc-trace`
//! observability, and the stall diagnostics; none of those layers know
//! which backend is running.
//!
//! # Delivery contract
//!
//! Message delivery is split by [`Machine::home_timing`]:
//!
//! * `Some(timing)` marks a *home* (directory-controller) message. The
//!   simulator applies shared occupancy timing — serialize on the
//!   controller (`dir_busy`), walk the directory cache if the payload
//!   names a line, charge `mem_latency` on a miss — and then hands the
//!   message to [`Machine::on_home_message`] at the service-complete
//!   cycle. Replies come back as `(extra_delay, message)` pairs and are
//!   injected at `done + extra_delay`.
//! * `None` marks a *node* message (processor replies, the TID vendor,
//!   token arbitration): [`Machine::on_node_message`] runs at the
//!   arrival cycle and returns ordinary [`Effects`].
//!
//! # Determinism contract
//!
//! Every handler is a pure function of the machine state and its
//! arguments (no wall-clock, no ambient randomness), and
//! `save_state`/`restore_state` round-trip exactly: a restored machine
//! continues byte-identically. The chaos soak and checkpoint
//! differential suites enforce this for every backend.

use tcc_directory::{DirAction, DirConfig, Directory, TardisHome};
use tcc_trace::Tracer;
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{Cycle, DirId, LineAddr, Message, NodeId, Payload, ProtocolKind, Tid};

use crate::breakdown::Breakdown;
use crate::config::SystemConfig;
use crate::driver::{Driver, Effects, ProcCounters};
use crate::processor::{Processor, TccState};
use crate::profiling::ProfileReport;
use crate::program::ThreadProgram;
use crate::serialized::SerializedMachine;
use crate::sim::VENDOR_SERVICE;
use crate::stall::StallReason;
use crate::tardis::TardisMachine;

/// How long a home (directory-controller) message occupies the
/// controller, as computed by [`Machine::home_timing`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct HomeTiming {
    /// Controller service time in cycles (before any directory-cache
    /// miss surcharge).
    pub(crate) service: u64,
    /// Line whose home state the message walks, if any: the simulator
    /// touches the directory cache for it and adds `mem_latency` to the
    /// service on a miss.
    pub(crate) touch: Option<LineAddr>,
}

/// The paper's Scalable TCC backend: directory-based non-blocking
/// commit with TID-vendor ordering, skip/probe arbitration, and
/// invalidation multicasts.
///
/// The per-node handlers ([`TccMachine::on_home`],
/// [`TccMachine::on_node`]) are associated functions over one node's
/// components, so unit tests can drive a lone directory; the machine's
/// message handlers are thin calls into them.
#[derive(Debug)]
pub(crate) struct TccMachine {
    pub(crate) drv: Driver<TccState>,
    pub(crate) dirs: Vec<Directory>,
    /// Next TID the vendor (node 0) will hand out.
    vendor_next: u64,
    tracer: Tracer,
    /// The first directory fault raised by a handler, until the event
    /// loop takes it.
    pub(crate) fault: Option<StallReason>,
}

impl TccMachine {
    pub(crate) fn new(
        cfg: SystemConfig,
        programs: Vec<ThreadProgram>,
        tracer: &Tracer,
    ) -> TccMachine {
        let mut drv: Driver<TccState> = Driver::new(cfg, programs);
        for p in &mut drv.procs {
            p.x.tracer = tracer.clone();
        }
        let cfg = &drv.cfg;
        let dirs = (0..cfg.n_procs)
            .map(|i| {
                let mut d = Directory::new(DirConfig {
                    id: DirId(i as u16),
                    words_per_line: cfg.cache.geometry.words_per_line() as usize,
                    bugs: cfg.bugs,
                });
                d.set_tracer(tracer.clone());
                d
            })
            .collect();
        TccMachine {
            drv,
            dirs,
            vendor_next: 0,
            tracer: tracer.clone(),
            fault: None,
        }
    }

    /// Body complete: enter validation.
    fn body_end(&mut self, at: Cycle, delay: u64, node: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[node.index()];
        fx.merge(p.begin_validation(&self.drv.cfg, at, delay));
    }

    /// One directory's reaction to a home message at its
    /// service-complete cycle `done`. Replies are pushed to `out` as
    /// `(extra_delay, message)`; a memory fill pays `mem_latency` on
    /// top of the lookup. Returns the directory's skip refusal as a
    /// typed stall, if it has recorded one.
    pub(crate) fn on_home(
        dir: &mut Directory,
        done: Cycle,
        cfg: &SystemConfig,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) -> Option<StallReason> {
        let home = msg.dst;
        // Flushes never prune the sharers list — even when the owner
        // dropped its copy (Fig. 2f mode). A load reply for the same
        // line may be in flight to the flusher, so eager pruning could
        // leave it caching the line unlisted. Stale sharers are pruned
        // self-healingly by the `retained = false` invalidation acks.
        let flush = matches!(msg.payload, Payload::Flush { .. });
        let mut actions: Vec<DirAction> = match msg.payload {
            Payload::LoadRequest {
                line,
                requester,
                req,
            } => dir.handle_load(done, line, requester, req),
            Payload::Skip { tid } => dir.handle_skip(done, tid),
            Payload::Probe {
                tid,
                requester,
                for_write,
            } => dir.handle_probe(done, tid, requester, for_write),
            Payload::Mark {
                tid,
                line,
                words,
                committer,
            } => dir.handle_mark(done, tid, line, words, committer),
            Payload::Commit {
                tid,
                committer,
                marks,
            } => dir.handle_commit(done, tid, committer, marks),
            Payload::Abort { tid } => dir.handle_abort(done, tid),
            Payload::WriteBack {
                line,
                tid,
                values,
                valid,
                writer,
            }
            | Payload::Flush {
                line,
                tid,
                values,
                valid,
                writer,
                ..
            } => dir.handle_writeback(line, tid, values, valid, writer, flush),
            Payload::InvAck {
                tid,
                line,
                from,
                retained,
            } => dir.handle_inv_ack(done, tid, line, from, retained),
            _ => unreachable!("non-directory payload routed to directory"),
        };
        let refusal = dir.skip_refusal().map(|r| StallReason::SkipRefused {
            dir: home,
            tid: r.tid,
            now_serving: r.now_serving,
            window: r.window,
        });
        for a in actions.drain(..) {
            let extra = match &a.payload {
                Payload::LoadReply {
                    source: tcc_types::DataSource::Memory,
                    ..
                } => cfg.mem_latency,
                _ => 0,
            };
            out.push((extra, Message::new(home, a.to, a.payload)));
        }
        // Hand the buffer back so the next handler call reuses it
        // instead of allocating a fresh `Vec`.
        dir.recycle_actions(actions);
        refusal
    }

    /// One node's reaction to a node message at its arrival cycle:
    /// the TID vendor (`vendor_next` is only advanced on the vendor
    /// node) or `proc_`'s transaction state machine.
    pub(crate) fn on_node(
        proc_: &mut Processor,
        vendor_next: &mut u64,
        tracer: &Tracer,
        now: Cycle,
        cfg: &SystemConfig,
        msg: Message,
    ) -> Effects {
        let dst = msg.dst;
        match msg.payload {
            Payload::TidRequest { requester } => {
                debug_assert_eq!(dst, cfg.vendor_node());
                tracer.count("vendor.tid_requests", 1);
                let tid = Tid(*vendor_next);
                *vendor_next += 1;
                let reply = Message::new(dst, requester, Payload::TidReply { tid });
                Effects {
                    sends: vec![(VENDOR_SERVICE, reply)],
                    ..Effects::default()
                }
            }
            Payload::LoadReply {
                line, values, req, ..
            } => {
                let mut fx = Effects::default();
                proc_.on_fill(cfg, now, line, values, req, &mut fx);
                fx
            }
            Payload::TidReply { tid } => proc_.on_tid_reply(cfg, now, tid),
            Payload::ProbeReply {
                dir,
                now_serving,
                probe_tid,
                for_write,
            } => proc_.on_probe_reply(cfg, now, dir, now_serving, probe_tid, for_write),
            Payload::DataRequest { line } => proc_.on_data_request(cfg, line),
            Payload::Invalidate {
                line,
                words,
                committer_tid,
                dir,
            } => proc_.on_invalidate(cfg, now, line, words, committer_tid, dir),
            _ => unreachable!("foreign-protocol message in the scalable TCC protocol"),
        }
    }

    fn home_timing(&self, cfg: &SystemConfig, payload: &Payload) -> Option<HomeTiming> {
        match payload {
            // Line-state operations walk the directory cache.
            Payload::LoadRequest { line, .. }
            | Payload::Mark { line, .. }
            | Payload::WriteBack { line, .. }
            | Payload::Flush { line, .. } => Some(HomeTiming {
                service: cfg.dir_line_latency,
                touch: Some(*line),
            }),
            Payload::Commit { .. } => Some(HomeTiming {
                service: cfg.dir_line_latency,
                touch: None,
            }),
            // Register-only operations are cheap.
            Payload::Skip { .. }
            | Payload::Probe { .. }
            | Payload::Abort { .. }
            | Payload::InvAck { .. } => Some(HomeTiming {
                service: cfg.dir_ctrl_latency,
                touch: None,
            }),
            _ => None,
        }
    }

    fn on_home_message(
        &mut self,
        done: Cycle,
        cfg: &SystemConfig,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) {
        let dir = &mut self.dirs[msg.dst.index()];
        if let Some(r) = Self::on_home(dir, done, cfg, msg, out) {
            self.fault.get_or_insert(r);
        }
    }

    fn on_node_message(&mut self, now: Cycle, cfg: &SystemConfig, msg: Message) -> Effects {
        let proc_ = &mut self.drv.procs[msg.dst.index()];
        Self::on_node(proc_, &mut self.vendor_next, &self.tracer, now, cfg, msg)
    }

    fn dir_nstids(&self) -> Vec<Tid> {
        self.dirs.iter().map(Directory::now_serving).collect()
    }

    fn progress_signature(&self, extra: [u64; 3]) -> u64 {
        let words = self
            .drv
            .procs
            .iter()
            .map(|p| p.commits)
            .chain(self.dirs.iter().map(|d| d.now_serving().0))
            .chain([self.vendor_next])
            .chain(extra);
        tcc_engine::progress_signature(words)
    }

    /// Processors, directories, then the TID vendor. The tracer is
    /// re-attached on restore, and a directory fault never outlives the
    /// event that raised it.
    fn save_state(&self, w: &mut SnapWriter) {
        self.drv.save_state(w);
        for d in &self.dirs {
            d.save_state(w);
        }
        w.put(&self.vendor_next);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.drv.restore_state(r)?;
        for p in &mut self.drv.procs {
            p.x.tracer = self.tracer.clone();
        }
        for d in &mut self.dirs {
            d.restore_state(r)?;
        }
        self.vendor_next = r.get()?;
        Ok(())
    }

    /// With the queue drained, every directory must be quiescent with
    /// its NSTID at the end of the vended sequence, and every ownership
    /// record must point at a processor actually holding the line dirty
    /// (no data can be lost in flight once nothing is in flight).
    fn assert_quiescent(&self) {
        let expected = Tid(self.vendor_next);
        for d in &self.dirs {
            d.assert_quiescent(expected);
            for (line, entry) in d.entries() {
                if let Some(owner) = entry.owner {
                    let p = &self.drv.procs[owner.index()];
                    assert!(
                        p.cache.is_dirty(line) || p.has_dirty_spill(line),
                        "{owner} is recorded as owner of {line} but holds no dirty copy"
                    );
                }
            }
        }
    }
}

/// The statically dispatched sum of all protocol backends. The
/// simulator stores one of these; every call is a `match` on the
/// variant, so there is no boxing or vtable in the event loop.
#[derive(Debug)]
pub(crate) enum Machine {
    /// Scalable TCC (the paper's protocol).
    Tcc(TccMachine),
    /// The §2.2 serialized-commit (small-scale TCC) baseline.
    Serialized(SerializedMachine),
    /// Timestamp-ordered coherence (Tardis-style): lease-based reads,
    /// logical-time commits, zero invalidation traffic.
    Tardis(TardisMachine),
}

/// Forwards a `Machine` method to the active backend.
macro_rules! dispatch {
    ($self:expr, $m:pat => $body:expr) => {
        match $self {
            Machine::Tcc($m) => $body,
            Machine::Serialized($m) => $body,
            Machine::Tardis($m) => $body,
        }
    };
}

impl Machine {
    /// Builds the backend `cfg.protocol` names, running `programs`.
    pub(crate) fn new(cfg: SystemConfig, programs: Vec<ThreadProgram>, tracer: &Tracer) -> Machine {
        match cfg.protocol {
            ProtocolKind::Tcc => Machine::Tcc(TccMachine::new(cfg, programs, tracer)),
            ProtocolKind::SerializedCommit => {
                Machine::Serialized(SerializedMachine::new(cfg, programs))
            }
            ProtocolKind::Tardis => Machine::Tardis(TardisMachine::new(cfg, programs)),
        }
    }

    /// Starts `node`'s program at cycle `now` (called exactly once per
    /// processor, before any event).
    pub(crate) fn start(&mut self, now: Cycle, node: NodeId) -> Effects {
        dispatch!(self, m => m.drv.start(now, node))
    }

    /// The programs the machine was built with, in processor order.
    pub(crate) fn programs(&self) -> Vec<&ThreadProgram> {
        dispatch!(self, m => m.drv.programs())
    }

    /// One execution step of `node` (a `ProcStep` event fired): a chunk
    /// of its body, then the backend's commit once the body completes.
    pub(crate) fn step(&mut self, now: Cycle, node: NodeId) -> Effects {
        let mut fx = Effects::default();
        dispatch!(self, m => if let Some((at, delay)) = m.drv.run_chunk(now, node, &mut fx) {
            m.body_end(at, delay, node, &mut fx);
        });
        fx
    }

    /// All processors reached the barrier; release `node`.
    pub(crate) fn release_barrier(&mut self, now: Cycle, node: NodeId) -> Effects {
        dispatch!(self, m => m.drv.release_barrier(now, node))
    }

    /// `node`'s wake-sequence number; a `ProcStep` event whose stamped
    /// sequence differs is stale and dropped.
    pub(crate) fn wake_seq(&self, node: NodeId) -> u64 {
        dispatch!(self, m => m.drv.procs[node.index()].wake_seq)
    }

    /// Human-readable protocol phase of `node` (stall diagnostics).
    pub(crate) fn state_name(&self, node: NodeId) -> &'static str {
        dispatch!(self, m => m.drv.procs[node.index()].state_name())
    }

    /// Classifies a payload: `Some` makes it a home message with the
    /// given occupancy timing, `None` a node message.
    pub(crate) fn home_timing(&self, cfg: &SystemConfig, payload: &Payload) -> Option<HomeTiming> {
        dispatch!(self, m => m.home_timing(cfg, payload))
    }

    /// Handles a home message at its service-complete cycle `done`.
    /// Replies are pushed as `(extra_delay, message)` and injected at
    /// `done + extra_delay`.
    pub(crate) fn on_home_message(
        &mut self,
        done: Cycle,
        cfg: &SystemConfig,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) {
        dispatch!(self, m => m.on_home_message(done, cfg, msg, out));
    }

    /// Handles a node message at its arrival cycle.
    pub(crate) fn on_node_message(
        &mut self,
        now: Cycle,
        cfg: &SystemConfig,
        msg: Message,
    ) -> Effects {
        dispatch!(self, m => m.on_node_message(now, cfg, msg))
    }

    /// Takes a component fault raised during a handler (the TCC
    /// directory's bounded skip-vector refusal); the event loop turns
    /// it into a typed stall.
    pub(crate) fn take_fault(&mut self) -> Option<StallReason> {
        match self {
            Machine::Tcc(m) => m.fault.take(),
            _ => None,
        }
    }

    /// Machine-wide committed-transaction count (stall diagnostics).
    pub(crate) fn commits_total(&self) -> u64 {
        self.proc_counters().iter().map(|c| c.commits).sum()
    }

    /// Per-directory Now-Serving TIDs, or the closest per-home notion
    /// of commit progress (stall diagnostics).
    pub(crate) fn dir_nstids(&self) -> Vec<Tid> {
        dispatch!(self, m => m.dir_nstids())
    }

    /// Folds the backend's progress-relevant words (commit counts,
    /// per-home serving state, vended identifiers) with the simulator's
    /// `extra` words into one watchdog signature.
    pub(crate) fn progress_signature(&self, extra: [u64; 3]) -> u64 {
        dispatch!(self, m => m.progress_signature(extra))
    }

    /// Cycle at which the last processor finished (the makespan).
    pub(crate) fn done_at_max(&self) -> Cycle {
        dispatch!(self, m => m.drv.done_at_max())
    }

    /// Pads every processor's breakdown with idle time up to `end`.
    pub(crate) fn pad_idle_to(&mut self, end: Cycle) {
        dispatch!(self, m => m.drv.pad_idle_to(end));
    }

    /// Per-processor execution-time breakdowns.
    pub(crate) fn breakdowns(&self) -> Vec<Breakdown> {
        dispatch!(self, m => m.drv.breakdowns())
    }

    /// Per-processor protocol counters.
    pub(crate) fn proc_counters(&self) -> Vec<ProcCounters> {
        dispatch!(self, m => m.drv.proc_counters())
    }

    /// Drains per-processor TAPE profiling events into `report`. The
    /// hooks live in the TCC processor only (`SystemConfig::validate`
    /// refuses `profile` elsewhere).
    pub(crate) fn take_profile(&mut self, report: &mut ProfileReport) {
        if let Machine::Tcc(m) = self {
            for p in &mut m.drv.procs {
                let (v, s) = p.take_profile();
                report.violations.extend(v);
                report.starvation.extend(s);
            }
        }
    }

    /// Per-commit directory-occupancy samples across all directories
    /// (cycles per commit; Table 3). Only TCC directories time the
    /// commits they serve: serialized and Tardis runs return none.
    pub(crate) fn dir_occupancy(&self) -> Vec<u64> {
        match self {
            Machine::Tcc(m) => m
                .dirs
                .iter()
                .flat_map(|d| d.stats().occupancy.iter().copied())
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Per-home working-set size at end of run (Table 3); empty for a
    /// backend without directory state.
    pub(crate) fn dir_working_set(&self) -> Vec<usize> {
        match self {
            Machine::Tcc(m) => m.dirs.iter().map(Directory::working_set_entries).collect(),
            Machine::Tardis(m) => m.homes.iter().map(TardisHome::working_set).collect(),
            _ => Vec::new(),
        }
    }

    /// Serializes the backend's complete mutable state.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        dispatch!(self, m => m.save_state(w));
    }

    /// Overlays a snapshot captured by [`Machine::save_state`] onto
    /// this freshly built machine.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        dispatch!(self, m => m.restore_state(r))
    }

    /// End-of-run invariants with the event queue drained; panics on
    /// violation.
    pub(crate) fn assert_quiescent(&self) {
        dispatch!(self, m => m.assert_quiescent());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_directory::{DirConfig, SkipVector};
    use tcc_types::{DataSource, DirId};

    fn home(cfg: &SystemConfig) -> Directory {
        Directory::new(DirConfig {
            id: DirId(0),
            words_per_line: cfg.cache.geometry.words_per_line() as usize,
            bugs: cfg.bugs,
        })
    }

    fn to_home(payload: Payload) -> Message {
        Message::new(NodeId(1), NodeId(0), payload)
    }

    #[test]
    fn memory_sourced_load_reply_carries_the_memory_latency() {
        let cfg = SystemConfig::with_procs(2);
        let mut dir = home(&cfg);
        let mut out = Vec::new();
        let load = to_home(Payload::LoadRequest {
            line: LineAddr(7),
            requester: NodeId(1),
            req: 3,
        });
        assert!(TccMachine::on_home(&mut dir, Cycle(10), &cfg, load, &mut out).is_none());
        let [(extra, reply)] = out.as_slice() else {
            panic!("one reply expected, got {out:?}");
        };
        assert_eq!(*extra, cfg.mem_latency);
        assert_eq!((reply.src, reply.dst), (NodeId(0), NodeId(1)));
        assert!(matches!(
            reply.payload,
            Payload::LoadReply {
                source: DataSource::Memory,
                req: 3,
                ..
            }
        ));
        // Replies that are not memory fills leave at the service-complete
        // cycle.
        out.clear();
        let probe = to_home(Payload::Probe {
            tid: Tid(0),
            requester: NodeId(1),
            for_write: false,
        });
        assert!(TccMachine::on_home(&mut dir, Cycle(20), &cfg, probe, &mut out).is_none());
        assert!(matches!(
            out.as_slice(),
            [(
                0,
                Message {
                    payload: Payload::ProbeReply { .. },
                    ..
                }
            )]
        ));
    }

    #[test]
    fn skip_beyond_the_window_is_a_typed_refusal() {
        let cfg = SystemConfig::with_procs(2);
        let mut dir = home(&cfg);
        let mut out = Vec::new();
        let tid = Tid(SkipVector::MAX_WINDOW + 1);
        let refusal = TccMachine::on_home(
            &mut dir,
            Cycle(1),
            &cfg,
            to_home(Payload::Skip { tid }),
            &mut out,
        );
        assert_eq!(
            refusal,
            Some(StallReason::SkipRefused {
                dir: NodeId(0),
                tid,
                now_serving: Tid(0),
                window: SkipVector::MAX_WINDOW,
            })
        );
        assert!(out.is_empty());
        // A skip inside the window is buffered, not refused.
        let mut fresh = home(&cfg);
        let near = to_home(Payload::Skip { tid: Tid(5) });
        assert!(TccMachine::on_home(&mut fresh, Cycle(1), &cfg, near, &mut out).is_none());
    }
}
