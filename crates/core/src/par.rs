//! Deterministic sharded parallel execution of the simulator.
//!
//! The classic engine in [`crate::sim`] pops one global event queue.
//! This module runs the *same* simulation partitioned into one shard
//! per node, advanced concurrently in conservative time windows, and
//! produces **byte-identical results**: under FIFO tie-breaking the
//! [`SimResult::fingerprint`](crate::SimResult::fingerprint) equals the
//! classic engine's at any worker count.
//!
//! # How it works
//!
//! Every event has exactly one *owner* node (the node whose component
//! state it mutates), so each shard holds the events, processor,
//! directory, and per-node reliable-transport channel state of its
//! node. Time is cut into windows `[W, W + B)` where `B` is the
//! minimum cross-shard latency: any event a shard creates for another
//! shard arrives at or after the window end, so within a window the
//! shards are causally independent and run on plain `std::thread`
//! workers (Phase A). Global resources — the mesh (link contention +
//! traffic stats), the chaos injector's RNG, the serializability
//! checker — are not touched in Phase A: operations against them are
//! *deferred* and replayed at the window join (Phase B) in canonical
//! order, so they evolve exactly as in the classic engine.
//!
//! This module carries no protocol logic and no event step of its own.
//! Both window modes run the classic loop's one event step
//! (`sim::handle`) over their own `sim::Host`: a `Shard` delivers to
//! its own processor, directory and transport end, keys its creations
//! in-window and defers mesh and wire operations to the join; the
//! merged window (`Merged`, the engine plus every shard) routes inline
//! and keys every creation canonically into its owner shard.
//!
//! # Canonical keys
//!
//! The classic FIFO tie-break pops same-cycle events in creation
//! order. The parallel engine reproduces that order with `u128` keys
//! packing causal coordinates (see [`try_pack`]): the creating pop's cycle
//! and its global *rank* among that cycle's pops, plus a per-pop
//! emission counter. Ranks are only known at joins, so in-window
//! creations carry *provisional* keys naming the parent pop's
//! shard-local index; provisional keys never outlive their window
//! (anything arriving past the window end is staged and canonicalized
//! at the join). Rank resolution runs in waves per cycle so same-cycle
//! parent/child chains resolve without circularity; see
//! `Engine::resolve_ranks` for the argument.
//!
//! # Adaptive windows
//!
//! Barrier arrival/release mutates global state at arbitrary times, so
//! any window in which a processor *could* reach a barrier (a
//! conservative program lookahead, `barrier_depth`) — and any window
//! in which fewer than two shards hold events — is processed on the
//! main thread in globally merged classic order instead. Both window
//! modes assign the same canonical keys, so results are independent of
//! which mode each window used and of the worker count.
//!
//! The merged sequential path is the classic engine running over the
//! union of the shard queues: it pops in global `(cycle, key)` order,
//! mints canonical keys at creation, and touches the mesh, chaos RNG,
//! and barriers inline. It is therefore correct at *any* window end —
//! which is what makes the window economics adaptive:
//!
//! * with one effective worker there is nothing to join, so the whole
//!   run is a single merged window (no window setup, no rank
//!   resolution, no deferred-op replay);
//! * a merged window entered because only one shard holds work extends
//!   to the earliest event owned by any *other* shard — quiet periods
//!   cost one window instead of `span / B` of them.
//!
//! The tracer counts `par.windows.parallel`, `par.windows.merged` and
//! `par.joins` (observation-only, free when tracing is off).
//!
//! Parallel (Phase A) windows deliberately stay at the conservative
//! width `B`. Extending a shard's Phase A horizon past its siblings'
//! is unsound: ranks are assigned per window, so a staged arrival that
//! lands on a cycle some shard already popped in would restart that
//! cycle's shard-local indices (rank collisions), and deferred mesh
//! ops from two windows would replay out of chronological order,
//! diverging link contention and the chaos RNG from the classic
//! engine. All lookahead adaptivity therefore lives on the merged
//! path, where the classic-order argument above applies; see
//! DESIGN.md §11.
//!
//! # Documented divergences from the classic engine
//!
//! Healthy runs are exactly identical. Three non-result observables
//! may differ and are deliberately out of the fingerprint: the
//! trace ring-buffer's event interleaving, the watchdog's observation
//! cycle (checked at window starts rather than every pop in parallel
//! windows), and the auxiliary fields of a [`StallDiagnostic`] for
//! faults raised *inside* a parallel window (sibling shards finish
//! their window before the join reports the earliest fault; the
//! reason, kind, and cycle still match, and the diagnostic stamps the
//! true fault cycle plus the active window bounds so a long adaptive
//! window cannot hide where the fault actually happened).

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tcc_directory::Directory;
use tcc_engine::{mix64, progress_signature, EventQueue, ProgressWatchdog, TieBreak, WorkerBudget};
use tcc_network::{trace_send, Network, Transport, TransportStats};
use tcc_trace::Tracer;
use tcc_types::hash::FxHashMap;
use tcc_types::{Cycle, Frame, Message, NodeId, Payload};

use crate::breakdown::TxCharacteristics;
use crate::checker::{Checker, TxRecord};
use crate::config::SystemConfig;
use crate::driver::{Driver, Effects};
use crate::processor::Processor;
use crate::protocol::{HomeTiming, Machine, TccMachine};
use crate::sim::{
    apply, arrive_at_barrier, handle, occupy_home, DirCache, Event, Host, SimResult, Simulator,
    VENDOR_SERVICE,
};
use crate::stall::{RunError, RunProvenance, StallDiagnostic, StallReason};

/// Bits of the emission field (slot << SUB_BITS | sub).
const EM_BITS: u32 = 28;
/// Bits of the sub-emission field (copies of one deferred frame).
const SUB_BITS: u32 = 12;
/// Provisional-key marker in the low word. Never set on a canonical
/// FIFO key (ranks stay far below 2^35) and irrelevant under seeded
/// tie-breaking, where keys are complete at creation.
const PROV: u64 = 1 << 63;
const IDX_MASK: u64 = (1 << (63 - EM_BITS)) - 1;
const EM_MASK: u64 = (1 << EM_BITS) - 1;

/// Emission field of a canonical key: `slot << SUB_BITS | sub`,
/// saturating to `u64::MAX` — which [`try_pack`] rejects — when
/// either component leaves its bit field.
fn em_of(slot: u64, sub: u64) -> u64 {
    if slot > (EM_MASK >> SUB_BITS) || sub > ((1 << SUB_BITS) - 1) {
        u64::MAX
    } else {
        (slot << SUB_BITS) | sub
    }
}

/// Checked canonical-key construction: `(creating cycle + 1, global
/// rank of the creating pop within that cycle, emission index)`.
/// Lexicographic key order equals classic FIFO creation order (see
/// module docs). A rank or emission index that does not fit its bit
/// field would silently corrupt that order in release builds, so
/// overflow is a typed stall, never a wrapped key.
fn try_pack(hi: u64, rank: u64, em: u64) -> Result<u128, StallReason> {
    if rank > IDX_MASK || em > EM_MASK {
        return Err(StallReason::KeyOverflow { rank, em });
    }
    Ok((u128::from(hi) << 64) | u128::from((rank << EM_BITS) | em))
}

/// Recovers poison-free access to a shard: a worker panic is re-raised
/// at the join, so an inner poisoned state is never silently used.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A global-resource operation deferred from Phase A to the join.
struct DeferredOp {
    /// Cycle of the pop that issued it.
    t: Cycle,
    /// Shard that issued it.
    shard: u16,
    /// Shard-local index of the issuing pop within cycle `t`.
    idx: u64,
    /// Emission slot claimed at issue time (code order within the pop).
    slot: u64,
    kind: OpKind,
}

enum OpKind {
    /// A message injection through the global mesh (timing, contention,
    /// traffic accounting, chaos perturbation).
    Route(Message),
    /// A transport frame put on the (possibly faulty) wire.
    Frame(Frame),
}

/// An in-window creation whose arrival falls past the window end; it
/// is keyed canonically and scheduled at the join.
struct Staged {
    at: Cycle,
    t_create: Cycle,
    parent_idx: u64,
    em: u64,
    ev: Event,
}

/// One node's slice of the machine plus its per-window out-boxes.
pub(crate) struct Shard {
    node: NodeId,
    cfg: Arc<SystemConfig>,
    tracer: Tracer,
    queue: EventQueue<Event>,
    proc: Processor,
    dir: Directory,
    dir_busy: Cycle,
    dir_cache: Option<DirCache>,
    /// Reusable buffer for home-message replies (empty between events).
    out: Vec<(u64, Message)>,
    /// This node's end of every transport channel it touches: `tx`
    /// state of channels it sends on, `rx` state of channels it
    /// receives on. The union over shards is exactly the classic
    /// engine's single [`Transport`].
    transport: Option<Transport>,
    /// TID vendor sequence; only the vendor node's shard advances it.
    vendor_next: u64,
    /// Seeded-mode creation counter (key material).
    creations: u64,
    // ---- per-window state ----
    window_end: Cycle,
    cur_cycle: Cycle,
    cur_idx: u64,
    next_slot: u64,
    /// `(time, key)` of every pop this window, in pop order.
    pops: Vec<(Cycle, u128)>,
    staged: Vec<Staged>,
    ops: Vec<DeferredOp>,
    committed: Vec<(Cycle, u64, TxRecord, TxCharacteristics)>,
    finished: u32,
    fault: Option<(Cycle, StallReason)>,
}

impl Shard {
    fn claim_slot(&mut self) -> u64 {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// Mints a seeded-tie-break key: complete at creation, no
    /// provisional machinery needed. The `(shard, counter)` input is
    /// unique per creation and `mix64` is a bijection, so keys never
    /// collide.
    fn seeded_key(&mut self, salt: u64, hi: u64) -> u128 {
        let c = self.creations;
        self.creations += 1;
        let low = mix64(((u64::from(self.node.0) << 48) | c) ^ salt);
        (u128::from(hi) << 64) | u128::from(low)
    }

    /// Defers a global-resource operation to the join, claiming its
    /// emission slot now so the join replays creations in classic
    /// code order.
    fn defer(&mut self, kind: OpKind) {
        let slot = self.claim_slot();
        self.ops.push(DeferredOp {
            t: self.cur_cycle,
            shard: self.node.0,
            idx: self.cur_idx,
            slot,
            kind,
        });
    }

    fn set_fault(&mut self, at: Cycle, reason: StallReason) {
        if self.fault.is_none() {
            self.fault = Some((at, reason));
        }
    }

    /// Phase A: drains this shard's events strictly before
    /// `window_end`, including events it creates for itself along the
    /// way. Stops early on a typed fault.
    fn run_window(&mut self, window_end: Cycle) {
        self.window_end = window_end;
        loop {
            if self.fault.is_some() {
                return;
            }
            let (at, key, ev) = match self.queue.pop_before(window_end) {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(c) => {
                    let now = self.queue.now();
                    self.set_fault(
                        now,
                        StallReason::QueueCorrupt {
                            detail: c.to_string(),
                        },
                    );
                    return;
                }
            };
            if self.pops.last().map(|&(t, _)| t) == Some(at) {
                self.cur_idx += 1;
            } else {
                self.cur_idx = 0;
            }
            assert_eq!(ev.owner(), self.node, "event delivered to the wrong shard");
            self.cur_cycle = at;
            self.next_slot = 0;
            self.pops.push((at, key));
            handle(self, at, ev);
        }
    }
}

/// A shard's side of the event step: its own processor, directory and
/// transport end; in-window keys; mesh and wire operations deferred to
/// the join. It refuses a barrier arrival (the planner keeps barriers
/// out of parallel windows) and an immediate send (TCC never emits
/// one).
impl Host for Shard {
    /// Schedules an in-window creation of the current pop: provisional
    /// key if it arrives inside the window, staged otherwise (FIFO);
    /// seeded keys are complete and schedule directly either way.
    fn sched(&mut self, at: Cycle, ev: Event) {
        let slot = self.claim_slot();
        if let Some(salt) = self.cfg.tie_break_seed {
            let key = self.seeded_key(salt, self.cur_cycle.0 + 1);
            self.queue.schedule_with_key(at, key, ev);
            return;
        }
        let em = em_of(slot, 0);
        if at < self.window_end {
            if self.cur_idx > IDX_MASK || em > EM_MASK {
                self.set_fault(
                    self.cur_cycle,
                    StallReason::KeyOverflow {
                        rank: self.cur_idx,
                        em,
                    },
                );
                return;
            }
            let low = PROV | (self.cur_idx << EM_BITS) | em;
            let key = (u128::from(self.cur_cycle.0 + 1) << 64) | u128::from(low);
            self.queue.schedule_with_key(at, key, ev);
        } else {
            // A saturated `em` is rejected by `try_pack` when the join
            // canonicalizes this entry.
            self.staged.push(Staged {
                at,
                t_create: self.cur_cycle,
                parent_idx: self.cur_idx,
                em,
                ev,
            });
        }
    }

    /// Chaos-free node-local messages bypass the mesh at the fixed
    /// local latency, inline (no link, traffic or RNG state); everything
    /// that touches the mesh, the traffic stats or the chaos RNG defers.
    fn route(&mut self, now: Cycle, msg: Message) {
        if msg.src == msg.dst && self.cfg.chaos.is_none() {
            let size = msg.size_bytes(self.cfg.cache.geometry.line_bytes());
            trace_send(
                &self.tracer,
                now,
                msg.payload.kind_name(),
                msg.src,
                msg.dst,
                size,
            );
            self.sched(now + self.cfg.network.local_latency, Event::Deliver(msg));
        } else {
            self.defer(OpKind::Route(msg));
        }
    }

    fn wire(&mut self, _now: Cycle, frame: Frame) {
        self.defer(OpKind::Frame(frame));
    }

    fn transport(&mut self, _node: NodeId) -> Option<&mut Transport> {
        self.transport.as_mut()
    }

    fn immediate_send(&mut self, _at: Cycle, _msg: Message) {
        panic!(
            "immediate sends are a serialized-baseline channel; the TCC \
             shard engine never emits them"
        );
    }

    fn wake_seq(&self, _node: NodeId) -> u64 {
        self.proc.wake_seq()
    }

    fn step(&mut self, now: Cycle, _node: NodeId) -> Effects {
        self.proc.step(&self.cfg, now)
    }

    fn release_barrier(&mut self, now: Cycle, _node: NodeId) -> Effects {
        self.proc.release_barrier(&self.cfg, now)
    }

    fn home_timing(&self, payload: &Payload) -> Option<HomeTiming> {
        TccMachine::timing_for(&self.cfg, payload)
    }

    fn occupy(&mut self, _home: NodeId, now: Cycle, timing: HomeTiming) -> Cycle {
        let cache = self.dir_cache.as_mut();
        occupy_home(&mut self.dir_busy, cache, &self.cfg, now, timing)
    }

    fn on_home(
        &mut self,
        done: Cycle,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) -> Option<StallReason> {
        TccMachine::on_home(&mut self.dir, done, &self.cfg, msg, out)
    }

    fn on_node(&mut self, now: Cycle, msg: Message) -> Effects {
        let vendor = &mut self.vendor_next;
        TccMachine::on_node(&mut self.proc, vendor, &self.tracer, now, &self.cfg, msg)
    }

    fn home_out(&mut self) -> &mut Vec<(u64, Message)> {
        &mut self.out
    }

    fn record_commit(&mut self, record: TxRecord, chars: TxCharacteristics) {
        self.committed
            .push((self.cur_cycle, self.cur_idx, record, chars));
    }

    fn barrier_arrive(&mut self, node: NodeId) -> Vec<NodeId> {
        panic!(
            "{node} reached a barrier inside a parallel window: the barrier \
             imminence lookahead is not conservative enough"
        );
    }

    fn proc_finished(&mut self) {
        self.finished += 1;
    }

    fn raise(&mut self, now: Cycle, reason: StallReason) {
        self.set_fault(now, reason);
    }
}

/// Main-thread state: the global resources Phase A never touches.
struct Engine {
    cfg: SystemConfig,
    tracer: Tracer,
    net: Network,
    checker: Option<Checker>,
    tx_chars: Vec<TxCharacteristics>,
    barrier_waiting: Vec<NodeId>,
    active: usize,
    watchdog: Option<ProgressWatchdog>,
    /// Workload-generator seed, carried for stall-diagnostic
    /// provenance (mirrors `Simulator::program_seed`).
    program_seed: Option<u64>,
    /// Per-window map from `(cycle, shard, local pop index)` to the
    /// pop's global rank within that cycle. Lookup-only by
    /// construction — its iteration order never reaches scheduling,
    /// message emission, or fingerprints — so the unordered map is
    /// exempt from the `tcc-types::hash` iteration-order caveat.
    rank_map: FxHashMap<(u64, u16, u64), u64>,
    /// Sticky fault raised mid-delivery on the sequential path.
    fault: Option<StallReason>,
    /// Reusable buffer for home-message replies on the sequential path
    /// (empty between events).
    out: Vec<(u64, Message)>,
    /// Bounds `[start, end)` of the window being processed, stamped
    /// into stall diagnostics so an adaptive long window cannot hide
    /// the faulting cycle behind a much later window end.
    cur_window: Option<(u64, u64)>,
    // ---- head index over the shard queues ----
    /// `(head cycle, head key, shard)` of every non-empty shard queue:
    /// the merged path pops `heads.first()` in O(log n) instead of
    /// lock-and-peek scanning every shard per event.
    heads: BTreeSet<(Cycle, u128, u16)>,
    /// Last head published into `heads` per shard; `fix_head` diffs
    /// against it so untouched shards cost nothing.
    head_cache: Vec<Option<(Cycle, u128)>>,
    // ---- reusable join buffers (batched cross-shard handoff) ----
    jpops: Vec<Vec<(Cycle, u128)>>,
    jstaged: Vec<Vec<Staged>>,
    jops: Vec<DeferredOp>,
    jcommitted: Vec<(u16, Cycle, u64, TxRecord, TxCharacteristics)>,
    // ---- sequential-merge key context (also used for init) ----
    seq_cycle: Cycle,
    seq_hi: u64,
    seq_rank: u64,
    seq_slot: u64,
    seq_shard: usize,
}

impl Engine {
    /// Syncs shard `i`'s entry in the head index with its queue's
    /// actual head. Idempotent; cheap when nothing changed.
    fn fix_head(&mut self, shards: &mut [&mut Shard], i: usize) {
        let new = shards[i].queue.peek_key();
        let old = self.head_cache[i];
        if new == old {
            return;
        }
        if let Some((t, k)) = old {
            self.heads.remove(&(t, k, i as u16));
        }
        if let Some((t, k)) = new {
            self.heads.insert((t, k, i as u16));
        }
        self.head_cache[i] = new;
    }

    /// Processes `[current, window_end)` in globally merged classic
    /// order on the main thread: same pops, same key assignment, same
    /// global-op interleaving as the classic engine. The head index
    /// makes each pop O(log shards) instead of a peek scan over every
    /// shard — the lever that closes the workers=1 overhead gap.
    fn run_seq_window(
        &mut self,
        shards: &mut [&mut Shard],
        window_end: Cycle,
    ) -> Result<(), RunError> {
        self.tracer.count("par.windows.merged", 1);
        loop {
            let Some(&(at, _key, si)) = self.heads.first() else {
                return Ok(());
            };
            if at >= window_end {
                return Ok(());
            }
            let i = si as usize;
            if self.watchdog.as_ref().is_some_and(|w| w.due(at)) {
                let sig = self.progress_sig(shards);
                let wd = self.watchdog.as_mut().expect("checked above");
                if wd.observe(at, sig) {
                    let window = wd.window();
                    return Err(self.stalled(shards, at, StallReason::NoProgress { window }));
                }
            }
            let popped = shards[i].queue.try_pop_keyed();
            let (at, _k, ev) = match popped {
                Ok(Some(p)) => p,
                Ok(None) => unreachable!("indexed head vanished"),
                Err(c) => {
                    let reason = StallReason::QueueCorrupt {
                        detail: c.to_string(),
                    };
                    return Err(self.stalled(shards, at, reason));
                }
            };
            if at != self.seq_cycle {
                self.seq_cycle = at;
                self.seq_rank = 0;
            } else {
                self.seq_rank += 1;
            }
            self.seq_hi = at.0 + 1;
            self.seq_slot = 0;
            self.seq_shard = i;
            handle(
                &mut Merged {
                    eng: self,
                    shards: &mut *shards,
                },
                at,
                ev,
            );
            self.fix_head(shards, i);
            if let Some(reason) = self.fault.take() {
                return Err(self.stalled(shards, at, reason));
            }
        }
    }

    /// Assembles the stall diagnostic across all shards, field for
    /// field as `Simulator::stalled` builds it. `now` is the true
    /// fault cycle (the cycle of the faulting pop, not the window
    /// end), and the active window bounds are stamped alongside it.
    fn stalled(&mut self, shards: &mut [&mut Shard], now: Cycle, reason: StallReason) -> RunError {
        let mut commits = 0u64;
        let mut proc_states = Vec::with_capacity(shards.len());
        let mut dir_nstids = Vec::with_capacity(shards.len());
        let mut queued_events = 0usize;
        let mut in_flight_frames = 0u64;
        let mut reorder_buffered = 0u64;
        let mut in_flight_channels = Vec::new();
        let mut transport: Option<TransportStats> = None;
        for g in shards.iter() {
            commits += g.proc.counters().commits;
            proc_states.push((g.proc.id(), g.proc.state_name().to_string()));
            dir_nstids.push(g.dir.now_serving());
            queued_events += g.queue.len();
            if let Some(t) = &g.transport {
                in_flight_frames += t.in_flight();
                reorder_buffered += t.reorder_buffered();
                in_flight_channels.extend(t.in_flight_channels());
                add_stats(&mut transport, t.stats());
            }
        }
        let diag = StallDiagnostic {
            reason,
            protocol: self.cfg.protocol,
            provenance: RunProvenance {
                program_seed: self.program_seed,
                chaos_seed: self.cfg.chaos.as_ref().map(|c| c.seed),
                tie_break_seed: self.cfg.tie_break_seed,
                config_digest: self.cfg.digest(),
            },
            at: now.0,
            window_bounds: self.cur_window,
            commits,
            active_procs: self.active,
            proc_states,
            dir_nstids,
            queued_events,
            in_flight_frames,
            reorder_buffered,
            in_flight_channels,
            transport,
        };
        self.tracer.count("sim.stalls", 1);
        RunError::Stalled(Box::new(diag))
    }

    /// Watchdog signature over sharded state, word-for-word the classic
    /// `progress_signature`: per-proc commits, per-dir NSTIDs, vended
    /// TIDs, active procs, barrier arrivals, transport deliveries.
    fn progress_sig(&self, shards: &[&mut Shard]) -> u64 {
        let mut words = Vec::with_capacity(2 * shards.len() + 4);
        let mut nstids = Vec::with_capacity(shards.len());
        let mut vendor = 0u64;
        let mut delivered = 0u64;
        for g in shards {
            words.push(g.proc.counters().commits);
            nstids.push(g.dir.now_serving().0);
            vendor += g.vendor_next;
            if let Some(t) = &g.transport {
                delivered += t.stats().delivered;
            }
        }
        words.extend(nstids);
        words.push(vendor);
        words.push(self.active as u64);
        words.push(self.barrier_waiting.len() as u64);
        words.push(delivered);
        progress_signature(words)
    }

    /// Phase B: collects every shard's window products, resolves
    /// provisional keys to canonical ranks, replays deferred
    /// global-resource ops in classic chronological order, and merges
    /// commit records. Returns the earliest typed fault, if any shard
    /// raised one.
    ///
    /// The per-shard products move through the engine's reusable
    /// buffers (`jpops`/`jstaged`/`jops`/`jcommitted`) in one batch
    /// per shard — steady-state joins allocate nothing. On the error
    /// paths the buffers are simply abandoned; a stalled run never
    /// joins again.
    fn join(&mut self, shards: &mut [&mut Shard], window_end: Cycle) -> Result<(), RunError> {
        self.tracer.count("par.joins", 1);
        let n = shards.len();
        let mut ops = std::mem::take(&mut self.jops);
        let mut committed = std::mem::take(&mut self.jcommitted);
        let mut finished = 0usize;
        let mut fault: Option<(Cycle, u16, StallReason)> = None;
        for (i, g) in shards.iter_mut().enumerate() {
            std::mem::swap(&mut g.pops, &mut self.jpops[i]);
            std::mem::swap(&mut g.staged, &mut self.jstaged[i]);
            ops.append(&mut g.ops);
            for (t, idx, rec, ch) in g.committed.drain(..) {
                committed.push((i as u16, t, idx, rec, ch));
            }
            finished += g.finished as usize;
            g.finished = 0;
            if let Some((at, r)) = g.fault.take() {
                if fault
                    .as_ref()
                    .is_none_or(|&(fat, fs, _)| (at, i as u16) < (fat, fs))
                {
                    fault = Some((at, i as u16, r));
                }
            }
        }
        // Phase A advanced the shard queues wholesale; resync the head
        // index before anything consults it again.
        for i in 0..n {
            self.fix_head(shards, i);
        }
        if let Some((at, _, reason)) = fault {
            // The window is abandoned mid-flight, exactly as the classic
            // engine abandons its loop after the faulting event; only
            // the diagnostic's auxiliary fields can differ (module
            // docs).
            self.rank_map.clear();
            return Err(self.stalled(shards, at, reason));
        }
        let all_pops = std::mem::take(&mut self.jpops);
        let resolved = self.resolve_ranks(&all_pops);
        self.jpops = all_pops;
        if let Err((t, reason)) = resolved {
            self.rank_map.clear();
            return Err(self.stalled(shards, Cycle(t), reason));
        }
        // Staged creations: in-window products arriving past the window
        // end; canonicalize and schedule (always same-shard).
        let mut all_staged = std::mem::take(&mut self.jstaged);
        for (s, staged) in all_staged.iter_mut().enumerate() {
            for st in staged.drain(..) {
                let rank = self.rank_map[&(st.t_create.0, s as u16, st.parent_idx)];
                let key = match try_pack(st.t_create.0 + 1, rank, st.em) {
                    Ok(k) => k,
                    Err(reason) => {
                        self.rank_map.clear();
                        return Err(self.stalled(shards, st.t_create, reason));
                    }
                };
                assert_eq!(st.ev.owner().index(), s, "staged event crossed shards");
                shards[s].queue.schedule_with_key(st.at, key, st.ev);
                self.fix_head(shards, s);
            }
        }
        self.jstaged = all_staged;
        self.replay_ops(shards, &mut ops, window_end)?;
        ops.clear();
        self.jops = ops;
        committed.sort_by_key(|&(s, t, idx, ..)| (t, self.rank_map[&(t.0, s, idx)]));
        for (_, _, _, rec, ch) in committed.drain(..) {
            if let Some(c) = &mut self.checker {
                c.record(rec);
            }
            self.tx_chars.push(ch);
        }
        self.jcommitted = committed;
        self.active -= finished;
        self.rank_map.clear();
        for v in &mut self.jpops {
            v.clear();
        }
        Ok(())
    }

    /// Assigns each pop of the window its global rank within its cycle,
    /// in classic FIFO order. Canonical keys sort directly. Provisional
    /// keys resolve in waves: a parent popped at an earlier cycle is
    /// already ranked; a parent at the *same* cycle is ranked in an
    /// earlier wave (its own key has a strictly smaller resolved value,
    /// so wave ranks append monotonically and never interleave).
    /// A resolved rank that overflows its key bit field surfaces as
    /// `Err((cycle, KeyOverflow))` instead of a wrapped sort key.
    fn resolve_ranks(&mut self, all_pops: &[Vec<(Cycle, u128)>]) -> Result<(), (u64, StallReason)> {
        let seeded = self.cfg.tie_break_seed.is_some();
        let mut by_cycle: BTreeMap<u64, Vec<(u128, u16, u64)>> = BTreeMap::new();
        for (s, pops) in all_pops.iter().enumerate() {
            let mut last: Option<Cycle> = None;
            let mut idx = 0u64;
            for &(t, key) in pops {
                if last == Some(t) {
                    idx += 1;
                } else {
                    last = Some(t);
                    idx = 0;
                }
                by_cycle.entry(t.0).or_default().push((key, s as u16, idx));
            }
        }
        for (&t, entries) in &by_cycle {
            let mut next_rank = 0u64;
            let mut wave: Vec<(u128, u16, u64)> = Vec::with_capacity(entries.len());
            let mut pending: Vec<(u128, u16, u64)> = Vec::new();
            for &(key, s, i) in entries {
                let hi = (key >> 64) as u64;
                let lo = key as u64;
                // Seeded keys are complete at creation and may have the
                // top low-word bit set by `mix64` — never treat them as
                // provisional.
                if seeded || lo & PROV == 0 {
                    assert!(seeded || hi <= t, "late canonical key at cycle {t}");
                    wave.push((key, s, i));
                } else if hi <= t {
                    // Parent popped at an earlier cycle of this window:
                    // already ranked.
                    let prank = self.rank_map[&(hi - 1, s, (lo >> EM_BITS) & IDX_MASK)];
                    match try_pack(hi, prank, lo & EM_MASK) {
                        Ok(k) => wave.push((k, s, i)),
                        Err(r) => return Err((t, r)),
                    }
                } else {
                    assert_eq!(hi, t + 1, "provisional key skipped a cycle");
                    pending.push((key, s, i));
                }
            }
            loop {
                wave.sort_unstable();
                for &(_, s, i) in &wave {
                    self.rank_map.insert((t, s, i), next_rank);
                    next_rank += 1;
                }
                if pending.is_empty() {
                    break;
                }
                wave.clear();
                let before = pending.len();
                let mut overflow: Option<StallReason> = None;
                pending.retain(|&(key, s, i)| {
                    let lo = key as u64;
                    match self.rank_map.get(&(t, s, (lo >> EM_BITS) & IDX_MASK)) {
                        Some(&prank) => {
                            match try_pack(t + 1, prank, lo & EM_MASK) {
                                Ok(k) => wave.push((k, s, i)),
                                Err(r) => {
                                    overflow.get_or_insert(r);
                                }
                            }
                            false
                        }
                        None => true,
                    }
                });
                if let Some(r) = overflow {
                    return Err((t, r));
                }
                assert!(
                    pending.len() < before,
                    "cyclic provisional keys at cycle {t}"
                );
            }
        }
        Ok(())
    }

    /// Replays the window's deferred global-resource operations in
    /// classic chronological order `(cycle, pop rank, emission slot)`,
    /// so mesh contention, traffic statistics, and the chaos injector's
    /// RNG draws evolve exactly as in the single-threaded engine.
    fn replay_ops(
        &mut self,
        shards: &mut [&mut Shard],
        ops: &mut Vec<DeferredOp>,
        window_end: Cycle,
    ) -> Result<(), RunError> {
        ops.sort_by_key(|op| (op.t, self.rank_map[&(op.t.0, op.shard, op.idx)], op.slot));
        for op in ops.drain(..) {
            let hi = op.t.0 + 1;
            let rank = self.rank_map[&(op.t.0, op.shard, op.idx)];
            match op.kind {
                OpKind::Route(msg) => {
                    let arrival = self.net.route(op.t, &msg);
                    assert!(
                        arrival >= window_end,
                        "deferred delivery lands inside its own window"
                    );
                    let key = match self.cfg.tie_break_seed {
                        Some(salt) => shards[op.shard as usize].seeded_key(salt, hi),
                        None => match try_pack(hi, rank, em_of(op.slot, 0)) {
                            Ok(k) => k,
                            Err(r) => return Err(self.stalled(shards, op.t, r)),
                        },
                    };
                    let dst = msg.dst.index();
                    shards[dst]
                        .queue
                        .schedule_with_key(arrival, key, Event::Deliver(msg));
                    self.fix_head(shards, dst);
                }
                OpKind::Frame(frame) => {
                    let dst = frame.dst().index();
                    for (j, at) in self.net.send_frame(op.t, &frame).into_iter().enumerate() {
                        assert!(
                            at >= window_end,
                            "deferred frame lands inside its own window"
                        );
                        let key = match self.cfg.tie_break_seed {
                            Some(salt) => shards[op.shard as usize].seeded_key(salt, hi),
                            None => match try_pack(hi, rank, em_of(op.slot, j as u64)) {
                                Ok(k) => k,
                                Err(r) => return Err(self.stalled(shards, op.t, r)),
                            },
                        };
                        shards[dst]
                            .queue
                            .schedule_with_key(at, key, Event::Wire(frame.clone()));
                        self.fix_head(shards, dst);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The merged window's side of the event step: the engine's global
/// state plus every shard, in classic order. Creations get canonical
/// keys at once and go to their owner shard; the mesh, the wire, the
/// checker and barriers are touched inline, as in the classic loop.
struct Merged<'a, 'b> {
    eng: &'a mut Engine,
    shards: &'a mut [&'b mut Shard],
}

impl Host for Merged<'_, '_> {
    /// Mints the canonical key for a creation of the current pop
    /// (advancing its emission slot) and queues the event in its owner
    /// shard. On bit-field overflow the typed fault is recorded and a
    /// saturated placeholder key used: the run stalls before the
    /// placeholder's order can matter.
    fn sched(&mut self, at: Cycle, ev: Event) {
        let eng = &mut *self.eng;
        let slot = eng.seq_slot;
        eng.seq_slot += 1;
        let key = match eng.cfg.tie_break_seed {
            Some(salt) => self.shards[eng.seq_shard].seeded_key(salt, eng.seq_hi),
            None => match try_pack(eng.seq_hi, eng.seq_rank, em_of(slot, 0)) {
                Ok(k) => k,
                Err(r) => {
                    eng.fault.get_or_insert(r);
                    (u128::from(eng.seq_hi) << 64) | u128::from(u64::MAX >> 1)
                }
            },
        };
        let own = ev.owner().index();
        self.shards[own].queue.schedule_with_key(at, key, ev);
        eng.fix_head(self.shards, own);
    }

    fn route(&mut self, now: Cycle, msg: Message) {
        let arrival = self.eng.net.route(now, &msg);
        self.sched(arrival, Event::Deliver(msg));
    }

    fn wire(&mut self, now: Cycle, frame: Frame) {
        for at in self.eng.net.send_frame(now, &frame) {
            self.sched(at, Event::Wire(frame.clone()));
        }
    }

    fn transport(&mut self, node: NodeId) -> Option<&mut Transport> {
        self.shards[node.index()].transport.as_mut()
    }

    fn wake_seq(&self, node: NodeId) -> u64 {
        self.shards[node.index()].proc.wake_seq()
    }

    fn step(&mut self, now: Cycle, node: NodeId) -> Effects {
        self.shards[node.index()].proc.step(&self.eng.cfg, now)
    }

    fn release_barrier(&mut self, now: Cycle, node: NodeId) -> Effects {
        self.shards[node.index()]
            .proc
            .release_barrier(&self.eng.cfg, now)
    }

    fn home_timing(&self, payload: &Payload) -> Option<HomeTiming> {
        TccMachine::timing_for(&self.eng.cfg, payload)
    }

    fn occupy(&mut self, home: NodeId, now: Cycle, timing: HomeTiming) -> Cycle {
        let g = &mut *self.shards[home.index()];
        occupy_home(
            &mut g.dir_busy,
            g.dir_cache.as_mut(),
            &self.eng.cfg,
            now,
            timing,
        )
    }

    fn on_home(
        &mut self,
        done: Cycle,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) -> Option<StallReason> {
        let dir = &mut self.shards[msg.dst.index()].dir;
        TccMachine::on_home(dir, done, &self.eng.cfg, msg, out)
    }

    fn on_node(&mut self, now: Cycle, msg: Message) -> Effects {
        let g = &mut *self.shards[msg.dst.index()];
        let eng = &*self.eng;
        TccMachine::on_node(
            &mut g.proc,
            &mut g.vendor_next,
            &eng.tracer,
            now,
            &eng.cfg,
            msg,
        )
    }

    fn home_out(&mut self) -> &mut Vec<(u64, Message)> {
        &mut self.eng.out
    }

    fn record_commit(&mut self, record: TxRecord, chars: TxCharacteristics) {
        if let Some(c) = &mut self.eng.checker {
            c.record(record);
        }
        self.eng.tx_chars.push(chars);
    }

    fn barrier_arrive(&mut self, node: NodeId) -> Vec<NodeId> {
        let n = self.eng.cfg.n_procs;
        arrive_at_barrier(&mut self.eng.barrier_waiting, n, node)
    }

    fn proc_finished(&mut self) {
        self.eng.active -= 1;
    }

    fn raise(&mut self, _now: Cycle, reason: StallReason) {
        self.eng.fault.get_or_insert(reason);
    }
}

/// Accumulates per-node transport stats into the machine-wide total.
fn add_stats(acc: &mut Option<TransportStats>, s: TransportStats) {
    match acc {
        None => *acc = Some(s),
        Some(a) => {
            a.data_frames += s.data_frames;
            a.retransmits += s.retransmits;
            a.dup_drops += s.dup_drops;
            a.timeout_fires += s.timeout_fires;
            a.acks += s.acks;
            a.delivered += s.delivered;
            a.buffered += s.buffered;
        }
    }
}

/// Shared state of the window worker pool. Workers park on `start`
/// between windows; the main thread publishes the window end, releases
/// them, races them through the shard claim counter, and meets them at
/// `done`. Panics inside a shard are parked in `panic_box` and re-raised
/// on the main thread after the window.
struct Pool<'a> {
    shards: &'a [Mutex<Shard>],
    start: std::sync::Barrier,
    done: std::sync::Barrier,
    plan_end: AtomicU64,
    claim: AtomicUsize,
    stop: AtomicBool,
    panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Pool<'_> {
    fn worker(&self) {
        loop {
            self.start.wait();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            self.drain(Cycle(self.plan_end.load(Ordering::Acquire)));
            self.done.wait();
        }
    }

    /// Claims and runs shards by index until none remain. Which thread
    /// runs which shard is the *only* nondeterminism in a parallel
    /// window, and it is invisible: shards share no state until the
    /// join.
    fn drain(&self, end: Cycle) {
        loop {
            let i = self.claim.fetch_add(1, Ordering::Relaxed);
            let Some(shard) = self.shards.get(i) else {
                return;
            };
            let r = panic::catch_unwind(AssertUnwindSafe(|| lock(shard).run_window(end)));
            if let Err(p) = r {
                let mut slot = lock(&self.panic_box);
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
        }
    }

    /// Runs one parallel window across the pool from the main thread.
    fn run_window(&self, end: Cycle) {
        self.plan_end.store(end.0, Ordering::Release);
        self.claim.store(0, Ordering::Release);
        self.start.wait();
        self.drain(end);
        self.done.wait();
        if let Some(p) = lock(&self.panic_box).take() {
            self.shutdown();
            panic::resume_unwind(p);
        }
    }

    /// Releases the workers into their exit path. Idempotent, so the
    /// unwind path can call it after a normal shutdown already ran.
    fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            self.start.wait();
        }
    }
}

/// The window planner: picks each window's horizon, decides between the
/// parallel fast path and the merged sequential path, and turns global
/// end conditions (cycle limit, watchdog, deadlock) into the same typed
/// stalls as the classic loop.
fn main_loop(
    eng: &mut Engine,
    mxs: &[Mutex<Shard>],
    pool: Option<&Pool<'_>>,
    b: u64,
    depth: usize,
) -> Result<(), RunError> {
    let max_cycles = eng.cfg.max_cycles;
    'run: loop {
        // Plan the next window with every shard locked exactly once;
        // the guards are released only around the parallel drain.
        let par_end = 'plan: {
            let mut guards: Vec<_> = mxs.iter().map(lock).collect();
            let mut sv: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
            let shards = &mut sv[..];
            // Stalls declared by the planner itself (cycle limit,
            // watchdog, deadlock) are not in-window faults; only a
            // window that actually runs stamps bounds.
            eng.cur_window = None;
            let Some(&(w, _, _)) = eng.heads.first() else {
                break 'run;
            };
            if w.0 > max_cycles {
                // Classic parity: the offending event is popped before
                // the stall is declared (it no longer counts as
                // queued).
                let &(at, _, si) = eng.heads.first().expect("the horizon event exists");
                let i = si as usize;
                let _ = shards[i].queue.try_pop_keyed();
                eng.fix_head(shards, i);
                let limit = max_cycles;
                return Err(eng.stalled(shards, at, StallReason::CycleLimit { limit }));
            }
            if eng.watchdog.as_ref().is_some_and(|wd| wd.due(w)) {
                let sig = eng.progress_sig(shards);
                let wd = eng.watchdog.as_mut().expect("checked above");
                if wd.observe(w, sig) {
                    let window = wd.window();
                    return Err(eng.stalled(shards, w, StallReason::NoProgress { window }));
                }
            }
            if pool.is_none() {
                // One worker thread: no join to amortize, so the whole
                // run is a single merged sequential mega-window. This
                // is the workers=1 overhead lever — the merged path is
                // classic-correct at any horizon (see module docs).
                let window_end = Cycle(max_cycles + 1);
                eng.cur_window = Some((w.0, window_end.0));
                eng.run_seq_window(shards, window_end)?;
                continue 'run;
            }
            // Capping at max_cycles + 1 keeps every processed event
            // within the limit, so a limit overrun stalls on exactly
            // the same pop as the classic engine.
            let base_end = Cycle((w.0 + b).min(max_cycles + 1));
            let barrier = !eng.barrier_waiting.is_empty()
                || shards.iter().any(|s| s.proc.barrier_within(depth));
            if barrier {
                eng.cur_window = Some((w.0, base_end.0));
                eng.run_seq_window(shards, base_end)?;
                continue 'run;
            }
            // The head index holds one entry per shard with events, so
            // its second entry is the earliest event of any shard other
            // than the one at the horizon.
            let next_other = eng.heads.iter().nth(1).map(|&(t, _, _)| t);
            if next_other.is_none_or(|t| t >= base_end) {
                // Adaptive lookahead: fewer than two shards have work in
                // the base window, so extend the merged window to the
                // earliest event of any *other* shard — the first point
                // where parallelism could resume.
                let ext = next_other.map_or(max_cycles + 1, |t| t.0);
                let window_end = Cycle(ext.min(max_cycles + 1));
                eng.cur_window = Some((w.0, window_end.0));
                eng.run_seq_window(shards, window_end)?;
                continue 'run;
            }
            eng.cur_window = Some((w.0, base_end.0));
            eng.tracer.count("par.windows.parallel", 1);
            break 'plan base_end;
            // Guards drop here: shards are unlocked for the drain.
        };
        let p = pool.expect("pool-less runs use merged mega-windows");
        p.run_window(par_end);
        let mut guards: Vec<_> = mxs.iter().map(lock).collect();
        let mut sv: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
        eng.join(&mut sv[..], par_end)?;
    }
    if eng.active > 0 {
        let mut guards: Vec<_> = mxs.iter().map(lock).collect();
        let mut sv: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
        let shards = &mut sv[..];
        let now = shards
            .iter()
            .map(|s| s.queue.now())
            .max()
            .unwrap_or(Cycle::ZERO);
        return Err(eng.stalled(shards, now, StallReason::Deadlock));
    }
    Ok(())
}

/// Entry point from [`Simulator::try_run`] when `cfg.parallel` is set:
/// shards the built simulator, runs it in windows, and reassembles the
/// classic `SimResult`.
pub(crate) fn run(sim: Simulator) -> Result<SimResult, RunError> {
    let Simulator {
        cfg,
        queue: restored_queue,
        machine,
        net,
        dir_busy,
        dir_caches,
        home_out: _,
        barrier_waiting,
        checker,
        tx_chars,
        active,
        tracer,
        transport,
        watchdog,
        fault,
        started,
        program_seed,
        program_digest,
    } = sim;
    assert!(fault.is_none(), "adopted simulator carries a fault");
    // `try_run` keeps non-TCC backends on the classic loop, so the
    // sharded engine stays specialized to the TCC machine.
    let Machine::Tcc(tcc) = machine else {
        unreachable!("Simulator::try_run keeps non-TCC backends on the classic loop")
    };
    let TccMachine {
        drv: Driver { procs, .. },
        dirs,
        vendor_next,
        ..
    } = tcc;
    let pcfg = cfg.parallel.expect("try_run dispatched on parallel");
    let n = procs.len();
    // Window width: the minimum latency of any deferred-to-the-join
    // creation. Remote mesh deliveries take at least one serialization
    // cycle plus one link hop; with chaos on, node-local sends defer
    // too (the injector's RNG is order-sensitive) and bound the window
    // by the local latency. Config validation guarantees the result is
    // nonzero.
    let remote_min = 1 + cfg.network.link_latency;
    let b = if cfg.chaos.is_some() {
        remote_min.min(cfg.network.local_latency)
    } else {
        remote_min
    }
    .max(1);
    // A processor more than `depth` work items from a barrier cannot
    // reach it within one window: arriving at a barrier requires
    // committing every transaction in between, and each commit costs at
    // least a vendor round trip.
    let depth = (2 + b / VENDOR_SERVICE.max(1)) as usize;
    let tie_break = match cfg.tie_break_seed {
        Some(salt) => TieBreak::Seeded(salt),
        None => TieBreak::Fifo,
    };
    let vendor = cfg.vendor_node();
    let shared_cfg = Arc::new(cfg.clone());
    // Number of events the adopted simulator already processed before
    // the pause; the reassembled total picks up where it left off.
    let base_events = restored_queue.events_processed();
    // Partition the machine-wide transport into per-node parts (each
    // node owns the channels it sends on plus the ones it receives
    // on). A fresh simulator's transport is empty, so partitioning it
    // is identical to building per-shard transports from scratch.
    let mut tparts: Vec<Option<Transport>> = match transport {
        Some(t) => t.into_node_parts(n).into_iter().map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    };
    let mut shard_vec: Vec<Shard> = Vec::with_capacity(n);
    for (i, (((proc_, dir), busy), cache)) in procs
        .into_iter()
        .zip(dirs)
        .zip(dir_busy)
        .zip(dir_caches)
        .enumerate()
    {
        let node = NodeId(i as u16);
        let mut queue = EventQueue::with_tie_break(tie_break);
        queue.set_tracer(tracer.clone());
        shard_vec.push(Shard {
            node,
            cfg: Arc::clone(&shared_cfg),
            tracer: tracer.clone(),
            queue,
            proc: proc_,
            dir,
            dir_busy: busy,
            dir_cache: cache,
            out: Vec::new(),
            transport: tparts[i].take(),
            vendor_next: if node == vendor { vendor_next } else { 0 },
            creations: 0,
            window_end: Cycle::ZERO,
            cur_cycle: Cycle::ZERO,
            cur_idx: 0,
            next_slot: 0,
            pops: Vec::new(),
            staged: Vec::new(),
            ops: Vec::new(),
            committed: Vec::new(),
            finished: 0,
            fault: None,
        });
    }
    let mut eng = Engine {
        cfg,
        tracer,
        net,
        checker,
        tx_chars,
        barrier_waiting,
        active,
        watchdog,
        program_seed,
        rank_map: FxHashMap::default(),
        fault: None,
        out: Vec::new(),
        cur_window: None,
        heads: BTreeSet::new(),
        head_cache: vec![None; n],
        jpops: (0..n).map(|_| Vec::new()).collect(),
        jstaged: (0..n).map(|_| Vec::new()).collect(),
        jops: Vec::new(),
        jcommitted: Vec::new(),
        seq_cycle: Cycle::ZERO,
        seq_hi: 0,
        seq_rank: 0,
        seq_slot: 0,
        seq_shard: 0,
    };
    {
        let mut sv: Vec<&mut Shard> = shard_vec.iter_mut().collect();
        let shards = &mut sv[..];
        if started {
            // Adopting a paused (checkpoint-restored) simulator: the
            // program starts already ran before the pause, so instead
            // of replaying them we distribute the restored queue's
            // pending events to their owner shards. The export order
            // is the classic pop order `(at, key, seq)`; re-keying by
            // export index with `hi = 0` preserves it exactly (every
            // in-window key mints with `hi ≥ 1`, and `PROV` is clear,
            // so restored keys sort first and are already canonical).
            debug_assert!(
                shared_cfg.tie_break_seed.is_none(),
                "resume refuses seeded parallel configs"
            );
            for (idx, (at, _key, _seq, ev)) in
                restored_queue.export_entries().into_iter().enumerate()
            {
                let key = match try_pack(0, idx as u64, 0) {
                    Ok(k) => k,
                    Err(r) => return Err(eng.stalled(shards, at, r)),
                };
                let ev = ev.clone();
                let dst = ev.owner().index();
                shards[dst].queue.schedule_with_key(at, key, ev);
            }
        } else {
            // Program starts replay through the sequential-merge
            // context so their creations get canonical keys in classic
            // creation order (cycle 0 pseudo-pops, ranked by node).
            for i in 0..n {
                let fx = shards[i].proc.start(&eng.cfg, Cycle::ZERO);
                eng.seq_cycle = Cycle::ZERO;
                eng.seq_hi = 0;
                eng.seq_rank = i as u64;
                eng.seq_slot = 0;
                eng.seq_shard = i;
                let mut merged = Merged {
                    eng: &mut eng,
                    shards: &mut *shards,
                };
                apply(&mut merged, Cycle::ZERO, NodeId(i as u16), fx);
            }
        }
        for i in 0..n {
            eng.fix_head(shards, i);
        }
        if let Some(reason) = eng.fault.take() {
            return Err(eng.stalled(shards, Cycle::ZERO, reason));
        }
    }
    drop(restored_queue);
    let shards: Vec<Mutex<Shard>> = shard_vec.into_iter().map(Mutex::new).collect();
    // Worker-thread count: leased from the process-wide budget unless
    // the config explicitly oversubscribes (determinism tests on small
    // machines). More threads than shards is never useful.
    let lease = (!pcfg.oversubscribe).then(|| WorkerBudget::global().lease(pcfg.workers));
    let granted = lease.as_ref().map_or(pcfg.workers, |l| l.workers());
    let n_threads = granted.min(n).max(1);
    let outcome = if n_threads <= 1 {
        main_loop(&mut eng, &shards, None, b, depth)
    } else {
        let pool = Pool {
            shards: &shards,
            start: std::sync::Barrier::new(n_threads),
            done: std::sync::Barrier::new(n_threads),
            plan_end: AtomicU64::new(0),
            claim: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panic_box: Mutex::new(None),
        };
        std::thread::scope(|scope| {
            for _ in 1..n_threads {
                scope.spawn(|| pool.worker());
            }
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                main_loop(&mut eng, &shards, Some(&pool), b, depth)
            }));
            pool.shutdown();
            match r {
                Ok(v) => v,
                Err(p) => panic::resume_unwind(p),
            }
        })
    };
    drop(lease);
    outcome?;
    // Quiesce and reassemble: the union of the shards is put back into
    // a classic `Simulator` so result assembly (and its invariant
    // asserts) is shared verbatim.
    let mut transport_stats: Option<TransportStats> = None;
    let mut procs = Vec::with_capacity(n);
    let mut dirs = Vec::with_capacity(n);
    let mut dir_busy = Vec::with_capacity(n);
    let mut dir_caches = Vec::with_capacity(n);
    let mut vendor_total = 0u64;
    let mut events = base_events;
    for s in shards {
        let g = s
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(g.queue.len(), 0, "drained shard still holds events");
        events += g.queue.events_processed();
        vendor_total += g.vendor_next;
        if let Some(t) = g.transport {
            assert!(
                t.is_quiescent(),
                "{}: transport channels not quiescent at end of run",
                g.node
            );
            add_stats(&mut transport_stats, t.stats());
        }
        procs.push(g.proc);
        dirs.push(g.dir);
        dir_busy.push(g.dir_busy);
        dir_caches.push(g.dir_cache);
    }
    let Engine {
        cfg,
        tracer,
        net,
        checker,
        tx_chars,
        barrier_waiting,
        active,
        watchdog,
        program_seed,
        ..
    } = eng;
    let drv = Driver {
        cfg: cfg.clone(),
        procs,
    };
    let reassembled = Simulator {
        cfg,
        // The restored queue (if any) was consumed into the shards; a
        // fresh queue is fine here because `finish`/`assert_quiescent`
        // never read it.
        queue: EventQueue::with_tie_break(tie_break),
        machine: Machine::Tcc(TccMachine {
            drv,
            dirs,
            vendor_next: vendor_total,
            tracer: tracer.clone(),
            fault: None,
        }),
        net,
        dir_busy,
        dir_caches,
        home_out: Vec::new(),
        barrier_waiting,
        checker,
        tx_chars,
        active,
        tracer,
        transport: None,
        watchdog,
        fault: None,
        started: true,
        program_seed,
        program_digest,
    };
    let mut result = reassembled.finish(events);
    result.transport = transport_stats;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_pack_accepts_field_maxima() {
        let k = try_pack(3, IDX_MASK, EM_MASK).expect("maxima fit");
        assert_eq!(k & u128::from(EM_MASK), u128::from(EM_MASK));
        // A larger hi with smaller rank still sorts above: hi dominates.
        let k2 = try_pack(4, 0, 0).expect("fits");
        assert!(k2 > k);
    }

    #[test]
    fn try_pack_rejects_rank_overflow() {
        match try_pack(1, IDX_MASK + 1, 0) {
            Err(StallReason::KeyOverflow { rank, em }) => {
                assert_eq!(rank, IDX_MASK + 1);
                assert_eq!(em, 0);
            }
            other => panic!("expected KeyOverflow, got {other:?}"),
        }
    }

    #[test]
    fn try_pack_rejects_em_overflow() {
        assert!(matches!(
            try_pack(1, 0, EM_MASK + 1),
            Err(StallReason::KeyOverflow { .. })
        ));
        // em_of saturates on sub-slot overflow so the saturated value
        // is caught here rather than silently wrapping into the slot
        // bits.
        let em = em_of(0, 1 << SUB_BITS);
        assert_eq!(em, u64::MAX);
        assert!(matches!(
            try_pack(1, 0, em),
            Err(StallReason::KeyOverflow { .. })
        ));
        // Boundary: the largest representable (slot, sub) pair packs.
        let ok = em_of(EM_MASK >> SUB_BITS, (1 << SUB_BITS) - 1);
        assert_eq!(ok, EM_MASK);
        assert!(try_pack(1, 0, ok).is_ok());
    }
}
