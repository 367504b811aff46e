//! The TCC processor: the shared program driver's [`Proc`] with the
//! TCC backend — the two-phase commit protocol, violations, the
//! early-TID starvation machinery, and overflow handling.

use std::collections::{BTreeMap, BTreeSet};

use tcc_cache::{Eviction, LineState};
use tcc_trace::{TraceEvent, Tracer, ViolationCause};
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::{Cycle, DirId, LineAddr, LineValues, Message, NodeId, Payload, Tid, WordMask};

use crate::config::SystemConfig;
use crate::driver::{home_of, Backend, Effects, Phase, Proc, ProcCounters};
use crate::profiling::{StarvationEvent, ViolationEvent};

/// One TCC processor: private cache hierarchy plus the protocol engine.
pub type Processor = Proc<TccState>;

/// An overflowed speculative line held in the processor's unbounded
/// victim buffer (the VTM-style virtualization fallback; see DESIGN.md).
///
/// After its transaction commits, an entry with committed data stays
/// here *dirty*: the buffer then carries the same obligations the cache
/// does — answering `DataRequest`s, flushing before invalidations, and
/// pre-write-back before re-writing — because writing the data back
/// eagerly at commit would leave a window in which a subsequent commit
/// to the line completes while this generation's data is still in
/// flight.
#[derive(Debug, Clone)]
struct SpillEntry {
    sr: WordMask,
    sm: WordMask,
    valid: WordMask,
    /// Committed data newer than memory lives here (we are the line's
    /// registered owner).
    dirty: bool,
    /// Ownership generation of the committed data.
    generation: Option<Tid>,
    values: LineValues,
}

/// Validation-phase state (§2.2 commit protocol).
#[derive(Debug)]
struct ValState {
    tid: Option<Tid>,
    write_set: Vec<(LineAddr, WordMask)>,
    wdirs: BTreeSet<DirId>,
    sdirs_only: BTreeSet<DirId>,
    /// Directories whose probe reply is still outstanding.
    pending: BTreeSet<DirId>,
    marks_per_dir: BTreeMap<DirId, u32>,
    /// True once Skip/Probe messages have gone out (they must be undone
    /// with Abort/Skip on a violation).
    announced: bool,
}

/// Commit-side phase of one TCC processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TccPhase {
    /// Waiting for the TID vendor during validation.
    WaitTid,
    /// Waiting for an early TID before re-executing (serialized mode).
    WaitTidEarly,
    /// Probing/marking/committing.
    Validating,
}

impl Snap for TccPhase {
    fn save(&self, w: &mut SnapWriter) {
        let tag: u8 = match self {
            TccPhase::WaitTid => 0,
            TccPhase::WaitTidEarly => 1,
            TccPhase::Validating => 2,
        };
        tag.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match u8::load(r)? {
            0 => TccPhase::WaitTid,
            1 => TccPhase::WaitTidEarly,
            2 => TccPhase::Validating,
            t => return Err(SnapError::invalid("TCC phase", format!("tag {t}"))),
        })
    }
}

/// The TCC backend's per-processor state: validation, forward-progress
/// machinery, the victim buffer, and TCC-only counters.
#[derive(Debug, Default)]
pub struct TccState {
    val: Option<ValState>,
    /// When this attempt's skips/probes went out (commit sub-phase
    /// attribution).
    announce_at: Cycle,
    attempt_commit_extra: u64,
    sharing_dirs: BTreeSet<DirId>,

    // Forward-progress machinery.
    violations_in_row: u32,
    serialize_mode: bool,
    early_tid: Option<Tid>,
    spill: BTreeMap<LineAddr, SpillEntry>,

    /// Most recent TID this processor acquired; tags write-backs (§3.3).
    last_tid: Tid,
    /// TID requests whose attempt was violated while the request was in
    /// flight; the matching replies must be released with skips.
    orphaned_tid_requests: u32,

    overflows: u64,
    serialized_retries: u64,
    tid_wait: u64,
    probe_wait: u64,
    /// The shared tracing sink (observation-only; protocol decisions
    /// never read it). Not saved: the machine re-attaches it.
    pub(crate) tracer: Tracer,
    /// TAPE profiling events (populated only when `cfg.profile`).
    profile_violations: Vec<ViolationEvent>,
    profile_starvation: Vec<StarvationEvent>,
}

impl Backend for TccState {
    type Phase = TccPhase;

    fn phase_name(phase: TccPhase) -> &'static str {
        match phase {
            TccPhase::WaitTid => "wait-tid",
            TccPhase::WaitTidEarly => "wait-tid-early",
            TccPhase::Validating => "validating",
        }
    }

    fn fill_request(line: LineAddr, requester: NodeId, req: u64) -> Payload {
        Payload::LoadRequest {
            line,
            requester,
            req,
        }
    }

    /// In serialized mode the TID is acquired *before* execution so the
    /// transaction ages into the oldest in the system.
    fn gate(
        p: &mut Processor,
        cfg: &SystemConfig,
        _now: Cycle,
        delay: u64,
        fx: &mut Effects,
    ) -> bool {
        p.x.attempt_commit_extra = 0;
        p.x.sharing_dirs.clear();
        p.x.val = None;
        if !p.x.serialize_mode || p.x.early_tid.is_some() {
            return false;
        }
        p.x.serialized_retries += 1;
        p.phase = Phase::Backend(TccPhase::WaitTidEarly);
        let msg = Message::new(
            p.id,
            cfg.vendor_node(),
            Payload::TidRequest { requester: p.id },
        );
        fx.sends.push((delay, msg));
        true
    }

    /// Loads join the sharing vector; spilled lines (serialized mode
    /// and post-commit residue) are serviced from the victim buffer at
    /// L2 latency.
    fn access(
        p: &mut Processor,
        cfg: &SystemConfig,
        line: LineAddr,
        word: usize,
        store: bool,
        delay: u64,
        fx: &mut Effects,
    ) -> Option<u64> {
        if store {
            return p.spill_store(cfg, line, word, delay, fx);
        }
        p.x.sharing_dirs.insert(home_of(cfg, line));
        p.spill_load(cfg, line, word, delay, fx)
    }

    /// The line stays resident (it is about to receive the speculative
    /// write), so this is a Flush — the processor must remain on the
    /// sharers list to keep receiving invalidations for it.
    ///
    /// Sent with delay 0, not at the store's offset: the cache's dirty
    /// bit cleared *now* (execution is batched), and the flush must not
    /// be overtaken by the ack of an invalidation processed later in
    /// this batch window — the directory relies on flush-before-ack
    /// ordering.
    fn dirty_store(p: &mut Processor, cfg: &SystemConfig, ev: Eviction, fx: &mut Effects) {
        p.send_flush(cfg, fx, 0, ev);
    }

    /// Installs the fill (forced in serialized mode, write-backs for
    /// evictions), violates on overflow, and re-executes the blocked
    /// access — now a hit — inline.
    fn fill(
        p: &mut Processor,
        cfg: &SystemConfig,
        now: Cycle,
        line: LineAddr,
        values: LineValues,
        stall_start: Cycle,
        fx: &mut Effects,
    ) {
        let installed = if p.x.serialize_mode {
            p.install_forced(cfg, fx, line, values)
        } else {
            let r = p.cache.fill(line, values, false);
            for ev in r.evictions {
                p.send_writeback(cfg, fx, 0, ev);
            }
            !r.overflow
        };
        if !installed {
            // Overflow: this attempt cannot proceed on this hardware.
            p.x.overflows += 1;
            fx.merge(p.violate(cfg, now, true));
            return;
        }
        debug_assert!(
            now >= stall_start,
            "fill resumed before its request's logical issue time"
        );
        let stalled_for = now.since(stall_start);
        let node = p.id;
        p.x.tracer.observe("proc.miss_stall", stalled_for);
        p.x.tracer.record(now, || TraceEvent::MissStallExit {
            node,
            line,
            stalled_for,
        });
        p.attempt_miss += stalled_for;
        p.phase = Phase::Running;
        fx.merge(p.step(cfg, now));
    }

    fn counters(&self) -> ProcCounters {
        ProcCounters {
            overflows: self.overflows,
            serialized_retries: self.serialized_retries,
            tid_wait: self.tid_wait,
            probe_wait: self.probe_wait,
            ..ProcCounters::default()
        }
    }
}

impl Processor {
    /// Drains the TAPE profiling events recorded so far.
    pub fn take_profile(&mut self) -> (Vec<ViolationEvent>, Vec<StarvationEvent>) {
        (
            std::mem::take(&mut self.x.profile_violations),
            std::mem::take(&mut self.x.profile_starvation),
        )
    }

    /// Whether `line` is held dirty in the overflow victim buffer
    /// (for the simulator's end-of-run ownership check).
    #[must_use]
    pub fn has_dirty_spill(&self, line: LineAddr) -> bool {
        self.x.spill.get(&line).is_some_and(|e| e.dirty)
    }

    /// The TID governing this attempt, if any (validation TID or early
    /// TID).
    fn attempt_tid(&self) -> Option<Tid> {
        self.x.val.as_ref().and_then(|v| v.tid).or(self.x.early_tid)
    }

    /// One `ProcStep`: runs a chunk of the body and, once it completes,
    /// enters validation.
    pub(crate) fn step(&mut self, cfg: &SystemConfig, now: Cycle) -> Effects {
        let mut fx = Effects::default();
        if let Some((at, delay)) = self.run_chunk(cfg, now, &mut fx) {
            fx.merge(self.begin_validation(cfg, at, delay));
        }
        fx
    }

    /// A load of `word` in a spilled line: served from the buffer when
    /// the word is there. Otherwise the entry is re-installed into the
    /// cache (forced, possibly spilling a different victim) and the
    /// load takes the ordinary upgrade-miss path — the fetch merges
    /// around the entry's SM words and valid data, keeping a single
    /// copy of truth.
    fn spill_load(
        &mut self,
        cfg: &SystemConfig,
        line: LineAddr,
        word: usize,
        delay: u64,
        fx: &mut Effects,
    ) -> Option<u64> {
        let entry = self.x.spill.get_mut(&line)?;
        if entry.sm.get(word) || entry.valid.get(word) {
            let first = !entry.sr.get(word) && !entry.sm.get(word);
            if !entry.sm.get(word) {
                entry.sr.set(word);
                if first {
                    let v = entry.values.words.get(word).copied().flatten();
                    self.reads_log.push((line, word, v));
                }
            }
            return Some(cfg.cache.l2_latency);
        }
        let e = self.x.spill.remove(&line).expect("checked above");
        let state = LineState {
            sr: e.sr,
            sm: e.sm,
            dirty: e.dirty,
            owner_tid: e.generation,
            values: e.values,
        };
        let forced = self.cache.install_forced(line, state, e.valid);
        for ev in forced.evictions {
            self.send_writeback(cfg, fx, delay, ev);
        }
        if let Some((vline, vstate, vvalid)) = forced.spilled {
            debug_assert_ne!(vline, line, "just-installed line evicted");
            if vstate.dirty {
                self.send_flush(
                    cfg,
                    fx,
                    delay,
                    Eviction {
                        line: vline,
                        values: vstate.values.clone(),
                        valid: vvalid,
                        dirty: true,
                        generation: vstate.owner_tid,
                    },
                );
            }
            self.x.spill.insert(
                vline,
                SpillEntry {
                    sr: vstate.sr,
                    sm: vstate.sm,
                    valid: vvalid,
                    dirty: false,
                    generation: vstate.owner_tid,
                    values: vstate.values,
                },
            );
        }
        None
    }

    /// A store of `word` in a spilled line is buffered there.
    fn spill_store(
        &mut self,
        cfg: &SystemConfig,
        line: LineAddr,
        word: usize,
        delay: u64,
        fx: &mut Effects,
    ) -> Option<u64> {
        let entry = self.x.spill.get_mut(&line)?;
        // Dirty-bit rule (§3.1), spill edition: the first speculative
        // write to buffered committed data flushes it home first so an
        // abort cannot destroy it.
        let pre = (entry.dirty && entry.sm.is_empty()).then(|| {
            entry.dirty = false;
            (entry.values.clone(), entry.valid, entry.generation)
        });
        entry.sm.set(word);
        if let Some((values, valid, generation)) = pre {
            self.send_flush(
                cfg,
                fx,
                delay,
                Eviction {
                    line,
                    values,
                    valid,
                    dirty: true,
                    generation,
                },
            );
        }
        Some(cfg.cache.l2_latency)
    }

    /// The staleness tag for a write-back of committed data: the
    /// ownership generation of the data itself (§3.3, refined — see
    /// DESIGN.md: tagging with the processor's latest TID would defeat
    /// the superseded-write-back check).
    fn wb_tag(&self, cfg: &SystemConfig, generation: Option<Tid>) -> Tid {
        debug_assert!(generation.is_some(), "dirty data without a generation");
        if cfg.bugs.writeback_latest_tid {
            // Mutation knob: tagging with the newest TID this processor
            // has seen (instead of the generation that claimed the
            // line) defeats the directory's §3.3 staleness check — a
            // superseded owner's write-back can clobber newer data.
            return self.x.last_tid;
        }
        generation.unwrap_or(self.x.last_tid)
    }

    /// Emits a `Flush` for a dirty line that stays resident (dirty-bit
    /// pre-write-back, §3.1).
    fn send_flush(&self, cfg: &SystemConfig, fx: &mut Effects, delay: u64, ev: Eviction) {
        debug_assert!(ev.dirty);
        let home = home_of(cfg, ev.line).node();
        let tid = self.wb_tag(cfg, ev.generation);
        fx.sends.push((
            delay,
            Message::new(
                self.id,
                home,
                Payload::Flush {
                    line: ev.line,
                    tid,
                    values: ev.values,
                    valid: ev.valid,
                    writer: self.id,
                    dropped: false,
                },
            ),
        ));
    }

    /// Emits a `WriteBack` (eviction) message for a dirty line leaving
    /// the cache.
    fn send_writeback(&self, cfg: &SystemConfig, fx: &mut Effects, delay: u64, ev: Eviction) {
        debug_assert!(ev.dirty);
        let home = home_of(cfg, ev.line).node();
        let tid = self.wb_tag(cfg, ev.generation);
        fx.sends.push((
            delay,
            Message::new(
                self.id,
                home,
                Payload::WriteBack {
                    line: ev.line,
                    tid,
                    values: ev.values,
                    valid: ev.valid,
                    writer: self.id,
                },
            ),
        ));
    }

    // ------------------------------------------------------------------
    // Validation & commit
    // ------------------------------------------------------------------

    /// Transaction body finished at cycle `at`, `delay` cycles into the
    /// current event: capture the write-set and enter the commit
    /// protocol.
    pub(crate) fn begin_validation(
        &mut self,
        cfg: &SystemConfig,
        at: Cycle,
        delay: u64,
    ) -> Effects {
        let mut fx = Effects::default();
        self.commit_start = at;
        self.x.announce_at = at;
        // Write-set = cached SM lines plus spilled SM lines.
        let mut write_set = self.cache.write_set();
        for (&line, e) in &self.x.spill {
            if !e.sm.is_empty() {
                write_set.push((line, e.sm));
            }
        }
        write_set.sort_by_key(|(l, _)| l.0);
        let wdirs: BTreeSet<DirId> = write_set.iter().map(|(l, _)| home_of(cfg, *l)).collect();
        let sdirs_only: BTreeSet<DirId> = self.x.sharing_dirs.difference(&wdirs).copied().collect();
        self.x.val = Some(ValState {
            tid: self.x.early_tid,
            write_set,
            wdirs,
            sdirs_only,
            pending: BTreeSet::new(),
            marks_per_dir: BTreeMap::new(),
            announced: false,
        });
        if self.x.early_tid.is_some() {
            // Serialized mode already holds a TID.
            self.phase = Phase::Backend(TccPhase::Validating);
            fx.merge(self.announce_commit(cfg, at, delay));
        } else {
            self.phase = Phase::Backend(TccPhase::WaitTid);
            let node = self.id;
            self.x.tracer.record(at, || TraceEvent::TidRequest { node });
            fx.sends.push((
                delay,
                Message::new(
                    self.id,
                    cfg.vendor_node(),
                    Payload::TidRequest { requester: self.id },
                ),
            ));
        }
        fx
    }

    /// Sends the Skip multicast and the probes (phase 1 of the commit)
    /// at cycle `at`, `delay` cycles into the current event.
    fn announce_commit(&mut self, cfg: &SystemConfig, at: Cycle, delay: u64) -> Effects {
        let mut fx = Effects::default();
        let val = self
            .x
            .val
            .as_mut()
            .expect("announce without validation state");
        let tid = val.tid.expect("announce without TID");
        debug_assert!(!val.announced);
        val.announced = true;
        val.pending = val.wdirs.union(&val.sdirs_only).copied().collect();
        let involved: BTreeSet<DirId> = val.pending.clone();
        for d in 0..cfg.n_procs {
            let dir = DirId(d as u16);
            if involved.contains(&dir) {
                let for_write = val.wdirs.contains(&dir);
                fx.sends.push((
                    delay,
                    Message::new(
                        self.id,
                        dir.node(),
                        Payload::Probe {
                            tid,
                            requester: self.id,
                            for_write,
                        },
                    ),
                ));
            } else {
                fx.sends.push((
                    delay,
                    Message::new(self.id, dir.node(), Payload::Skip { tid }),
                ));
            }
        }
        let node = self.id;
        let probes = involved.len() as u32;
        let skips = (cfg.n_procs - involved.len()) as u32;
        self.x.tracer.record(at, || TraceEvent::CommitAnnounce {
            node,
            tid,
            probes,
            skips,
        });
        if involved.is_empty() {
            // A transaction with no memory footprint commits at once.
            fx.merge(self.complete_commit(cfg, at));
        }
        fx
    }

    /// Handles a `TidReply`.
    ///
    /// If the attempt that requested the TID was violated while the
    /// request was in flight, the granted TID is *orphaned*: it must
    /// still be released by skipping every directory, or the gap-free
    /// sequence would stall the whole machine.
    ///
    /// Idempotence: relies on transport dedup. TID vending is an
    /// allocation, not a query — a duplicate `TidRequest` mints an
    /// orphan TID nobody releases, and a duplicate `TidReply` trips the
    /// state panic below (kept as an exactly-once-violation detector).
    pub(crate) fn on_tid_reply(&mut self, cfg: &SystemConfig, now: Cycle, tid: Tid) -> Effects {
        if self.x.orphaned_tid_requests > 0 {
            self.x.orphaned_tid_requests -= 1;
            self.x.last_tid = tid;
            return self.skip_everywhere(cfg, tid);
        }
        self.x.last_tid = tid;
        match self.phase {
            Phase::Backend(TccPhase::WaitTid) => {
                let waited = now.since(self.commit_start);
                self.x.tid_wait += waited;
                let node = self.id;
                self.x.tracer.observe("commit.tid_wait", waited);
                self.x
                    .tracer
                    .record(now, || TraceEvent::TidAcquire { node, tid, waited });
                self.x.announce_at = now;
                self.x.val.as_mut().expect("WaitTid without val").tid = Some(tid);
                self.phase = Phase::Backend(TccPhase::Validating);
                self.announce_commit(cfg, now, 0)
            }
            Phase::Backend(TccPhase::WaitTidEarly) => {
                self.x.early_tid = Some(tid);
                self.phase = Phase::Running;
                let mut fx = Effects::default();
                // The wait for the early TID is commit-protocol overhead.
                self.x.attempt_commit_extra += now.since(self.tx_start);
                self.wake(0, &mut fx);
                fx
            }
            _ => panic!("TidReply while {}", self.state_name()),
        }
    }

    /// Handles a `ProbeReply` from `dir`.
    ///
    /// Idempotence: naturally idempotent — replies are consumed by
    /// removing `dir` from the attempt's pending set (and stale-attempt
    /// replies fail the `probe_tid` echo check), so a duplicate is
    /// dropped without re-sending Marks.
    pub(crate) fn on_probe_reply(
        &mut self,
        cfg: &SystemConfig,
        now: Cycle,
        dir: DirId,
        now_serving: Tid,
        probe_tid: Tid,
        for_write: bool,
    ) -> Effects {
        let mut fx = Effects::default();
        let Phase::Backend(TccPhase::Validating) = self.phase else {
            return fx; // stale reply from an aborted attempt
        };
        let val = self.x.val.as_mut().expect("validating without val state");
        let tid = val.tid.expect("validating without TID");
        if probe_tid != tid || now_serving < tid || !val.pending.remove(&dir) {
            return fx; // reply to a probe of an aborted earlier attempt
        }
        if for_write {
            debug_assert_eq!(now_serving, tid, "write probe answered early");
            let marks: Vec<(LineAddr, WordMask)> = val
                .write_set
                .iter()
                .filter(|(l, _)| home_of(cfg, *l) == dir)
                .copied()
                .collect();
            val.marks_per_dir.insert(dir, marks.len() as u32);
            for (line, words) in marks {
                fx.sends.push((
                    0,
                    Message::new(
                        self.id,
                        dir.node(),
                        Payload::Mark {
                            tid,
                            line,
                            words,
                            committer: self.id,
                        },
                    ),
                ));
            }
        }
        if val.pending.is_empty() {
            fx.merge(self.complete_commit(cfg, now));
        }
        fx
    }

    /// Phase 2: all probes satisfied and all marks sent — multicast
    /// `Commit`, apply the commit locally, and move to the next item.
    fn complete_commit(&mut self, cfg: &SystemConfig, now: Cycle) -> Effects {
        let probe_wait = now.since(self.x.announce_at.max(self.commit_start));
        self.x.probe_wait += probe_wait;
        self.x.tracer.observe("commit.probe_wait", probe_wait);
        let mut fx = Effects::default();
        let val = self.x.val.take().expect("commit without validation state");
        let tid = val.tid.expect("commit without TID");
        {
            let node = self.id;
            let marks: u32 = val.marks_per_dir.values().sum();
            // Latency of the whole commit phase: TID acquire (or phase
            // entry, in serialized mode) to the Commit multicast.
            let latency = now.since(self.x.announce_at);
            self.x.tracer.count("commit.count", 1);
            self.x.tracer.observe("commit.latency", latency);
            self.x.tracer.record(now, || TraceEvent::CommitMulticast {
                node,
                tid,
                marks,
                latency,
            });
        }
        for &dir in val.wdirs.union(&val.sdirs_only) {
            let marks = val.marks_per_dir.get(&dir).copied().unwrap_or(0);
            fx.sends.push((
                0,
                Message::new(
                    self.id,
                    dir.node(),
                    Payload::Commit {
                        tid,
                        committer: self.id,
                        marks,
                    },
                ),
            ));
        }
        // Spilled lines commit locally, exactly like cached lines. The
        // data stays in the buffer *dirty* — we are its registered
        // owner — and is flushed on demand (DataRequest, invalidation,
        // re-write, or retirement), never fire-and-forget: an eager
        // write-back could still be in flight when a later commit to
        // the line completes, leaving memory stale in the window.
        let spilled = std::mem::take(&mut self.x.spill);
        for (line, mut e) in spilled {
            if !e.sm.is_empty() {
                e.values.apply_write(e.sm, tid);
                e.valid = e.valid.union(e.sm);
                e.dirty = true;
                e.generation = Some(tid);
                e.sm = WordMask::EMPTY;
            }
            e.sr = WordMask::EMPTY;
            if e.dirty {
                self.x.spill.insert(line, e);
            }
            // Clean read-only spills are simply forgotten.
        }
        assert_eq!(
            self.attempt_useful + self.attempt_miss + self.x.attempt_commit_extra,
            self.commit_start.since(self.tx_start),
            "{}: attempt segments do not tile: useful={} miss={} extra={} tx_start={} commit_start={}",
            self.id,
            self.attempt_useful,
            self.attempt_miss,
            self.x.attempt_commit_extra,
            self.tx_start,
            self.commit_start
        );
        // Local commit: stamp speculative writes with the TID, report
        // the checker record, and book the attempt.
        self.retire(cfg, tid, &val.write_set, &mut fx);
        self.totals.commit += self.x.attempt_commit_extra;
        self.x.violations_in_row = 0;
        self.x.serialize_mode = false;
        self.x.early_tid = None;
        self.next_item(cfg, now, 0, &mut fx);
        fx
    }

    // ------------------------------------------------------------------
    // Incoming coherence traffic
    // ------------------------------------------------------------------

    /// Serialized-mode fill: force the install, spilling any displaced
    /// speculative line into the unbounded victim buffer.
    fn install_forced(
        &mut self,
        cfg: &SystemConfig,
        fx: &mut Effects,
        line: LineAddr,
        values: LineValues,
    ) -> bool {
        let r = self.cache.fill(line, values.clone(), false);
        if !r.overflow {
            for ev in r.evictions {
                self.send_writeback(cfg, fx, 0, ev);
            }
            return true;
        }
        let forced = self.cache.fill_forced(line, values);
        for ev in forced.evictions {
            self.send_writeback(cfg, fx, 0, ev);
        }
        if let Some((vline, state, valid)) = forced.spilled {
            if state.dirty {
                // The spilled line carried committed data this processor
                // owns: flush it home (keeping sharer status — the
                // buffered SR/SM bits still need invalidations) so the
                // directory's ownership record stays serviceable.
                self.send_flush(
                    cfg,
                    fx,
                    0,
                    Eviction {
                        line: vline,
                        values: state.values.clone(),
                        valid,
                        dirty: true,
                        generation: state.owner_tid,
                    },
                );
            }
            self.x.spill.insert(
                vline,
                SpillEntry {
                    sr: state.sr,
                    sm: state.sm,
                    valid,
                    dirty: false,
                    generation: state.owner_tid,
                    values: state.values,
                },
            );
        }
        true
    }

    /// Handles an `Invalidate` from a remote commit.
    ///
    /// Idempotence: relies on transport dedup. Every delivery answers
    /// with an `InvAck`, and the directory's ack window is a countdown —
    /// a duplicate invalidation produces a surplus ack that underflows
    /// it ("inv ack with no commit in flight").
    pub(crate) fn on_invalidate(
        &mut self,
        cfg: &SystemConfig,
        now: Cycle,
        line: LineAddr,
        words: WordMask,
        committer_tid: Tid,
        dir: DirId,
    ) -> Effects {
        let mut fx = Effects::default();
        let home = home_of(cfg, line).node();
        // If a fill for this very line is in flight, the data it will
        // return predates this commit: supersede the request with a
        // fresh one (the old reply's id no longer matches and will be
        // dropped — §3.3 "drop that load"). The replacement must not
        // depart before the original request's logical issue time
        // (`stall_start` can lie ahead of `now` because execution is
        // batched): a reply arriving before that point would resume the
        // processor inside an already-accounted execution window.
        if let Phase::WaitFill {
            line: l,
            req,
            stall_start,
        } = &mut self.phase
        {
            if *l == line {
                self.req_seq += 1;
                *req = self.req_seq;
                let delay = stall_start.since(now);
                fx.sends.push((
                    delay,
                    Message::new(
                        self.id,
                        home,
                        Payload::LoadRequest {
                            line,
                            requester: self.id,
                            req: self.req_seq,
                        },
                    ),
                ));
            }
        }
        // A dirty copy being invalidated means another processor took
        // over ownership of this line: our still-valid committed words
        // must reach memory first, or they would be lost.
        if let Some((values, valid, generation)) = self.cache.prepare_inv_flush(line, words) {
            let tid = self.wb_tag(cfg, generation);
            fx.sends.push((
                0,
                Message::new(
                    self.id,
                    home,
                    Payload::Flush {
                        line,
                        tid,
                        values,
                        valid,
                        writer: self.id,
                        dropped: false,
                    },
                ),
            ));
        }
        let mut conflict = false;
        let mut retained = false;
        // Victim-buffer copy: whole-line data invalidation, word-granular
        // conflict check (mirrors the cache path, including the
        // flush-dirty-first obligation).
        if let Some(e) = self.x.spill.get_mut(&line) {
            if e.dirty {
                e.dirty = false;
                let valid = WordMask(e.valid.0 & !words.0);
                let ev = Eviction {
                    line,
                    values: e.values.clone(),
                    valid,
                    dirty: true,
                    generation: e.generation,
                };
                self.send_flush(cfg, &mut fx, 0, ev);
            }
            let e = self.x.spill.get_mut(&line).expect("still present");
            conflict |= e.sr.intersects(words);
            e.valid = WordMask::EMPTY;
            if e.sr.is_empty() && e.sm.is_empty() {
                self.x.spill.remove(&line);
            } else {
                retained = true;
            }
        }
        let out = self.cache.invalidate(line, words);
        conflict |= out.conflict;
        retained |= out.retained;
        // A superseded in-flight fill also keeps us interested.
        retained |= matches!(self.phase, Phase::WaitFill { line: l, .. } if l == line);
        // Acknowledge (the directory counts acks and prunes inactive
        // sharers).
        fx.sends.push((
            1,
            Message::new(
                self.id,
                dir.node(),
                Payload::InvAck {
                    tid: committer_tid,
                    line,
                    from: self.id,
                    retained,
                },
            ),
        ));
        if !conflict {
            return fx;
        }
        if let Some(mine) = self.attempt_tid() {
            if committer_tid > mine {
                // The committer is logically later; the line was
                // invalidated but our transaction is unaffected. Only
                // possible once our execution phase is over.
                debug_assert!(
                    !matches!(self.phase, Phase::Running | Phase::WaitFill { .. }),
                    "a later transaction committed while an early-TID \
                     transaction was still executing"
                );
                return fx;
            }
        }
        if cfg.profile {
            self.x.profile_violations.push(ViolationEvent {
                victim: self.id,
                line,
                words,
                committer_tid,
                wasted_cycles: now.since(self.tx_start),
                at: now,
            });
        }
        fx.merge(self.violate(cfg, now, false));
        fx
    }

    /// Handles a `DataRequest`: flush the line so the directory can
    /// serve a remote load.
    pub(crate) fn on_data_request(&mut self, cfg: &SystemConfig, line: LineAddr) -> Effects {
        let mut fx = Effects::default();
        // A dirty spilled copy answers from the victim buffer.
        if let Some(e) = self.x.spill.get_mut(&line) {
            if e.dirty {
                e.dirty = false;
                let ev = Eviction {
                    line,
                    values: e.values.clone(),
                    valid: e.valid,
                    dirty: true,
                    generation: e.generation,
                };
                if e.sr.is_empty() && e.sm.is_empty() {
                    self.x.spill.remove(&line);
                }
                self.send_flush(cfg, &mut fx, cfg.cache.l2_latency, ev);
            }
            return fx;
        }
        // Only a *dirty* copy answers: if our copy is clean, the flush
        // or write-back that cleaned it is already in flight to the
        // directory (or processed) and carries everything memory needs;
        // replying from a clean copy could push data from a superseded
        // ownership generation over newer memory.
        if !self.cache.is_dirty(line) {
            return fx;
        }
        // Keep the line if configured to, and always keep it when it
        // carries live speculative state (dropping it would lose SR/SM
        // tracking) or when one of our own fills for it is in flight
        // (the fill will merge around the line's valid words — but a
        // *dropped* line would let it cold-install stale memory data
        // over words only this owner held).
        let speculative =
            !self.cache.sr_mask(line).is_empty() || !self.cache.sm_mask(line).is_empty();
        let fill_inflight = matches!(self.phase, Phase::WaitFill { line: l, .. } if l == line);
        let keep = cfg.owner_flush_keeps_line || speculative || fill_inflight;
        if let Some((values, valid, generation)) = self.cache.flush(line, keep) {
            let tid = self.wb_tag(cfg, generation);
            fx.sends.push((
                cfg.cache.l2_latency,
                Message::new(
                    self.id,
                    home_of(cfg, line).node(),
                    Payload::Flush {
                        line,
                        tid,
                        values,
                        valid,
                        writer: self.id,
                        dropped: !keep,
                    },
                ),
            ));
        }
        fx
    }

    // ------------------------------------------------------------------
    // Violation & rollback
    // ------------------------------------------------------------------

    /// Rolls back the current attempt and restarts it. `overflow` marks
    /// violations caused by speculative-buffer exhaustion, which force
    /// the serialized retry mode immediately.
    fn violate(&mut self, cfg: &SystemConfig, now: Cycle, overflow: bool) -> Effects {
        let mut fx = Effects::default();
        let node = self.id;
        let cause = if overflow {
            ViolationCause::Overflow
        } else {
            ViolationCause::Conflict
        };
        self.x.tracer.count(
            if overflow {
                "violations.overflow"
            } else {
                "violations.conflict"
            },
            1,
        );
        self.x
            .tracer
            .record(now, || TraceEvent::Violation { node, cause });
        // Any wake-up scheduled by the doomed attempt is now stale.
        self.wake_seq += 1;
        self.violations += 1;
        self.x.violations_in_row += 1;
        // A TID request in flight becomes orphaned: its reply will be
        // released with skips when it arrives.
        if matches!(
            self.phase,
            Phase::Backend(TccPhase::WaitTid | TccPhase::WaitTidEarly)
        ) {
            self.x.orphaned_tid_requests += 1;
        }
        // Undo any protocol announcements of this attempt.
        if let Some(val) = self.x.val.take() {
            if let Some(tid) = val.tid {
                if val.announced {
                    for &dir in &val.wdirs {
                        fx.sends
                            .push((0, Message::new(self.id, dir.node(), Payload::Abort { tid })));
                    }
                    for &dir in &val.sdirs_only {
                        fx.sends
                            .push((0, Message::new(self.id, dir.node(), Payload::Skip { tid })));
                    }
                } else {
                    // TID acquired but nothing announced: release it by
                    // skipping everywhere so the sequence stays gap-free.
                    fx.merge(self.skip_everywhere(cfg, tid));
                }
            }
        } else if let Some(tid) = self.x.early_tid.take() {
            // Early TID held during execution: release it everywhere.
            fx.merge(self.skip_everywhere(cfg, tid));
        }
        self.x.early_tid = None;
        // Roll back speculative state. Committed (dirty) spill entries
        // survive the abort — they are not speculative.
        self.cache.abort_tx();
        self.x.spill.retain(|_, e| {
            debug_assert!(!e.dirty || e.sm.is_empty(), "dirty+SM spill impossible");
            e.sr = WordMask::EMPTY;
            e.dirty && e.sm.is_empty()
        });
        self.totals.violation += now.since(self.tx_start);
        let was_serialized = self.x.serialize_mode;
        self.x.serialize_mode = overflow || self.x.violations_in_row >= cfg.starvation_threshold;
        if self.x.serialize_mode && !was_serialized {
            self.x.tracer.count("proc.starvation_entries", 1);
            if cfg.profile {
                self.x.profile_starvation.push(StarvationEvent {
                    proc: self.id,
                    violations: self.x.violations_in_row,
                    overflow,
                    at: now,
                });
            }
        }
        self.begin_attempt(cfg, now, 0, &mut fx);
        fx
    }

    /// Releases `tid` by skipping every directory in the machine.
    fn skip_everywhere(&self, cfg: &SystemConfig, tid: Tid) -> Effects {
        let mut fx = Effects::default();
        for d in 0..cfg.n_procs {
            fx.sends.push((
                0,
                Message::new(self.id, NodeId(d as u16), Payload::Skip { tid }),
            ));
        }
        fx
    }
}

impl Snap for SpillEntry {
    fn save(&self, w: &mut SnapWriter) {
        self.sr.save(w);
        self.sm.save(w);
        self.valid.save(w);
        self.dirty.save(w);
        self.generation.save(w);
        self.values.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SpillEntry {
            sr: r.get()?,
            sm: r.get()?,
            valid: r.get()?,
            dirty: r.get()?,
            generation: r.get()?,
            values: r.get()?,
        })
    }
}

impl Snap for ValState {
    fn save(&self, w: &mut SnapWriter) {
        self.tid.save(w);
        self.write_set.save(w);
        self.wdirs.save(w);
        self.sdirs_only.save(w);
        self.pending.save(w);
        self.marks_per_dir.save(w);
        self.announced.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ValState {
            tid: r.get()?,
            write_set: r.get()?,
            wdirs: r.get()?,
            sdirs_only: r.get()?,
            pending: r.get()?,
            marks_per_dir: r.get()?,
            announced: r.get()?,
        })
    }
}

/// Every field but the tracer, in declaration order.
impl Snap for TccState {
    fn save(&self, w: &mut SnapWriter) {
        self.val.save(w);
        self.announce_at.save(w);
        self.attempt_commit_extra.save(w);
        self.sharing_dirs.save(w);
        self.violations_in_row.save(w);
        self.serialize_mode.save(w);
        self.early_tid.save(w);
        self.spill.save(w);
        self.last_tid.save(w);
        self.orphaned_tid_requests.save(w);
        self.overflows.save(w);
        self.serialized_retries.save(w);
        self.tid_wait.save(w);
        self.probe_wait.save(w);
        self.profile_violations.save(w);
        self.profile_starvation.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TccState {
            val: r.get()?,
            announce_at: r.get()?,
            attempt_commit_extra: r.get()?,
            sharing_dirs: r.get()?,
            violations_in_row: r.get()?,
            serialize_mode: r.get()?,
            early_tid: r.get()?,
            spill: r.get()?,
            last_tid: r.get()?,
            orphaned_tid_requests: r.get()?,
            overflows: r.get()?,
            serialized_retries: r.get()?,
            tid_wait: r.get()?,
            probe_wait: r.get()?,
            tracer: Tracer::disabled(),
            profile_violations: r.get()?,
            profile_starvation: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ThreadProgram, Transaction, TxOp, WorkItem};
    use tcc_types::Addr;

    fn one_proc_cfg() -> SystemConfig {
        SystemConfig {
            n_procs: 1,
            check_serializability: true,
            ..SystemConfig::default()
        }
    }

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Tx(Transaction::new(ops))
    }

    /// Extracts (line, req) of the first LoadRequest in the effects.
    fn load_req(fx: &Effects) -> (LineAddr, u64) {
        fx.sends
            .iter()
            .find_map(|(_, m)| match m.payload {
                Payload::LoadRequest { line, req, .. } => Some((line, req)),
                _ => None,
            })
            .expect("expected a LoadRequest")
    }

    /// Delivers a fill reply, as `TccMachine::on_node` does.
    fn fill(
        p: &mut Processor,
        cfg: &SystemConfig,
        now: Cycle,
        line: LineAddr,
        values: LineValues,
        req: u64,
    ) -> Effects {
        let mut fx = Effects::default();
        p.on_fill(cfg, now, line, values, req, &mut fx);
        fx
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, ThreadProgram::empty());
        let fx = p.start(&cfg, Cycle(0));
        assert!(fx.finished);
        assert_eq!(p.phase, Phase::Done);
        assert_eq!(p.done_at, Some(Cycle(0)));
    }

    #[test]
    fn compute_only_transaction_requests_a_tid() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Compute(10)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        let fx = p.start(&cfg, Cycle(0));
        assert_eq!(fx.wake_in, Some(0));
        let fx = p.step(&cfg, Cycle(0));
        // Body done at +10: a TidRequest goes to the vendor.
        assert_eq!(fx.sends.len(), 1);
        let (delay, msg) = &fx.sends[0];
        assert_eq!(*delay, 10);
        assert!(matches!(msg.payload, Payload::TidRequest { .. }));
        assert_eq!(p.state_name(), "wait-tid");
        // TID arrives: with no footprint, it skips its one directory and
        // commits instantly.
        let fx = p.on_tid_reply(&cfg, Cycle(20), Tid(0));
        assert!(fx.committed.is_some());
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::Skip { tid: Tid(0) })));
        assert!(fx.finished);
        let b = p.totals;
        assert_eq!(b.useful, 10);
        assert_eq!(b.commit, 10); // cycles 10..20 waiting for the TID
        assert_eq!(p.counters().commits, 1);
        assert_eq!(p.counters().instructions, 10);
    }

    #[test]
    fn load_miss_blocks_and_fill_resumes() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Load(Addr(0x40))])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        assert_eq!(p.state_name(), "wait-fill");
        let (line, req) = load_req(&fx);
        // Fill arrives 100 cycles later.
        let fx = fill(&mut p, &cfg, Cycle(100), line, LineValues::fresh(8), req);
        // The retry hits (1 cycle) and validation begins.
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::TidRequest { .. })));
        assert_eq!(p.totals.cache_miss, 0, "not folded until commit");
        let fx = p.on_tid_reply(&cfg, Cycle(120), Tid(0));
        // One directory, in the sharing vector: a probe goes out.
        assert!(fx.sends.iter().any(|(_, m)| matches!(
            m.payload,
            Payload::Probe {
                for_write: false,
                ..
            }
        )));
        let fx = p.on_probe_reply(&cfg, Cycle(130), DirId(0), Tid(0), Tid(0), false);
        assert!(fx.committed.is_some());
        let (record, chars) = fx.committed.unwrap();
        assert_eq!(record.reads.len(), 1);
        assert_eq!(record.reads[0].2, None);
        assert_eq!(chars.instructions, 1);
        assert_eq!(chars.dirs_touched, 1);
        assert_eq!(chars.dirs_written, 0);
        let b = p.totals;
        assert_eq!(b.cache_miss, 100);
        assert_eq!(b.useful, 1);
        assert_eq!(b.commit, Cycle(130).since(Cycle(101)));
    }

    #[test]
    fn store_path_marks_and_commits() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Store(Addr(0x40))])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, req) = load_req(&fx);
        fill(&mut p, &cfg, Cycle(50), line, LineValues::fresh(8), req);
        p.on_tid_reply(&cfg, Cycle(60), Tid(0));
        let fx = p.on_probe_reply(&cfg, Cycle(70), DirId(0), Tid(0), Tid(0), true);
        // A mark for the stored line, then the commit.
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::Mark { .. })));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::Commit { marks: 1, .. })));
        let (_, chars) = fx.committed.unwrap();
        assert_eq!(chars.words_written, 1);
        assert_eq!(chars.dirs_written, 1);
    }

    #[test]
    fn invalidation_conflict_restarts_the_transaction() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Load(Addr(0x40)), TxOp::Compute(1000)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, req) = load_req(&fx);
        fill(&mut p, &cfg, Cycle(10), line, LineValues::fresh(8), req);
        // Executing Compute(1000) in chunks; now a conflicting
        // invalidation lands.
        let fx = p.on_invalidate(&cfg, Cycle(50), line, WordMask::ALL, Tid(0), DirId(0));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::InvAck { .. })));
        assert_eq!(p.counters().violations, 1);
        assert_eq!(p.totals.violation, 50);
        assert_eq!(p.state_name(), "running", "restart is immediate");
    }

    #[test]
    fn non_conflicting_invalidation_is_acked_and_ignored() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Load(Addr(0x40)), TxOp::Compute(500)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, req) = load_req(&fx);
        fill(&mut p, &cfg, Cycle(10), line, LineValues::fresh(8), req);
        // Invalidate a word we did not read (word 5; we read word 0).
        let fx = p.on_invalidate(&cfg, Cycle(20), line, WordMask::single(5), Tid(0), DirId(0));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::InvAck { .. })));
        assert_eq!(p.counters().violations, 0);
    }

    #[test]
    fn repeated_violations_trigger_serialized_mode() {
        let cfg = SystemConfig {
            starvation_threshold: 2,
            ..one_proc_cfg()
        };
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Load(Addr(0x40)), TxOp::Compute(100)])]);
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, req) = load_req(&fx);
        fill(&mut p, &cfg, Cycle(10), line, LineValues::fresh(8), req);
        p.on_invalidate(&cfg, Cycle(20), line, WordMask::ALL, Tid(0), DirId(0));
        // Second attempt: reload, violate again -> serialized mode.
        let fx = p.step(&cfg, Cycle(21));
        let (line, req) = load_req(&fx);
        fill(&mut p, &cfg, Cycle(30), line, LineValues::fresh(8), req);
        let fx = p.on_invalidate(&cfg, Cycle(40), line, WordMask::ALL, Tid(1), DirId(0));
        assert_eq!(p.counters().violations, 2);
        // Early TID requested before re-execution.
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::TidRequest { .. })));
        assert_eq!(p.state_name(), "wait-tid-early");
        // Both violated attempts had TID requests in flight (they were
        // violated in wait-tid); those replies are orphaned and must be
        // released with Skip messages.
        for orphan in [Tid(0), Tid(1)] {
            let fx = p.on_tid_reply(&cfg, Cycle(45), orphan);
            assert!(fx.wake_in.is_none());
            assert!(fx
                .sends
                .iter()
                .all(|(_, m)| matches!(m.payload, Payload::Skip { tid } if tid == orphan)));
            assert_eq!(
                fx.sends.len(),
                1,
                "one skip per directory on a 1-node machine"
            );
        }
        // The third reply is the early TID: execution resumes.
        let fx = p.on_tid_reply(&cfg, Cycle(50), Tid(5));
        assert_eq!(fx.wake_in, Some(0));
        assert_eq!(p.counters().serialized_retries, 1);
    }

    #[test]
    fn barrier_waits_and_releases() {
        let prog = ThreadProgram::new(vec![WorkItem::Barrier, tx(vec![TxOp::Compute(1)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        let fx = p.start(&cfg, Cycle(0));
        assert!(fx.reached_barrier);
        assert_eq!(p.state_name(), "at-barrier");
        let fx = p.release_barrier(&cfg, Cycle(100));
        assert_eq!(p.totals.idle, 100);
        assert_eq!(fx.wake_in, Some(0));
        assert_eq!(p.state_name(), "running");
    }

    #[test]
    fn chunked_execution_reschedules() {
        let cfg = SystemConfig {
            exec_chunk: 50,
            ..one_proc_cfg()
        };
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Compute(200)])]);
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        assert_eq!(fx.wake_in, Some(200), "one big compute op is atomic");
        // The op completed; next step begins validation.
        let fx = p.step(&cfg, Cycle(200));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::TidRequest { .. })));
    }

    #[test]
    fn chunking_splits_many_small_ops() {
        let cfg = SystemConfig {
            exec_chunk: 50,
            ..one_proc_cfg()
        };
        let ops = vec![TxOp::Compute(30); 10];
        let prog = ThreadProgram::new(vec![tx(ops)]);
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        // 30 + 30 = 60 >= 50: rescheduled after two ops.
        assert_eq!(fx.wake_in, Some(60));
    }

    #[test]
    fn stale_fill_is_dropped_entirely() {
        // A fill whose request id has been superseded (the requesting
        // attempt was violated) is dropped: installing it could
        // revalidate words a concurrent commit just invalidated (the
        // §3.3 load/invalidate race).
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Load(Addr(0x40)), TxOp::Compute(10)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, req) = load_req(&fx);
        let mut v = LineValues::fresh(8);
        v.apply_write(WordMask::single(0), Tid(9));
        // A reply carrying a stale request id is dropped.
        let fx = fill(&mut p, &cfg, Cycle(30), line, v.clone(), req + 100);
        assert!(!p.cache.contains(line), "stale fill must be dropped");
        assert!(fx.sends.is_empty());
        assert!(fx.wake_in.is_none());
        // The genuine reply is consumed.
        let fx = fill(&mut p, &cfg, Cycle(40), line, v, req);
        assert!(p.cache.contains(line));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::TidRequest { .. })));
    }

    #[test]
    fn invalidated_inflight_fill_is_superseded_and_rerequested() {
        // An invalidation for the very line an outstanding fill targets
        // supersedes the request: the old reply is dropped by its stale
        // id and a fresh request goes out immediately.
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Load(Addr(0x40)), TxOp::Compute(10)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, old_req) = load_req(&fx);
        // A commit elsewhere invalidates the line mid-flight. No SR bits
        // are set yet, so no violation — but a fresh request goes out.
        let fx = p.on_invalidate(&cfg, Cycle(5), line, WordMask::ALL, Tid(0), DirId(0));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::InvAck { .. })));
        let (_, new_req) = load_req(&fx);
        assert_ne!(new_req, old_req);
        assert_eq!(p.counters().violations, 0);
        // The stale fill arrives: dropped.
        let fx = fill(&mut p, &cfg, Cycle(10), line, LineValues::fresh(8), old_req);
        assert!(!p.cache.contains(line));
        assert!(fx.sends.is_empty());
        assert_eq!(p.state_name(), "wait-fill");
        // The fresh fill resumes execution normally.
        let mut v = LineValues::fresh(8);
        v.apply_write(WordMask::single(0), Tid(0));
        let fx = fill(&mut p, &cfg, Cycle(120), line, v, new_req);
        assert!(p.cache.contains(line));
        assert!(fx
            .sends
            .iter()
            .any(|(_, m)| matches!(m.payload, Payload::TidRequest { .. })));
    }

    #[test]
    fn data_request_flushes_committed_data() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Store(Addr(0x40))])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        let fx = p.step(&cfg, Cycle(0));
        let (line, req) = load_req(&fx);
        fill(&mut p, &cfg, Cycle(10), line, LineValues::fresh(8), req);
        p.on_tid_reply(&cfg, Cycle(20), Tid(3));
        p.on_probe_reply(&cfg, Cycle(30), DirId(0), Tid(3), Tid(3), true);
        assert!(p.cache.is_dirty(line));
        let fx = p.on_data_request(&cfg, line);
        let flush = fx
            .sends
            .iter()
            .find_map(|(_, m)| match &m.payload {
                Payload::Flush { values, tid, .. } => Some((values.clone(), *tid)),
                _ => None,
            })
            .expect("flush sent");
        assert_eq!(flush.0.words[0], Some(Tid(3)));
        assert_eq!(flush.1, Tid(3));
        assert!(!p.cache.is_dirty(line));
        // A second data request finds the line clean: no reply — the
        // first flush (already processed or in flight) carries
        // everything memory needs, and a clean copy may belong to a
        // superseded ownership generation.
        let fx = p.on_data_request(&cfg, line);
        assert!(fx.sends.is_empty());
    }

    #[test]
    fn breakdown_totals_match_wall_clock_single_tx() {
        let prog = ThreadProgram::new(vec![tx(vec![TxOp::Compute(40)])]);
        let cfg = one_proc_cfg();
        let mut p = Processor::new(NodeId(0), &cfg, prog);
        p.start(&cfg, Cycle(0));
        p.step(&cfg, Cycle(0));
        let fx = p.on_tid_reply(&cfg, Cycle(55), Tid(0));
        assert!(fx.finished);
        let b = p.totals;
        assert_eq!(b.total(), 55);
        assert_eq!(p.done_at, Some(Cycle(55)));
    }
}
