//! The Tardis timestamp-ordered backend.
//!
//! Where TCC chases stale copies with invalidation multicasts and the
//! serialized baseline broadcasts whole write-sets, Tardis orders
//! commits on a *logical* timeline: each home keeps, per line, the
//! last-write time `wts` and a read lease `rts`; a fill hands the
//! reader that interval; a committer picks a commit time inside every
//! lease it read under and above every lease on the lines it writes. A
//! processor holding a stale copy is not told about the new version —
//! it just commits *earlier in logical time* than the writer, which is
//! exactly as serializable and costs **zero invalidation traffic** (the
//! property the protocol-comparison experiments measure).
//!
//! The commit protocol, per transaction:
//!
//! 1. **Lock** — written lines are locked at their homes one at a time
//!    in ascending line order (total order ⇒ deadlock-free); each grant
//!    returns the line's current `(wts, rts)`.
//! 2. **Choose** — `ts = max(pts + 1, read wts + 1, write rts + 1)`
//!    where `pts` is the processor's last commit time (strictly above
//!    every observed write so equal-time transactions are independent
//!    and any tie-break order serializes).
//! 3. **Renew** — reads whose lease ends before `ts` are renewed at
//!    their homes: OK iff `wts` is unchanged and the line is unlocked
//!    (a locked line nacks — the renewer may hold locks of its own, and
//!    waiting could close a cycle). Any nack aborts the attempt: locks
//!    release, the stale line is refetched, the transaction re-executes.
//!    A transaction whose reads are all still under lease — every
//!    read-only transaction young enough — commits **with no commit
//!    traffic at all**.
//! 4. **Publish** — written lines go home write-through (`wts = ts`),
//!    releasing the locks and draining deferred fills.
//!
//! Home-side state lives in [`tcc_directory::TardisHome`]. The program
//! loop is the shared program driver (`driver.rs`); this module owns the
//! commit protocol above, the lease bookkeeping a fill feeds it, and
//! the home-message handlers. TIDs are `ts * n_procs + node`, so TID
//! order — what the serializability checker replays — is exactly
//! logical-time order.

use std::collections::BTreeMap;

use tcc_directory::TardisHome;
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{
    snap_fields, snap_variants, Cycle, LineAddr, Message, NodeId, Payload, Tid, WordMask,
};

use crate::config::SystemConfig;
use crate::driver::{Backend, Driver, Effects, Phase};
use crate::program::ThreadProgram;
use crate::protocol::HomeTiming;

/// Logical lease length granted per fill: a load extends the line's
/// `rts` to `wts + LEASE`. Short leases renew often; long leases make
/// writers skip further ahead in logical time. The Tardis paper's
/// self-tuning lease is out of scope — a fixed small lease exhibits
/// every protocol behavior the experiments compare.
const LEASE: u64 = 10;

/// Commit-side phase of one Tardis processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeasePhase {
    /// Acquiring write locks, ascending; `idx` is the next unlocked
    /// write-set index.
    Locking { idx: usize },
    /// Waiting for `pending` more lease-renewal verdicts.
    Renewing { pending: u32 },
    /// Waiting for `pending` more publish acks.
    Publishing { pending: u32 },
}

snap_variants!(LeasePhase {
    Locking { idx },
    Renewing { pending },
    Publishing { pending },
});

/// A Tardis processor's logical clock, lease view, and in-flight
/// commit attempt.
#[derive(Debug, Default)]
pub struct LeaseState {
    /// The processor's logical clock: its last commit time. Commit
    /// times are strictly increasing per processor, which makes the
    /// packed TIDs unique.
    pts: u64,
    /// Observed `(wts, rts)` per locally cached line, recorded at fill
    /// time (and refreshed by own publishes); consulted at commit to
    /// decide which reads need renewal.
    lease: BTreeMap<LineAddr, (u64, u64)>,
    /// Commit-attempt id echoed in renew verdicts; bumped on abort so
    /// straggling verdicts drop.
    attempt: u64,
    /// Write-set captured at validation start, ascending by line.
    write_lines: Vec<(LineAddr, WordMask)>,
    /// `(wts, rts)` returned by each lock grant, parallel to
    /// `write_lines`.
    lock_ts: Vec<(u64, u64)>,
    /// Chosen commit time of the in-flight attempt.
    commit_ts: u64,
}

snap_fields!(LeaseState {
    pts,
    lease,
    attempt,
    write_lines,
    lock_ts,
    commit_ts,
});

impl Backend for LeaseState {
    type Phase = LeasePhase;

    fn phase_name(phase: LeasePhase) -> &'static str {
        match phase {
            LeasePhase::Locking { .. } => "locking",
            LeasePhase::Renewing { .. } => "renewing",
            LeasePhase::Publishing { .. } => "publishing",
        }
    }

    /// Fills carry the line's timestamp interval back.
    fn fill_request(line: LineAddr, requester: NodeId, req: u64) -> Payload {
        Payload::TsLoadRequest {
            line,
            requester,
            req,
        }
    }
}

/// The Tardis timestamp-ordered backend.
#[derive(Debug)]
pub(crate) struct TardisMachine {
    pub(crate) drv: Driver<LeaseState>,
    /// One timestamp-home slice per node.
    pub(crate) homes: Vec<TardisHome>,
}

impl TardisMachine {
    pub(crate) fn new(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> TardisMachine {
        let words = cfg.cache.geometry.words_per_line() as usize;
        let homes = (0..cfg.n_procs)
            .map(|_| TardisHome::new(LEASE, words, cfg.mem_latency))
            .collect();
        TardisMachine {
            drv: Driver::new(cfg, programs),
            homes,
        }
    }

    /// Sends `n`'s lock request for `line` to its home.
    fn lock(&self, n: NodeId, line: LineAddr, delay: u64, fx: &mut Effects) {
        let home = self.drv.home_node(line);
        let msg = Message::new(n, home, Payload::TsLock { line, requester: n });
        fx.sends.push((delay, msg));
    }

    /// Body complete: capture the write-set and start locking (writers)
    /// or go straight to lease validation (read-only).
    pub(crate) fn body_end(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        p.commit_start = now;
        p.x.write_lines = p.cache.write_set();
        p.x.write_lines.sort_unstable_by_key(|&(l, _)| l);
        p.x.lock_ts.clear();
        if let Some(&(line, _)) = p.x.write_lines.first() {
            p.phase = Phase::Backend(LeasePhase::Locking { idx: 0 });
            self.lock(n, line, delay, fx);
        } else {
            self.validate_reads(now, delay, n, fx);
        }
    }

    fn on_lock_ack(
        &mut self,
        now: Cycle,
        n: NodeId,
        line: LineAddr,
        wts: u64,
        rts: u64,
        fx: &mut Effects,
    ) {
        let p = &mut self.drv.procs[n.index()];
        let Phase::Backend(LeasePhase::Locking { idx }) = p.phase else {
            panic!("lock grant while not locking");
        };
        assert_eq!(line, p.x.write_lines[idx].0, "locks grant in request order");
        // A line both read and written validates here: if its `wts`
        // moved since our fill, our read observed a superseded version
        // and no renewal can save it (we are about to overwrite `wts`
        // ourselves).
        let stale_read = p.reads_log.iter().any(|&(l, _, _)| l == line)
            && p.x.lease.get(&line).is_some_and(|&(w, _)| w != wts);
        if stale_read {
            self.abort_commit(now, n, idx + 1, Some(line), fx);
            return;
        }
        p.x.lock_ts.push((wts, rts));
        let next = idx + 1;
        if let Some(&(line, _)) = p.x.write_lines.get(next) {
            p.phase = Phase::Backend(LeasePhase::Locking { idx: next });
            self.lock(n, line, 0, fx);
        } else {
            self.validate_reads(now, 0, n, fx);
        }
    }

    /// All locks held (or none needed): choose the commit time and
    /// renew the reads whose lease falls short. No renewals needed —
    /// the common case for read-mostly work — commits immediately.
    fn validate_reads(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        let x = &mut p.x;
        let mut ts = x.pts + 1;
        for &(l, _, _) in &p.reads_log {
            if let Some(&(wts, _)) = x.lease.get(&l) {
                ts = ts.max(wts + 1);
            }
        }
        for &(wts, rts) in &x.lock_ts {
            ts = ts.max(wts + 1).max(rts + 1);
        }
        x.commit_ts = ts;
        let mut read_lines: Vec<LineAddr> = p.reads_log.iter().map(|&(l, _, _)| l).collect();
        read_lines.sort_unstable();
        read_lines.dedup();
        let renew: Vec<(LineAddr, u64)> = read_lines
            .into_iter()
            .filter(|l| !x.write_lines.iter().any(|(w, _)| w == l))
            .filter_map(|l| {
                let &(wts, rts) = x.lease.get(&l)?;
                (rts < ts).then_some((l, wts))
            })
            .collect();
        if renew.is_empty() {
            self.commit_point(now, delay, n, fx);
            return;
        }
        x.attempt += 1;
        let attempt = x.attempt;
        p.phase = Phase::Backend(LeasePhase::Renewing {
            pending: renew.len() as u32,
        });
        for (line, wts) in renew {
            let msg = Message::new(
                n,
                self.drv.home_node(line),
                Payload::TsRenew {
                    line,
                    requester: n,
                    wts,
                    ts,
                    req: attempt,
                },
            );
            fx.sends.push((delay, msg));
        }
    }

    fn on_renew_ack(
        &mut self,
        now: Cycle,
        n: NodeId,
        line: LineAddr,
        ok: bool,
        req: u64,
        fx: &mut Effects,
    ) {
        let p = &mut self.drv.procs[n.index()];
        if req != p.x.attempt {
            return; // verdict for an aborted attempt: drop it
        }
        let Phase::Backend(LeasePhase::Renewing { pending }) = &mut p.phase else {
            return; // stale verdict after state moved on
        };
        if !ok {
            let locks = p.x.write_lines.len();
            self.abort_commit(now, n, locks, Some(line), fx);
            return;
        }
        *pending -= 1;
        if *pending == 0 {
            self.commit_point(now, 0, n, fx);
        }
    }

    /// Every read validated and every written line locked: the
    /// transaction logically commits *now*. Read-only transactions
    /// finish on the spot; writers publish and wait for acks.
    fn commit_point(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let n_procs = self.drv.cfg.n_procs as u64;
        let p = &self.drv.procs[n.index()];
        let ts = p.x.commit_ts;
        let tid = Tid(ts * n_procs + u64::from(n.0));
        let writes = p.x.write_lines.clone();
        // The write-through publish leaves the cached copies clean.
        let p = &mut self.drv.procs[n.index()];
        p.retire(&self.drv.cfg, tid, &writes, fx);
        p.cache.clear_dirty_bits();
        // Own publishes refresh the local lease view: our copy *is* the
        // `commit_ts` version, valid exactly at its write time.
        for &(l, _) in &writes {
            p.x.lease.insert(l, (ts, ts));
        }
        if writes.is_empty() {
            self.finish_commit(now, delay, n, fx);
            return;
        }
        p.phase = Phase::Backend(LeasePhase::Publishing {
            pending: writes.len() as u32,
        });
        for (line, words) in writes {
            let msg = Message::new(
                n,
                self.drv.home_node(line),
                Payload::TsPublish {
                    line,
                    words,
                    tid,
                    ts,
                    committer: n,
                },
            );
            fx.sends.push((delay, msg));
        }
    }

    fn on_publish_ack(&mut self, now: Cycle, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        let Phase::Backend(LeasePhase::Publishing { pending }) = &mut p.phase else {
            panic!("publish ack while not publishing");
        };
        *pending -= 1;
        if *pending == 0 {
            self.finish_commit(now, 0, n, fx);
        }
    }

    fn finish_commit(&mut self, now: Cycle, delay: u64, n: NodeId, fx: &mut Effects) {
        let p = &mut self.drv.procs[n.index()];
        p.x.pts = p.x.commit_ts;
        p.x.write_lines.clear();
        p.x.lock_ts.clear();
        p.next_item(&self.drv.cfg, now, delay, fx);
    }

    /// A commit attempt failed (stale read or refused renewal): release
    /// the `locks_held` locks already granted, drop the stale line so
    /// the retry refetches it, and re-execute the transaction.
    fn abort_commit(
        &mut self,
        now: Cycle,
        n: NodeId,
        locks_held: usize,
        stale: Option<LineAddr>,
        fx: &mut Effects,
    ) {
        for &(line, _) in self.drv.procs[n.index()]
            .x
            .write_lines
            .iter()
            .take(locks_held)
        {
            let msg = Message::new(
                n,
                self.drv.home_node(line),
                Payload::TsRelease { line, requester: n },
            );
            fx.sends.push((0, msg));
        }
        let p = &mut self.drv.procs[n.index()];
        p.restart(now, fx);
        p.x.attempt += 1; // straggling renew verdicts drop
        if let Some(line) = stale {
            p.cache.invalidate(line, WordMask::ALL);
            p.x.lease.remove(&line);
        }
        p.x.write_lines.clear();
        p.x.lock_ts.clear();
    }

    pub(crate) fn home_timing(&self, cfg: &SystemConfig, payload: &Payload) -> Option<HomeTiming> {
        match payload {
            // Data-path operations: a fill reads the line (and its
            // interval); a publish merges words into it.
            Payload::TsLoadRequest { line, .. } | Payload::TsPublish { line, .. } => {
                Some(HomeTiming {
                    service: cfg.dir_line_latency,
                    touch: Some(*line),
                })
            }
            // Timestamp-register operations still walk the per-line
            // state, but touch no data words.
            Payload::TsLock { line, .. }
            | Payload::TsRenew { line, .. }
            | Payload::TsRelease { line, .. } => Some(HomeTiming {
                service: cfg.dir_ctrl_latency,
                touch: Some(*line),
            }),
            _ => None,
        }
    }

    pub(crate) fn on_home_message(
        &mut self,
        _done: Cycle,
        _cfg: &SystemConfig,
        msg: Message,
        out: &mut Vec<(u64, Message)>,
    ) {
        let home = msg.dst;
        let h = &mut self.homes[home.index()];
        let mut actions = Vec::new();
        match msg.payload {
            Payload::TsLoadRequest {
                line,
                requester,
                req,
            } => h.handle_load(line, requester, req, &mut actions),
            Payload::TsLock { line, requester } => h.handle_lock(line, requester, &mut actions),
            Payload::TsRenew {
                line,
                requester,
                wts,
                ts,
                req,
            } => h.handle_renew(line, requester, wts, ts, req, &mut actions),
            Payload::TsPublish {
                line,
                words,
                tid,
                ts,
                committer,
            } => h.handle_publish(line, words, tid, ts, committer, &mut actions),
            Payload::TsRelease { line, requester } => {
                h.handle_release(line, requester, &mut actions);
            }
            other => unreachable!(
                "foreign-protocol message {:?} at a tardis home",
                other.kind_name()
            ),
        }
        for (extra, a) in actions {
            out.push((extra, Message::new(home, a.to, a.payload)));
        }
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
            Payload::TsLoadReply {
                line,
                values,
                wts,
                rts,
                req,
            } => {
                let p = &mut self.drv.procs[dst.index()];
                if p.on_fill(&self.drv.cfg, now, line, values, req, &mut fx) {
                    p.x.lease.insert(line, (wts, rts));
                }
            }
            Payload::TsLockAck { line, wts, rts } => {
                self.on_lock_ack(now, dst, line, wts, rts, &mut fx);
            }
            Payload::TsRenewAck { line, ok, req } => {
                self.on_renew_ack(now, dst, line, ok, req, &mut fx);
            }
            Payload::TsPublishAck { .. } => self.on_publish_ack(now, dst, &mut fx),
            other => unreachable!(
                "foreign-protocol message {:?} at a tardis processor",
                other.kind_name()
            ),
        }
        fx
    }

    /// The per-home notion of commit progress is the highest published
    /// commit time.
    pub(crate) fn dir_nstids(&self) -> Vec<Tid> {
        self.homes.iter().map(|h| Tid(h.max_ts())).collect()
    }

    pub(crate) fn progress_signature(&self, extra: [u64; 3]) -> u64 {
        let procs = &self.drv.procs;
        let words = procs
            .iter()
            .map(|p| p.commits)
            .chain(procs.iter().map(|p| p.item as u64))
            .chain(procs.iter().map(|p| p.x.pts))
            .chain(self.homes.iter().map(TardisHome::max_ts))
            .chain(extra);
        tcc_engine::progress_signature(words)
    }

    /// Processors, then every home; the config is rebuilt by the
    /// resuming caller, not written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        self.drv.save_state(w);
        for h in &self.homes {
            h.save_state(w);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.drv.restore_state(r)?;
        for h in &mut self.homes {
            h.restore_state(r)?;
        }
        Ok(())
    }

    /// With the queue drained, no lock or deferred request may survive
    /// and every processor must have finished its program.
    pub(crate) fn assert_quiescent(&self) {
        for h in &self.homes {
            h.assert_quiescent();
        }
        self.drv.assert_all_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Transaction, TxOp, WorkItem};
    use crate::sim::Simulator;
    use tcc_network::{ChaosConfig, DropRule, TransportConfig};
    use tcc_types::{Addr, ProtocolKind};

    fn tx(ops: Vec<TxOp>) -> WorkItem {
        WorkItem::Tx(Transaction::new(ops))
    }

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig {
            check_serializability: true,
            protocol: ProtocolKind::Tardis,
            ..SystemConfig::with_procs(n)
        }
    }

    fn census_count(census: &[(&'static str, u64)], kind: &str) -> u64 {
        census
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0, |&(_, v)| v)
    }

    /// The headline Tardis property: a sharer-heavy workload — one
    /// writer repeatedly updating lines cached by every other node —
    /// commits serializably with **zero invalidation messages** (and
    /// none of the baseline's write-set broadcasts either). Stale
    /// sharers simply commit earlier in logical time.
    #[test]
    fn sharer_heavy_workload_has_zero_invalidations() {
        let n = 8usize;
        let hot: Vec<Addr> = (0..4u64).map(|i| Addr(0x40 * (i + 1))).collect();
        let programs: Vec<ThreadProgram> = (0..n as u64)
            .map(|p| {
                let items: Vec<WorkItem> = (0..6)
                    .map(|_| {
                        if p == 0 {
                            tx(hot.iter().map(|&a| TxOp::Store(a)).collect())
                        } else {
                            let mut ops: Vec<TxOp> = hot.iter().map(|&a| TxOp::Load(a)).collect();
                            ops.push(TxOp::Compute(20 + 7 * p as u32));
                            tx(ops)
                        }
                    })
                    .collect();
                ThreadProgram::new(items)
            })
            .collect();
        let result = Simulator::builder(cfg(n))
            .programs(programs)
            .build()
            .expect("valid tardis config")
            .run();
        result.assert_serializable();
        assert_eq!(result.commits, 6 * n as u64);
        let census = result.traffic.message_census();
        assert_eq!(census_count(&census, "Invalidate"), 0);
        assert_eq!(census_count(&census, "BaselineCommit"), 0);
        assert!(census_count(&census, "TsLoadReply") > 0, "{census:?}");
        assert!(census_count(&census, "TsPublish") > 0, "{census:?}");
    }

    /// Read-only transactions whose leases still cover their commit
    /// time finish with no commit traffic at all.
    #[test]
    fn read_only_commits_are_message_free_under_lease() {
        let programs = vec![ThreadProgram::new(
            (0..3)
                .map(|_| tx(vec![TxOp::Load(Addr(0x100)), TxOp::Compute(30)]))
                .collect(),
        )];
        let result = Simulator::builder(cfg(1))
            .programs(programs)
            .build()
            .expect("valid tardis config")
            .run();
        result.assert_serializable();
        assert_eq!(result.commits, 3);
        let census = result.traffic.message_census();
        // One fill round-trip; commits 1–3 sit inside the lease
        // (commit times 1, 2, 3 ≤ rts = 10): no renew, lock, or publish.
        assert_eq!(census_count(&census, "TsRenew"), 0, "{census:?}");
        assert_eq!(census_count(&census, "TsLock"), 0, "{census:?}");
        assert_eq!(census_count(&census, "TsPublish"), 0, "{census:?}");
    }

    /// Two writers hammering one line must serialize through the write
    /// lock and produce a serializable history.
    #[test]
    fn conflicting_writers_serialize() {
        let programs: Vec<ThreadProgram> = (0..2u64)
            .map(|p| {
                ThreadProgram::new(
                    (0..4)
                        .map(|_| {
                            tx(vec![
                                TxOp::Load(Addr(0x40)),
                                TxOp::Compute(15 + 9 * p as u32),
                                TxOp::Store(Addr(0x40)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        let result = Simulator::builder(cfg(2))
            .programs(programs)
            .build()
            .expect("valid tardis config")
            .run();
        result.assert_serializable();
        assert_eq!(result.commits, 8);
    }

    /// Barrier phases release correctly under the tardis backend.
    #[test]
    fn barrier_phases_complete() {
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![
                    tx(vec![TxOp::Store(Addr(0x1000 * (p + 1))), TxOp::Compute(10)]),
                    WorkItem::Barrier,
                    tx(vec![
                        TxOp::Load(Addr(0x1000 * ((p + 1) % 4 + 1))),
                        TxOp::Compute(25),
                    ]),
                ])
            })
            .collect();
        let result = Simulator::builder(cfg(4))
            .programs(programs)
            .build()
            .expect("valid tardis config")
            .run();
        result.assert_serializable();
        assert_eq!(result.commits, 8);
    }

    /// The commit protocol survives a lossy wire behind the reliable
    /// transport: every transaction commits exactly once (no lock
    /// double-grants, no double publishes) and the history stays
    /// serializable.
    #[test]
    fn lossy_wire_commits_exactly_once() {
        let mut c = cfg(4);
        c.transport = Some(TransportConfig::default());
        c.chaos = Some(ChaosConfig {
            seed: 7,
            drops: vec![DropRule {
                kind: "*".to_string(),
                prob: 0.2,
                from: 0,
                until: u64::MAX,
            }],
            ..ChaosConfig::default()
        });
        let programs: Vec<ThreadProgram> = (0..4u64)
            .map(|p| {
                ThreadProgram::new(
                    (0..3)
                        .map(|_| {
                            tx(vec![
                                TxOp::Load(Addr(0x40)),
                                TxOp::Compute(10 + 3 * p as u32),
                                TxOp::Store(Addr(0x40 + 0x200 * p)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        let result = Simulator::builder(c)
            .programs(programs)
            .build()
            .expect("valid tardis config")
            .run();
        result.assert_serializable();
        assert_eq!(result.commits, 12);
    }

    /// Pause mid-run, checkpoint, resume in a fresh machine: the final
    /// results must be identical to the uninterrupted run.
    #[test]
    fn tardis_checkpoint_round_trips() {
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
        let uninterrupted = Simulator::builder(cfg(4))
            .programs(mk_programs())
            .build()
            .expect("valid config")
            .run();
        let stepped = Simulator::builder(cfg(4))
            .programs(mk_programs())
            .build()
            .expect("valid config")
            .try_run_until(Some(Cycle(300)))
            .expect("no stall");
        let resumed = match stepped {
            crate::sim::Step::Paused(sim) => {
                let snap = sim.checkpoint();
                Simulator::resume(cfg(4), mk_programs(), &snap)
                    .expect("resume accepts its own checkpoint")
                    .run()
            }
            crate::sim::Step::Done(_) => panic!("run finished before the pause cycle"),
        };
        assert_eq!(resumed.total_cycles, uninterrupted.total_cycles);
        assert_eq!(resumed.commits, uninterrupted.commits);
        assert_eq!(resumed.violations, uninterrupted.violations);
        assert_eq!(resumed.breakdowns, uninterrupted.breakdowns);
        assert_eq!(
            resumed.traffic.total_bytes(),
            uninterrupted.traffic.total_bytes()
        );
    }
}
