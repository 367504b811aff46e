//! Reliable transport: exactly-once, per-channel in-order delivery over
//! an unreliable wire.
//!
//! The Scalable TCC protocol (§3.3) assumes the interconnect delivers
//! every message exactly once and, per directed `(src, dst)` channel,
//! in order. The simulated mesh gives that away for free; this module
//! *earns* it, so the chaos subsystem may drop, duplicate, and reorder
//! frames (see [`crate::chaos`]) without changing what the protocol
//! layer observes. The design is the classic sliding-window scheme (cf.
//! go-back-N):
//!
//! * **Sequencing** — every protocol [`Message`] is wrapped in a
//!   [`Frame::Data`] carrying a per-channel sequence number
//!   (`SendChannel`); multicast fan-out sequences each destination
//!   copy independently on its own channel.
//! * **Dedup + reorder window** — the receiver (`RecvChannel`) drops
//!   already-delivered sequence numbers (re-acking them, in case the
//!   previous ack was lost) and buffers out-of-order frames until the
//!   gap fills, releasing messages strictly in sequence order.
//! * **Cumulative acks** — `ack = next_expected` rides piggybacked on
//!   every reverse-direction data frame; when no reverse traffic shows
//!   up within [`TransportConfig::ack_delay`] cycles a standalone
//!   [`Frame::Ack`] goes out instead.
//! * **Retransmission** — the sender keeps every unacked frame. A
//!   per-channel timer fires after the current RTO; on each fire all
//!   unacked frames retransmit (go-back-N) and the RTO doubles, capped
//!   at `rto << max_backoff_exp`. An ack that advances the window
//!   resets the backoff. After [`TransportConfig::max_retries`]
//!   consecutive fires with no progress the transport reports
//!   [`RetryExhausted`] — the simulator surfaces that as a typed
//!   `RunError::Stalled`, never a hang.
//!
//! The transport is a *passive* state machine: it never schedules
//! anything itself. Every entry point returns [`TransportAction`]s
//! (frames to put on the wire, timers to arm) that the caller — the
//! simulator's event loop — turns into events. That keeps the module
//! deterministic, directly unit-testable, and free of any dependency on
//! the engine.
//!
//! Two [`ProtocolBugs`] knobs deliberately break this layer so the
//! chaos mutation self-test can prove the oracle notices:
//! `transport_no_dedup` leaks duplicate deliveries to the protocol, and
//! `transport_no_reorder` delivers frames in arrival order, cumulatively
//! acking away any gap (so skipped messages are lost for good).

use std::collections::BTreeMap;

use tcc_trace::{TraceEvent, Tracer};
use tcc_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use tcc_types::{Cycle, Frame, Message, NodeId, ProtocolBugs};

/// Tuning for the reliable transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Base retransmission timeout in cycles (before backoff).
    pub rto: u64,
    /// Exponential-backoff cap: the RTO never exceeds
    /// `rto << max_backoff_exp`.
    pub max_backoff_exp: u32,
    /// Consecutive no-progress timer fires tolerated per channel before
    /// the transport gives up with [`RetryExhausted`].
    pub max_retries: u32,
    /// Cycles a receiver waits for reverse traffic to piggyback an ack
    /// on before sending a standalone [`Frame::Ack`].
    pub ack_delay: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        // RTO comfortably above one mesh round trip plus directory
        // service (corner-to-corner on a 64-node grid with default
        // latencies is well under 200 cycles); ack_delay short enough
        // that a lone sender's window reopens quickly.
        TransportConfig {
            rto: 400,
            max_backoff_exp: 6,
            max_retries: 16,
            ack_delay: 64,
        }
    }
}

/// Transport activity counters (also mirrored into `tcc-trace` when a
/// tracer is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Data frames handed to the wire for the first time.
    pub data_frames: u64,
    /// Data frames re-sent by the retransmission timer.
    pub retransmits: u64,
    /// Received frames discarded as duplicates (and re-acked).
    pub dup_drops: u64,
    /// Retransmission-timer fires that found unacked frames.
    pub timeout_fires: u64,
    /// Standalone ack frames emitted.
    pub acks: u64,
    /// Protocol messages released to the receiver in order.
    pub delivered: u64,
    /// Out-of-order frames parked in a reorder buffer.
    pub buffered: u64,
}

/// What the caller must do after poking the transport: put a frame on
/// the wire or arm a timer. Timers carry the channel's epoch; a bumped
/// epoch silently cancels every timer armed before it.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportAction {
    /// Put this frame on the (unreliable) wire now.
    Wire(Frame),
    /// Arm the retransmission timer for channel `src → dst`, firing
    /// `delay` cycles from now.
    RetxTimer {
        src: NodeId,
        dst: NodeId,
        delay: u64,
        epoch: u64,
    },
    /// Arm the standalone-ack timer for data channel `src → dst` (the
    /// ack itself will travel `dst → src`), firing `delay` cycles from
    /// now.
    AckTimer {
        src: NodeId,
        dst: NodeId,
        delay: u64,
        epoch: u64,
    },
}

/// A channel's retry budget ran out: `retries` consecutive timer fires
/// saw no ack progress. Carried inside the simulator's stall
/// diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryExhausted {
    /// Sender end of the starved channel.
    pub src: NodeId,
    /// Receiver end of the starved channel.
    pub dst: NodeId,
    /// Oldest unacked sequence number.
    pub seq: u64,
    /// Message kind of that oldest unacked frame.
    pub kind: &'static str,
    /// Timer fires spent on it.
    pub retries: u32,
}

/// Sender side of one directed channel.
#[derive(Debug, Default)]
struct SendChannel {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Every sent-but-unacked message, keyed by sequence number.
    unacked: BTreeMap<u64, Message>,
    /// Consecutive timer fires without ack progress.
    retries: u32,
    /// Timer-cancellation epoch: a fire whose epoch is stale is a
    /// no-op.
    epoch: u64,
    /// Whether a retransmission timer chain is currently armed.
    timer_armed: bool,
}

/// Receiver side of one directed channel.
#[derive(Debug, Default)]
struct RecvChannel {
    /// Lowest sequence number not yet delivered; everything below it
    /// has been released in order (and is covered by our cumulative
    /// ack).
    next_expected: u64,
    /// Out-of-order frames waiting for the gap to fill.
    buffer: BTreeMap<u64, Message>,
    /// A standalone ack is owed (armed via an `AckTimer`).
    ack_pending: bool,
    /// Cancellation epoch for the ack timer (piggybacking bumps it).
    ack_epoch: u64,
}

/// The global transport state machine (one per simulator; channels are
/// keyed by directed `(src, dst)` pairs). `BTreeMap` keeps every
/// iteration deterministic.
#[derive(Debug)]
pub struct Transport {
    cfg: TransportConfig,
    bugs: ProtocolBugs,
    tx: BTreeMap<(NodeId, NodeId), SendChannel>,
    rx: BTreeMap<(NodeId, NodeId), RecvChannel>,
    stats: TransportStats,
    tracer: Tracer,
}

impl Transport {
    #[must_use]
    pub fn new(cfg: TransportConfig, bugs: ProtocolBugs) -> Self {
        Transport {
            cfg,
            bugs,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            stats: TransportStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches the shared tracing sink (observation-only).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Data frames currently in flight (sent, not yet acked).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.tx.values().map(|ch| ch.unacked.len() as u64).sum()
    }

    /// Frames parked in receiver reorder buffers.
    #[must_use]
    pub fn reorder_buffered(&self) -> u64 {
        self.rx.values().map(|ch| ch.buffer.len() as u64).sum()
    }

    /// `true` once every frame is acked, every reorder buffer drained,
    /// and no standalone ack is owed — the transport adds nothing to a
    /// quiescent system.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0
            && self.reorder_buffered() == 0
            && self.rx.values().all(|ch| !ch.ack_pending)
    }

    /// The cumulative ack to piggyback on traffic toward `to`: our
    /// next-expected on the reverse (`to → from`) data channel.
    fn piggyback_ack(&mut self, from: NodeId, to: NodeId) -> u64 {
        match self.rx.get_mut(&(to, from)) {
            Some(ch) => {
                // This frame carries the ack, so any owed standalone
                // ack is satisfied; bump the epoch to cancel its timer.
                if ch.ack_pending {
                    ch.ack_pending = false;
                    ch.ack_epoch += 1;
                }
                ch.next_expected
            }
            None => 0,
        }
    }

    /// Wrap and send one protocol message. Returns the wire/timer
    /// actions for the caller to schedule.
    pub fn send(&mut self, msg: Message) -> Vec<TransportAction> {
        debug_assert_ne!(msg.src, msg.dst, "local messages bypass the transport");
        let (src, dst) = (msg.src, msg.dst);
        let ack = self.piggyback_ack(src, dst);
        let ch = self.tx.entry((src, dst)).or_default();
        let seq = ch.next_seq;
        ch.next_seq += 1;
        ch.unacked.insert(seq, msg.clone());
        self.stats.data_frames += 1;
        let mut actions = vec![TransportAction::Wire(Frame::Data { seq, ack, msg })];
        if !ch.timer_armed {
            ch.timer_armed = true;
            actions.push(TransportAction::RetxTimer {
                src,
                dst,
                delay: self.cfg.rto,
                epoch: ch.epoch,
            });
        }
        actions
    }

    /// Current RTO for a channel given its consecutive-retry count.
    fn rto_for(&self, retries: u32) -> u64 {
        self.cfg.rto << retries.min(self.cfg.max_backoff_exp)
    }

    /// Process an arriving frame. Returns the protocol messages now
    /// deliverable **in order**, plus follow-up actions.
    pub fn on_frame(&mut self, frame: Frame) -> (Vec<Message>, Vec<TransportAction>) {
        match frame {
            Frame::Ack { src, dst, ack } => {
                // The ack frame runs receiver → sender, acknowledging
                // the reverse data channel `dst → src`.
                self.process_ack(dst, src, ack);
                (Vec::new(), Vec::new())
            }
            Frame::Data { seq, ack, msg } => {
                let (src, dst) = (msg.src, msg.dst);
                // Piggybacked ack covers our reverse-direction sends.
                self.process_ack(dst, src, ack);
                let mut actions = Vec::new();
                let delivered = self.receive_data(seq, msg);
                self.stats.delivered += delivered.len() as u64;
                // Every data frame (fresh or duplicate) earns an ack:
                // if none is owed yet, owe one now. Duplicates matter —
                // they usually mean our previous ack was lost.
                let ch = self.rx.entry((src, dst)).or_default();
                if !ch.ack_pending {
                    ch.ack_pending = true;
                    ch.ack_epoch += 1;
                    actions.push(TransportAction::AckTimer {
                        src,
                        dst,
                        delay: self.cfg.ack_delay,
                        epoch: ch.ack_epoch,
                    });
                }
                (delivered, actions)
            }
        }
    }

    /// Receiver-side sequencing for one data frame on channel
    /// `src → dst` (taken from `msg`).
    fn receive_data(&mut self, seq: u64, msg: Message) -> Vec<Message> {
        let key = (msg.src, msg.dst);
        let ch = self.rx.entry(key).or_default();
        if self.bugs.transport_no_reorder {
            // Mutation: no reorder window. Deliver in arrival order and
            // cumulatively ack past any gap — skipped frames are lost.
            if seq >= ch.next_expected {
                ch.next_expected = seq + 1;
                return vec![msg];
            }
            // Older-than-expected frames still hit the dedup filter
            // below (unless that is mutated away too).
        }
        if seq < ch.next_expected || ch.buffer.contains_key(&seq) {
            self.stats.dup_drops += 1;
            self.tracer.count("transport.dup_drops", 1);
            if self.bugs.transport_no_dedup {
                // Mutation: leak the duplicate to the protocol.
                return vec![msg];
            }
            return Vec::new();
        }
        if seq == ch.next_expected {
            ch.next_expected += 1;
            let mut out = vec![msg];
            // Drain the reorder buffer while it stays contiguous.
            while let Some(next) = ch.buffer.remove(&ch.next_expected) {
                ch.next_expected += 1;
                out.push(next);
            }
            return out;
        }
        // A future frame: park it until the gap fills.
        ch.buffer.insert(seq, msg);
        self.stats.buffered += 1;
        self.tracer.count("transport.buffered", 1);
        Vec::new()
    }

    /// Apply a cumulative ack for data channel `src → dst`: everything
    /// below `ack` is delivered.
    fn process_ack(&mut self, src: NodeId, dst: NodeId, ack: u64) {
        let Some(ch) = self.tx.get_mut(&(src, dst)) else {
            return;
        };
        let before = ch.unacked.len();
        ch.unacked = ch.unacked.split_off(&ack);
        if ch.unacked.len() < before {
            // Window advanced: the channel is making progress.
            ch.retries = 0;
            if ch.unacked.is_empty() && ch.timer_armed {
                ch.timer_armed = false;
                ch.epoch += 1; // cancel the in-flight timer chain
            }
        }
    }

    /// Retransmission-timer fire for channel `src → dst`. Stale epochs
    /// are cancelled timers (no-op). On a live fire every unacked frame
    /// is retransmitted and the next timer arms with doubled RTO;
    /// exhausting the retry budget returns `Err`.
    pub fn on_retx_timer(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        epoch: u64,
    ) -> Result<Vec<TransportAction>, RetryExhausted> {
        let ack = self.piggyback_ack(src, dst);
        let Some(ch) = self.tx.get_mut(&(src, dst)) else {
            return Ok(Vec::new());
        };
        if epoch != ch.epoch || !ch.timer_armed {
            return Ok(Vec::new());
        }
        if ch.unacked.is_empty() {
            ch.timer_armed = false;
            return Ok(Vec::new());
        }
        self.stats.timeout_fires += 1;
        self.tracer.count("transport.timeout_fires", 1);
        ch.retries += 1;
        if ch.retries > self.cfg.max_retries {
            let (&seq, oldest) = ch.unacked.iter().next().expect("non-empty");
            return Err(RetryExhausted {
                src,
                dst,
                seq,
                kind: oldest.payload.kind_name(),
                retries: ch.retries - 1,
            });
        }
        let mut actions = Vec::new();
        for (&seq, msg) in &ch.unacked {
            actions.push(TransportAction::Wire(Frame::Data {
                seq,
                ack,
                msg: msg.clone(),
            }));
        }
        let n = ch.unacked.len() as u64;
        self.stats.retransmits += n;
        self.tracer.count("transport.retransmits", n);
        let retries = ch.retries;
        let epoch = ch.epoch;
        self.tracer.record(now, || TraceEvent::RetxFired {
            src,
            dst,
            count: n,
            retries,
        });
        actions.push(TransportAction::RetxTimer {
            src,
            dst,
            delay: self.rto_for(retries),
            epoch,
        });
        Ok(actions)
    }

    /// Standalone-ack timer fire for data channel `src → dst`: if the
    /// ack is still owed (no reverse traffic piggybacked it first),
    /// emit it.
    pub fn on_ack_timer(&mut self, src: NodeId, dst: NodeId, epoch: u64) -> Vec<TransportAction> {
        let Some(ch) = self.rx.get_mut(&(src, dst)) else {
            return Vec::new();
        };
        if epoch != ch.ack_epoch || !ch.ack_pending {
            return Vec::new();
        }
        ch.ack_pending = false;
        let ack = ch.next_expected;
        self.stats.acks += 1;
        self.tracer.count("transport.acks", 1);
        vec![TransportAction::Wire(Frame::Ack {
            src: dst,
            dst: src,
            ack,
        })]
    }

    /// Serializes every channel's sliding-window state — sequence
    /// counters, unacked frames, reorder buffers, timer epochs — plus
    /// the activity counters. Config and bugs are not included; they
    /// are covered by the snapshot's config digest.
    pub fn save_state(&self, w: &mut SnapWriter) {
        (self.tx.len() as u64).save(w);
        for (&(src, dst), ch) in &self.tx {
            (src, dst).save(w);
            ch.next_seq.save(w);
            ch.unacked.save(w);
            ch.retries.save(w);
            ch.epoch.save(w);
            ch.timer_armed.save(w);
        }
        (self.rx.len() as u64).save(w);
        for (&(src, dst), ch) in &self.rx {
            (src, dst).save(w);
            ch.next_expected.save(w);
            ch.buffer.save(w);
            ch.ack_pending.save(w);
            ch.ack_epoch.save(w);
        }
        self.stats.data_frames.save(w);
        self.stats.retransmits.save(w);
        self.stats.dup_drops.save(w);
        self.stats.timeout_fires.save(w);
        self.stats.acks.save(w);
        self.stats.delivered.save(w);
        self.stats.buffered.save(w);
    }

    /// Restores channel state saved by [`Transport::save_state`].
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tx.clear();
        let n = r.get_len(8)?;
        for _ in 0..n {
            let key: (NodeId, NodeId) = r.get()?;
            let ch = SendChannel {
                next_seq: r.get()?,
                unacked: r.get()?,
                retries: r.get()?,
                epoch: r.get()?,
                timer_armed: r.get()?,
            };
            self.tx.insert(key, ch);
        }
        self.rx.clear();
        let n = r.get_len(8)?;
        for _ in 0..n {
            let key: (NodeId, NodeId) = r.get()?;
            let ch = RecvChannel {
                next_expected: r.get()?,
                buffer: r.get()?,
                ack_pending: r.get()?,
                ack_epoch: r.get()?,
            };
            self.rx.insert(key, ch);
        }
        self.stats = TransportStats {
            data_frames: r.get()?,
            retransmits: r.get()?,
            dup_drops: r.get()?,
            timeout_fires: r.get()?,
            acks: r.get()?,
            delivered: r.get()?,
            buffered: r.get()?,
        };
        Ok(())
    }

    /// Per-channel in-flight summary for stall diagnostics: every
    /// channel with unacked frames, as
    /// `(src, dst, unacked, oldest_seq, retries)`.
    #[must_use]
    pub fn in_flight_channels(&self) -> Vec<(NodeId, NodeId, u64, u64, u32)> {
        self.tx
            .iter()
            .filter(|(_, ch)| !ch.unacked.is_empty())
            .map(|(&(src, dst), ch)| {
                let oldest = *ch.unacked.keys().next().expect("non-empty");
                (src, dst, ch.unacked.len() as u64, oldest, ch.retries)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::{Payload, Tid};

    fn msg(src: u16, dst: u16, tid: u64) -> Message {
        Message::new(NodeId(src), NodeId(dst), Payload::Skip { tid: Tid(tid) })
    }

    fn wires(actions: &[TransportAction]) -> Vec<Frame> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::Wire(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_frames_deliver_immediately_and_ack_cumulatively() {
        let mut t = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let mut r = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        for i in 0..4 {
            let sent = t.send(msg(0, 1, i));
            let frames = wires(&sent);
            assert_eq!(frames.len(), 1);
            let (delivered, _) = r.on_frame(frames[0].clone());
            assert_eq!(delivered, vec![msg(0, 1, i)]);
        }
        assert_eq!(t.in_flight(), 4);
        // A standalone ack from the receiver clears the window.
        let acks = r.on_ack_timer(NodeId(0), NodeId(1), 1);
        let (d, _) = t.on_frame(wires(&acks)[0].clone());
        assert!(d.is_empty());
        assert_eq!(t.in_flight(), 0);
        assert!(t.is_quiescent());
    }

    #[test]
    fn out_of_order_frames_are_buffered_and_released_in_sequence() {
        let mut sender = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let mut rcv = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let mut frames = Vec::new();
        for i in 0..3 {
            frames.extend(wires(&sender.send(msg(0, 1, i))));
        }
        // Deliver 2, 0, 1; the receiver must release 0, then 1 and 2.
        let (d, _) = rcv.on_frame(frames[2].clone());
        assert!(d.is_empty());
        assert_eq!(rcv.reorder_buffered(), 1);
        let (d, _) = rcv.on_frame(frames[0].clone());
        assert_eq!(d, vec![msg(0, 1, 0)]);
        let (d, _) = rcv.on_frame(frames[1].clone());
        assert_eq!(d, vec![msg(0, 1, 1), msg(0, 1, 2)]);
        assert_eq!(rcv.reorder_buffered(), 0);
        assert_eq!(rcv.stats().delivered, 3);
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut sender = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let mut rcv = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let f = wires(&sender.send(msg(0, 1, 9)))[0].clone();
        let (d, _) = rcv.on_frame(f.clone());
        assert_eq!(d.len(), 1);
        // Ack goes out, then the duplicate arrives: dropped, but a new
        // standalone ack is owed (the first ack may have been lost).
        assert!(!rcv
            .on_ack_timer(NodeId(0), NodeId(1), rcv_epoch(&rcv))
            .is_empty());
        let (d, actions) = rcv.on_frame(f);
        assert!(d.is_empty());
        assert_eq!(rcv.stats().dup_drops, 1);
        assert!(actions
            .iter()
            .any(|a| matches!(a, TransportAction::AckTimer { .. })));
    }

    fn rcv_epoch(t: &Transport) -> u64 {
        t.rx[&(NodeId(0), NodeId(1))].ack_epoch
    }

    #[test]
    fn piggybacked_ack_cancels_standalone_ack() {
        let mut a = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let f = wires(&a.send(msg(0, 1, 1)))[0].clone();
        let mut b = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let (_, actions) = b.on_frame(f);
        let TransportAction::AckTimer { epoch, .. } = actions[0] else {
            panic!("expected ack timer");
        };
        // B now sends reverse traffic: the data frame carries ack=1.
        let reply = wires(&b.send(msg(1, 0, 2)))[0].clone();
        let Frame::Data { ack, .. } = &reply else {
            panic!()
        };
        assert_eq!(*ack, 1);
        // The armed standalone ack is now stale and fires as a no-op.
        assert!(b.on_ack_timer(NodeId(0), NodeId(1), epoch).is_empty());
        assert_eq!(b.stats().acks, 0);
        // A processes the piggybacked ack: window clear.
        let (_, _) = a.on_frame(reply);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn retx_timer_retransmits_all_unacked_with_backoff_until_exhaustion() {
        let cfg = TransportConfig {
            rto: 100,
            max_backoff_exp: 2,
            max_retries: 3,
            ack_delay: 10,
        };
        let mut t = Transport::new(cfg, ProtocolBugs::default());
        let first = t.send(msg(0, 1, 1));
        let TransportAction::RetxTimer { delay, epoch, .. } = first[1] else {
            panic!("first send must arm the retx timer");
        };
        assert_eq!(delay, 100);
        t.send(msg(0, 1, 2));
        // Fire 1: both frames retransmit, RTO doubles.
        let acts = t
            .on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap();
        assert_eq!(wires(&acts).len(), 2);
        assert_eq!(t.stats().retransmits, 2);
        let TransportAction::RetxTimer { delay, .. } = acts[2] else {
            panic!()
        };
        assert_eq!(delay, 200);
        // Fire 2 then 3: backoff caps at rto << 2 = 400.
        let acts = t
            .on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap();
        let TransportAction::RetxTimer { delay, .. } = acts[2] else {
            panic!()
        };
        assert_eq!(delay, 400);
        let acts = t
            .on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap();
        let TransportAction::RetxTimer { delay, .. } = acts[2] else {
            panic!()
        };
        assert_eq!(delay, 400);
        // Fire 4: budget (3) exhausted.
        let err = t
            .on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap_err();
        assert_eq!(err.src, NodeId(0));
        assert_eq!(err.dst, NodeId(1));
        assert_eq!(err.seq, 0);
        assert_eq!(err.retries, 3);
        assert_eq!(err.kind, "Skip");
    }

    #[test]
    fn ack_progress_resets_backoff_and_cancels_timer_when_drained() {
        let mut t = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let acts = t.send(msg(0, 1, 1));
        let TransportAction::RetxTimer { epoch, .. } = acts[1] else {
            panic!()
        };
        t.on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap();
        // Full ack: window drains, epoch bumps, the old chain is dead.
        t.on_frame(Frame::Ack {
            src: NodeId(1),
            dst: NodeId(0),
            ack: 1,
        });
        assert_eq!(t.in_flight(), 0);
        assert!(t
            .on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap()
            .is_empty());
        // A later send arms a fresh chain with base RTO.
        let acts = t.send(msg(0, 1, 2));
        let TransportAction::RetxTimer {
            delay, epoch: e2, ..
        } = acts[1]
        else {
            panic!()
        };
        assert_eq!(delay, TransportConfig::default().rto);
        assert_ne!(e2, epoch);
    }

    /// Property check: under a deterministic adversarial wire that
    /// drops, duplicates, and reorders frames, every message is
    /// delivered exactly once, in per-channel order, as long as the
    /// wire is only *intermittently* lossy.
    #[test]
    fn exactly_once_in_order_delivery_under_lossy_wire() {
        use tcc_types::rng::SmallRng;
        for trial in 0..20u64 {
            let cfg = TransportConfig {
                rto: 50,
                max_backoff_exp: 4,
                max_retries: 32,
                ack_delay: 8,
            };
            let mut end = Transport::new(cfg, ProtocolBugs::default());
            let mut rng = SmallRng::seed_from_u64(trial_seed(trial));
            // Discrete event list: (time, order, frame).
            let mut queue: BTreeMap<(u64, u64), QEvent> = BTreeMap::new();
            let mut order = 0u64;
            let push =
                |queue: &mut BTreeMap<(u64, u64), QEvent>, order: &mut u64, at: u64, ev: QEvent| {
                    queue.insert((at, *order), ev);
                    *order += 1;
                };
            // Channel 0→1 sends 60 messages at t = k*7; the wire drops
            // 25% and duplicates 20% of frames with up to 80 cycles of
            // reorder jitter.
            let total = 60u64;
            for k in 0..total {
                push(&mut queue, &mut order, k * 7, QEvent::AppSend(k));
            }
            let mut got: Vec<u64> = Vec::new();
            let mut steps = 0u64;
            while let Some((&(at, ord), _)) = queue.iter().next() {
                steps += 1;
                assert!(steps < 200_000, "harness runaway");
                let ev = queue.remove(&(at, ord)).unwrap();
                let actions = match ev {
                    QEvent::AppSend(k) => end.send(msg(0, 1, k)),
                    QEvent::Arrive(frame) => {
                        let (delivered, acts) = end.on_frame(frame);
                        for m in delivered {
                            let Payload::Skip { tid } = m.payload else {
                                panic!()
                            };
                            got.push(tid.0);
                        }
                        acts
                    }
                    QEvent::Retx(src, dst, epoch) => end
                        .on_retx_timer(Cycle(at), src, dst, epoch)
                        .expect("budget ample"),
                    QEvent::AckT(src, dst, epoch) => end.on_ack_timer(src, dst, epoch),
                };
                for a in actions {
                    match a {
                        TransportAction::Wire(f) => {
                            // Adversarial wire: drop/dup/reorder, but
                            // never starve retransmissions forever.
                            let lossy = at < total * 7 + 2000;
                            if lossy && rng.gen_bool(0.25) {
                                continue; // dropped
                            }
                            let jitter = rng.gen_range(0..=80);
                            push(
                                &mut queue,
                                &mut order,
                                at + 5 + jitter,
                                QEvent::Arrive(f.clone()),
                            );
                            if lossy && rng.gen_bool(0.2) {
                                let jitter = rng.gen_range(0..=80);
                                push(&mut queue, &mut order, at + 9 + jitter, QEvent::Arrive(f));
                            }
                        }
                        TransportAction::RetxTimer {
                            src,
                            dst,
                            delay,
                            epoch,
                        } => push(
                            &mut queue,
                            &mut order,
                            at + delay,
                            QEvent::Retx(src, dst, epoch),
                        ),
                        TransportAction::AckTimer {
                            src,
                            dst,
                            delay,
                            epoch,
                        } => push(
                            &mut queue,
                            &mut order,
                            at + delay,
                            QEvent::AckT(src, dst, epoch),
                        ),
                    }
                }
            }
            let want: Vec<u64> = (0..total).collect();
            assert_eq!(got, want, "trial {trial}: exactly-once in-order broken");
            assert!(end.is_quiescent(), "trial {trial}: transport not quiescent");
            assert!(
                end.stats().retransmits > 0,
                "trial {trial}: wire was not lossy"
            );
        }
    }

    // Stable per-trial seed for the adversarial-wire property check.
    fn trial_seed(trial: u64) -> u64 {
        0x7cc0_11ff ^ trial.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[derive(Debug, Clone)]
    enum QEvent {
        AppSend(u64),
        Arrive(Frame),
        Retx(NodeId, NodeId, u64),
        AckT(NodeId, NodeId, u64),
    }

    /// Checkpointing a transport with unacked frames, a reorder-buffer
    /// gap, and a pending standalone ack must round-trip exactly:
    /// identical bytes on re-save and identical behaviour afterwards.
    #[test]
    fn save_restore_round_trips_mid_retransmission_state() {
        let cfg = TransportConfig {
            rto: 100,
            max_backoff_exp: 2,
            max_retries: 8,
            ack_delay: 10,
        };
        let mut t = Transport::new(cfg, ProtocolBugs::default());
        // Sender side: two unacked frames on 0→1, one timer fire spent.
        let acts = t.send(msg(0, 1, 1));
        let TransportAction::RetxTimer { epoch, .. } = acts[1] else {
            panic!()
        };
        t.send(msg(0, 1, 2));
        t.on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
            .unwrap();
        // Receiver side: out-of-order frame parked, standalone ack owed.
        let mut peer = Transport::new(cfg, ProtocolBugs::default());
        peer.send(msg(2, 0, 1));
        let f = wires(&peer.send(msg(2, 0, 2)))[0].clone();
        t.on_frame(f);
        assert_eq!(t.reorder_buffered(), 1);

        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut r = Transport::new(cfg, ProtocolBugs::default());
        let mut rd = SnapReader::new(&bytes);
        r.restore_state(&mut rd).unwrap();
        assert!(rd.is_done());
        let mut w2 = SnapWriter::new();
        r.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Both copies behave identically from here on.
        for t in [&mut t, &mut r] {
            // The next retx fire retransmits both frames with the
            // already-doubled RTO.
            let acts = t
                .on_retx_timer(Cycle(0), NodeId(0), NodeId(1), epoch)
                .unwrap();
            assert_eq!(wires(&acts).len(), 2);
            let TransportAction::RetxTimer { delay, .. } = acts[2] else {
                panic!()
            };
            assert_eq!(delay, 400);
            // The missing seq 0 on 2→0 releases the buffered frame too.
            let f =
                wires(&Transport::new(cfg, ProtocolBugs::default()).send(msg(2, 0, 1)))[0].clone();
            let (d, _) = t.on_frame(f);
            assert_eq!(d, vec![msg(2, 0, 1), msg(2, 0, 2)]);
            assert_eq!(t.stats().retransmits, 4);
        }

        // Truncated snapshots are refused.
        let mut fresh = Transport::new(cfg, ProtocolBugs::default());
        let mut short = SnapReader::new(&bytes[..bytes.len() - 3]);
        assert!(fresh.restore_state(&mut short).is_err());
    }

    #[test]
    fn no_dedup_mutation_leaks_duplicates() {
        let bugs = ProtocolBugs {
            transport_no_dedup: true,
            ..ProtocolBugs::default()
        };
        let mut sender = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let mut rcv = Transport::new(TransportConfig::default(), bugs);
        let f = wires(&sender.send(msg(0, 1, 5)))[0].clone();
        let (d, _) = rcv.on_frame(f.clone());
        assert_eq!(d.len(), 1);
        let (d, _) = rcv.on_frame(f);
        assert_eq!(d.len(), 1, "mutated transport must leak the duplicate");
    }

    #[test]
    fn no_reorder_mutation_delivers_in_arrival_order_and_loses_the_gap() {
        let bugs = ProtocolBugs {
            transport_no_reorder: true,
            ..ProtocolBugs::default()
        };
        let mut sender = Transport::new(TransportConfig::default(), ProtocolBugs::default());
        let mut rcv = Transport::new(TransportConfig::default(), bugs);
        let mut frames = Vec::new();
        for i in 0..3 {
            frames.extend(wires(&sender.send(msg(0, 1, i))));
        }
        // seq 2 first: delivered immediately, gap acked away.
        let (d, _) = rcv.on_frame(frames[2].clone());
        assert_eq!(d, vec![msg(0, 1, 2)]);
        // seq 0 arrives late: treated as a duplicate and dropped — the
        // protocol never sees it.
        let (d, _) = rcv.on_frame(frames[0].clone());
        assert!(d.is_empty());
    }
}
