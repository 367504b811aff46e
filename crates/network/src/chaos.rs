//! Adversarial fault injection for the interconnect.
//!
//! The Scalable TCC protocol is designed for *unordered* networks: its
//! §3.3 race-elimination rules (invalidation-ack windows, TID-tagged
//! write-backs, request-id supersede on load/invalidate races) only
//! earn their keep when messages are delayed and reordered badly. The
//! mesh model itself is benign — latencies vary only with hop count and
//! contention — so this module wraps it with a [`SeededInjector`] that
//! stretches message latencies adversarially:
//!
//! * **Per-message jitter** — each message independently gains up to
//!   `jitter` extra cycles with probability `jitter_prob`.
//! * **Kind-targeted, phase-windowed delays** ([`KindDelay`]) — e.g.
//!   stall every `Mark` injected during cycles 0..5000 by 200 cycles
//!   while racing `Commit`s run ahead, or hold `InvAck`s to stretch the
//!   NSTID ack window.
//! * **Hot spots** ([`HotSpot`]) — all traffic *into* one node slows
//!   down for a cycle window, modeling a congested link or a transient
//!   directory slowdown.
//!
//! Everything is driven by one [`SmallRng`] stream seeded from a single
//! `u64`, and the simulator consumes messages in a deterministic order,
//! so a (program seed × chaos seed × config) triple replays the exact
//! failing schedule.
//!
//! # The one ordering rule chaos must respect
//!
//! Injection only ever *adds* latency, and by default it keeps each
//! directed `(src, dst)` channel FIFO (strictly monotone delivery
//! times). Cross-channel reordering is unbounded — that is where the
//! protocol's races live — but the simulator's node model assumes
//! point-to-point order on two paths: a superseded owner's
//! `Flush`/`WriteBack` must reach the home directory *before* the same
//! processor's subsequent `InvAck` (the directory merges the flush data
//! under the ack window), and an eviction `WriteBack` must not be
//! overtaken by the same node's next `LoadRequest` for that line.
//! Violating per-channel FIFO therefore produces spurious
//! lost-update reports that no real unordered fabric with per-channel
//! ordering would exhibit. `preserve_channel_fifo: false` is available
//! for experiments but is excluded from the correctness oracle.
//!
//! # Wire faults (loss, duplication, cross-channel reorder)
//!
//! When the simulator runs with the reliable transport enabled
//! (`crates/network/src/transport.rs`), every remote message travels as
//! a sequenced [`Frame`](tcc_types::Frame) and the FIFO clamp above no
//! longer applies — the transport restores per-channel order itself.
//! On that path the injector is consulted through [`SeededInjector::wire_fate`],
//! which may *drop* a frame ([`DropRule`]), *duplicate* it
//! ([`DupRule`]), or scatter its delivery time without any clamp
//! (`reorder`/`reorder_prob`), on top of the latency rules. Rules are
//! kind- and phase-windowed exactly like [`KindDelay`]; `"*"` matches
//! every frame kind (standalone acks are kind `"Ack"`). The simulator
//! refuses wire faults unless the transport is on — losing a message
//! with no retransmission layer is not a schedule, it is a different
//! machine.

use tcc_types::hash::FxHashMap;

use tcc_trace::json::{DecimalString, JsonCodec, JsonWith};
use tcc_trace::{json_fields, Json};
use tcc_types::rng::SmallRng;
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{snap_fields, Cycle, Message, NodeId};

/// Extra latency for one message kind inside a cycle window.
#[derive(Debug, Clone, PartialEq)]
pub struct KindDelay {
    /// Message kind name as reported by `Payload::kind_name()`
    /// (e.g. `"Mark"`, `"InvAck"`, `"Commit"`).
    pub kind: String,
    /// Extra cycles added when the rule fires.
    pub extra: u64,
    /// Probability the rule fires for a matching message.
    pub prob: f64,
    /// Window start (message injection cycle), inclusive.
    pub from: u64,
    /// Window end, exclusive. `u64::MAX` leaves the window open.
    pub until: u64,
}

/// Drop matching transport frames with some probability inside a cycle
/// window. Only consulted on the reliable-transport wire path
/// ([`SeededInjector::wire_fate`]); `kind == "*"` matches every frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DropRule {
    /// Frame kind name (`Frame::kind_name()`), or `"*"` for all.
    pub kind: String,
    /// Probability a matching frame is dropped.
    pub prob: f64,
    /// Window start (frame injection cycle), inclusive.
    pub from: u64,
    /// Window end, exclusive. `u64::MAX` leaves the window open.
    pub until: u64,
}

/// Duplicate matching transport frames with some probability inside a
/// cycle window; the copy arrives `delay` cycles after the original.
/// Only consulted on the reliable-transport wire path.
#[derive(Debug, Clone, PartialEq)]
pub struct DupRule {
    /// Frame kind name (`Frame::kind_name()`), or `"*"` for all.
    pub kind: String,
    /// Probability a matching frame is duplicated.
    pub prob: f64,
    /// Extra cycles the duplicate copy lags the original (min 1).
    pub delay: u64,
    /// Window start (frame injection cycle), inclusive.
    pub from: u64,
    /// Window end, exclusive. `u64::MAX` leaves the window open.
    pub until: u64,
}

/// `true` when `rule` (possibly the `"*"` wildcard) matches `kind`.
fn kind_matches(rule: &str, kind: &str) -> bool {
    rule == "*" || rule == kind
}

/// Slow down all traffic *into* one node for a cycle window.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpot {
    /// Destination node whose incoming links congest.
    pub node: NodeId,
    /// Extra cycles per message while the window is open.
    pub extra: u64,
    /// Window start (inclusive) and end (exclusive) in cycles.
    pub from: u64,
    pub until: u64,
}

/// Full description of one adversarial schedule, deterministic from
/// `seed`. JSON round-trips through its [`JsonCodec`] so failing
/// schedules are replayable artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Max per-message jitter in cycles (0 disables).
    pub jitter: u64,
    /// Probability a message receives jitter.
    pub jitter_prob: f64,
    /// Kind-targeted delay rules.
    pub kind_delays: Vec<KindDelay>,
    /// Destination hot spots.
    pub hotspots: Vec<HotSpot>,
    /// Keep each directed `(src, dst)` channel FIFO (see module docs).
    /// Leave `true` for correctness-oracle runs.
    pub preserve_channel_fifo: bool,
    /// Frame-drop rules (transport wire path only).
    pub drops: Vec<DropRule>,
    /// Frame-duplication rules (transport wire path only).
    pub dups: Vec<DupRule>,
    /// Max extra cross-channel reorder jitter on the transport wire
    /// path, applied with **no** FIFO clamp (0 disables).
    pub reorder: u64,
    /// Probability a frame receives reorder jitter.
    pub reorder_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            jitter: 0,
            jitter_prob: 1.0,
            kind_delays: Vec::new(),
            hotspots: Vec::new(),
            preserve_channel_fifo: true,
            drops: Vec::new(),
            dups: Vec::new(),
            reorder: 0,
            reorder_prob: 1.0,
        }
    }
}

impl ChaosConfig {
    /// `true` when any rule needs the unreliable wire path: dropping,
    /// duplicating, or unclamped reordering. The simulator requires the
    /// reliable transport to be enabled before honoring these.
    #[must_use]
    pub fn has_wire_faults(&self) -> bool {
        !self.drops.is_empty() || !self.dups.is_empty() || self.reorder > 0
    }
}

/// A window end, written as `null` when the window is open: `u64::MAX`
/// does not fit the `f64` of a JSON number.
struct WindowEnd;

impl JsonWith<u64> for WindowEnd {
    fn to_json(until: &u64) -> Json {
        if *until == u64::MAX {
            Json::Null
        } else {
            until.to_json()
        }
    }
    fn from_json(json: &Json) -> Result<u64, String> {
        match json {
            Json::Null => Ok(u64::MAX),
            v => u64::from_json(v),
        }
    }
}

json_fields!(KindDelay { kind, extra, prob, from, until with WindowEnd = u64::MAX });
json_fields!(HotSpot { node, extra, from, until with WindowEnd = u64::MAX });
json_fields!(DropRule { kind, prob, from, until with WindowEnd = u64::MAX });
json_fields!(DupRule { kind, prob, delay, from, until with WindowEnd = u64::MAX });

// The fields from `preserve_channel_fifo` on read as their defaults when
// absent: artifacts written before the reliable transport lack them.
json_fields!(ChaosConfig {
    seed with DecimalString,
    jitter,
    jitter_prob,
    kind_delays,
    hotspots,
    preserve_channel_fifo = true,
    drops = Vec::new(),
    dups = Vec::new(),
    reorder = 0,
    reorder_prob = 1.0,
});

/// Counters the injector keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Messages that passed through the injector.
    pub messages: u64,
    /// Messages whose delivery moved later than natural arrival.
    pub perturbed: u64,
    /// Total extra cycles injected.
    pub extra_cycles: u64,
    /// Transport frames dropped on the wire.
    pub dropped: u64,
    /// Extra transport-frame copies created by duplication rules.
    pub duplicated: u64,
}

snap_fields!(ChaosStats {
    messages,
    perturbed,
    extra_cycles,
    dropped,
    duplicated,
});

/// The deterministic fault injector driven by a [`ChaosConfig`]: the
/// hook the [`Network`](crate::Network) calls for every message send.
#[derive(Debug)]
pub struct SeededInjector {
    cfg: ChaosConfig,
    rng: SmallRng,
    /// Last delivery time per directed channel, for the FIFO clamp.
    last_arrival: FxHashMap<(NodeId, NodeId), u64>,
    stats: ChaosStats,
}

impl SeededInjector {
    #[must_use]
    pub fn new(cfg: ChaosConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        SeededInjector {
            cfg,
            rng,
            last_arrival: FxHashMap::default(),
            stats: ChaosStats::default(),
        }
    }

    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    fn extra_for(&mut self, now: Cycle, kind: &str, dst: NodeId) -> u64 {
        let mut extra = 0;
        if self.cfg.jitter > 0 && self.rng.gen_bool(self.cfg.jitter_prob) {
            extra += self.rng.gen_range(0..=self.cfg.jitter);
        }
        for kd in &self.cfg.kind_delays {
            if kd.kind == kind && now.0 >= kd.from && now.0 < kd.until {
                // Draw even when extra == 0 so adding/removing a rule's
                // delay does not shift later draws (shrinking stays
                // more local); the probability gate itself consumes
                // from the stream deterministically per message.
                if self.rng.gen_bool(kd.prob) {
                    extra += kd.extra;
                }
            }
        }
        for h in &self.cfg.hotspots {
            if dst == h.node && now.0 >= h.from && now.0 < h.until {
                extra += h.extra;
            }
        }
        extra
    }

    /// Perturbs one message injected at `now` whose natural delivery
    /// time is `arrival`, returning a delivery time no earlier than
    /// `arrival` (the engine cannot schedule into the past).
    pub fn perturb(&mut self, now: Cycle, msg: &Message, arrival: Cycle) -> Cycle {
        self.stats.messages += 1;
        let extra = self.extra_for(now, msg.payload.kind_name(), msg.dst);
        let mut t = arrival.0 + extra;
        if self.cfg.preserve_channel_fifo {
            let key = (msg.src, msg.dst);
            if let Some(&last) = self.last_arrival.get(&key) {
                if t <= last {
                    t = last + 1;
                }
            }
            self.last_arrival.insert(key, t);
        }
        if t > arrival.0 {
            self.stats.perturbed += 1;
            self.stats.extra_cycles += t - arrival.0;
        }
        Cycle(t)
    }

    /// Decides the fate of one *transport frame* injected at `now` with
    /// natural delivery time `arrival`: the returned vector holds the
    /// delivery time of every copy put on the wire — empty means the
    /// frame was dropped, two entries mean it was duplicated. Unlike
    /// [`perturb`](SeededInjector::perturb) there is **no** per-channel
    /// FIFO clamp (the reliable transport restores ordering), so copies
    /// may reorder freely; none is delivered before `arrival`.
    pub fn wire_fate(
        &mut self,
        now: Cycle,
        kind: &str,
        _src: NodeId,
        dst: NodeId,
        arrival: Cycle,
    ) -> Vec<Cycle> {
        self.stats.messages += 1;
        let mut extra = self.extra_for(now, kind, dst);
        if self.cfg.reorder > 0 && self.rng.gen_bool(self.cfg.reorder_prob) {
            extra += self.rng.gen_range(0..=self.cfg.reorder);
        }
        let t = arrival.0 + extra;
        // Draw every in-window rule even once the outcome is decided so
        // removing one rule (shrinking) keeps later draws stable.
        let mut dropped = false;
        for d in &self.cfg.drops {
            if kind_matches(&d.kind, kind) && now.0 >= d.from && now.0 < d.until {
                dropped |= self.rng.gen_bool(d.prob);
            }
        }
        let mut copies = Vec::new();
        for d in &self.cfg.dups {
            if kind_matches(&d.kind, kind)
                && now.0 >= d.from
                && now.0 < d.until
                && self.rng.gen_bool(d.prob)
            {
                copies.push(Cycle(t + d.delay.max(1)));
            }
        }
        if dropped {
            self.stats.dropped += 1;
            return Vec::new();
        }
        if t > arrival.0 {
            self.stats.perturbed += 1;
            self.stats.extra_cycles += t - arrival.0;
        }
        self.stats.duplicated += copies.len() as u64;
        let mut fates = vec![Cycle(t)];
        fates.extend(copies);
        fates
    }

    /// Serializes the injector's mutable state (RNG position, FIFO
    /// clamp watermarks, counters) for a checkpoint. Not a `Snap` impl
    /// because the rules come from the config the resuming caller
    /// rebuilds.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.rng);
        w.put(&self.last_arrival);
        w.put(&self.stats);
    }

    /// Restores state saved by [`save_state`](SeededInjector::save_state).
    /// The injector must already be configured identically to the one
    /// that saved (the snapshot's config digest guarantees this).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = r.get()?;
        self.last_arrival = r.get()?;
        self.stats = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::{Payload, Tid};

    fn msg(src: u16, dst: u16) -> Message {
        Message::new(NodeId(src), NodeId(dst), Payload::Skip { tid: Tid(1) })
    }

    fn probe(src: u16, dst: u16) -> Message {
        Message::new(
            NodeId(src),
            NodeId(dst),
            Payload::Probe {
                tid: Tid(1),
                requester: NodeId(src),
                for_write: true,
            },
        )
    }

    #[test]
    fn same_seed_same_perturbation() {
        let cfg = ChaosConfig {
            seed: 99,
            jitter: 50,
            jitter_prob: 0.7,
            ..ChaosConfig::default()
        };
        let mut a = SeededInjector::new(cfg.clone());
        let mut b = SeededInjector::new(cfg);
        for i in 0..500 {
            let m = msg((i % 4) as u16, ((i + 1) % 4) as u16);
            let at = Cycle(i * 3);
            let natural = Cycle(i * 3 + 10);
            assert_eq!(a.perturb(at, &m, natural), b.perturb(at, &m, natural));
        }
    }

    #[test]
    fn never_delivers_early_and_keeps_channel_fifo() {
        let cfg = ChaosConfig {
            seed: 7,
            jitter: 200,
            jitter_prob: 0.9,
            ..ChaosConfig::default()
        };
        let mut inj = SeededInjector::new(cfg);
        let mut last = 0;
        for i in 0..200 {
            let natural = Cycle(i + 10);
            let t = inj.perturb(Cycle(i), &msg(0, 1), natural);
            assert!(t >= natural, "chaos must only add latency");
            assert!(t.0 > last, "same-channel deliveries must stay FIFO");
            last = t.0;
        }
    }

    #[test]
    fn kind_delay_hits_only_its_kind_and_window() {
        let cfg = ChaosConfig {
            seed: 1,
            kind_delays: vec![KindDelay {
                kind: "Probe".to_string(),
                extra: 100,
                prob: 1.0,
                from: 0,
                until: 50,
            }],
            preserve_channel_fifo: false,
            ..ChaosConfig::default()
        };
        let mut inj = SeededInjector::new(cfg);
        assert_eq!(inj.perturb(Cycle(10), &probe(0, 1), Cycle(20)), Cycle(120));
        // Other kinds untouched.
        assert_eq!(inj.perturb(Cycle(10), &msg(0, 1), Cycle(20)), Cycle(20));
        // Outside the window untouched.
        assert_eq!(inj.perturb(Cycle(60), &probe(0, 1), Cycle(70)), Cycle(70));
    }

    #[test]
    fn hotspot_slows_traffic_into_one_node() {
        let cfg = ChaosConfig {
            seed: 2,
            hotspots: vec![HotSpot {
                node: NodeId(3),
                extra: 40,
                from: 100,
                until: 200,
            }],
            preserve_channel_fifo: false,
            ..ChaosConfig::default()
        };
        let mut inj = SeededInjector::new(cfg);
        assert_eq!(inj.perturb(Cycle(150), &msg(0, 3), Cycle(160)), Cycle(200));
        assert_eq!(inj.perturb(Cycle(150), &msg(0, 2), Cycle(160)), Cycle(160));
        assert_eq!(inj.perturb(Cycle(250), &msg(0, 3), Cycle(260)), Cycle(260));
        assert_eq!(inj.stats().perturbed, 1);
        assert_eq!(inj.stats().extra_cycles, 40);
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = ChaosConfig {
            seed: u64::MAX - 12345,
            jitter: 32,
            jitter_prob: 0.25,
            kind_delays: vec![KindDelay {
                kind: "InvAck".to_string(),
                extra: 64,
                prob: 0.5,
                from: 0,
                until: u64::MAX,
            }],
            hotspots: vec![HotSpot {
                node: NodeId(5),
                extra: 16,
                from: 10,
                until: 90,
            }],
            preserve_channel_fifo: true,
            drops: vec![DropRule {
                kind: "*".to_string(),
                prob: 0.05,
                from: 0,
                until: u64::MAX,
            }],
            dups: vec![DupRule {
                kind: "Mark".to_string(),
                prob: 0.2,
                delay: 40,
                from: 100,
                until: 5000,
            }],
            reorder: 120,
            reorder_prob: 0.5,
        };
        let json = cfg.to_json();
        let parsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(ChaosConfig::from_json(&parsed).unwrap(), cfg);
    }

    #[test]
    fn artifacts_without_wire_fault_fields_still_parse() {
        // A pre-transport chaos artifact: no drops/dups/reorder keys.
        let old = ChaosConfig {
            seed: 3,
            jitter: 8,
            ..ChaosConfig::default()
        };
        let mut json = old.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| {
                !matches!(k.as_str(), "drops" | "dups" | "reorder" | "reorder_prob")
            });
        }
        let parsed = Json::parse(&json.to_pretty()).unwrap();
        let cfg = ChaosConfig::from_json(&parsed).unwrap();
        assert_eq!(cfg, old);
        assert!(!cfg.has_wire_faults());
    }

    #[test]
    fn drop_rule_drops_matching_frames_in_window_only() {
        let cfg = ChaosConfig {
            seed: 11,
            drops: vec![DropRule {
                kind: "Probe".to_string(),
                prob: 1.0,
                from: 0,
                until: 100,
            }],
            ..ChaosConfig::default()
        };
        let mut inj = SeededInjector::new(cfg);
        assert!(inj
            .wire_fate(Cycle(10), "Probe", NodeId(0), NodeId(1), Cycle(20))
            .is_empty());
        // Other kinds and out-of-window frames pass through on time.
        assert_eq!(
            inj.wire_fate(Cycle(10), "Skip", NodeId(0), NodeId(1), Cycle(20)),
            vec![Cycle(20)]
        );
        assert_eq!(
            inj.wire_fate(Cycle(150), "Probe", NodeId(0), NodeId(1), Cycle(160)),
            vec![Cycle(160)]
        );
        assert_eq!(inj.stats().dropped, 1);
    }

    #[test]
    fn dup_rule_emits_a_delayed_copy() {
        let cfg = ChaosConfig {
            seed: 12,
            dups: vec![DupRule {
                kind: "*".to_string(),
                prob: 1.0,
                delay: 30,
                from: 0,
                until: u64::MAX,
            }],
            ..ChaosConfig::default()
        };
        let mut inj = SeededInjector::new(cfg);
        assert_eq!(
            inj.wire_fate(Cycle(0), "Ack", NodeId(0), NodeId(1), Cycle(15)),
            vec![Cycle(15), Cycle(45)]
        );
        assert_eq!(inj.stats().duplicated, 1);
    }

    /// A restored injector must continue the RNG stream and FIFO clamp
    /// exactly where the saved one left off: the perturbation tails
    /// match draw for draw.
    #[test]
    fn save_restore_continues_rng_and_clamp_tails_exactly() {
        let cfg = ChaosConfig {
            seed: 0xc4a0_5001,
            jitter: 80,
            jitter_prob: 0.6,
            drops: vec![DropRule {
                kind: "*".to_string(),
                prob: 0.1,
                from: 0,
                until: u64::MAX,
            }],
            reorder: 50,
            reorder_prob: 0.5,
            ..ChaosConfig::default()
        };
        let mut inj = SeededInjector::new(cfg.clone());
        for i in 0..300u64 {
            inj.perturb(Cycle(i), &msg((i % 3) as u16, 1), Cycle(i + 10));
            inj.wire_fate(Cycle(i), "Mark", NodeId(0), NodeId(2), Cycle(i + 10));
        }

        let mut w = SnapWriter::new();
        inj.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = SeededInjector::new(cfg);
        let mut r = SnapReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(restored.stats(), inj.stats());

        for i in 300..600u64 {
            let m = msg((i % 3) as u16, 1);
            assert_eq!(
                inj.perturb(Cycle(i), &m, Cycle(i + 10)),
                restored.perturb(Cycle(i), &m, Cycle(i + 10)),
                "perturbation tail diverged at step {i}"
            );
            assert_eq!(
                inj.wire_fate(Cycle(i), "Mark", NodeId(0), NodeId(2), Cycle(i + 10)),
                restored.wire_fate(Cycle(i), "Mark", NodeId(0), NodeId(2), Cycle(i + 10)),
                "wire-fate tail diverged at step {i}"
            );
        }
    }

    #[test]
    fn reorder_jitter_has_no_fifo_clamp_and_same_seed_replays() {
        let cfg = ChaosConfig {
            seed: 13,
            reorder: 100,
            reorder_prob: 1.0,
            ..ChaosConfig::default()
        };
        let mut a = SeededInjector::new(cfg.clone());
        let mut b = SeededInjector::new(cfg);
        let mut saw_out_of_order = false;
        let mut last = 0;
        for i in 0..200 {
            let fa = a.wire_fate(Cycle(i), "Mark", NodeId(0), NodeId(1), Cycle(i + 10));
            let fb = b.wire_fate(Cycle(i), "Mark", NodeId(0), NodeId(1), Cycle(i + 10));
            assert_eq!(fa, fb, "wire fate must be seed-deterministic");
            assert!(fa[0] >= Cycle(i + 10), "wire faults must not deliver early");
            if fa[0].0 < last {
                saw_out_of_order = true;
            }
            last = fa[0].0;
        }
        assert!(
            saw_out_of_order,
            "unclamped reorder jitter should invert same-channel delivery order"
        );
    }
}
