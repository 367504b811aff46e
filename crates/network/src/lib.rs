//! Interconnection-network model for the Scalable TCC simulator.
//!
//! The paper's machine (Table 2) connects nodes with a **2D grid** whose
//! per-hop link latency is a key experimental parameter (Figure 8 sweeps
//! it). This crate models that fabric:
//!
//! * [`Mesh2D`] — a near-square 2D mesh with dimension-order (XY)
//!   routing, per-hop pipeline latency, and per-link serialization /
//!   contention (each directed link is busy for `size / bandwidth`
//!   cycles per message).
//! * [`Network`] — the facade the protocol layer uses: it times a
//!   [`Message`] across the mesh and records its bytes in the Figure 9
//!   traffic accounts ([`TrafficStats`]).
//!
//! Messages between a processor and its *own* node's directory do not
//! cross the network; they pay a small fixed local latency and are not
//! counted as remote traffic.
//!
//! # Example
//!
//! ```
//! use tcc_network::{Mesh2D, NetworkConfig};
//! use tcc_types::{Cycle, NodeId};
//!
//! let mut mesh = Mesh2D::new(16, NetworkConfig::default());
//! // A 16-node machine forms a 4x4 grid; corner-to-corner is 6 hops.
//! assert_eq!(mesh.hops(NodeId(0), NodeId(15)), 6);
//! let arrival = mesh.send(Cycle(0), NodeId(0), NodeId(15), 16);
//! assert!(arrival > Cycle(0));
//! ```

pub mod chaos;
mod mesh;
mod stats;
pub mod transport;

pub use chaos::{ChaosConfig, DropRule, DupRule, HotSpot, KindDelay, SeededInjector};
pub use mesh::{Mesh2D, NetworkConfig};
pub use stats::TrafficStats;
pub use transport::{RetryExhausted, Transport, TransportAction, TransportConfig, TransportStats};

use tcc_trace::{TraceEvent, Tracer};
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{Cycle, Frame, Message, NodeId, Payload};

/// The interconnect facade: routes [`Message`]s over a [`Mesh2D`] and
/// accounts their traffic.
#[derive(Debug)]
pub struct Network {
    mesh: Mesh2D,
    stats: TrafficStats,
    line_bytes: u32,
    tracer: Tracer,
    injector: Option<SeededInjector>,
}

impl Network {
    /// Creates a network for `n_nodes` nodes with cache lines of
    /// `line_bytes` bytes (needed to size data messages).
    #[must_use]
    pub fn new(n_nodes: usize, line_bytes: u32, config: NetworkConfig) -> Network {
        Network {
            mesh: Mesh2D::new(n_nodes, config),
            stats: TrafficStats::default(),
            line_bytes,
            tracer: Tracer::disabled(),
            injector: None,
        }
    }

    /// Attaches the shared tracing sink (observation-only: tracing does
    /// not alter timing or routing).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches an adversarial [`SeededInjector`]; every subsequent send
    /// (unicast and multicast, local and remote) is routed through it.
    pub fn set_injector(&mut self, injector: SeededInjector) {
        self.injector = Some(injector);
    }

    /// Runs `arrival` through the attached injector, if any, recording
    /// the perturbation in the trace.
    fn apply_chaos(&mut self, now: Cycle, msg: &Message, arrival: Cycle) -> Cycle {
        let Some(injector) = self.injector.as_mut() else {
            return arrival;
        };
        let perturbed = injector.perturb(now, msg, arrival);
        debug_assert!(perturbed >= arrival, "fault injector must only add latency");
        let delay = perturbed.0.saturating_sub(arrival.0);
        if delay > 0 {
            self.tracer.count("chaos.perturbed_messages", 1);
            self.tracer.count("chaos.extra_cycles", delay);
            self.tracer.record(now, || TraceEvent::ChaosPerturb {
                kind: msg.payload.kind_name(),
                src: msg.src,
                dst: msg.dst,
                delay,
            });
        }
        perturbed
    }

    /// Times `msg` from its source to its destination starting at `now`,
    /// updating link occupancy and traffic statistics. Returns the
    /// delivery time.
    pub fn send(&mut self, now: Cycle, msg: &Message) -> Cycle {
        let size = msg.size_bytes(self.line_bytes);
        let kind = msg.payload.kind_name();
        trace_send(&self.tracer, now, kind, msg.src, msg.dst, size);
        if msg.src != msg.dst {
            self.stats.record(msg.payload.category(), size);
            self.stats.record_kind(msg.payload.kind_index());
        }
        let arrival = self.mesh.send(now, msg.src, msg.dst, size);
        self.apply_chaos(now, msg, arrival)
    }

    /// Times `msg` with the timing its payload calls for: fabric
    /// multicast for Skip/Commit/Abort (see [`Network::send_multicast`]),
    /// point-to-point contention for everything else.
    pub fn route(&mut self, now: Cycle, msg: &Message) -> Cycle {
        if is_multicast(&msg.payload) {
            self.send_multicast(now, msg)
        } else {
            self.send(now, msg)
        }
    }

    /// Times one copy of a *multicast* message (Skip/Commit/Abort
    /// distribution). The paper relies on limited multicast being cheap
    /// ("limited multicast messages are cheap in a high bandwidth
    /// interconnect", §2.2): copies replicate in the fabric instead of
    /// serializing at the source, so each copy pays only the
    /// uncontended path latency. Traffic is still accounted per copy
    /// delivered (the receive-side view Figure 9 reports).
    pub fn send_multicast(&mut self, now: Cycle, msg: &Message) -> Cycle {
        let size = msg.size_bytes(self.line_bytes);
        let kind = msg.payload.kind_name();
        trace_send(&self.tracer, now, kind, msg.src, msg.dst, size);
        if msg.src == msg.dst {
            let arrival = self.mesh.send(now, msg.src, msg.dst, size);
            return self.apply_chaos(now, msg, arrival);
        }
        self.stats.record(msg.payload.category(), size);
        self.stats.record_kind(msg.payload.kind_index());
        let hops = self.mesh.hops(msg.src, msg.dst);
        let arrival = now + self.mesh.uncontended_latency(hops, size);
        self.apply_chaos(now, msg, arrival)
    }

    /// Times one transport [`Frame`] across the mesh and asks the
    /// attached injector (if any) for its **wire fate**: the returned
    /// vector holds one delivery time per copy that survives the wire
    /// (empty = dropped, two = duplicated). Unlike [`Network::send`],
    /// no per-channel FIFO clamp applies — the reliable transport layer
    /// restores ordering itself — so this is the only path on which the
    /// chaos drop/dup/reorder rules take effect.
    ///
    /// An enveloped Skip/Commit/Abort keeps the uncontended-path timing
    /// of fabric multicast (see [`Network::route`]), retransmissions
    /// included; traffic is still accounted per copy put on the wire —
    /// resending costs real bytes.
    pub fn send_frame(&mut self, now: Cycle, frame: &Frame) -> Vec<Cycle> {
        let size = frame.size_bytes(self.line_bytes);
        let (src, dst) = (frame.src(), frame.dst());
        let kind = frame.kind_name();
        trace_send(&self.tracer, now, kind, src, dst, size);
        debug_assert_ne!(src, dst, "local messages bypass the transport");
        self.stats.record(frame.category(), size);
        self.stats.record_kind(frame.kind_index());
        let arrival = if matches!(frame, Frame::Data { msg, .. } if is_multicast(&msg.payload)) {
            let hops = self.mesh.hops(src, dst);
            now + self.mesh.uncontended_latency(hops, size)
        } else {
            self.mesh.send(now, src, dst, size)
        };
        let fates = match self.injector.as_mut() {
            None => vec![arrival],
            Some(injector) => injector.wire_fate(now, kind, src, dst, arrival),
        };
        debug_assert!(
            fates.iter().all(|&t| t >= arrival),
            "wire faults must not deliver early"
        );
        if fates.is_empty() {
            self.tracer.count("chaos.dropped_frames", 1);
            self.tracer
                .record(now, || TraceEvent::FrameDropped { kind, src, dst });
        } else if fates.len() > 1 {
            let copies = fates.len() as u64 - 1;
            self.tracer.count("chaos.duplicated_frames", copies);
            self.tracer.record(now, || TraceEvent::FrameDuplicated {
                kind,
                src,
                dst,
                copies,
            });
        }
        fates
    }

    /// Serializes the network's mutable state: link occupancy, traffic
    /// accounts, and — when an injector is attached — its RNG and
    /// clamp state. Topology and line size come from config and are
    /// covered by the snapshot's config digest.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.mesh.save_state(w);
        self.stats.save_state(w);
        w.save_present(self.injector.as_ref(), SeededInjector::save_state);
    }

    /// Restores state saved by [`Network::save_state`] into a network
    /// built from the same configuration (same topology, and an
    /// injector attached iff one was attached at save time).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.mesh.restore_state(r)?;
        self.stats.restore_state(r)?;
        let injector = self.injector.as_mut();
        r.restore_present("Network.injector", injector, SeededInjector::restore_state)
    }

    /// Number of mesh hops between two nodes.
    #[must_use]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        self.mesh.hops(a, b)
    }

    /// Accumulated traffic statistics.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The network configuration in force.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        self.mesh.config()
    }
}

/// Records one message injection in the trace: the `net.messages` and
/// `net.bytes` counters and a `MsgSend` event. Every send funnels
/// through here.
#[inline]
fn trace_send(
    tracer: &Tracer,
    now: Cycle,
    kind: &'static str,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
) {
    tracer.count("net.messages", 1);
    tracer.count("net.bytes", u64::from(bytes));
    tracer.record(now, || TraceEvent::MsgSend {
        kind,
        src,
        dst,
        bytes: u64::from(bytes),
    });
}

/// Skip/Commit/Abort are fabric-replicated multicasts (§2.2); every
/// other payload is point-to-point.
fn is_multicast(payload: &Payload) -> bool {
    matches!(
        payload,
        Payload::Skip { .. } | Payload::Commit { .. } | Payload::Abort { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::{Tid, TrafficCategory};

    #[test]
    fn network_counts_remote_but_not_local_traffic() {
        let mut net = Network::new(4, 32, NetworkConfig::default());
        let remote = Message::new(NodeId(0), NodeId(3), Payload::Skip { tid: Tid(0) });
        let local = Message::new(NodeId(1), NodeId(1), Payload::Skip { tid: Tid(0) });
        net.send(Cycle(0), &remote);
        net.send(Cycle(0), &local);
        assert_eq!(net.stats().total_bytes(), u64::from(remote.size_bytes(32)));
        assert_eq!(
            net.stats().bytes_in_category(TrafficCategory::Commit),
            u64::from(remote.size_bytes(32))
        );
    }

    #[test]
    fn skip_commit_abort_take_multicast_timing_on_both_paths() {
        // Point-to-point copies queue on the shared link; multicast
        // copies replicate in the fabric and arrive together.
        let skip = Message::new(NodeId(0), NodeId(3), Payload::Skip { tid: Tid(0) });
        let tid = Message::new(
            NodeId(0),
            NodeId(3),
            Payload::TidRequest {
                requester: NodeId(0),
            },
        );
        let mut net = Network::new(4, 32, NetworkConfig::default());
        assert_eq!(net.route(Cycle(0), &skip), net.route(Cycle(0), &skip));
        assert!(net.route(Cycle(0), &tid) < net.route(Cycle(0), &tid));
        let frame = |msg: &Message| Frame::Data {
            seq: 0,
            ack: 0,
            msg: msg.clone(),
        };
        let mut net = Network::new(4, 32, NetworkConfig::default());
        let (f_skip, f_tid) = (frame(&skip), frame(&tid));
        assert_eq!(
            net.send_frame(Cycle(0), &f_skip),
            net.send_frame(Cycle(0), &f_skip)
        );
        assert!(net.send_frame(Cycle(0), &f_tid) < net.send_frame(Cycle(0), &f_tid));
    }

    #[test]
    fn local_messages_are_fast() {
        let mut net = Network::new(4, 32, NetworkConfig::default());
        let local = Message::new(NodeId(1), NodeId(1), Payload::Skip { tid: Tid(0) });
        let remote = Message::new(NodeId(0), NodeId(3), Payload::Skip { tid: Tid(0) });
        let t_local = net.send(Cycle(0), &local);
        let t_remote = net.send(Cycle(0), &remote);
        assert!(t_local < t_remote);
    }

    #[test]
    fn save_restore_round_trips_links_stats_and_injector() {
        let mk = || {
            let mut net = Network::new(9, 32, NetworkConfig::default());
            net.set_injector(SeededInjector::new(ChaosConfig {
                seed: 77,
                jitter: 30,
                jitter_prob: 0.5,
                ..ChaosConfig::default()
            }));
            net
        };
        let mut net = mk();
        for i in 0..40u64 {
            let m = Message::new(
                NodeId((i % 9) as u16),
                NodeId(((i * 5 + 3) % 9) as u16),
                Payload::Skip { tid: Tid(i) },
            );
            net.send(Cycle(i * 2), &m);
        }
        let mut w = SnapWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = mk();
        let mut r = SnapReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        let mut w2 = SnapWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Post-restore sends see identical contention and chaos.
        for i in 40..60u64 {
            let m = Message::new(NodeId(0), NodeId(8), Payload::Skip { tid: Tid(i) });
            assert_eq!(net.send(Cycle(i), &m), restored.send(Cycle(i), &m));
        }
        assert_eq!(net.stats().total_bytes(), restored.stats().total_bytes());

        // A snapshot with an injector cannot restore into a network
        // without one.
        let mut plain = Network::new(9, 32, NetworkConfig::default());
        let mut r = SnapReader::new(&bytes);
        assert!(plain.restore_state(&mut r).is_err());
    }
}
