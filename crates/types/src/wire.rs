//! Wire envelope for the reliable transport layer.
//!
//! The simulated mesh delivers every message exactly once and, per
//! directed channel, in order. When the chaos subsystem is allowed to
//! drop, duplicate, or reorder traffic, the protocol layer can no longer
//! lean on that guarantee: every [`Message`] is instead wrapped in a
//! [`Frame`] carrying a per-(src,dst)-channel sequence number and a
//! cumulative acknowledgement, and `tcc-network`'s transport state
//! machine restores exactly-once in-order delivery on top (see
//! `crates/network/src/transport.rs` and DESIGN.md §9).
//!
//! Two frame shapes exist on the wire:
//!
//! * [`Frame::Data`] — a protocol message plus its channel sequence
//!   number and a piggybacked cumulative ack for the reverse channel.
//! * [`Frame::Ack`] — a standalone cumulative ack, emitted when no
//!   reverse traffic shows up to piggyback on within the ack delay.
//!
//! Envelope overhead is accounted like every other header field:
//! [`SEQ_BYTES`] + [`ACK_BYTES`] on top of the inner message for data
//! frames, a bare header plus [`ACK_BYTES`] for standalone acks.

use crate::ids::NodeId;
use crate::msg::{Message, TrafficCategory, ACK_KIND, HEADER_BYTES, KIND_NAMES};

/// On-wire bytes for a channel sequence number.
pub const SEQ_BYTES: u32 = 8;
/// On-wire bytes for a cumulative acknowledgement field.
pub const ACK_BYTES: u32 = 8;

/// One transport-layer frame on the unreliable wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A protocol message, sequenced on its (src,dst) channel.
    Data {
        /// Channel sequence number (0-based, one stream per directed
        /// (src,dst) pair; multicast copies of one logical send carry
        /// distinct per-destination sequence numbers).
        seq: u64,
        /// Cumulative ack for the *reverse* (dst→src) channel: the
        /// receiver's next expected sequence number, i.e. everything
        /// below it has been delivered in order.
        ack: u64,
        /// The enveloped protocol message (its `src`/`dst` are the
        /// channel ends).
        msg: Message,
    },
    /// A standalone cumulative ack from `src` to `dst`, acknowledging
    /// the `dst → src` data channel.
    Ack {
        /// The acknowledging node (the data channel's receiver).
        src: NodeId,
        /// The node being acked (the data channel's sender).
        dst: NodeId,
        /// Next expected sequence number on the `dst → src` channel.
        ack: u64,
    },
}

impl Frame {
    /// Source node of this frame on the wire.
    #[must_use]
    pub fn src(&self) -> NodeId {
        match self {
            Frame::Data { msg, .. } => msg.src,
            Frame::Ack { src, .. } => *src,
        }
    }

    /// Destination node of this frame on the wire.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        match self {
            Frame::Data { msg, .. } => msg.dst,
            Frame::Ack { dst, .. } => *dst,
        }
    }

    /// Message kind carried, for kind-targeted fault rules and traffic
    /// breakdowns. Standalone acks report `"Ack"`.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Kind index of the carried message ([`KIND_NAMES`]);
    /// standalone acks report [`ACK_KIND`].
    #[must_use]
    pub fn kind_index(&self) -> usize {
        match self {
            Frame::Data { msg, .. } => msg.payload.kind_index(),
            Frame::Ack { .. } => ACK_KIND,
        }
    }

    /// Figure 9 traffic category the frame's bytes are charged to.
    /// Standalone acks are pure protocol overhead.
    #[must_use]
    pub fn category(&self) -> TrafficCategory {
        match self {
            Frame::Data { msg, .. } => msg.payload.category(),
            Frame::Ack { .. } => TrafficCategory::Overhead,
        }
    }

    /// On-wire size: the inner message plus envelope fields for data
    /// frames, header plus ack field for standalone acks.
    #[must_use]
    pub fn size_bytes(&self, line_bytes: u32) -> u32 {
        match self {
            Frame::Data { msg, .. } => msg.size_bytes(line_bytes) + SEQ_BYTES + ACK_BYTES,
            Frame::Ack { .. } => HEADER_BYTES + ACK_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tid;
    use crate::msg::Payload;

    fn msg() -> Message {
        Message::new(NodeId(1), NodeId(2), Payload::Skip { tid: Tid(7) })
    }

    #[test]
    fn data_frames_charge_envelope_overhead_on_top_of_the_message() {
        let m = msg();
        let f = Frame::Data {
            seq: 3,
            ack: 1,
            msg: m.clone(),
        };
        assert_eq!(f.size_bytes(32), m.size_bytes(32) + SEQ_BYTES + ACK_BYTES);
        assert_eq!(f.src(), NodeId(1));
        assert_eq!(f.dst(), NodeId(2));
        assert_eq!(f.kind_name(), "Skip");
        assert_eq!(f.category(), m.payload.category());
    }

    #[test]
    fn standalone_acks_are_small_overhead_frames() {
        let f = Frame::Ack {
            src: NodeId(2),
            dst: NodeId(1),
            ack: 4,
        };
        assert_eq!(f.size_bytes(32), HEADER_BYTES + ACK_BYTES);
        assert_eq!(f.kind_name(), "Ack");
        assert_eq!(f.category(), TrafficCategory::Overhead);
        assert_eq!(f.src(), NodeId(2));
        assert_eq!(f.dst(), NodeId(1));
    }
}
