//! Remote-traffic accounting in the categories of Figure 9.

use tcc_types::msg::{kind_index_of, KIND_NAMES, N_KINDS};
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{NodeId, TrafficCategory};

/// Number of traffic categories (see [`TrafficCategory::ALL`]).
const N_CATS: usize = 5;

fn cat_index(c: TrafficCategory) -> usize {
    match c {
        TrafficCategory::Overhead => 0,
        TrafficCategory::Miss => 1,
        TrafficCategory::WriteBack => 2,
        TrafficCategory::Commit => 3,
        TrafficCategory::Shared => 4,
    }
}

/// Accumulated remote-traffic statistics.
///
/// Figure 9 of the paper reports "the traffic produced and consumed on
/// average at each directory … in terms of bytes per instruction". We
/// record, per node, the bytes it *received*, broken down by
/// [`TrafficCategory`]; global totals and message counts are kept as
/// well. Bytes-per-instruction normalization happens in `tcc-stats`,
/// which knows the instruction counts.
#[derive(Debug, Clone)]
pub struct TrafficStats {
    /// `received[node][category]` = bytes delivered to `node`.
    received: Vec<[u64; N_CATS]>,
    /// Global message count per category.
    messages: [u64; N_CATS],
    /// Census: remote message count per protocol message kind (the
    /// Table 1 vocabulary plus replies/acks), by kind index.
    by_kind: [u64; N_KINDS],
    /// Total messages timed (including local ones is the caller's
    /// choice; [`crate::Network`] only records remote messages here).
    total_messages: u64,
}

impl TrafficStats {
    /// Creates zeroed statistics for an `n_nodes` machine.
    #[must_use]
    pub fn new(n_nodes: usize) -> TrafficStats {
        TrafficStats {
            received: vec![[0; N_CATS]; n_nodes],
            messages: [0; N_CATS],
            by_kind: [0; N_KINDS],
            total_messages: 0,
        }
    }

    /// Records one `size`-byte message from `_src` delivered to `dst`.
    pub fn record(&mut self, _src: NodeId, dst: NodeId, cat: TrafficCategory, size: u32) {
        let i = cat_index(cat);
        self.received[dst.index()][i] += u64::from(size);
        self.messages[i] += 1;
        self.total_messages += 1;
    }

    /// Records one message of kind index `kind`
    /// ([`tcc_types::Payload::kind_index`]) in the per-kind census
    /// (call alongside [`TrafficStats::record`]).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not below [`N_KINDS`].
    pub fn record_kind(&mut self, kind: usize) {
        self.by_kind[kind] += 1;
    }

    /// The remote-message census: `(message kind, count)` for every
    /// kind seen, in alphabetical order.
    #[must_use]
    pub fn message_census(&self) -> Vec<(&'static str, u64)> {
        let mut census: Vec<(&'static str, u64)> = KIND_NAMES
            .iter()
            .zip(self.by_kind)
            .filter(|&(_, n)| n > 0)
            .map(|(&k, n)| (k, n))
            .collect();
        census.sort_unstable();
        census
    }

    /// Total bytes delivered across the whole machine.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.received.iter().flatten().sum()
    }

    /// Total bytes delivered in one category.
    #[must_use]
    pub fn bytes_in_category(&self, cat: TrafficCategory) -> u64 {
        let i = cat_index(cat);
        self.received.iter().map(|r| r[i]).sum()
    }

    /// Bytes delivered to one node in one category.
    #[must_use]
    pub fn bytes_at(&self, node: NodeId, cat: TrafficCategory) -> u64 {
        self.received[node.index()][cat_index(cat)]
    }

    /// Number of remote messages in one category.
    #[must_use]
    pub fn messages_in_category(&self, cat: TrafficCategory) -> u64 {
        self.messages[cat_index(cat)]
    }

    /// Total number of remote messages.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Average bytes per node in one category (the Figure 9 y-axis
    /// numerator).
    #[must_use]
    pub fn avg_bytes_per_node(&self, cat: TrafficCategory) -> f64 {
        if self.received.is_empty() {
            return 0.0;
        }
        self.bytes_in_category(cat) as f64 / self.received.len() as f64
    }

    /// Serializes the accumulated counters for a checkpoint. Not a
    /// `Snap` impl because the per-kind census is stored by kind name,
    /// in alphabetical order, and restore maps the names back to kind
    /// indices.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.received);
        w.put(&self.messages);
        let census = self.message_census().into_iter();
        let census: Vec<(String, u64)> = census.map(|(k, n)| (k.to_string(), n)).collect();
        w.put(&census);
        w.put(&self.total_messages);
    }

    /// Restores counters from a checkpoint taken on a same-sized
    /// machine.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let received: Vec<[u64; N_CATS]> = r.get()?;
        if received.len() != self.received.len() {
            return Err(SnapError::invalid(
                "TrafficStats.received",
                format!(
                    "snapshot has {} nodes, machine has {}",
                    received.len(),
                    self.received.len()
                ),
            ));
        }
        self.received = received;
        self.messages = r.get()?;
        self.by_kind = [0; N_KINDS];
        for (name, count) in r.get::<Vec<(String, u64)>>()? {
            let kind = kind_index_of(&name).ok_or_else(|| {
                SnapError::invalid("TrafficStats.by_kind", format!("unknown kind {name:?}"))
            })?;
            self.by_kind[kind] = count;
        }
        self.total_messages = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_by_node_and_category() {
        let mut s = TrafficStats::new(4);
        s.record(NodeId(0), NodeId(1), TrafficCategory::Miss, 40);
        s.record(NodeId(2), NodeId(1), TrafficCategory::Miss, 40);
        s.record(NodeId(0), NodeId(3), TrafficCategory::Commit, 16);
        assert_eq!(s.total_bytes(), 96);
        assert_eq!(s.bytes_in_category(TrafficCategory::Miss), 80);
        assert_eq!(s.bytes_at(NodeId(1), TrafficCategory::Miss), 80);
        assert_eq!(s.bytes_at(NodeId(3), TrafficCategory::Commit), 16);
        assert_eq!(s.bytes_at(NodeId(3), TrafficCategory::Miss), 0);
        assert_eq!(s.messages_in_category(TrafficCategory::Miss), 2);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn averages_divide_by_node_count() {
        let mut s = TrafficStats::new(4);
        s.record(NodeId(0), NodeId(1), TrafficCategory::Shared, 100);
        assert_eq!(s.avg_bytes_per_node(TrafficCategory::Shared), 25.0);
        assert_eq!(s.avg_bytes_per_node(TrafficCategory::Miss), 0.0);
    }

    #[test]
    fn census_is_alphabetical_and_survives_a_checkpoint() {
        let mut s = TrafficStats::new(1);
        for name in ["Probe", "Ack", "Probe", "LoadRequest"] {
            s.record_kind(kind_index_of(name).unwrap());
        }
        let census = vec![("Ack", 1), ("LoadRequest", 1), ("Probe", 2)];
        assert_eq!(s.message_census(), census);
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = TrafficStats::new(1);
        back.restore_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.message_census(), census);
    }

    #[test]
    fn all_categories_are_distinct_buckets() {
        let mut s = TrafficStats::new(1);
        for (i, c) in TrafficCategory::ALL.iter().enumerate() {
            s.record(NodeId(0), NodeId(0), *c, (i as u32 + 1) * 10);
        }
        for (i, c) in TrafficCategory::ALL.iter().enumerate() {
            assert_eq!(s.bytes_in_category(*c), (i as u64 + 1) * 10);
        }
    }
}
