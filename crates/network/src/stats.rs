//! Remote-traffic accounting in the categories of Figure 9.

use tcc_types::msg::{kind_index_of, KIND_NAMES, N_KINDS};
use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::TrafficCategory;

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
/// record the bytes delivered in each [`TrafficCategory`], the message
/// count and a per-kind census. Per-directory averaging and
/// bytes-per-instruction normalization happen in `tcc-stats`, which
/// knows the node and instruction counts.
#[derive(Debug, Clone)]
pub struct TrafficStats {
    /// Bytes delivered per category.
    bytes: [u64; N_CATS],
    /// Census: remote message count per protocol message kind (the
    /// Table 1 vocabulary plus replies/acks), by kind index.
    by_kind: [u64; N_KINDS],
    /// Total messages timed (including local ones is the caller's
    /// choice; [`crate::Network`] only records remote messages here).
    total_messages: u64,
}

impl Default for TrafficStats {
    fn default() -> TrafficStats {
        TrafficStats {
            bytes: [0; N_CATS],
            by_kind: [0; N_KINDS],
            total_messages: 0,
        }
    }
}

impl TrafficStats {
    /// Records one delivered `size`-byte message of category `cat`.
    pub fn record(&mut self, cat: TrafficCategory, size: u32) {
        self.bytes[cat_index(cat)] += u64::from(size);
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
        self.bytes.iter().sum()
    }

    /// Total bytes delivered in one category.
    #[must_use]
    pub fn bytes_in_category(&self, cat: TrafficCategory) -> u64 {
        self.bytes[cat_index(cat)]
    }

    /// Total number of remote messages.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Serializes the accumulated counters for a checkpoint. Not a
    /// `Snap` impl because the per-kind census is stored by kind name,
    /// in alphabetical order, and restore maps the names back to kind
    /// indices.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.bytes);
        let census = self.message_census().into_iter();
        let census: Vec<(String, u64)> = census.map(|(k, n)| (k.to_string(), n)).collect();
        w.put(&census);
        w.put(&self.total_messages);
    }

    /// Restores counters saved by [`TrafficStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated input or an unknown kind name.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.bytes = r.get()?;
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
    fn records_accumulate_by_category() {
        let mut s = TrafficStats::default();
        s.record(TrafficCategory::Miss, 40);
        s.record(TrafficCategory::Miss, 40);
        s.record(TrafficCategory::Commit, 16);
        assert_eq!(s.total_bytes(), 96);
        assert_eq!(s.bytes_in_category(TrafficCategory::Miss), 80);
        assert_eq!(s.bytes_in_category(TrafficCategory::Commit), 16);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn census_is_alphabetical_and_survives_a_checkpoint() {
        let mut s = TrafficStats::default();
        for name in ["Probe", "Ack", "Probe", "LoadRequest"] {
            s.record_kind(kind_index_of(name).unwrap());
        }
        let census = vec![("Ack", 1), ("LoadRequest", 1), ("Probe", 2)];
        assert_eq!(s.message_census(), census);
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = TrafficStats::default();
        back.restore_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.message_census(), census);
    }

    #[test]
    fn all_categories_are_distinct_buckets() {
        let mut s = TrafficStats::default();
        for (i, c) in TrafficCategory::ALL.iter().enumerate() {
            s.record(*c, (i as u32 + 1) * 10);
        }
        for (i, c) in TrafficCategory::ALL.iter().enumerate() {
            assert_eq!(s.bytes_in_category(*c), (i as u64 + 1) * 10);
        }
    }
}
