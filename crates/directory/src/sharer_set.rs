//! Full-bit-vector sharer sets (Table 2: "Full-bit vector sharer list").

use std::fmt;

use tcc_types::{snap_fields, NodeId};

/// A set of nodes, stored as a full bit vector.
///
/// Table 2 of the paper specifies a full-bit-vector sharer list per
/// directory entry. One `u128` word covers machines of up to 128 nodes —
/// double the paper's largest configuration (64).
///
/// # Example
///
/// ```
/// use tcc_directory::SharerSet;
/// use tcc_types::NodeId;
///
/// let mut s = SharerSet::new();
/// s.insert(NodeId(3));
/// s.insert(NodeId(7));
/// assert!(s.contains(NodeId(3)));
/// s.remove(NodeId(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(7)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SharerSet(u128);

snap_fields!(SharerSet { 0 });

impl SharerSet {
    /// Maximum number of nodes representable.
    pub const MAX_NODES: usize = 128;

    /// An empty set.
    #[must_use]
    pub fn new() -> SharerSet {
        SharerSet(0)
    }

    fn bit(n: NodeId) -> u128 {
        assert!(
            n.index() < Self::MAX_NODES,
            "node {n} exceeds the {}-node sharer vector",
            Self::MAX_NODES
        );
        1u128 << n.index()
    }

    /// Adds `n` to the set.
    pub fn insert(&mut self, n: NodeId) {
        self.0 |= Self::bit(n);
    }

    /// Removes `n` from the set.
    pub fn remove(&mut self, n: NodeId) {
        self.0 &= !Self::bit(n);
    }

    /// Whether `n` is in the set.
    #[must_use]
    pub fn contains(self, n: NodeId) -> bool {
        self.0 & Self::bit(n) != 0
    }

    /// Number of nodes in the set.
    #[must_use]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True if the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in ascending node order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0..Self::MAX_NODES as u16)
            .map(NodeId)
            .filter(move |n| self.0 & (1u128 << n.index()) != 0)
    }

    /// Removes and returns all members except `keep`.
    pub fn drain_except(&mut self, keep: NodeId) -> Vec<NodeId> {
        let out: Vec<NodeId> = self.iter().filter(|&n| n != keep).collect();
        self.0 &= Self::bit(keep);
        out
    }

    /// Whether any member other than `n` is present.
    #[must_use]
    pub fn any_other_than(self, n: NodeId) -> bool {
        self.0 & !Self::bit(n) != 0
    }

    /// The raw bit vector, for checkpointing.
    #[must_use]
    pub fn bits(self) -> u128 {
        self.0
    }

    /// Rebuilds a set from its raw bit vector.
    #[must_use]
    pub fn from_bits(bits: u128) -> SharerSet {
        SharerSet(bits)
    }
}

impl FromIterator<NodeId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> SharerSet {
        let mut s = SharerSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.insert(NodeId(0));
        s.insert(NodeId(63));
        s.insert(NodeId(127));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId(63)));
        s.remove(NodeId(63));
        assert!(!s.contains(NodeId(63)));
        s.remove(NodeId(63)); // idempotent
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_ascends() {
        let s: SharerSet = [NodeId(9), NodeId(2), NodeId(40)].into_iter().collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(9), NodeId(40)]
        );
    }

    #[test]
    fn drain_except_keeps_only_the_survivor() {
        let mut s: SharerSet = [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect();
        let drained = s.drain_except(NodeId(2));
        assert_eq!(drained, vec![NodeId(1), NodeId(3)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(2)]);
        // Draining when the survivor is absent empties the set.
        let mut t: SharerSet = [NodeId(5)].into_iter().collect();
        let drained = t.drain_except(NodeId(9));
        assert_eq!(drained, vec![NodeId(5)]);
        assert!(t.is_empty());
    }

    #[test]
    fn any_other_than_ignores_self() {
        let s: SharerSet = [NodeId(4)].into_iter().collect();
        assert!(!s.any_other_than(NodeId(4)));
        assert!(s.any_other_than(NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_node_panics() {
        let mut s = SharerSet::new();
        s.insert(NodeId(128));
    }

    #[test]
    fn display_lists_members() {
        let s: SharerSet = [NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{P1,P2}");
        assert_eq!(SharerSet::new().to_string(), "{}");
    }
}
