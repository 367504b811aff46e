//! Coherence/commit protocol backend selection.
//!
//! The simulator runs one of several interchangeable protocol machines
//! (the `Machine` enum inside `tcc-core`). This enum is the
//! configuration-level name of a backend; it lives in `tcc-types` so
//! the directory, chaos, and bench crates can refer to a backend
//! without depending on the simulator crate.

/// Which protocol machine drives the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ProtocolKind {
    /// Scalable TCC (the paper's directory-based non-blocking commit).
    #[default]
    Tcc,
    /// The small-scale TCC baseline: commits serialize through a global
    /// token and broadcast write-through updates (§2.2 of the paper).
    SerializedCommit,
    /// Tardis-style timestamp-ordered coherence: per-line logical
    /// write/read timestamps, lease-based reads, and timestamp bumps in
    /// place of invalidation multicasts.
    Tardis,
}

impl ProtocolKind {
    /// Every selectable backend, in sweep order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Tcc,
        ProtocolKind::SerializedCommit,
        ProtocolKind::Tardis,
    ];

    /// Stable machine-readable name (CLI flags, JSON reports, CI gates).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolKind::Tcc => "tcc",
            ProtocolKind::SerializedCommit => "serialized",
            ProtocolKind::Tardis => "tardis",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ProtocolKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcc" => Ok(ProtocolKind::Tcc),
            "serialized" => Ok(ProtocolKind::SerializedCommit),
            "tardis" => Ok(ProtocolKind::Tardis),
            other => Err(format!(
                "unknown protocol `{other}` (expected tcc, serialized, or tardis)"
            )),
        }
    }
}

// The snapshot tag is the declaration position; restore refuses a body
// whose tag disagrees with the configured backend.
crate::snap_variants!(ProtocolKind {
    Tcc,
    SerializedCommit,
    Tardis,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.as_str().parse::<ProtocolKind>().unwrap(), kind);
        }
        assert!("paxos".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn snapshot_tags_are_pinned() {
        use crate::snap::{SnapReader, SnapWriter};
        for (tag, kind) in ProtocolKind::ALL.into_iter().enumerate() {
            let mut w = SnapWriter::new();
            w.put(&kind);
            assert_eq!(w.into_bytes(), [tag as u8]);
            assert_eq!(
                SnapReader::new(&[tag as u8]).get::<ProtocolKind>(),
                Ok(kind)
            );
        }
        assert!(SnapReader::new(&[9]).get::<ProtocolKind>().is_err());
    }

    #[test]
    fn default_is_tcc() {
        assert_eq!(ProtocolKind::default(), ProtocolKind::Tcc);
    }
}
