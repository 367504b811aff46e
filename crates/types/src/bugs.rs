//! Debug-only protocol mutation knobs.
//!
//! Each flag here *disables one race-elimination rule* the Scalable TCC
//! protocol needs on an unordered interconnect (§3.3 of the paper).
//! They exist solely so the chaos subsystem (`tcc-chaos`) can prove it
//! has teeth: with any knob set, the schedule explorer must find a
//! serializability violation (or a crash/lost-update) within a bounded
//! seed budget. Production configurations always use
//! [`ProtocolBugs::default()`] — all rules enforced.

use crate::protocol::ProtocolKind;

/// Declares [`ProtocolBugs`] from one list: each knob's doc comment,
/// its field name (which is also its catalog name), and the backends it
/// applies to. The struct's field order is the list order, and
/// `SystemConfig::digest()` hashes the struct's `Debug` output.
macro_rules! protocol_bugs {
    ($($(#[doc = $doc:literal])* $knob:ident: [$($backend:ident),+],)+) => {
        /// Switches that individually disable known race-elimination rules.
        ///
        /// All `false` (the default) means the protocol is correct. Setting any
        /// flag re-introduces a race the paper's design closes; the simulator
        /// still *runs*, but the serializability checker (or a quiescence
        /// assert) should eventually catch the fallout under an adversarial
        /// schedule.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ProtocolBugs {
            $($(#[doc = $doc])* pub $knob: bool,)+
        }

        impl ProtocolBugs {
            /// Each knob's catalog name, whether it is set, and the
            /// backends it applies to, in declaration order.
            fn knobs(&self) -> impl Iterator<Item = (&'static str, bool, &'static [ProtocolKind])> {
                [$((
                    stringify!($knob),
                    self.$knob,
                    &[$(ProtocolKind::$backend),+] as &'static [ProtocolKind],
                )),+]
                .into_iter()
            }

            /// Every single-knob mutant, with a stable machine-readable name.
            /// The chaos mutation self-test iterates this catalog.
            #[must_use]
            pub fn catalog() -> Vec<(&'static str, ProtocolBugs)> {
                vec![$((stringify!($knob), ProtocolBugs { $knob: true, ..ProtocolBugs::default() })),+]
            }

            /// The dotted `SystemConfig` path (`bugs.` and the name) of the
            /// knob with the given catalog name.
            #[must_use]
            pub fn config_path(name: &str) -> Option<&'static str> {
                match name {
                    $(stringify!($knob) => Some(concat!("bugs.", stringify!($knob))),)+
                    _ => None,
                }
            }

            /// Set the knob with the given catalog name. Returns `false` for an
            /// unknown name (the caller decides whether that is an error).
            pub fn set_by_name(&mut self, name: &str) -> bool {
                match name {
                    $(stringify!($knob) => self.$knob = true,)+
                    _ => return false,
                }
                true
            }
        }
    };
}

protocol_bugs! {
    /// Advance the NSTID / finish the commit immediately after fanning
    /// out invalidations, without waiting for the invalidation acks.
    /// Breaks the §3.3 rule that the next transaction must not read a
    /// line whose invalidations are still in flight.
    skip_ack_wait: [Tcc],

    /// Tag write-backs with the *latest* TID the processor has seen
    /// instead of the generation (`owner_tid`) recorded when the line
    /// was claimed. Breaks the TID-tagged write-back rule that lets the
    /// directory drop superseded flushes from stale owners.
    writeback_latest_tid: [Tcc],

    /// Serve loads for a line even while it sits inside a committer's
    /// invalidation-ack window (the "commit-locked" stall in the
    /// directory). Breaks the load/invalidate race elimination: a
    /// reader can fetch pre-commit data after the commit serialized.
    unlocked_window_loads: [Tcc],

    /// Accept any load reply that matches the requested *line*, even if
    /// its request id shows it was superseded by an invalidation while
    /// in flight. Breaks the request-id supersede rule; the processor
    /// can install (and read) stale pre-commit data.
    accept_stale_fills: [Tcc],

    /// Disable the reliable transport's receiver-side duplicate filter:
    /// frames whose sequence number was already delivered are handed to
    /// the protocol again instead of being dropped and re-acked. Under
    /// a duplicating wire, exactly-once delivery is lost — duplicated
    /// Mark/InvAck/Commit messages double-count at the directory.
    transport_no_dedup: [Tcc, SerializedCommit, Tardis],

    /// Disable the reliable transport's receiver-side reorder window:
    /// out-of-order frames are delivered immediately (and the gap they
    /// skipped is cumulatively acked away, so the sender stops
    /// retransmitting it). Under a lossy/reordering wire, per-channel
    /// FIFO delivery is lost and skipped-over messages vanish.
    transport_no_reorder: [Tcc, SerializedCommit, Tardis],
}

impl ProtocolBugs {
    /// `true` when any mutation knob is set.
    #[must_use]
    pub fn any(&self) -> bool {
        self.knobs().any(|(_, set, _)| set)
    }

    /// Names of the set knobs that do **not** apply to the given
    /// protocol backend, in catalog order.
    ///
    /// The Scalable TCC commit-protocol knobs name only `Tcc`: the
    /// serialized-commit and Tardis machines have no such rules, so
    /// those knobs would silently no-op there. The transport knobs
    /// mutate the protocol-agnostic reliable transport and name every
    /// backend. `SystemConfig::validate` refuses any name returned
    /// here instead of letting a chaos-grid cell run a mutant that
    /// cannot bite.
    #[must_use]
    pub fn inapplicable_names(&self, protocol: ProtocolKind) -> Vec<&'static str> {
        self.knobs()
            .filter(|(_, set, backends)| *set && !backends.contains(&protocol))
            .map(|(name, _, _)| name)
            .collect()
    }

    /// Names of the knobs that are set, in catalog order.
    #[must_use]
    pub fn enabled_names(&self) -> Vec<&'static str> {
        self.knobs()
            .filter(|(_, set, _)| *set)
            .map(|(name, _, _)| name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        let bugs = ProtocolBugs::default();
        assert!(!bugs.any());
        assert!(bugs.enabled_names().is_empty());
    }

    #[test]
    fn catalog_names_round_trip() {
        for (name, bugs) in ProtocolBugs::catalog() {
            assert!(bugs.any());
            assert_eq!(bugs.enabled_names(), vec![name]);
            let mut rebuilt = ProtocolBugs::default();
            assert!(rebuilt.set_by_name(name));
            assert_eq!(rebuilt, bugs);
        }
        let mut b = ProtocolBugs::default();
        assert!(!b.set_by_name("no_such_knob"));
        assert!(!b.any());
    }

    #[test]
    fn catalog_names_are_pinned() {
        let names: Vec<_> = ProtocolBugs::catalog()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            [
                "skip_ack_wait",
                "writeback_latest_tid",
                "unlocked_window_loads",
                "accept_stale_fills",
                "transport_no_dedup",
                "transport_no_reorder",
            ]
        );
    }

    /// The four commit-protocol knobs apply to TCC only; the two
    /// transport knobs apply to every backend.
    #[test]
    fn inapplicable_names_match_each_knobs_backends() {
        use ProtocolKind::{SerializedCommit, Tardis, Tcc};
        let expected: [(&str, &[ProtocolKind]); 6] = [
            ("skip_ack_wait", &[SerializedCommit, Tardis]),
            ("writeback_latest_tid", &[SerializedCommit, Tardis]),
            ("unlocked_window_loads", &[SerializedCommit, Tardis]),
            ("accept_stale_fills", &[SerializedCommit, Tardis]),
            ("transport_no_dedup", &[]),
            ("transport_no_reorder", &[]),
        ];
        let catalog = ProtocolBugs::catalog();
        assert_eq!(catalog.len(), expected.len());
        for ((name, bugs), (knob, refused_on)) in catalog.iter().zip(expected) {
            assert_eq!(*name, knob);
            for protocol in [Tcc, SerializedCommit, Tardis] {
                let want: Vec<&str> = if refused_on.contains(&protocol) {
                    vec![knob]
                } else {
                    Vec::new()
                };
                assert_eq!(
                    bugs.inapplicable_names(protocol),
                    want,
                    "{knob} on {protocol}"
                );
            }
        }
        let mut all = ProtocolBugs::default();
        for (name, _) in &catalog {
            all.set_by_name(name);
        }
        assert_eq!(all.inapplicable_names(Tcc), Vec::<&str>::new());
        assert_eq!(
            all.inapplicable_names(Tardis),
            [
                "skip_ack_wait",
                "writeback_latest_tid",
                "unlocked_window_loads",
                "accept_stale_fills",
            ]
        );
    }
}
