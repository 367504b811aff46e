//! TAPE-style conflict profiling.
//!
//! §3.3 of the paper points the programmer at TAPE (the TCC profiling
//! environment) for diagnosing rare pathologies — persistent violations
//! and starvation. This module is that environment for the simulator:
//! with [`crate::SystemConfig::profile`] enabled, every violation and
//! every starvation (serialized-retry) event is recorded with its
//! location and cost, and [`ProfileReport`] aggregates them into the
//! views a programmer would act on: *which lines* cause conflicts,
//! *who* loses work to whom, and *which transactions* starved.

use std::collections::HashMap;
use std::fmt;

use tcc_types::{snap_fields, Cycle, LineAddr, NodeId, Tid, WordMask};

/// One recorded violation: `victim`'s transaction attempt was rolled
/// back by `committer_tid`'s commit to `line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationEvent {
    /// The processor whose attempt was rolled back.
    pub victim: NodeId,
    /// The conflicting line.
    pub line: LineAddr,
    /// The committed words that intersected the victim's read-set.
    pub words: WordMask,
    /// The committing transaction that won.
    pub committer_tid: Tid,
    /// Cycles of work the victim lost (attempt start → violation).
    pub wasted_cycles: u64,
    /// When the violation happened.
    pub at: Cycle,
}

/// One starvation event: a transaction crossed the violation threshold
/// and re-executed in serialized (early-TID) mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarvationEvent {
    /// The starving processor.
    pub proc: NodeId,
    /// Consecutive violations the transaction had suffered.
    pub violations: u32,
    /// Whether the trigger was a speculative-buffer overflow rather
    /// than contention.
    pub overflow: bool,
    /// When serialized mode was entered.
    pub at: Cycle,
}

snap_fields!(ViolationEvent {
    victim,
    line,
    words,
    committer_tid,
    wasted_cycles,
    at,
});

snap_fields!(StarvationEvent {
    proc,
    violations,
    overflow,
    at,
});

/// Aggregated per-line conflict statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineConflicts {
    /// Violations this line caused.
    pub violations: u64,
    /// Total cycles of rolled-back work attributable to it.
    pub wasted_cycles: u64,
}

/// The profiling output of one simulation.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Every violation, in occurrence order.
    pub violations: Vec<ViolationEvent>,
    /// Every starvation (serialized-retry) event.
    pub starvation: Vec<StarvationEvent>,
}

impl ProfileReport {
    /// Total rolled-back cycles across the run.
    #[must_use]
    pub fn total_wasted_cycles(&self) -> u64 {
        self.violations.iter().map(|v| v.wasted_cycles).sum()
    }

    /// The `k` most conflict-prone lines, most wasteful first — the
    /// "where should I restructure my data?" view.
    #[must_use]
    pub fn top_lines(&self, k: usize) -> Vec<(LineAddr, LineConflicts)> {
        let mut per_line: HashMap<LineAddr, LineConflicts> = HashMap::new();
        for v in &self.violations {
            let e = per_line.entry(v.line).or_default();
            e.violations += 1;
            e.wasted_cycles += v.wasted_cycles;
        }
        let mut out: Vec<_> = per_line.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.wasted_cycles
                .cmp(&a.1.wasted_cycles)
                .then(a.0 .0.cmp(&b.0 .0))
        });
        out.truncate(k);
        out
    }

    /// Violations suffered per processor — the load-imbalance view
    /// (the paper notes Cluster GA's violations are unevenly
    /// distributed at low processor counts).
    #[must_use]
    pub fn per_victim(&self) -> Vec<(NodeId, u64)> {
        let mut per: HashMap<NodeId, u64> = HashMap::new();
        for v in &self.violations {
            *per.entry(v.victim).or_default() += 1;
        }
        let mut out: Vec<_> = per.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TAPE profile: {} violations, {} cycles rolled back, {} starvation events",
            self.violations.len(),
            self.total_wasted_cycles(),
            self.starvation.len()
        )?;
        writeln!(f, "top conflict lines:")?;
        for (line, c) in self.top_lines(8) {
            writeln!(
                f,
                "  {line}: {} violations, {} wasted cycles",
                c.violations, c.wasted_cycles
            )?;
        }
        writeln!(f, "violations per processor:")?;
        for (p, n) in self.per_victim() {
            writeln!(f, "  {p}: {n}")?;
        }
        for s in &self.starvation {
            writeln!(
                f,
                "  starvation: {} after {} violations{} {}",
                s.proc,
                s.violations,
                if s.overflow { " (overflow)" } else { "" },
                s.at
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(victim: u16, line: u64, wasted: u64) -> ViolationEvent {
        ViolationEvent {
            victim: NodeId(victim),
            line: LineAddr(line),
            words: WordMask::single(0),
            committer_tid: Tid(0),
            wasted_cycles: wasted,
            at: Cycle(0),
        }
    }

    #[test]
    fn top_lines_ranks_by_wasted_cycles() {
        let r = ProfileReport {
            violations: vec![ev(0, 5, 100), ev(1, 5, 50), ev(0, 9, 400)],
            starvation: vec![],
        };
        let top = r.top_lines(2);
        assert_eq!(top[0].0, LineAddr(9));
        assert_eq!(top[0].1.wasted_cycles, 400);
        assert_eq!(top[1].0, LineAddr(5));
        assert_eq!(top[1].1.violations, 2);
        assert_eq!(r.total_wasted_cycles(), 550);
    }

    #[test]
    fn per_victim_counts() {
        let r = ProfileReport {
            violations: vec![ev(3, 1, 1), ev(3, 2, 1), ev(1, 1, 1)],
            starvation: vec![],
        };
        assert_eq!(r.per_victim(), vec![(NodeId(3), 2), (NodeId(1), 1)]);
    }

    #[test]
    fn display_is_nonempty() {
        let r = ProfileReport {
            violations: vec![ev(0, 1, 10)],
            starvation: vec![StarvationEvent {
                proc: NodeId(0),
                violations: 8,
                overflow: false,
                at: Cycle(99),
            }],
        };
        let s = r.to_string();
        assert!(s.contains("TAPE profile"));
        assert!(s.contains("starvation"));
    }
}
