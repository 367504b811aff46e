//! Failure-case minimization.
//!
//! Greedy delta-debugging over a failing [`Scenario`]'s two axes:
//!
//! * **Program axis** — drop whole threads, then whole transactions,
//!   then individual operations.
//! * **Perturbation axis** — remove the chaos config outright, then
//!   individual delay/drop/duplicate rules and hot spots, then reorder
//!   and latency jitter, then the tie-break salt.
//!
//! A candidate is accepted if it *still fails* (any failure class —
//! the shrunk repro may fail differently from the original, which is
//! fine: any failing case is a bug witness). Passes repeat until a
//! fixpoint or the run budget is exhausted. Every candidate execution
//! is a full simulator run, so the budget bounds shrinking time.

use tcc_network::ChaosConfig;

use crate::scenario::Scenario;

/// Accounting for one shrink session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate runs executed.
    pub attempts: u64,
    /// Candidates accepted (each one strictly shrank the scenario).
    pub accepted: u64,
}

/// Minimizes `scenario` (which must fail) within `max_attempts`
/// candidate runs. Returns the smallest still-failing scenario found
/// and the session stats.
#[must_use]
pub fn shrink(scenario: &Scenario, max_attempts: u64) -> (Scenario, ShrinkStats) {
    let mut best = scenario.clone();
    let mut stats = ShrinkStats::default();
    debug_assert!(
        best.run().failure.is_some(),
        "shrink requires a failing scenario"
    );
    loop {
        let mut improved = false;
        let candidates = candidate_passes(&best);
        for candidate in candidates {
            if stats.attempts >= max_attempts {
                best.name = format!("{}-shrunk", scenario.name);
                return (best, stats);
            }
            stats.attempts += 1;
            if candidate.run().failure.is_some() {
                stats.accepted += 1;
                best = candidate;
                improved = true;
                break; // restart passes from the smaller scenario
            }
        }
        if !improved {
            break;
        }
    }
    best.name = format!("{}-shrunk", scenario.name);
    (best, stats)
}

/// All one-step-smaller candidates of `s`, most aggressive first
/// (whole-axis removals before single-item removals, so lucky accepts
/// shrink fast).
fn candidate_passes(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut candidate = |edit: &dyn Fn(&mut Scenario)| {
        let mut c = s.clone();
        edit(&mut c);
        out.push(c);
    };
    // Chaos axis, most aggressive first: no chaos at all.
    if s.chaos.is_some() {
        candidate(&|c| c.chaos = None);
    }
    if s.tie_break_seed.is_some() {
        candidate(&|c| c.tie_break_seed = None);
    }
    // Program axis: drop a whole thread (keep at least one).
    if s.threads.len() > 1 {
        for t in 0..s.threads.len() {
            candidate(&|c| _ = c.threads.remove(t));
        }
    }
    // Drop one transaction.
    for (t, txs) in s.threads.iter().enumerate() {
        for tx in 0..txs.len() {
            candidate(&|c| _ = c.threads[t].remove(tx));
        }
    }
    // Drop one operation (empty transactions are legal: they commit
    // trivially and often shrink away on the next pass).
    for (t, txs) in s.threads.iter().enumerate() {
        for (tx, ops) in txs.iter().enumerate() {
            for op in 0..ops.len() {
                candidate(&|c| _ = c.threads[t][tx].remove(op));
            }
        }
    }
    // Relax perturbations one rule at a time; wire faults shrink rule
    // by rule, like the latency rules.
    let Some(chaos) = &s.chaos else { return out };
    let mut relax = |edit: &dyn Fn(&mut ChaosConfig)| {
        candidate(&|c| edit(c.chaos.as_mut().expect("chaos is set")));
    };
    for k in 0..chaos.kind_delays.len() {
        relax(&|ch| _ = ch.kind_delays.remove(k));
    }
    for h in 0..chaos.hotspots.len() {
        relax(&|ch| _ = ch.hotspots.remove(h));
    }
    for i in 0..chaos.drops.len() {
        relax(&|ch| _ = ch.drops.remove(i));
    }
    for i in 0..chaos.dups.len() {
        relax(&|ch| _ = ch.dups.remove(i));
    }
    if chaos.reorder > 0 {
        relax(&|ch| ch.reorder = 0);
    }
    if chaos.jitter > 0 {
        relax(&|ch| ch.jitter = 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::POp;
    use tcc_types::ProtocolBugs;

    /// A mutated protocol failure shrinks while still failing, and the
    /// shrunk scenario is no larger than the original.
    #[test]
    fn shrinks_a_mutated_failure() {
        // Find a failing seed first (skip_ack_wait is the easiest knob
        // to trip), then shrink it.
        let bugs = ProtocolBugs {
            skip_ack_wait: true,
            ..ProtocolBugs::default()
        };
        let grid = crate::explorer::GridSpec::new(0..30, 0..4);
        let mut scenarios = grid.scenarios();
        for s in &mut scenarios {
            s.bugs = bugs;
        }
        let Some((_, failure)) = crate::explorer::seeds_to_first_failure(&scenarios) else {
            panic!("skip_ack_wait must produce a failure in a 120-run budget");
        };
        let original = failure.scenario;
        let (small, stats) = shrink(&original, 400);
        assert!(stats.attempts > 0);
        assert!(
            small.run().failure.is_some(),
            "shrunk repro must still fail"
        );
        assert!(small.ops() <= original.ops());
        assert!(small.transactions() <= original.transactions());
        // The repro must replay from its JSON artifact.
        let replayed = Scenario::from_json_str(&small.to_json_string()).unwrap();
        assert_eq!(replayed, small);
        assert!(replayed.run().failure.is_some());
    }

    #[test]
    fn chaos_free_candidates_strictly_shrink_the_program() {
        let s = Scenario::new(
            "c",
            vec![
                vec![vec![POp::Load(0, 0), POp::Store(1, 1)]],
                vec![vec![POp::Compute(5)]],
            ],
        );
        let candidates = candidate_passes(&s);
        assert!(!candidates.is_empty());
        for c in candidates {
            assert!(
                c.ops() < s.ops()
                    || c.transactions() < s.transactions()
                    || c.threads.len() < s.threads.len(),
                "without chaos, every candidate must shrink the program"
            );
        }
    }
}
