//! The machine's worker count, kept only for the benchmark's host
//! report.
//!
//! Fan-outs (`tcc-bench`'s `par_map`, the chaos explorer's
//! `run_scenarios`) no longer nest, so each caps its threads at
//! [`std::thread::available_parallelism`] directly. `tccbench` still
//! reads [`WorkerBudget::global`]`().total()`; this type goes with the
//! benchmark change that drops that call.

use std::sync::OnceLock;
use std::thread;

/// The number of threads the machine offers.
#[derive(Debug, Clone, Copy)]
pub struct WorkerBudget {
    total: usize,
}

impl WorkerBudget {
    /// The process-wide budget, sized to the machine's available
    /// parallelism (at least 1).
    pub fn global() -> &'static WorkerBudget {
        static GLOBAL: OnceLock<WorkerBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerBudget {
            total: thread::available_parallelism().map_or(1, usize::from),
        })
    }

    /// Maximum concurrent threads this budget allows.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_budget_matches_machine() {
        let g = WorkerBudget::global();
        assert!(g.total() >= 1);
    }
}
