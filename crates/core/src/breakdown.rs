//! Execution-time breakdown and per-transaction characteristics.

use tcc_types::snap_fields;

/// The five-way cycle attribution used in Figures 6–8 of the paper.
///
/// Every simulated cycle of a processor is attributed to exactly one
/// component; [`Breakdown::total`] therefore equals the processor's
/// wall-clock execution time, an invariant the test suite asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Executing instructions (including cache-hit latency) of
    /// transactions that committed.
    pub useful: u64,
    /// Stalled on cache misses, in transactions that committed.
    pub cache_miss: u64,
    /// Waiting in the validation/commit protocol (TID acquisition,
    /// probes, marks, commit dispatch) of transactions that committed.
    pub commit: u64,
    /// All time spent on transaction attempts that were violated and
    /// rolled back (execution, misses, and commit effort alike).
    pub violation: u64,
    /// Waiting at barriers.
    pub idle: u64,
}

impl Breakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.useful + self.cache_miss + self.commit + self.violation + self.idle
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merged(&self, other: &Breakdown) -> Breakdown {
        Breakdown {
            useful: self.useful + other.useful,
            cache_miss: self.cache_miss + other.cache_miss,
            commit: self.commit + other.commit,
            violation: self.violation + other.violation,
            idle: self.idle + other.idle,
        }
    }
}

snap_fields!(Breakdown {
    useful,
    cache_miss,
    commit,
    violation,
    idle,
});

/// Characteristics of one committed transaction, feeding the Table 3
/// columns (90th-percentile size, read/write-set, ops per word written,
/// directories per commit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxCharacteristics {
    /// Instructions executed by the committed attempt.
    pub instructions: u64,
    /// Unique cache lines read, in bytes (lines × line size).
    pub read_set_bytes: u64,
    /// Unique cache lines written, in bytes.
    pub write_set_bytes: u64,
    /// Unique words written.
    pub words_written: u64,
    /// Directories in the Writing Vector (commit write targets).
    pub dirs_written: u32,
    /// Directories involved in the commit (Writing ∪ Sharing vectors).
    pub dirs_touched: u32,
}

impl TxCharacteristics {
    /// The paper's "operations per word written" ratio; transactions
    /// that wrote nothing report their full instruction count.
    #[must_use]
    pub fn ops_per_word_written(&self) -> f64 {
        if self.words_written == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / self.words_written as f64
        }
    }
}

snap_fields!(TxCharacteristics {
    instructions,
    read_set_bytes,
    write_set_bytes,
    words_written,
    dirs_written,
    dirs_touched,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let b = Breakdown {
            useful: 1,
            cache_miss: 2,
            commit: 3,
            violation: 4,
            idle: 5,
        };
        assert_eq!(b.total(), 15);
        let m = b.merged(&b);
        assert_eq!(m.total(), 30);
        assert_eq!(m.useful, 2);
    }

    #[test]
    fn ops_per_word() {
        let t = TxCharacteristics {
            instructions: 100,
            words_written: 4,
            ..Default::default()
        };
        assert_eq!(t.ops_per_word_written(), 25.0);
        let none = TxCharacteristics {
            instructions: 100,
            ..Default::default()
        };
        assert_eq!(none.ops_per_word_written(), 100.0);
    }
}
