//! Serializability oracle.
//!
//! The simulator's "data values" are writer stamps: every committed
//! store tags its word with the committing TID, and those stamps travel
//! only along the *simulated* data paths (cache fills, owner forwards,
//! write-backs). The checker exploits this: if every committed
//! transaction's reads observed exactly the stamps that a serial
//! execution in TID order would have produced, the run is serializable
//! — and any coherence bug (a stale line surviving an invalidation, a
//! dropped write-back, a reordered commit) surfaces as a stamp
//! anachronism.

use std::collections::HashMap;

use tcc_types::{snap_fields, LineAddr, Tid, WordMask};

/// One committed transaction's externally-visible behaviour.
#[derive(Debug, Clone, Default)]
pub struct TxRecord {
    /// The committing TID.
    pub tid: Tid,
    /// Committed-state reads: `(line, word, observed writer stamp)`.
    /// Reads of the transaction's own speculative writes are excluded.
    pub reads: Vec<(LineAddr, usize, Option<Tid>)>,
    /// Committed writes: `(line, words written)`.
    pub writes: Vec<(LineAddr, WordMask)>,
}

snap_fields!(TxRecord { tid, reads, writes });

/// A serializability violation found by [`Checker::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityError {
    /// The transaction whose read was inconsistent.
    pub tid: Tid,
    /// The word it read.
    pub line: LineAddr,
    /// Word index within the line.
    pub word: usize,
    /// The stamp the transaction observed.
    pub observed: Option<Tid>,
    /// The stamp a serial execution in TID order would have produced.
    pub expected: Option<Tid>,
}

impl std::fmt::Display for SerializabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transaction {} read {}:{} = {:?}, but serial order requires {:?}",
            self.tid, self.line, self.word, self.observed, self.expected
        )
    }
}

impl std::error::Error for SerializabilityError {}

/// Collects committed-transaction records and verifies them against a
/// serial replay in TID order.
#[derive(Debug, Default)]
pub struct Checker {
    records: Vec<TxRecord>,
}

// The record log is the checker's whole state: commits before a
// checkpoint must survive a resume, or the end-of-run verdict would
// silently cover only the tail.
snap_fields!(Checker { records });

impl Checker {
    /// An empty checker.
    #[must_use]
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Registers a committed transaction.
    pub fn record(&mut self, record: TxRecord) {
        self.records.push(record);
    }

    /// Number of recorded commits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no commits were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replays all committed transactions serially in TID order and
    /// checks every recorded read against the replay state.
    ///
    /// # Panics
    ///
    /// Panics if two committed transactions share a TID (the vendor's
    /// gap-free uniqueness was violated).
    ///
    /// # Errors
    ///
    /// Returns the first [`SerializabilityError`] encountered, i.e. the
    /// lowest-TID transaction whose reads could not have come from the
    /// serial history.
    pub fn verify(&self) -> Result<(), SerializabilityError> {
        let mut order: Vec<&TxRecord> = self.records.iter().collect();
        order.sort_by_key(|r| r.tid);
        // The gap-free vendor guarantees TID uniqueness; a duplicate
        // here means two transactions committed under one identity.
        for w in order.windows(2) {
            assert_ne!(
                w[0].tid, w[1].tid,
                "two transactions committed with the same TID {}",
                w[0].tid
            );
        }
        // Serial memory model: word -> last committed writer.
        let mut model: HashMap<(LineAddr, usize), Tid> = HashMap::new();
        for rec in order {
            for &(line, word, observed) in &rec.reads {
                let expected = model.get(&(line, word)).copied();
                if observed != expected {
                    return Err(SerializabilityError {
                        tid: rec.tid,
                        line,
                        word,
                        observed,
                        expected,
                    });
                }
            }
            for &(line, words) in &rec.writes {
                for w in words.iter() {
                    model.insert((line, w), rec.tid);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(tid: u64, line: u64, word: usize) -> TxRecord {
        TxRecord {
            tid: Tid(tid),
            reads: vec![],
            writes: vec![(LineAddr(line), WordMask::single(word))],
        }
    }

    #[test]
    fn empty_history_verifies() {
        assert!(Checker::new().verify().is_ok());
        assert!(Checker::new().is_empty());
    }

    #[test]
    fn serial_chain_verifies() {
        let mut c = Checker::new();
        c.record(write(0, 5, 1));
        c.record(TxRecord {
            tid: Tid(1),
            reads: vec![(LineAddr(5), 1, Some(Tid(0)))],
            writes: vec![(LineAddr(5), WordMask::single(1))],
        });
        c.record(TxRecord {
            tid: Tid(2),
            reads: vec![(LineAddr(5), 1, Some(Tid(1)))],
            writes: vec![],
        });
        assert_eq!(c.len(), 3);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn reading_the_future_is_caught() {
        let mut c = Checker::new();
        // TID 1 observed TID 2's write: impossible in serial order.
        c.record(write(2, 5, 0));
        c.record(TxRecord {
            tid: Tid(1),
            reads: vec![(LineAddr(5), 0, Some(Tid(2)))],
            writes: vec![],
        });
        let err = c.verify().unwrap_err();
        assert_eq!(err.tid, Tid(1));
        assert_eq!(err.observed, Some(Tid(2)));
        assert_eq!(err.expected, None);
        assert!(err.to_string().contains("serial order"));
    }

    #[test]
    fn stale_read_is_caught() {
        let mut c = Checker::new();
        c.record(write(0, 9, 3));
        c.record(write(1, 9, 3));
        // TID 2 saw TID 0's value although TID 1 overwrote it.
        c.record(TxRecord {
            tid: Tid(2),
            reads: vec![(LineAddr(9), 3, Some(Tid(0)))],
            writes: vec![],
        });
        let err = c.verify().unwrap_err();
        assert_eq!(err.expected, Some(Tid(1)));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut c = Checker::new();
        c.record(TxRecord {
            tid: Tid(1),
            reads: vec![(LineAddr(0), 0, Some(Tid(0)))],
            writes: vec![],
        });
        c.record(write(0, 0, 0));
        assert!(c.verify().is_ok());
    }

    #[test]
    fn word_granular_model() {
        let mut c = Checker::new();
        c.record(write(0, 7, 0));
        // Reading a *different* word of the same line must not see it.
        c.record(TxRecord {
            tid: Tid(1),
            reads: vec![(LineAddr(7), 1, None)],
            writes: vec![],
        });
        assert!(c.verify().is_ok());
    }
}
