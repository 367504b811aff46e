//! The workload abstraction: per-thread programs of transactions.
//!
//! The paper converts its benchmarks to *continuous transactions*: all
//! code between barriers runs inside transactions (§4.1). A
//! [`ThreadProgram`] models one processor's share of such an
//! application: a sequence of transactions and barriers. Transactions
//! are replayable — on a violation the processor re-executes the same
//! [`Transaction`] from its first operation.

use tcc_types::Addr;

/// One operation inside a transaction.
///
/// All non-memory instructions have CPI 1.0 (§4.1), so runs of them are
/// batched into a single [`TxOp::Compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOp {
    /// Execute `n` non-memory instructions (n cycles at CPI 1.0).
    Compute(u32),
    /// A speculative word load.
    Load(Addr),
    /// A speculative word store.
    Store(Addr),
}

/// Ops per encoding group: one word of 2-bit kinds covers 32 ops.
const GROUP: usize = 32;
/// Words per full group: the kind word and 32 operands.
const GROUP_WORDS: usize = GROUP + 1;
/// 2-bit op kinds in a group's kind word.
const COMPUTE: u64 = 0;
const LOAD: u64 = 1;
const STORE: u64 = 2;

/// Words that encode `len` ops.
const fn words_for(len: usize) -> usize {
    len + len.div_ceil(GROUP)
}

/// The op of kind `kind` with operand `operand`.
#[inline]
fn decode(kind: u64, operand: u64) -> TxOp {
    match kind {
        COMPUTE => TxOp::Compute(operand as u32),
        LOAD => TxOp::Load(Addr(operand)),
        _ => TxOp::Store(Addr(operand)),
    }
}

/// A replayable transaction: the unit of atomicity, conflict detection,
/// and rollback.
///
/// The ops are stored in one `Vec<u64>` of groups of up to 32 ops:
/// each group is a word of 2-bit kinds (op `j` of the group in bits
/// `2j..2j+2`) followed by the group's operands, the compute count or
/// the full 64-bit address. That is 8.25 bytes per op where a
/// `Vec<TxOp>` takes 16, op `i` is still O(1) to reach, and the op
/// count follows from the word count. `Debug` prints the same text as
/// a `Vec<TxOp>` field named `ops` would (DESIGN.md §16).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Transaction {
    words: Vec<u64>,
}

impl Transaction {
    /// A transaction over the given operations.
    #[must_use]
    pub fn new(ops: Vec<TxOp>) -> Transaction {
        ops.into_iter().collect()
    }

    /// An empty transaction with room for `ops` operations.
    #[must_use]
    pub fn with_capacity(ops: usize) -> Transaction {
        Transaction {
            words: Vec::with_capacity(words_for(ops)),
        }
    }

    /// Appends one operation.
    #[inline]
    pub fn push(&mut self, op: TxOp) {
        let w = self.words.len();
        let j = w % GROUP_WORDS;
        let (kind, operand) = match op {
            TxOp::Compute(n) => (COMPUTE, u64::from(n)),
            TxOp::Load(a) => (LOAD, a.0),
            TxOp::Store(a) => (STORE, a.0),
        };
        if j == 0 {
            self.words.push(kind);
        } else {
            self.words[w - j] |= kind << (2 * (j - 1));
        }
        self.words.push(operand);
    }

    /// Operation `i`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn op(&self, i: usize) -> Option<TxOp> {
        // Past the word count is past the end, and below it the group
        // arithmetic cannot overflow.
        if i >= self.words.len() {
            return None;
        }
        let (g, j) = (i / GROUP * GROUP_WORDS, i % GROUP);
        let operand = *self.words.get(g + 1 + j)?;
        let kinds = *self.words.get(g)?;
        Some(decode((kinds >> (2 * j)) & 3, operand))
    }

    /// The operations, in order.
    pub fn ops(&self) -> impl Iterator<Item = TxOp> + '_ {
        (0..self.len()).filter_map(|i| self.op(i))
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        let w = self.words.len();
        w - w.div_ceil(GROUP_WORDS)
    }

    /// Whether the transaction has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Instruction count: every op counts 1 instruction except
    /// `Compute(n)`, which counts `n`.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.ops()
            .map(|op| match op {
                TxOp::Compute(n) => u64::from(n),
                TxOp::Load(_) | TxOp::Store(_) => 1,
            })
            .sum()
    }

    /// Number of memory operations (loads + stores).
    #[must_use]
    pub fn memory_ops(&self) -> u64 {
        self.ops()
            .filter(|op| matches!(op, TxOp::Load(_) | TxOp::Store(_)))
            .count() as u64
    }
}

impl FromIterator<TxOp> for Transaction {
    fn from_iter<I: IntoIterator<Item = TxOp>>(ops: I) -> Transaction {
        let ops = ops.into_iter();
        let mut t = Transaction::with_capacity(ops.size_hint().0);
        for op in ops {
            t.push(op);
        }
        t
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct List<'a>(&'a Transaction);
        impl std::fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.ops()).finish()
            }
        }
        f.debug_struct("Transaction")
            .field("ops", &List(self))
            .finish()
    }
}

/// One element of a thread's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkItem {
    /// A transaction to execute (and re-execute until it commits).
    Tx(Transaction),
    /// A global synchronization barrier: the thread waits until every
    /// thread in the machine reaches its matching barrier.
    Barrier,
}

/// The full program of one processor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ThreadProgram {
    /// Work items, executed in order.
    pub items: Vec<WorkItem>,
}

impl ThreadProgram {
    /// A program over the given items.
    #[must_use]
    pub fn new(items: Vec<WorkItem>) -> ThreadProgram {
        ThreadProgram { items }
    }

    /// An empty program (the thread finishes immediately, participating
    /// in no barriers).
    #[must_use]
    pub fn empty() -> ThreadProgram {
        ThreadProgram::default()
    }

    /// Total instructions across all transactions (one successful
    /// execution of each).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.items
            .iter()
            .map(|i| match i {
                WorkItem::Tx(t) => t.instructions(),
                WorkItem::Barrier => 0,
            })
            .sum()
    }

    /// Number of transactions.
    #[must_use]
    pub fn transactions(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, WorkItem::Tx(_)))
            .count()
    }

    /// Number of barriers.
    #[must_use]
    pub fn barriers(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, WorkItem::Barrier))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::rng::SmallRng;

    #[test]
    fn instruction_counting() {
        let t = Transaction::new(vec![
            TxOp::Compute(10),
            TxOp::Load(Addr(0)),
            TxOp::Store(Addr(4)),
            TxOp::Compute(5),
        ]);
        assert_eq!(t.instructions(), 17);
        assert_eq!(t.memory_ops(), 2);
    }

    /// The derived layout `Transaction` had before its encoding: its
    /// `Debug` text is what the encoded one must print.
    mod derived {
        #[derive(Debug)]
        pub struct Transaction {
            #[allow(dead_code)] // read through `Debug` only
            pub ops: Vec<super::TxOp>,
        }
    }

    fn assert_round_trip(ops: &[TxOp]) {
        let t = Transaction::new(ops.to_vec());
        assert_eq!(t.len(), ops.len());
        assert_eq!(t.is_empty(), ops.is_empty());
        assert_eq!(t.ops().count(), ops.len());
        assert!(t.ops().eq(ops.iter().copied()));
        for (i, &op) in ops.iter().enumerate() {
            assert_eq!(t.op(i), Some(op), "op {i} of {}", ops.len());
        }
        assert_eq!(t.op(ops.len()), None);
        assert_eq!(t.op(usize::MAX), None);

        let mut pushed = Transaction::with_capacity(ops.len());
        let capacity = pushed.words.capacity();
        for &op in ops {
            pushed.push(op);
        }
        assert_eq!(pushed, t);
        assert_eq!(pushed.words.capacity(), capacity, "with_capacity is exact");

        let old = derived::Transaction { ops: ops.to_vec() };
        assert_eq!(format!("{t:?}"), format!("{old:?}"));
        assert_eq!(format!("{t:#?}"), format!("{old:#?}"));
    }

    #[test]
    fn encoding_round_trips() {
        let extremes = [
            TxOp::Compute(u32::MAX),
            TxOp::Load(Addr(u64::MAX)),
            TxOp::Store(Addr(u64::MAX)),
            TxOp::Compute(0),
            TxOp::Store(Addr(0)),
        ];
        assert_round_trip(&[]);
        assert_round_trip(&extremes);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut random = |n: usize| -> Vec<TxOp> {
            (0..n)
                .map(|_| {
                    let v = rng.next_u64();
                    match rng.gen_range(0..4u32) {
                        0 => TxOp::Compute(v as u32),
                        1 => TxOp::Load(Addr(v)),
                        2 => TxOp::Store(Addr(v)),
                        _ => extremes[v as usize % extremes.len()],
                    }
                })
                .collect()
        };
        for n in [1, 31, 32, 33, 64, 65] {
            assert_round_trip(&random(n));
        }
        for n in 0..200 {
            assert_round_trip(&random(n));
        }
    }

    #[test]
    fn debug_text_is_pinned() {
        let t = Transaction::new(vec![TxOp::Compute(3), TxOp::Load(Addr(64))]);
        assert_eq!(
            format!("{t:?}"),
            "Transaction { ops: [Compute(3), Load(Addr(64))] }"
        );
        assert_eq!(
            format!("{:?}", Transaction::default()),
            "Transaction { ops: [] }"
        );
    }

    #[test]
    fn program_aggregates() {
        let t = Transaction::new(vec![TxOp::Compute(3), TxOp::Load(Addr(0))]);
        let p = ThreadProgram::new(vec![
            WorkItem::Tx(t.clone()),
            WorkItem::Barrier,
            WorkItem::Tx(t),
        ]);
        assert_eq!(p.instructions(), 8);
        assert_eq!(p.transactions(), 2);
        assert_eq!(p.barriers(), 1);
        assert_eq!(ThreadProgram::empty().instructions(), 0);
    }
}
