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

/// Operand bits of an op's word; the top 2 bits hold its kind.
const OPERAND_BITS: u32 = 30;
/// The largest operand stored in line.
const OPERAND: u32 = (1 << OPERAND_BITS) - 1;
/// Op kinds, the top 2 bits of a word.
const COMPUTE: u32 = 0;
const LOAD: u32 = 1;
const STORE: u32 = 2;
/// The op's operand does not fit in 30 bits: the word's operand is an
/// index into the transaction's out-of-line ops.
const OUT_OF_LINE: u32 = 3;

/// The ops whose operand does not fit in 30 bits, by page: page `p`
/// holds, in order, those among ops `p << 30 .. (p + 1) << 30`, so an
/// op's index in its page fits in its word's 30 operand bits however
/// long the transaction is.
#[derive(Clone, PartialEq, Eq, Default)]
struct Spill(Vec<Vec<TxOp>>);

/// A replayable transaction: the unit of atomicity, conflict detection,
/// and rollback.
///
/// Each op is one `u32` word: the top 2 bits hold its kind (compute 0,
/// load 1, store 2) and the low 30 bits its operand, the compute count
/// or the address. An op whose operand does not fit in 30 bits is
/// stored out of line, and its word holds kind 3 and the op's index
/// there. That is 4 bytes per op where a `Vec<TxOp>` takes 16, op `i`
/// is word `i`, and a transaction with no out-of-line op makes one
/// allocation. `Debug` prints the same text as a `Vec<TxOp>` field
/// named `ops` would (DESIGN.md §16).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Transaction {
    words: Vec<u32>,
    /// `None` until the first out-of-line op.
    spill: Option<Box<Spill>>,
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
            words: Vec::with_capacity(ops),
            spill: None,
        }
    }

    /// Appends one operation.
    #[inline]
    pub fn push(&mut self, op: TxOp) {
        let (kind, operand) = match op {
            TxOp::Compute(n) => (COMPUTE, u64::from(n)),
            TxOp::Load(a) => (LOAD, a.0),
            TxOp::Store(a) => (STORE, a.0),
        };
        let word = match u32::try_from(operand) {
            Ok(operand) if operand <= OPERAND => (kind << OPERAND_BITS) | operand,
            _ => self.push_out_of_line(op),
        };
        self.words.push(word);
    }

    /// Stores `op`, the next op, out of line and returns its word.
    #[cold]
    fn push_out_of_line(&mut self, op: TxOp) -> u32 {
        let page = self.words.len() >> OPERAND_BITS;
        let pages = &mut self.spill.get_or_insert_with(Box::default).0;
        if pages.len() <= page {
            pages.resize_with(page + 1, Vec::new);
        }
        let ops = &mut pages[page];
        // A page holds 2^30 ops, so fewer than 2^30 precede this one.
        let index = ops.len() as u32;
        ops.push(op);
        (OUT_OF_LINE << OPERAND_BITS) | index
    }

    /// Operation `i`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn op(&self, i: usize) -> Option<TxOp> {
        let word = *self.words.get(i)?;
        let operand = word & OPERAND;
        Some(match word >> OPERAND_BITS {
            COMPUTE => TxOp::Compute(operand),
            LOAD => TxOp::Load(Addr(u64::from(operand))),
            STORE => TxOp::Store(Addr(u64::from(operand))),
            _ => {
                let pages = &self.spill.as_ref()?.0;
                *pages.get(i >> OPERAND_BITS)?.get(operand as usize)?
            }
        })
    }

    /// The operations, in order.
    pub fn ops(&self) -> impl Iterator<Item = TxOp> + '_ {
        (0..self.len()).filter_map(|i| self.op(i))
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
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

    /// Whether `op`'s operand fits in a word's 30 operand bits.
    fn in_line(op: TxOp) -> bool {
        match op {
            TxOp::Compute(n) => n < 1 << 30,
            TxOp::Load(a) | TxOp::Store(a) => a.0 < 1 << 30,
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
        let spilled = ops.iter().filter(|&&op| !in_line(op)).count();
        match &t.spill {
            None => assert_eq!(spilled, 0),
            Some(spill) => assert_eq!(spill.0.iter().map(Vec::len).sum::<usize>(), spilled),
        }

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

    /// Ops at and around the 30-bit operand limit, in line first.
    const EDGES: [TxOp; 10] = [
        TxOp::Compute(0),
        TxOp::Compute((1 << 30) - 1),
        TxOp::Load(Addr((1 << 30) - 1)),
        TxOp::Store(Addr((1 << 30) - 1)),
        TxOp::Compute(1 << 30),
        TxOp::Load(Addr(1 << 30)),
        TxOp::Store(Addr(1 << 30)),
        TxOp::Compute(u32::MAX),
        TxOp::Load(Addr(u64::MAX)),
        TxOp::Store(Addr(u64::MAX)),
    ];

    #[test]
    fn operands_at_the_30_bit_limit_round_trip() {
        assert!(EDGES[..4].iter().all(|&op| in_line(op)));
        assert!(EDGES[4..].iter().all(|&op| !in_line(op)));
        assert_round_trip(&[]);
        for &op in &EDGES {
            assert_round_trip(&[op]);
        }
        assert_round_trip(&EDGES);
        // Every op out of line.
        assert_round_trip(&EDGES[4..]);
        assert_round_trip(&[TxOp::Store(Addr(u64::MAX)); 70]);
        // Out-of-line ops interleaved with in-line ones.
        let interleaved: Vec<TxOp> = (0..40)
            .map(|i| EDGES[if i % 2 == 0 { i % 4 } else { 4 + i % 6 }])
            .collect();
        assert_round_trip(&interleaved);
    }

    #[test]
    fn ops_without_a_wide_operand_make_one_allocation() {
        let t = Transaction::new(EDGES[..4].to_vec());
        assert!(t.spill.is_none());
        assert_eq!(t.words.capacity(), 4);
        // The boxed out-of-line store keeps a `WorkItem` within 32 bytes.
        assert!(std::mem::size_of::<WorkItem>() <= 32);
    }

    #[test]
    fn encoding_round_trips() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut random = |n: usize| -> Vec<TxOp> {
            (0..n)
                .map(|_| {
                    // About half the operands fit in 30 bits.
                    let v = rng.next_u64() >> (rng.gen_range(0..2u32) * 34);
                    match rng.gen_range(0..4u32) {
                        0 => TxOp::Compute(v as u32),
                        1 => TxOp::Load(Addr(v)),
                        2 => TxOp::Store(Addr(v)),
                        _ => EDGES[v as usize % EDGES.len()],
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
