//! The workload generation engine.

use tcc_core::{ThreadProgram, Transaction, TxOp, WorkItem};
use tcc_types::rng::SmallRng;
use tcc_types::Addr;

/// Cache-line size assumed by the address layout (matches the Table 2
/// default; the generators only need it to convert set sizes to line
/// counts).
const LINE_BYTES: u64 = 32;
/// Words per line at the default geometry.
const WORDS_PER_LINE: u64 = 8;
/// First line of each processor's private region (interleaved so that
/// `private` lines of processor `p` are homed at node `p`).
const PRIVATE_BASE: u64 = 1 << 20;
/// First line of the globally shared region.
const SHARED_BASE: u64 = 1 << 10;

/// `x % n`, without the division when `x < n` (most calls: a
/// transaction's private reads stay within the private span, and a
/// cluster offset passes `n` at most once).
fn wrap(x: u64, n: u64) -> u64 {
    if x < n {
        x
    } else {
        x % n
    }
}

/// Run-length scaling for a workload (tests use [`Scale::Smoke`],
/// the figure harness uses [`Scale::Full`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// ~1/8 of the full transaction count; for unit/integration tests.
    Smoke,
    /// The calibrated run length used by the figure harness.
    #[default]
    Full,
}

/// A parameterized synthetic application.
///
/// One profile describes a whole application class: transaction size
/// and footprint distributions, sharing behaviour, locality, and
/// barrier structure. [`AppProfile::generate`] turns it into one
/// deterministic [`ThreadProgram`] per processor.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name, as in Table 3.
    pub name: &'static str,
    /// The input description of Table 3's "Input" column (e.g.
    /// "16,384 mol.", "ref", "1M keys") — documentation of what run of
    /// the original application the profile was calibrated against.
    pub input: &'static str,
    /// Median transaction size, in instructions.
    pub tx_instr: u32,
    /// Distinct words read per median transaction.
    pub reads: u32,
    /// Distinct words written per median transaction.
    pub writes: u32,
    /// Fraction of *reads* aimed at the shared region.
    pub shared_frac: f64,
    /// Fraction of *writes* aimed at the shared region. Usually much
    /// lower than [`AppProfile::shared_frac`]: the paper's applications
    /// read-share far more than they write-share (write-sharing is what
    /// produces violations).
    pub shared_write_frac: f64,
    /// Per-processor private working set, in cache lines.
    pub private_lines: u32,
    /// Global shared region size, in cache lines.
    pub shared_lines: u32,
    /// Number of *directories* a transaction's shared accesses cluster
    /// into. Table 3 shows real transactions touch only 1–2 directories
    /// per commit; scattering shared accesses across many homes would
    /// chain every transaction's probe condition through every other's
    /// and serialize all commits globally.
    pub shared_dirs_per_tx: u32,
    /// Spread written lines across *all* directories (radix's
    /// all-directories-per-commit behaviour).
    pub write_spread_all: bool,
    /// Total transactions in the whole application (the fixed problem
    /// size; divided among the processors, so speedup curves measure a
    /// constant amount of work).
    pub total_txs: u32,
    /// Barrier-separated phases (>= 1). Work divides evenly within each
    /// phase; a global barrier separates consecutive phases.
    pub phases: u32,
    /// Multiplicative size jitter: transaction sizes vary in
    /// `[1/(1+j), 1+j]` around the median.
    pub size_jitter: f64,
}

impl AppProfile {
    /// Generates one deterministic program per processor.
    ///
    /// The same `(n_procs, seed)` always produces identical programs —
    /// the reproduction pipeline depends on it.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    #[must_use]
    pub fn generate(&self, n_procs: usize, seed: u64) -> Vec<ThreadProgram> {
        self.generate_scaled(n_procs, seed, Scale::Full)
    }

    /// As [`AppProfile::generate`], with an explicit run-length scale.
    #[must_use]
    pub fn generate_scaled(&self, n_procs: usize, seed: u64, scale: Scale) -> Vec<ThreadProgram> {
        assert!(n_procs > 0, "need at least one processor");
        let total = match scale {
            Scale::Full => self.total_txs.max(1),
            Scale::Smoke => (self.total_txs / 8).max(self.phases.max(1) * n_procs as u32),
        };
        let phases = self.phases.max(1);
        // Fixed problem size: each processor runs its share of each
        // phase, so the total work is (nearly) independent of the
        // machine size and speedups are meaningful.
        let per_phase_per_proc = (total / phases / n_procs as u32).max(1);
        (0..n_procs)
            .map(|p| self.generate_thread(p, n_procs, per_phase_per_proc, phases, seed))
            .collect()
    }

    fn generate_thread(
        &self,
        proc: usize,
        n_procs: usize,
        txs_per_phase: u32,
        phases: u32,
        seed: u64,
    ) -> ThreadProgram {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (proc as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut items = Vec::with_capacity((txs_per_phase * phases + phases - 1) as usize);
        for phase in 0..phases {
            for _ in 0..txs_per_phase {
                items.push(WorkItem::Tx(self.generate_tx(&mut rng, proc, n_procs)));
            }
            if phase + 1 < phases {
                items.push(WorkItem::Barrier);
            }
        }
        ThreadProgram::new(items)
    }

    /// Samples a jittered count around `median`.
    fn jittered(&self, rng: &mut SmallRng, median: u32) -> u32 {
        if median == 0 {
            return 0;
        }
        let lo = (f64::from(median) / (1.0 + self.size_jitter)).max(1.0);
        let hi = f64::from(median) * (1.0 + self.size_jitter);
        rng.gen_range(lo..=hi.max(lo + 1.0)) as u32
    }

    /// One synthetic transaction.
    fn generate_tx(&self, rng: &mut SmallRng, proc: usize, n_procs: usize) -> Transaction {
        // This transaction's shared accesses cluster into a few homes.
        let cluster = rng.gen_range(0..n_procs as u64);
        let n_reads = self.jittered(rng, self.reads).max(1);
        let n_writes = self.jittered(rng, self.writes);
        let instr = self.jittered(rng, self.tx_instr).max(n_reads + n_writes);
        let mem_ops = n_reads + n_writes;
        // Spread the non-memory instructions evenly between memory ops.
        let chunk = (instr - mem_ops) / (mem_ops + 1);
        let mut extra = (instr - mem_ops) % (mem_ops + 1);

        let mut tx = Transaction::with_capacity((2 * mem_ops + 1) as usize);
        let push_compute = |tx: &mut Transaction, extra: &mut u32| {
            let mut c = chunk;
            if *extra > 0 {
                c += 1;
                *extra -= 1;
            }
            if c > 0 {
                tx.push(TxOp::Compute(c));
            }
        };

        // Interleave reads and writes across the transaction body:
        // reads lead (gather), writes trail (scatter), roughly as the
        // paper's loop-structured benchmarks behave.
        for i in 0..n_reads {
            push_compute(&mut tx, &mut extra);
            tx.push(TxOp::Load(self.read_addr(rng, proc, n_procs, i, cluster)));
        }
        for i in 0..n_writes {
            push_compute(&mut tx, &mut extra);
            tx.push(TxOp::Store(self.write_addr(rng, proc, n_procs, i, cluster)));
        }
        push_compute(&mut tx, &mut extra);
        tx
    }

    /// Byte address of word `word` of `line`.
    fn addr(line: u64, word: u64) -> Addr {
        Addr(line * LINE_BYTES + (word % WORDS_PER_LINE) * 4)
    }

    /// A line in `proc`'s private region, homed at node `proc`.
    fn private_line(&self, proc: usize, index: u64, n_procs: usize) -> u64 {
        let span = u64::from(self.private_lines.max(1));
        PRIVATE_BASE + wrap(index, span) * n_procs as u64 + proc as u64
    }

    /// A line in the shared region whose home falls inside this
    /// transaction's directory cluster.
    fn shared_line(&self, rng: &mut SmallRng, cluster: u64, n_procs: usize) -> u64 {
        let n = n_procs as u64;
        let rows = (u64::from(self.shared_lines.max(1)) / n).max(1);
        let k = u64::from(self.shared_dirs_per_tx.max(1)).min(n);
        let home = wrap(cluster + rng.gen_range(0..k), n);
        SHARED_BASE + rng.gen_range(0..rows) * n + home
    }

    fn read_addr(
        &self,
        rng: &mut SmallRng,
        proc: usize,
        n_procs: usize,
        i: u32,
        cluster: u64,
    ) -> Addr {
        if rng.gen_bool(self.shared_frac) {
            let line = self.shared_line(rng, cluster, n_procs);
            Self::addr(line, rng.gen::<u64>())
        } else {
            // Sequential walk with reuse: consecutive reads touch
            // consecutive words, giving realistic spatial locality.
            let word = u64::from(i);
            let line = self.private_line(proc, word / WORDS_PER_LINE, n_procs);
            Self::addr(line, word)
        }
    }

    fn write_addr(
        &self,
        rng: &mut SmallRng,
        proc: usize,
        n_procs: usize,
        i: u32,
        cluster: u64,
    ) -> Addr {
        if self.write_spread_all {
            // radix: the write-set spans lines homed at every node, but
            // each processor scatters into its *own* slice of every
            // bucket (real radix partitions bucket offsets per
            // processor), so there is no write ping-pong.
            let target = u64::from(i) % n_procs as u64;
            let span = u64::from(self.private_lines.max(1));
            let slot = (proc as u64 * span + u64::from(i) / n_procs as u64 % span)
                % (span * n_procs as u64);
            let line = PRIVATE_BASE
                + span * n_procs as u64 // beyond the read region
                + slot * n_procs as u64
                + target;
            return Self::addr(line, rng.gen::<u64>());
        }
        if rng.gen_bool(self.shared_write_frac) {
            let line = self.shared_line(rng, cluster, n_procs);
            Self::addr(line, rng.gen::<u64>())
        } else {
            let word = u64::from(i);
            let line = self.private_line(proc, word / WORDS_PER_LINE, n_procs);
            Self::addr(line, word)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::LineGeometry;

    fn sample() -> AppProfile {
        AppProfile {
            name: "sample",
            input: "test",
            tx_instr: 1000,
            reads: 40,
            writes: 10,
            shared_frac: 0.1,
            shared_write_frac: 0.05,
            shared_dirs_per_tx: 2,
            private_lines: 64,
            shared_lines: 32,
            write_spread_all: false,
            total_txs: 128,
            phases: 4,
            size_jitter: 0.3,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = sample().generate(4, 42);
        let b = sample().generate(4, 42);
        assert_eq!(a, b);
        let c = sample().generate(4, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn every_processor_gets_a_program_with_barriers_aligned() {
        let programs = sample().generate(8, 1);
        assert_eq!(programs.len(), 8);
        let barriers: Vec<usize> = programs.iter().map(ThreadProgram::barriers).collect();
        assert!(barriers.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(barriers[0], 3, "4 phases -> 3 barriers");
        for p in &programs {
            // 128 total / 4 phases / 8 procs = 4 per phase.
            assert_eq!(p.transactions(), 16);
        }
    }

    #[test]
    fn total_work_is_machine_size_independent() {
        let t1: usize = sample()
            .generate(1, 1)
            .iter()
            .map(ThreadProgram::transactions)
            .sum();
        let t8: usize = sample()
            .generate(8, 1)
            .iter()
            .map(ThreadProgram::transactions)
            .sum();
        assert_eq!(t1, 128);
        assert_eq!(t8, 128);
    }

    #[test]
    fn transaction_sizes_respect_the_jitter_envelope() {
        let programs = sample().generate(2, 7);
        for p in &programs {
            for item in &p.items {
                if let WorkItem::Tx(t) = item {
                    let n = t.instructions();
                    assert!((500..=1400).contains(&n), "tx size {n} out of envelope");
                }
            }
        }
    }

    #[test]
    fn private_reads_are_homed_at_the_owning_node() {
        let prof = AppProfile {
            shared_frac: 0.0,
            ..sample()
        };
        let geom = LineGeometry::default();
        let n = 8;
        let programs = prof.generate(n, 3);
        for (p, prog) in programs.iter().enumerate() {
            for item in &prog.items {
                if let WorkItem::Tx(t) = item {
                    for op in t.ops() {
                        if let TxOp::Load(a) = op {
                            let home = geom.home_of(geom.line_of(a), n);
                            assert_eq!(home.index(), p, "private read must be local");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spread_writes_touch_every_directory() {
        let prof = AppProfile {
            write_spread_all: true,
            writes: 64,
            ..sample()
        };
        let geom = LineGeometry::default();
        let n = 8;
        let programs = prof.generate(n, 3);
        let mut homes = std::collections::HashSet::new();
        if let WorkItem::Tx(t) = &programs[0].items[0] {
            for op in t.ops() {
                if let TxOp::Store(a) = op {
                    homes.insert(geom.home_of(geom.line_of(a), n));
                }
            }
        }
        assert_eq!(homes.len(), n, "radix-style writes must span all homes");
    }

    #[test]
    fn smoke_scale_shrinks_the_run() {
        let full = sample().generate_scaled(2, 1, Scale::Full);
        let smoke = sample().generate_scaled(2, 1, Scale::Smoke);
        assert!(smoke[0].transactions() < full[0].transactions());
        assert!(smoke[0].transactions() >= 2);
    }

    #[test]
    fn instruction_budget_is_fully_spent() {
        // Compute + memory ops must sum to the sampled size: no silent
        // truncation of the instruction budget.
        let prof = AppProfile {
            size_jitter: 0.0,
            ..sample()
        };
        let programs = prof.generate(1, 9);
        if let WorkItem::Tx(t) = &programs[0].items[0] {
            assert_eq!(t.instructions(), 1000);
        }
    }
}
