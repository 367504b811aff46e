//! Workloads for the `tcc-stm` runtime (real threads, not the
//! simulator).
//!
//! The STM bench needs op streams over *cell indices*, not simulated
//! byte addresses, so these profiles are deliberately decoupled from
//! [`tcc_core::ThreadProgram`]. Two access patterns bracket the space
//! the paper's protocol cares about:
//!
//! * **Zipfian** — skewed hot-spot access (θ ≈ 0.9, the YCSB default),
//!   where conflicts are common and commit-ordering pressure is real.
//! * **Disjoint** — each thread owns a private slice of the cell
//!   array, the embarrassingly-parallel case where a scalable commit
//!   protocol must beat a coarse global lock.
//!
//! Generation is fully deterministic: the same `(profile, threads,
//! seed)` triple always yields the same scripts, so baseline and STM
//! runs measure identical work.

use crate::sampling::{stream_rng, Zipf};
use tcc_types::rng::SmallRng;

/// One access inside an STM transaction, by cell index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmOp {
    Read(usize),
    Write(usize),
}

/// One scripted transaction: reads and read-modify-writes over cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmTx {
    pub ops: Vec<StmOp>,
}

/// How a thread picks the cells it touches.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Access {
    /// All threads sample all cells from one Zipfian(θ) distribution.
    Zipfian { theta: f64 },
    /// Thread `t` touches only cells `t*stride .. (t+1)*stride`.
    Disjoint { stride: usize },
}

/// A parameterized STM workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct StmProfile {
    pub name: &'static str,
    n_cells: usize,
    reads_per_tx: usize,
    writes_per_tx: usize,
    access: Access,
}

impl StmProfile {
    /// Skewed shared-array workload: `n_cells` cells sampled Zipfian
    /// with exponent `theta` (0.9 ≈ YCSB's default skew).
    #[must_use]
    pub fn zipfian(n_cells: usize, theta: f64) -> StmProfile {
        assert!(n_cells > 0, "need at least one cell");
        assert!(theta >= 0.0, "negative skew is meaningless");
        StmProfile {
            name: "zipfian",
            n_cells,
            reads_per_tx: 4,
            writes_per_tx: 2,
            access: Access::Zipfian { theta },
        }
    }

    /// Disjoint-access workload: each thread owns `cells_per_thread`
    /// private cells. The cell count is finalized by [`generate`]
    /// (it depends on the thread count).
    ///
    /// [`generate`]: StmProfile::generate
    #[must_use]
    pub fn disjoint(cells_per_thread: usize) -> StmProfile {
        assert!(cells_per_thread > 0, "need at least one cell per thread");
        StmProfile {
            name: "disjoint",
            n_cells: 0, // threads × stride, fixed at generation time
            reads_per_tx: 4,
            writes_per_tx: 2,
            access: Access::Disjoint {
                stride: cells_per_thread,
            },
        }
    }

    /// Overrides the per-transaction footprint (reads, read-modify-
    /// writes).
    #[must_use]
    pub fn with_footprint(mut self, reads: usize, writes: usize) -> StmProfile {
        assert!(reads + writes > 0, "empty transactions measure nothing");
        self.reads_per_tx = reads;
        self.writes_per_tx = writes;
        self
    }

    /// How many cells a run generated for `threads` threads must
    /// allocate.
    #[must_use]
    pub fn cells_for(&self, threads: usize) -> usize {
        match self.access {
            Access::Zipfian { .. } => self.n_cells,
            Access::Disjoint { stride } => threads * stride,
        }
    }

    /// Generates one deterministic script per thread: `txs_per_thread`
    /// transactions, each with this profile's footprint. Every cell
    /// index returned is `< cells_for(threads)`.
    #[must_use]
    pub fn generate(&self, threads: usize, txs_per_thread: usize, seed: u64) -> Vec<Vec<StmTx>> {
        assert!(threads > 0, "need at least one thread");
        let zipf = match self.access {
            Access::Zipfian { theta } => Some(Zipf::new(self.n_cells, theta)),
            Access::Disjoint { .. } => None,
        };
        // Each write is a read-modify-write: two ops.
        let tx_len = self.reads_per_tx + 2 * self.writes_per_tx;
        (0..threads)
            .map(|t| {
                // Per-thread stream: thread counts don't perturb each
                // other's scripts.
                let mut rng = stream_rng(seed, t as u64);
                (0..txs_per_thread)
                    .map(|_| {
                        let pick = |rng: &mut SmallRng| match self.access {
                            Access::Zipfian { .. } => {
                                zipf.as_ref().expect("zipf table built above").sample(rng)
                            }
                            Access::Disjoint { stride } => t * stride + rng.gen_range(0..stride),
                        };
                        let mut ops = Vec::with_capacity(tx_len);
                        for _ in 0..self.reads_per_tx {
                            let c = pick(&mut rng);
                            ops.push(StmOp::Read(c));
                        }
                        for _ in 0..self.writes_per_tx {
                            let c = pick(&mut rng);
                            // Read-modify-write: the conflict shape the
                            // commit protocol actually arbitrates.
                            ops.push(StmOp::Read(c));
                            ops.push(StmOp::Write(c));
                        }
                        StmTx { ops }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        let p = StmProfile::zipfian(64, 0.9);
        let a = p.generate(4, 50, 7);
        let b = p.generate(4, 50, 7);
        assert_eq!(a, b, "same seed must reproduce the same scripts");
        assert_ne!(a, p.generate(4, 50, 8), "seed must matter");
        for script in &a {
            assert_eq!(script.len(), 50);
            for tx in script {
                for op in &tx.ops {
                    let (StmOp::Read(c) | StmOp::Write(c)) = *op;
                    assert!(c < p.cells_for(4));
                }
            }
        }
    }

    #[test]
    fn zipfian_is_actually_skewed() {
        let p = StmProfile::zipfian(256, 0.9);
        let scripts = p.generate(1, 2_000, 42);
        let mut counts = vec![0u64; 256];
        for tx in &scripts[0] {
            for op in &tx.ops {
                let (StmOp::Read(c) | StmOp::Write(c)) = *op;
                counts[c] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        let top8: u64 = {
            let mut sorted = counts.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted[..8].iter().sum()
        };
        // With θ=0.9 over 256 cells the 8 hottest cells draw far more
        // than their uniform share (8/256 ≈ 3%).
        assert!(
            top8 * 5 > total,
            "hot set drew only {top8}/{total} accesses — not Zipfian"
        );
    }

    #[test]
    fn disjoint_threads_never_share_cells() {
        let p = StmProfile::disjoint(16);
        let scripts = p.generate(4, 200, 99);
        assert_eq!(p.cells_for(4), 64);
        for (t, script) in scripts.iter().enumerate() {
            for tx in script {
                for op in &tx.ops {
                    let (StmOp::Read(c) | StmOp::Write(c)) = *op;
                    assert!(
                        (t * 16..(t + 1) * 16).contains(&c),
                        "thread {t} escaped its slice: cell {c}"
                    );
                }
            }
        }
    }

    /// FNV-1a 64 over every op as a little-endian `u64` (`2·cell` for a
    /// read, `2·cell + 1` for a write), threads in order. It uses the
    /// published FNV prime, unlike `tcc_types::hash::fnv1a`.
    fn script_digest(scripts: &[Vec<StmTx>]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for op in scripts.iter().flatten().flat_map(|tx| &tx.ops) {
            let word = match *op {
                StmOp::Read(c) => 2 * c as u64,
                StmOp::Write(c) => 2 * c as u64 + 1,
            };
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn generated_scripts_are_pinned() {
        for (profile, seed, digest) in [
            (StmProfile::zipfian(256, 0.9), 0, 0x47cb_72c6_90cc_d3c1),
            (StmProfile::zipfian(256, 0.9), 977, 0xeddc_b756_c2a5_00ff),
            (StmProfile::disjoint(64), 0, 0xfa31_0c8e_5da2_e72b),
        ] {
            let got = script_digest(&profile.generate(2, 100_000, seed));
            assert_eq!(
                got, digest,
                "{} seed {seed}: scripts changed (digest {got:#018x})",
                profile.name
            );
        }
    }

    #[test]
    fn footprint_override_shapes_transactions() {
        let p = StmProfile::zipfian(8, 0.5).with_footprint(1, 3);
        let scripts = p.generate(2, 10, 1);
        for tx in &scripts[0] {
            let reads = tx
                .ops
                .iter()
                .filter(|o| matches!(o, StmOp::Read(_)))
                .count();
            let writes = tx
                .ops
                .iter()
                .filter(|o| matches!(o, StmOp::Write(_)))
                .count();
            assert_eq!(writes, 3);
            // Each write is a read-modify-write, so reads = 1 + 3.
            assert_eq!(reads, 4);
        }
    }
}
