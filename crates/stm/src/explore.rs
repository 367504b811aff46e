//! A hand-rolled loom-style interleaving explorer for the commit path.
//!
//! The protocol code in [`crate::proto`] is generic over the
//! [`Shim`] atomics layer; instantiated over
//! [`ModelShim`], every shared-memory operation
//! first calls `yieldpoint`, which hands control to a cooperative
//! **scheduler**: exactly one model thread runs at a time, and the
//! scheduler decides — per schedule — where to preempt it. Because
//! every access to shared protocol state is a scheduling point, the
//! explored interleavings are exactly the sequentially-consistent
//! executions of the commit path, and the run is fully deterministic
//! given a [`Policy`].
//!
//! Exploration strategy (CHESS-style preemption bounding):
//!
//! 1. one [`Policy::Sequential`] run measures the schedule length `L`;
//! 2. **exhaustive k=1**: every single preemption `(step s → thread t)`
//!    for `s ∈ 1..=L`, every target;
//! 3. **sampled k=2**: seeded-random preemption pairs, as many as the
//!    run budget allows;
//! 4. **seeded-random walks**: at every yieldpoint, switch with
//!    probability `switch_percent`.
//!
//! The oracle (`check_history`) asserts strict serializability the
//! same way the simulator's checker does: every scripted transaction
//! commits exactly once, TIDs are unique, and replaying the commits in
//! TID order reproduces every stamp each transaction observed. A run
//! that exhausts its step budget is reported as a violation too — with
//! these bounded scripts, that is the livelock detector.
//!
//! The explorer has teeth: the [`CommitTweaks`] bug knobs
//! (`skip_read_validation`, `publish_before_serving`) each disable one
//! load-bearing step of the protocol, and the test suite asserts the
//! explorer catches both.

use crate::proto::{
    self, stamp_of, CellAccess, CommitMode, CommitOutcome, CommitState, CommitTweaks, ReadEntry,
    WriteEntry, STAMP_INITIAL, TID_NONE,
};
use crate::shim::{ModelShim, Shim, ShimU64};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use tcc_types::rng::SmallRng;

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// How the scheduler picks the next thread at each yieldpoint.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Never preempt; switch only when a thread pauses or finishes.
    Sequential,
    /// Preempt at the given `(step, target thread)` points, otherwise
    /// sequential. Steps are global yieldpoint counts, so the prefix
    /// before each preemption is deterministic.
    PreemptAt(Vec<(usize, usize)>),
    /// At every yieldpoint switch to a random live thread with
    /// probability `percent`/100 (seeded — still deterministic).
    Random { seed: u64, percent: u32 },
}

struct SchedInner {
    current: usize,
    alive: Vec<bool>,
    step: usize,
    budget: usize,
    policy: Policy,
    rng: SmallRng,
    poison: Option<String>,
}

impl SchedInner {
    fn next_alive_after(&self, i: usize) -> Option<usize> {
        let n = self.alive.len();
        (1..=n).map(|d| (i + d) % n).find(|&j| self.alive[j])
    }

    fn choose_next(&mut self, i: usize, is_pause: bool) -> usize {
        let forced = match &self.policy {
            Policy::Sequential => None,
            Policy::PreemptAt(points) => points
                .iter()
                .find(|(s, _)| *s == self.step)
                .map(|&(_, t)| t),
            Policy::Random { percent, .. } => {
                let p = *percent;
                if self.rng.gen_range(0..100u32) < p {
                    Some(self.rng.gen_range(0..self.alive.len()))
                } else {
                    None
                }
            }
        };
        if let Some(t) = forced {
            if self.alive[t % self.alive.len()] {
                return t % self.alive.len();
            }
            if let Some(t2) = self.next_alive_after(t % self.alive.len()) {
                return t2;
            }
        }
        if is_pause {
            // A pausing thread is waiting for someone else's store:
            // keeping it running cannot make progress.
            if let Some(t) = self.next_alive_after(i) {
                if t != i {
                    return t;
                }
            }
        }
        i
    }
}

/// Cooperative baton scheduler: one runnable model thread at a time.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
}

fn relock(m: &Mutex<SchedInner>) -> MutexGuard<'_, SchedInner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    fn new(n: usize, policy: Policy, budget: usize) -> Arc<Self> {
        let seed = match &policy {
            Policy::Random { seed, .. } => *seed,
            _ => 0,
        };
        Arc::new(Scheduler {
            inner: Mutex::new(SchedInner {
                current: 0,
                alive: vec![true; n],
                step: 0,
                budget,
                policy,
                rng: SmallRng::seed_from_u64(seed),
                poison: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Blocks until it is thread `i`'s turn (entry gate at spawn).
    fn enter(&self, i: usize) {
        let mut g = relock(&self.inner);
        while g.current != i && g.poison.is_none() {
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some(p) = g.poison.clone() {
            drop(g);
            resume_poison(&p);
        }
    }

    fn yield_from(&self, i: usize, is_pause: bool) {
        let mut g = relock(&self.inner);
        if let Some(p) = g.poison.clone() {
            drop(g);
            resume_poison(&p);
        }
        g.step += 1;
        if g.step > g.budget {
            let msg = format!(
                "step budget {} exhausted (possible livelock) at thread {i}",
                g.budget
            );
            g.poison = Some(msg.clone());
            self.cv.notify_all();
            drop(g);
            resume_poison(&msg);
        }
        let next = g.choose_next(i, is_pause);
        if next == i {
            return;
        }
        g.current = next;
        self.cv.notify_all();
        while g.current != i && g.poison.is_none() {
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some(p) = g.poison.clone() {
            drop(g);
            resume_poison(&p);
        }
    }

    fn finish(&self, i: usize) {
        let mut g = relock(&self.inner);
        g.alive[i] = false;
        if g.current == i {
            if let Some(t) = g.next_alive_after(i) {
                g.current = t;
            }
        }
        self.cv.notify_all();
    }

    fn poison_with(&self, msg: String) {
        let mut g = relock(&self.inner);
        if g.poison.is_none() {
            g.poison = Some(msg);
        }
        self.cv.notify_all();
    }

    fn poison_reason(&self) -> Option<String> {
        relock(&self.inner).poison.clone()
    }

    fn steps(&self) -> usize {
        relock(&self.inner).step
    }
}

/// Marker prefix so the catch_unwind wrapper can tell a scheduler
/// shutdown apart from a genuine protocol panic.
const POISON_MARK: &str = "[model-poisoned] ";

fn resume_poison(reason: &str) -> ! {
    std::panic::panic_any(format!("{POISON_MARK}{reason}"))
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// Called by [`ModelShim`](crate::shim::ModelShim) before every shared
/// access (`is_pause = false`) and on every spin-wait backoff
/// (`is_pause = true`). No-op outside a model run.
pub(crate) fn yieldpoint(is_pause: bool) {
    let ctx = CURRENT.with(|c| c.borrow().clone());
    if let Some((sched, i)) = ctx {
        sched.yield_from(i, is_pause);
    }
}

// ---------------------------------------------------------------------
// Model world
// ---------------------------------------------------------------------

/// One scripted transaction: cells to read, cells to write. Written
/// values are implicit — in the model a cell's *stamp* is its value,
/// which is exactly what the serializability oracle needs.
#[derive(Debug, Clone, Default)]
pub struct ModelTx {
    pub reads: Vec<usize>,
    pub writes: Vec<usize>,
}

/// A model-checking problem: per-thread transaction scripts over
/// `n_cells` cells striped across `shards` directory shards.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    pub n_cells: usize,
    pub shards: usize,
    pub vendor_slots: usize,
    pub threads: Vec<Vec<ModelTx>>,
    /// Failed attempts before early-TID escalation (small, so the
    /// explorer reaches the starvation path quickly).
    pub starvation_threshold: u32,
    /// Bug knobs; must stay default outside teeth tests.
    pub tweaks: CommitTweaks,
}

struct ModelCell {
    stamp: <ModelShim as Shim>::U64,
    mark: <ModelShim as Shim>::U64,
}

struct World {
    state: CommitState<ModelShim>,
    cells: Vec<ModelCell>,
    shards: usize,
    tweaks: CommitTweaks,
    log: Mutex<Vec<TxCommit>>,
}

/// One committed transaction as the oracle sees it.
#[derive(Debug, Clone)]
struct TxCommit {
    tid: u64,
    /// `(cell, stamp observed during the committed attempt)`.
    reads: Vec<(usize, u64)>,
    writes: Vec<usize>,
}

struct ModelCells<'w> {
    cells: &'w [ModelCell],
}

impl CellAccess for ModelCells<'_> {
    /// Handles are global cell indices.
    type Handle = usize;

    fn stamp(&self, h: usize) -> u64 {
        self.cells[h].stamp.load()
    }
    fn set_mark(&self, h: usize, tid: u64) {
        self.cells[h].mark.store(tid);
    }
    fn clear_mark(&self, h: usize, tid: u64) {
        let _ = self.cells[h].mark.compare_exchange(tid, TID_NONE);
    }
    fn publish(&mut self, h: usize, tid: u64) {
        self.cells[h].stamp.store(stamp_of(tid));
    }
}

/// Runs one thread's script to completion (same retry/escalation loop
/// as the real [`crate::Stm::run`]).
fn run_script(world: &World, me: usize, script: &[ModelTx], threshold: u32) {
    let shard_of = |c: usize| c % world.shards;
    for tx in script {
        let mut attempts: u32 = 0;
        let mut early: Option<u64> = None;
        loop {
            attempts += 1;
            if early.is_none() && attempts > threshold {
                early = Some(world.state.vendor.acquire(me));
            }
            // Execution: read each cell, incrementally revalidating the
            // prior reads (mirrors Tx::read_versioned).
            let mut reads: Vec<ReadEntry<usize>> = Vec::with_capacity(tx.reads.len());
            let mut consistent = true;
            'exec: for &c in &tx.reads {
                for _ in 0..2 {
                    let m = world.cells[c].mark.load();
                    if proto::read_should_stall(&world.state, shard_of(c), m) {
                        ModelShim::pause();
                    } else {
                        break;
                    }
                }
                let s = world.cells[c].stamp.load();
                for prior in &reads {
                    if world.cells[prior.cell].stamp.load() != prior.stamp {
                        consistent = false;
                        break 'exec;
                    }
                }
                if !reads.iter().any(|r| r.cell == c) {
                    reads.push(ReadEntry {
                        cell: c,
                        shard: shard_of(c),
                        stamp: s,
                    });
                }
            }
            if !consistent {
                continue; // re-execute; a held early TID is kept
            }
            let writes: Vec<WriteEntry<usize>> = tx
                .writes
                .iter()
                .map(|&c| WriteEntry {
                    cell: c,
                    shard: shard_of(c),
                })
                .collect();
            let mode = match early {
                Some(t) => CommitMode::EarlyTid(t),
                None => CommitMode::Normal { home: me },
            };
            let mut cells = ModelCells {
                cells: &world.cells,
            };
            match proto::commit::<ModelShim, _>(
                &world.state,
                &reads,
                &writes,
                &mut cells,
                mode,
                &world.tweaks,
            ) {
                CommitOutcome::Committed { tid } => {
                    world
                        .log
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(TxCommit {
                            tid,
                            reads: reads.iter().map(|r| (r.cell, r.stamp)).collect(),
                            writes: tx.writes.clone(),
                        });
                    break;
                }
                CommitOutcome::Conflict { kept_tid } => {
                    early = kept_tid;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// Outcome of a single explored schedule.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Yieldpoints executed.
    pub steps: usize,
    /// Serializability/liveness violation, if any.
    pub violation: Option<String>,
    pub commits: u64,
    pub conflicts: u64,
    pub recycled: u64,
    pub claimed: u64,
    pub early_commits: u64,
}

/// Executes `spec` once under `policy` with the given step budget.
pub fn run_schedule(spec: &ModelSpec, policy: Policy, step_budget: usize) -> RunOutcome {
    let n = spec.threads.len();
    assert!(n >= 1, "need at least one model thread");
    let world = Arc::new(World {
        state: CommitState::new(spec.shards, spec.vendor_slots),
        cells: (0..spec.n_cells)
            .map(|_| ModelCell {
                stamp: <ModelShim as Shim>::U64::new(STAMP_INITIAL),
                mark: <ModelShim as Shim>::U64::new(TID_NONE),
            })
            .collect(),
        shards: spec.shards,
        tweaks: spec.tweaks,
        log: Mutex::new(Vec::new()),
    });
    let sched = Scheduler::new(n, policy, step_budget);

    let handles: Vec<_> = (0..n)
        .map(|i| {
            let world = Arc::clone(&world);
            let sched = Arc::clone(&sched);
            let script = spec.threads[i].clone();
            let threshold = spec.starvation_threshold;
            std::thread::spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), i)));
                let res = catch_unwind(AssertUnwindSafe(|| {
                    sched.enter(i);
                    run_script(&world, i, &script, threshold);
                }));
                CURRENT.with(|c| *c.borrow_mut() = None);
                if let Err(payload) = res {
                    let msg = panic_message(payload.as_ref());
                    if !msg.starts_with(POISON_MARK) {
                        sched.poison_with(format!("thread {i} panicked: {msg}"));
                    }
                }
                sched.finish(i);
            })
        })
        .collect();
    for h in handles {
        let _ = h.join(); // panics were converted to poison above
    }

    let violation = match sched.poison_reason() {
        Some(p) => Some(p),
        None => {
            let log = world
                .log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            check_history(spec, &log).err()
        }
    };
    let s = &world.state.stats;
    RunOutcome {
        steps: sched.steps(),
        violation,
        commits: s.commits.load(),
        conflicts: s.conflicts.load(),
        recycled: s.recycled.load(),
        claimed: s.claimed.load(),
        early_commits: s.early_commits.load(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_string()
    }
}

/// The serializability oracle: commits replayed in TID order must
/// reproduce every observed stamp.
fn check_history(spec: &ModelSpec, log: &[TxCommit]) -> Result<(), String> {
    let expected: usize = spec.threads.iter().map(Vec::len).sum();
    if log.len() != expected {
        return Err(format!(
            "liveness: {} of {expected} scripted transactions committed",
            log.len()
        ));
    }
    let mut order: Vec<&TxCommit> = log.iter().collect();
    order.sort_by_key(|t| t.tid);
    for pair in order.windows(2) {
        if pair[0].tid == pair[1].tid {
            return Err(format!("duplicate TID {} in history", pair[0].tid));
        }
    }
    let mut sim = vec![STAMP_INITIAL; spec.n_cells];
    for tx in &order {
        for &(cell, observed) in &tx.reads {
            if sim[cell] != observed {
                return Err(format!(
                    "not serializable: tx with TID {} observed stamp {observed} on cell \
                     {cell}, but at its serial position the cell carries stamp {}",
                    tx.tid, sim[cell]
                ));
            }
        }
        for &cell in &tx.writes {
            sim[cell] = stamp_of(tx.tid);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

/// Exploration budget and seeds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Yieldpoint budget per run (livelock detector threshold).
    pub step_budget: usize,
    /// Cap on total runs (exhaustive k=1 enumeration is truncated to
    /// fit; sampled k=2 and random walks get what remains).
    pub max_runs: usize,
    /// Seeded-random-walk runs.
    pub random_runs: usize,
    /// Sampled two-preemption runs.
    pub pair_runs: usize,
    pub seed: u64,
    /// Switch probability (percent) for random walks.
    pub switch_percent: u32,
    /// Stop at the first violation instead of collecting all.
    pub stop_on_violation: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            step_budget: 50_000,
            max_runs: 4_000,
            random_runs: 192,
            pair_runs: 512,
            seed: 0x7cc_5eed,
            switch_percent: 25,
            stop_on_violation: true,
        }
    }
}

/// Aggregated result of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    pub runs: usize,
    /// Schedule length of the sequential probe run.
    pub sequential_steps: usize,
    pub violations: Vec<String>,
    /// Protocol-path coverage, summed over all runs.
    pub commits: u64,
    pub conflicts: u64,
    pub recycled: u64,
    pub claimed: u64,
    pub early_commits: u64,
}

impl ExploreReport {
    fn absorb(&mut self, r: &RunOutcome) {
        self.runs += 1;
        self.commits += r.commits;
        self.conflicts += r.conflicts;
        self.recycled += r.recycled;
        self.claimed += r.claimed;
        self.early_commits += r.early_commits;
        if let Some(v) = &r.violation {
            self.violations.push(v.clone());
        }
    }

    fn done(&self, cfg: &ExploreConfig) -> bool {
        (cfg.stop_on_violation && !self.violations.is_empty()) || self.runs >= cfg.max_runs
    }
}

/// Explores `spec`: sequential probe, exhaustive single preemptions,
/// sampled preemption pairs, seeded random walks.
pub fn explore(spec: &ModelSpec, cfg: &ExploreConfig) -> ExploreReport {
    let n = spec.threads.len();
    let mut report = ExploreReport::default();

    // 1. Sequential probe: measures L and checks the trivial schedule.
    let probe = run_schedule(spec, Policy::Sequential, cfg.step_budget);
    report.sequential_steps = probe.steps;
    let len = probe.steps;
    report.absorb(&probe);
    if report.done(cfg) {
        return report;
    }

    // 2. Exhaustive k=1: one preemption at every (step, target).
    'k1: for s in 1..=len {
        for t in 0..n {
            let r = run_schedule(spec, Policy::PreemptAt(vec![(s, t)]), cfg.step_budget);
            report.absorb(&r);
            if report.done(cfg) {
                break 'k1;
            }
        }
    }
    if report.done(cfg) {
        return report;
    }

    // 3. Sampled k=2: seeded-random preemption pairs. Schedules after
    // the first preemption can be longer than L, so the second point
    // samples from a stretched range.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.pair_runs {
        let s1 = rng.gen_range(1..=len.max(1));
        let s2 = s1 + rng.gen_range(1..=len.max(1));
        let t1 = rng.gen_range(0..n);
        let t2 = rng.gen_range(0..n);
        let r = run_schedule(
            spec,
            Policy::PreemptAt(vec![(s1, t1), (s2, t2)]),
            cfg.step_budget,
        );
        report.absorb(&r);
        if report.done(cfg) {
            return report;
        }
    }

    // 4. Random walks.
    for i in 0..cfg.random_runs {
        let r = run_schedule(
            spec,
            Policy::Random {
                seed: cfg.seed.wrapping_add(1 + i as u64),
                percent: cfg.switch_percent,
            },
            cfg.step_budget,
        );
        report.absorb(&r);
        if report.done(cfg) {
            return report;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_thread_contended() -> ModelSpec {
        ModelSpec {
            n_cells: 2,
            shards: 2,
            vendor_slots: 2,
            threads: vec![
                vec![ModelTx {
                    reads: vec![0],
                    writes: vec![0, 1],
                }],
                vec![ModelTx {
                    reads: vec![0, 1],
                    writes: vec![0],
                }],
            ],
            starvation_threshold: 2,
            tweaks: CommitTweaks::default(),
        }
    }

    #[test]
    fn sequential_run_is_clean_and_deterministic() {
        let spec = two_thread_contended();
        let a = run_schedule(&spec, Policy::Sequential, 50_000);
        let b = run_schedule(&spec, Policy::Sequential, 50_000);
        assert_eq!(a.violation, None);
        assert_eq!(a.steps, b.steps, "model runs must be deterministic");
        assert_eq!(a.commits, 2);
    }

    #[test]
    fn single_preemption_runs_are_clean() {
        let spec = two_thread_contended();
        for s in [1, 3, 7, 12] {
            for t in 0..2 {
                let r = run_schedule(&spec, Policy::PreemptAt(vec![(s, t)]), 50_000);
                assert_eq!(r.violation, None, "preempt at ({s},{t})");
            }
        }
    }

    #[test]
    fn random_walks_are_clean() {
        let spec = two_thread_contended();
        for seed in 0..8 {
            let r = run_schedule(&spec, Policy::Random { seed, percent: 30 }, 100_000);
            assert_eq!(r.violation, None, "seed {seed}");
        }
    }

    #[test]
    fn explorer_smoke_with_tiny_budget() {
        let spec = two_thread_contended();
        let cfg = ExploreConfig {
            max_runs: 40,
            random_runs: 8,
            pair_runs: 8,
            ..ExploreConfig::default()
        };
        let rep = explore(&spec, &cfg);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert!(rep.runs >= 17, "probe + some k=1 runs");
        assert!(rep.commits >= 2 * rep.runs as u64);
    }

    #[test]
    fn oracle_rejects_stale_read_history() {
        let spec = two_thread_contended();
        // Fabricate: tx 1 claims to have read cell 0's initial stamp
        // even though tx 0 (earlier TID) wrote it.
        let log = vec![
            TxCommit {
                tid: 0,
                reads: vec![],
                writes: vec![0],
            },
            TxCommit {
                tid: 1,
                reads: vec![(0, STAMP_INITIAL), (1, STAMP_INITIAL)],
                writes: vec![0],
            },
        ];
        let err = check_history(&spec, &log).unwrap_err();
        assert!(err.contains("not serializable"), "{err}");
    }

    #[test]
    fn oracle_rejects_duplicate_tids_and_lost_txs() {
        let spec = two_thread_contended();
        let dup = vec![
            TxCommit {
                tid: 3,
                reads: vec![],
                writes: vec![0],
            },
            TxCommit {
                tid: 3,
                reads: vec![],
                writes: vec![1],
            },
        ];
        assert!(check_history(&spec, &dup)
            .unwrap_err()
            .contains("duplicate TID"));
        assert!(check_history(&spec, &dup[..1])
            .unwrap_err()
            .contains("liveness"));
    }
}
