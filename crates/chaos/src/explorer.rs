//! The schedule-exploration harness.
//!
//! Sweeps a (program seed × chaos seed × config variant) grid through
//! the full simulator with the serializability checker as oracle. The
//! simulator is single-threaded and deterministic, so independent runs
//! shard perfectly across `std::thread` workers; results are collected
//! by grid index, making the report identical for any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use crate::progen::{chaos_profile, generate_programs, loss_profile, tie_break_for, ProgramSpec};
use crate::scenario::{RunOutcome, Scenario};
use tcc_network::{DropRule, DupRule};
use tcc_types::{ProtocolBugs, ProtocolKind};

/// A named configuration variant applied on top of each generated
/// scenario (e.g. torus topology, Fig. 2f flush mode).
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub name: &'static str,
    pub apply: fn(&mut Scenario),
}

fn apply_none(_: &mut Scenario) {}

/// The default variant: Table 2 configuration, unmodified.
pub const BASELINE: Variant = Variant {
    name: "base",
    apply: apply_none,
};

/// The grid one exploration sweeps.
#[derive(Debug, Clone)]
pub struct GridSpec {
    pub program: ProgramSpec,
    pub program_seeds: std::ops::Range<u64>,
    pub chaos_seeds: std::ops::Range<u64>,
    pub variants: Vec<Variant>,
    /// Coherence backends to sweep; each backend runs the full
    /// (variant × program × chaos) sub-grid. Defaults to TCC only;
    /// combinations a backend refuses (e.g. TCC-only mutation knobs)
    /// surface as typed `rejected` outcomes, not panics.
    pub protocols: Vec<ProtocolKind>,
    /// Draw chaos schedules from [`loss_profile`] (drop/dup/reorder wire
    /// faults, reliable transport on) instead of the latency-only
    /// [`chaos_profile`].
    pub lossy: bool,
    /// Mutation knobs every scenario runs with.
    pub bugs: ProtocolBugs,
}

impl GridSpec {
    /// A `programs × chaos` grid over the default program shape and the
    /// baseline variant.
    #[must_use]
    pub fn new(program_seeds: std::ops::Range<u64>, chaos_seeds: std::ops::Range<u64>) -> GridSpec {
        GridSpec {
            program: ProgramSpec::default(),
            program_seeds,
            chaos_seeds,
            variants: vec![BASELINE],
            protocols: vec![ProtocolKind::Tcc],
            lossy: false,
            bugs: ProtocolBugs::default(),
        }
    }

    /// A grid sweeping every coherence backend over the same programs
    /// and chaos schedules: the cross-protocol differential surface.
    #[must_use]
    pub fn all_protocols(
        program_seeds: std::ops::Range<u64>,
        chaos_seeds: std::ops::Range<u64>,
    ) -> GridSpec {
        let mut g = GridSpec::new(program_seeds, chaos_seeds);
        g.protocols = ProtocolKind::ALL.to_vec();
        g
    }

    /// A grid whose chaos axis sweeps lossy wires: frame drops (≤10%),
    /// duplicates, and cross-channel reordering, recovered by the
    /// reliable transport. The oracle expects every run to complete
    /// with zero violations and zero stalls.
    #[must_use]
    pub fn lossy(
        program_seeds: std::ops::Range<u64>,
        chaos_seeds: std::ops::Range<u64>,
    ) -> GridSpec {
        let mut g = GridSpec::new(program_seeds, chaos_seeds);
        g.lossy = true;
        g
    }

    /// Materializes every scenario in the grid, in deterministic order
    /// (protocol-major, then variant, then program seed, then chaos
    /// seed). Names carry the protocol only when it is not the default
    /// TCC, so single-protocol grids keep their historical names.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &protocol in &self.protocols {
            for variant in &self.variants {
                for ps in self.program_seeds.clone() {
                    let threads = generate_programs(&self.program, ps);
                    for cs in self.chaos_seeds.clone() {
                        let name = if protocol == ProtocolKind::Tcc {
                            format!("{}-p{ps}-c{cs}", variant.name)
                        } else {
                            format!("{}-{protocol}-p{ps}-c{cs}", variant.name)
                        };
                        let mut s = Scenario::new(name, threads.clone());
                        s.tweaks.protocol = protocol;
                        if self.lossy {
                            s.chaos = Some(loss_profile(cs, self.program.n_procs));
                            s.tweaks.transport = true;
                        } else {
                            s.chaos = Some(chaos_profile(cs, self.program.n_procs));
                        }
                        s.tie_break_seed = tie_break_for(cs);
                        s.program_seed = Some(ps);
                        s.bugs = self.bugs;
                        (variant.apply)(&mut s);
                        out.push(s);
                    }
                }
            }
        }
        out
    }
}

fn apply_transport_no_dedup(s: &mut Scenario) {
    s.tweaks.transport = true;
    // Guarantee duplicates exist for the broken receiver to leak:
    // heavy blanket duplication plus enough delay that the copy lands
    // after protocol state has moved on.
    if let Some(chaos) = &mut s.chaos {
        chaos.dups.push(DupRule {
            kind: "*".to_string(),
            prob: 0.35,
            delay: 9,
            from: 0,
            until: u64::MAX,
        });
    }
}

fn apply_transport_no_reorder(s: &mut Scenario) {
    s.tweaks.transport = true;
    // Out-of-order arrivals are what the broken receiver mishandles:
    // force cross-channel reorder jitter, and add drops so retransmitted
    // frames arrive far behind newer traffic (the mutated receiver then
    // skips the gap and discards the late original as a duplicate).
    if let Some(chaos) = &mut s.chaos {
        chaos.drops.push(DropRule {
            kind: "*".to_string(),
            prob: 0.08,
            from: 0,
            until: u64::MAX,
        });
        chaos.reorder = chaos.reorder.max(60);
        chaos.reorder_prob = 0.5;
    }
}

fn apply_writeback_latest_tid(s: &mut Scenario) {
    // The mistagged write-back only matters when a superseded owner's
    // flush races a newer commit to the same line, so force eviction
    // pressure and stretch the invalidate/flush race window.
    s.tweaks.small_caches = true;
    if let Some(chaos) = &mut s.chaos {
        chaos.kind_delays.push(tcc_network::KindDelay {
            kind: "Invalidate".to_string(),
            extra: 40,
            prob: 0.8,
            from: 0,
            until: u64::MAX,
        });
    }
}

/// The grid a given `ProtocolBugs` knob is hunted on by the mutation
/// self-test. Most knobs trip on the default grid; `writeback_latest_tid`
/// needs a hotter program (more commits per thread, store-heavy, tiny
/// line set) plus cache pressure for a superseded owner's write-back to
/// exist at all.
#[must_use]
pub fn mutation_grid(
    knob: &str,
    program_seeds: std::ops::Range<u64>,
    chaos_seeds: std::ops::Range<u64>,
) -> GridSpec {
    let mut grid = GridSpec::new(program_seeds, chaos_seeds);
    assert!(grid.bugs.set_by_name(knob), "unknown mutation knob {knob}");
    let apply: fn(&mut Scenario) = match knob {
        "writeback_latest_tid" => {
            grid.program = ProgramSpec {
                max_txs: 8,
                max_ops: 5,
                n_lines: 2,
                store_fraction: 0.75,
                compute_fraction: 0.1,
                ..ProgramSpec::default()
            };
            apply_writeback_latest_tid
        }
        // The transport knobs break under *wire* faults, so they hunt
        // on the lossy grid (varied drop/dup/reorder shapes per chaos
        // seed) with the fault class they mishandle forced on.
        "transport_no_dedup" => {
            grid.lossy = true;
            apply_transport_no_dedup
        }
        "transport_no_reorder" => {
            grid.lossy = true;
            apply_transport_no_reorder
        }
        _ => apply_none,
    };
    grid.variants = vec![Variant { name: "mut", apply }];
    grid
}

/// How far before the observed failure cycle the shipped snapshot is
/// taken: resuming it replays the final approach into the failure
/// without sitting through the whole run again.
pub const SNAPSHOT_LOOKBACK: u64 = 500;

/// One failing grid point.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Index into the materialized scenario list.
    pub index: usize,
    pub scenario: Scenario,
    pub outcome: RunOutcome,
    /// Checkpoint from [`SNAPSHOT_LOOKBACK`] cycles before the failure,
    /// produced by a deterministic partial re-run. `None` when the
    /// failing cycle is unknowable (panics) or precedes the rewind
    /// window.
    pub snapshot: Option<tcc_core::Snapshot>,
}

impl FailureRecord {
    /// Records grid point `index`, re-running it for the checkpoint.
    fn new(index: usize, scenario: &Scenario, outcome: RunOutcome) -> FailureRecord {
        let snapshot = outcome
            .fail_cycle
            .and_then(|at| scenario.checkpoint_before(at, SNAPSHOT_LOOKBACK));
        FailureRecord {
            index,
            scenario: scenario.clone(),
            outcome,
            snapshot,
        }
    }
}

/// The result of sweeping a grid.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Scenarios executed.
    pub runs: usize,
    /// Total transactions committed across passing runs.
    pub commits: u64,
    /// Failing grid points, in grid order.
    pub failures: Vec<FailureRecord>,
}

impl ExploreReport {
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

static QUIET_HOOK: Once = Once::new();

/// Silences panic backtraces from chaos worker threads (expected when
/// exploring mutated protocols) while leaving every other thread's
/// panic reporting untouched.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("chaos-"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

/// Runs `scenarios` across `jobs` worker threads and collects failures
/// in grid order. `jobs == 1` still uses one worker thread so panic
/// output stays suppressed. The report is independent of `jobs`.
///
/// The fan-out is leased from the process-wide [`tcc_core::WorkerBudget`],
/// so composing this sweep with other thread pools (a bench `--jobs`
/// fan-out) degrades the worker count
/// instead of oversubscribing the machine — and since the report is
/// `jobs`-invariant, a reduced grant never changes the result.
#[must_use]
pub fn run_scenarios(scenarios: &[Scenario], jobs: usize) -> ExploreReport {
    install_quiet_panic_hook();
    let desired = jobs.clamp(1, scenarios.len().max(1));
    let lease = tcc_core::WorkerBudget::global().lease(desired);
    let jobs = lease.workers().clamp(1, scenarios.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunOutcome>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let next = &next;
            let results = &results;
            std::thread::Builder::new()
                .name(format!("chaos-{w}"))
                .spawn_scoped(scope, move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(scenario) = scenarios.get(i) else {
                        break;
                    };
                    let outcome = scenario.run();
                    *results[i].lock().unwrap() = Some(outcome);
                })
                .expect("spawn chaos worker");
        }
    });
    let mut report = ExploreReport {
        runs: scenarios.len(),
        ..ExploreReport::default()
    };
    for (i, slot) in results.into_iter().enumerate() {
        let outcome = slot
            .into_inner()
            .unwrap()
            .expect("every grid point must have run");
        report.commits += outcome.commits;
        if outcome.failure.is_some() {
            report
                .failures
                .push(FailureRecord::new(i, &scenarios[i], outcome));
        }
    }
    report
}

/// Sweeps the grid until the first failing scenario (or exhaustion),
/// returning how many scenarios were tried. This is the mutation
/// self-test's "seed budget" measurement: scenarios run one at a time
/// in grid order so the count is exact and deterministic.
#[must_use]
pub fn seeds_to_first_failure(scenarios: &[Scenario]) -> Option<(usize, FailureRecord)> {
    install_quiet_panic_hook();
    let found = Mutex::new(None);
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("chaos-seq".to_string())
            .spawn_scoped(scope, || {
                for (i, scenario) in scenarios.iter().enumerate() {
                    let outcome = scenario.run();
                    if outcome.failure.is_some() {
                        let record = FailureRecord::new(i, scenario, outcome);
                        *found.lock().unwrap() = Some((i + 1, record));
                        return;
                    }
                }
            })
            .expect("spawn chaos worker");
    });
    found.into_inner().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_deterministic_and_jobs_invariant() {
        let grid = GridSpec::new(0..2, 0..3);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 6);
        assert_eq!(scenarios[0].name, "base-p0-c0");
        assert_eq!(scenarios[5].name, "base-p1-c2");
        let serial = run_scenarios(&scenarios, 1);
        let parallel = run_scenarios(&scenarios, 4);
        assert_eq!(serial.runs, parallel.runs);
        assert_eq!(serial.commits, parallel.commits);
        assert_eq!(serial.failures.len(), parallel.failures.len());
    }

    #[test]
    fn protocol_axis_sweeps_every_backend() {
        let grid = GridSpec::all_protocols(0..1, 0..1);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].name, "base-p0-c0");
        assert_eq!(scenarios[1].name, "base-serialized-p0-c0");
        assert_eq!(scenarios[2].name, "base-tardis-p0-c0");
        let report = run_scenarios(&scenarios, 3);
        assert!(
            report.passed(),
            "cross-protocol grid failed: {:?}",
            report
                .failures
                .iter()
                .map(|f| (
                    &f.scenario.name,
                    f.outcome.failure.as_ref().map(|x| x.to_string())
                ))
                .collect::<Vec<_>>()
        );
    }
}
