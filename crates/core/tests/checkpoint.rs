//! Checkpoint/restore determinism.
//!
//! The contract under test: a run resumed from a checkpoint taken at
//! *any* cycle produces a [`SimResult::fingerprint`] byte-identical to
//! the uninterrupted run's. The matrix below drives checkpoints through
//! mid-commit windows, mid-retransmission transport state, seeded
//! tie-breaking, directory caches, and TAPE profiling, plus the refusal
//! paths (wrong config, wrong workload, damaged bytes).

use tcc_core::{
    ParallelConfig, ProtocolKind, ResumeError, Simulator, Snapshot, Step, SystemConfig,
    ThreadProgram, Transaction, TransportConfig, TxOp, WatchdogConfig, WorkItem,
};
use tcc_network::{ChaosConfig, DropRule, DupRule};
use tcc_trace::{TraceConfig, Tracer};
use tcc_types::rng::SmallRng;
use tcc_types::snap::SnapError;
use tcc_types::{Addr, Cycle};

/// Seeded random programs over a hot address space (conflicts, owner
/// transfers, and violations are frequent).
fn random_programs(n_procs: usize, txs: usize, seed: u64) -> Vec<ThreadProgram> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_procs)
        .map(|_| {
            let mut items = Vec::new();
            for t in 0..txs {
                let n_ops = rng.gen_range(1..=6);
                let mut ops = Vec::with_capacity(n_ops);
                for _ in 0..n_ops {
                    let line = rng.gen_range(0..6u64);
                    let word = rng.gen_range(0..8u64);
                    let addr = Addr(line * 32 + word * 4);
                    if rng.gen_bool(0.45) {
                        ops.push(TxOp::Store(addr));
                    } else {
                        ops.push(TxOp::Load(addr));
                    }
                    if rng.gen_bool(0.5) {
                        ops.push(TxOp::Compute(rng.gen_range(1..60)));
                    }
                }
                items.push(WorkItem::Tx(Transaction::new(ops)));
                if (t + 1) % 3 == 0 {
                    items.push(WorkItem::Barrier);
                }
            }
            ThreadProgram::new(items)
        })
        .collect()
}

fn lossy_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drops: vec![DropRule {
            kind: "*".to_string(),
            prob: 0.08,
            from: 0,
            until: u64::MAX,
        }],
        dups: vec![DupRule {
            kind: "*".to_string(),
            prob: 0.15,
            delay: 11,
            from: 0,
            until: u64::MAX,
        }],
        reorder: 40,
        reorder_prob: 0.3,
        ..ChaosConfig::default()
    }
}

fn build(cfg: &SystemConfig, programs: &[ThreadProgram]) -> Simulator {
    Simulator::builder(cfg.clone())
        .programs(programs.to_vec())
        .build()
        .expect("valid config")
}

/// The configuration matrix: every distinct snapshotted subsystem
/// combination (plain, seeded tie-break, chaos + transport + watchdog,
/// directory cache, profiling).
fn matrix() -> Vec<(&'static str, SystemConfig)> {
    let mut base = SystemConfig::with_procs(4);
    base.check_serializability = true;

    let mut seeded = base.clone();
    seeded.tie_break_seed = Some(0xfeed);

    let mut chaotic = base.clone();
    chaotic.chaos = Some(lossy_chaos(17));
    chaotic.transport = Some(TransportConfig::default());
    chaotic.watchdog = Some(WatchdogConfig::default());
    chaotic.tie_break_seed = Some(7);

    let mut dircache = base.clone();
    dircache.dir_cache_entries = Some(3);

    let mut profiled = base.clone();
    profiled.profile = true;

    vec![
        ("plain", base),
        ("seeded", seeded),
        ("chaotic", chaotic),
        ("dircache", dircache),
        ("profiled", profiled),
    ]
}

/// Pauses at `at`, round-trips the checkpoint through container bytes,
/// resumes a fresh machine, and returns its end-of-run fingerprint.
/// `None` if the run completed before the pause cycle.
fn fingerprint_via_checkpoint(
    cfg: &SystemConfig,
    programs: &[ThreadProgram],
    at: u64,
) -> Option<String> {
    let sim = build(cfg, programs);
    match sim
        .try_run_until(Some(Cycle(at)))
        .expect("run must not stall")
    {
        Step::Done(_) => None,
        Step::Paused(paused) => {
            let snap = paused.checkpoint();
            assert_eq!(snap.at_cycle, paused.queue_now().0);
            let bytes = snap.to_bytes();
            let reread = Snapshot::from_bytes(&bytes).expect("container round-trips");
            let resumed =
                Simulator::resume(cfg.clone(), programs.to_vec(), &reread).expect("resume");
            // A freshly resumed machine must re-checkpoint to the very
            // same bytes: resume is lossless, not merely
            // behavior-preserving.
            assert_eq!(
                resumed.checkpoint().to_bytes(),
                bytes,
                "re-checkpoint after resume must be byte-identical"
            );
            let r = resumed.try_run().expect("resumed run must complete");
            if cfg.check_serializability {
                r.assert_serializable();
            }
            Some(r.fingerprint())
        }
    }
}

#[test]
fn resumed_runs_fingerprint_identical_across_matrix() {
    for (name, cfg) in matrix() {
        let programs = random_programs(4, 6, 99);
        let baseline = build(&cfg, &programs).try_run().expect("baseline");
        let expect = baseline.fingerprint();
        let total = baseline.total_cycles;
        assert!(total > 8, "{name}: workload too small to checkpoint");
        // Checkpoint cycles spread across the run, including very early
        // (mid first commit window) and late.
        for frac in [8, 3, 2] {
            let at = total / frac;
            let got = fingerprint_via_checkpoint(&cfg, &programs, at);
            assert_eq!(
                got.as_deref(),
                Some(expect.as_str()),
                "{name}: resume from cycle {at} of {total} diverged"
            );
        }
    }
}

#[test]
fn dense_checkpoint_sweep_on_chaotic_config() {
    // Fine-grained sweep across the run most likely to have awkward
    // mid-flight state (retransmission timers armed, frames in the
    // reorder buffer, commits mid-mark).
    let (_, cfg) = matrix().into_iter().find(|(n, _)| *n == "chaotic").unwrap();
    let programs = random_programs(4, 4, 5);
    let baseline = build(&cfg, &programs).try_run().expect("baseline");
    let expect = baseline.fingerprint();
    let total = baseline.total_cycles;
    let step = (total / 12).max(1);
    let mut tested = 0;
    for at in (step..total).step_by(step as usize) {
        if let Some(got) = fingerprint_via_checkpoint(&cfg, &programs, at) {
            assert_eq!(got, expect, "resume from cycle {at} of {total} diverged");
            tested += 1;
        }
    }
    assert!(tested >= 8, "sweep only exercised {tested} checkpoints");
}

#[test]
fn pause_and_continue_in_place_matches_uninterrupted() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 6, 21);
    let baseline = build(&cfg, &programs).try_run().expect("baseline");
    // Run the same machine with a pause every 50 cycles, never
    // serializing — pausing alone must not perturb anything.
    let mut sim = build(&cfg, &programs);
    let mut at = 50;
    let result = loop {
        match sim.try_run_until(Some(Cycle(at))).expect("paused run") {
            Step::Done(r) => break r,
            Step::Paused(p) => {
                sim = *p;
                at += 50;
            }
        }
    };
    assert_eq!(result.fingerprint(), baseline.fingerprint());
}

#[test]
fn checkpoint_bytes_are_a_pure_function_of_state() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 5, 3);
    let sim = build(&cfg, &programs);
    let Step::Paused(paused) = sim.try_run_until(Some(Cycle(120))).expect("run") else {
        panic!("run finished before the pause cycle");
    };
    assert_eq!(
        paused.checkpoint().to_bytes(),
        paused.checkpoint().to_bytes()
    );
}

#[test]
fn resume_refuses_wrong_config() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 5, 3);
    let Step::Paused(paused) = build(&cfg, &programs)
        .try_run_until(Some(Cycle(120)))
        .expect("run")
    else {
        panic!("run finished before the pause cycle");
    };
    let snap = paused.checkpoint();
    let mut other = cfg.clone();
    other.dir_ctrl_latency += 1;
    let err = Simulator::resume(other, programs, &snap).unwrap_err();
    assert!(
        matches!(err, ResumeError::Container(_)),
        "expected a config-digest refusal, got: {err}"
    );
}

#[test]
fn resume_refuses_wrong_programs() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 5, 3);
    let Step::Paused(paused) = build(&cfg, &programs)
        .try_run_until(Some(Cycle(120)))
        .expect("run")
    else {
        panic!("run finished before the pause cycle");
    };
    let snap = paused.checkpoint();
    let other = random_programs(4, 5, 4); // different workload seed
    let err = Simulator::resume(cfg, other, &snap).unwrap_err();
    assert!(
        matches!(err, ResumeError::ProgramMismatch { .. }),
        "expected a workload refusal, got: {err}"
    );
}

#[test]
fn resume_refuses_damaged_state() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 5, 3);
    let Step::Paused(paused) = build(&cfg, &programs)
        .try_run_until(Some(Cycle(120)))
        .expect("run")
    else {
        panic!("run finished before the pause cycle");
    };
    let snap = paused.checkpoint();
    // Truncation at every eighth of the body must yield a typed error,
    // never a panic or a silently short machine.
    for cut in 1..8 {
        let truncated = Snapshot {
            config_digest: snap.config_digest,
            at_cycle: snap.at_cycle,
            body: snap.body[..snap.body.len() * cut / 8].to_vec(),
        };
        let err = Simulator::resume(cfg.clone(), programs.clone(), &truncated).unwrap_err();
        assert!(
            matches!(
                err,
                ResumeError::State(_) | ResumeError::ProgramMismatch { .. }
            ),
            "cut {cut}/8: expected a state refusal, got: {err}"
        );
    }
}

/// An event queue the body cannot describe — a pending entry before the
/// clock, or a sequence number at or past the next one — is refused as
/// `ResumeError::State`, never a panic.
#[test]
fn resume_refuses_an_inconsistent_event_queue() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 5, 3);
    let Step::Paused(paused) = build(&cfg, &programs)
        .try_run_until(Some(Cycle(120)))
        .expect("run")
    else {
        panic!("run finished before the pause cycle");
    };
    let snap = paused.checkpoint();
    // Program digest (8 bytes), protocol tag (1), started flag (1), then
    // the queue: now, next seq, popped, entry count, first entry's cycle.
    let word = |body: &[u8], at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    assert_eq!(word(&snap.body, 10), snap.at_cycle, "the queue clock");
    assert!(word(&snap.body, 34) > 0, "the pause leaves events pending");
    let first_at = word(&snap.body, 42);
    for (offset, value) in [(10, first_at + 1), (18, 0)] {
        let mut body = snap.body.clone();
        body[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        let crafted = Snapshot {
            body,
            ..snap.clone()
        };
        let err = Simulator::resume(cfg.clone(), programs.clone(), &crafted).unwrap_err();
        assert!(
            matches!(
                err,
                ResumeError::State(SnapError::Invalid {
                    what: "EventQueue",
                    ..
                })
            ),
            "word at {offset} set to {value}: {err}"
        );
    }
}

#[test]
fn early_checkpoint_before_any_event_resumes() {
    // Pause at cycle 0: only the start()-scheduled events exist. The
    // resumed run must still match end to end.
    let mut cfg = SystemConfig::with_procs(2);
    cfg.check_serializability = true;
    let programs = random_programs(2, 3, 11);
    let baseline = build(&cfg, &programs).try_run().expect("baseline");
    let got = fingerprint_via_checkpoint(&cfg, &programs, 0);
    assert_eq!(got.as_deref(), Some(baseline.fingerprint().as_str()));
}

/// The tracer is neither config nor body: a run checkpointed with a
/// metrics tracer attached resumes untraced, to the uninterrupted run's
/// fingerprint.
#[test]
fn traced_checkpoint_resumes_untraced() {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.check_serializability = true;
    let programs = random_programs(4, 5, 3);
    let baseline = build(&cfg, &programs).try_run().expect("baseline");
    let tracer = Tracer::new(&TraceConfig::metrics_only());
    let Step::Paused(paused) = Simulator::builder(cfg.clone())
        .programs(programs.clone())
        .tracer(tracer.clone())
        .build()
        .expect("valid config")
        .try_run_until(Some(Cycle(baseline.total_cycles / 2)))
        .expect("run")
    else {
        panic!("run finished before the pause cycle");
    };
    let traced = tracer.take_report().expect("the tracer is enabled");
    assert!(traced.metrics.counter("engine.events_dispatched") > 0);
    let r = Simulator::resume(cfg, programs, &paused.checkpoint())
        .expect("resume")
        .try_run()
        .expect("resumed run");
    assert!(r.trace.is_none(), "the resumed run is untraced");
    assert_eq!(r.fingerprint(), baseline.fingerprint());
    r.assert_serializable();
}

// ---------------------------------------------------------------------
// `parallel` is inert: every run uses the one event loop, so setting it
// changes no result, and a snapshot taken under either value resumes
// under the other.
// ---------------------------------------------------------------------

#[test]
fn parallel_config_is_inert_fresh_and_resumed_for_every_protocol() {
    for kind in ProtocolKind::ALL {
        for seed in [None, Some(0xfeed)] {
            let mut cfg = SystemConfig::with_procs(4);
            cfg.protocol = kind;
            cfg.tie_break_seed = seed;
            let mut pcfg = cfg.clone();
            pcfg.parallel = Some(ParallelConfig::with_workers(2));
            let tag = format!("{kind}/seed {seed:?}");
            let programs = random_programs(4, 6, 99);
            let classic = build(&cfg, &programs).try_run().expect("classic run");
            let expect = classic.fingerprint();
            let fresh = build(&pcfg, &programs).try_run().expect("parallel run");
            assert_eq!(fresh.fingerprint(), expect, "{tag}: fresh run");
            let at = Cycle(classic.total_cycles / 2);
            for (capture, resume) in [(&cfg, &pcfg), (&pcfg, &cfg)] {
                let Step::Paused(paused) = build(capture, &programs)
                    .try_run_until(Some(at))
                    .expect("run must not stall")
                else {
                    panic!("{tag}: run finished before pause cycle {at}");
                };
                let snap = paused.checkpoint();
                let r = Simulator::resume(resume.clone(), programs.clone(), &snap)
                    .expect("resume must be accepted")
                    .try_run()
                    .expect("resumed run");
                assert_eq!(
                    r.fingerprint(),
                    expect,
                    "{tag}: snapshot at {at} captured with parallel={:?}, \
                     resumed with parallel={:?}",
                    capture.parallel,
                    resume.parallel
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned snapshot bytes: the cache arrays' slot order, LRU stamps and
// the program digest are part of the v4 body, so a change to the cache
// layout or to how the digest is computed that alters a single byte
// breaks resuming snapshots written by earlier builds.
// ---------------------------------------------------------------------

/// Small caches (L1 4 sets x 2 ways, L2 8 sets x 4 ways) over a 40-line
/// hot set, so sets fill, LRU victims are chosen, speculative lines
/// pin ways, and aborts drain several ways of one set.
fn pinned_case(kind: ProtocolKind) -> (SystemConfig, Vec<ThreadProgram>) {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.protocol = kind;
    cfg.cache.l1_bytes = 256;
    cfg.cache.l1_ways = 2;
    cfg.cache.l2_bytes = 1024;
    cfg.cache.l2_ways = 4;
    let mut rng = SmallRng::seed_from_u64(0x51ab_0001);
    let programs = (0..4)
        .map(|_| {
            let items = (0..12)
                .map(|_| {
                    let mut ops = Vec::new();
                    for _ in 0..rng.gen_range(2..=8) {
                        let addr = Addr(rng.gen_range(0..40u64) * 32 + rng.gen_range(0..2u64) * 4);
                        ops.push(if rng.gen_bool(0.4) {
                            TxOp::Store(addr)
                        } else {
                            TxOp::Load(addr)
                        });
                        ops.push(TxOp::Compute(rng.gen_range(1..40)));
                    }
                    WorkItem::Tx(Transaction::new(ops))
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect();
    (cfg, programs)
}

#[test]
fn checkpoint_bytes_are_pinned_for_every_protocol() {
    // FNV-1a of the `Debug` rendering of `pinned_case`'s programs.
    const PROGRAM_DIGEST: u64 = 0x406e_d523_b4c4_ff4e;
    // (protocol, FNV-1a of the body at the pause cycle)
    let pinned = [
        (ProtocolKind::Tcc, 0x821f_add4_dc15_4c21),
        (ProtocolKind::SerializedCommit, 0x9f71_781c_d146_d6fd),
        (ProtocolKind::Tardis, 0x9648_1592_f7ba_a948),
    ];
    for (kind, body_fnv) in pinned {
        let (cfg, programs) = pinned_case(kind);
        let full = build(&cfg, &programs).try_run().expect("baseline run");
        assert!(full.violations > 0, "{kind}: the case must abort");
        let at = Cycle(full.total_cycles / 2);
        let Step::Paused(paused) = build(&cfg, &programs)
            .try_run_until(Some(at))
            .expect("run must not stall")
        else {
            panic!("{kind}: run finished before pause cycle {at}");
        };
        let snap = paused.checkpoint();
        let digest = u64::from_le_bytes(snap.body[..8].try_into().unwrap());
        assert_eq!(
            tcc_types::hash::fnv1a(&snap.body),
            body_fnv,
            "{kind}: body bytes"
        );
        assert_eq!(digest, PROGRAM_DIGEST, "{kind}: program digest");
        let r = Simulator::resume(cfg.clone(), programs.clone(), &snap)
            .expect("resume")
            .try_run()
            .expect("resumed run");
        assert_eq!(r.fingerprint(), full.fingerprint(), "{kind}: resumed run");
        let mut other = programs;
        for p in &mut other {
            p.items.push(WorkItem::Barrier);
        }
        assert!(matches!(
            Simulator::resume(cfg, other, &snap),
            Err(ResumeError::ProgramMismatch { .. })
        ));
    }
}

/// The sibling of the plain pins with every optional body section
/// present: checker records, reliable transport under chaos, watchdog
/// and seeded tie-break for every backend, plus the directory cache and
/// TAPE profile for TCC. A reordered field in any section's encoding
/// moves its FNV.
#[test]
fn checkpoint_bytes_are_pinned_with_every_section_present() {
    // (protocol, body length, FNV-1a of the body at the pause cycle)
    let pinned = [
        (ProtocolKind::Tcc, 17_782, 0xff28_99cb_bc25_5c17),
        (
            ProtocolKind::SerializedCommit,
            13_221,
            0x62eb_0e8e_5eae_40d0,
        ),
        (ProtocolKind::Tardis, 19_545, 0x6980_2c32_9af6_007d),
    ];
    for (kind, body_len, body_fnv) in pinned {
        let (mut cfg, programs) = pinned_case(kind);
        cfg.check_serializability = true;
        cfg.chaos = Some(lossy_chaos(17));
        cfg.transport = Some(TransportConfig::default());
        cfg.watchdog = Some(WatchdogConfig::default());
        cfg.tie_break_seed = Some(7);
        if kind == ProtocolKind::Tcc {
            cfg.dir_cache_entries = Some(3);
            cfg.profile = true;
        }
        let full = build(&cfg, &programs).try_run().expect("baseline run");
        let at = Cycle(full.total_cycles / 2);
        let Step::Paused(paused) = build(&cfg, &programs)
            .try_run_until(Some(at))
            .expect("run must not stall")
        else {
            panic!("{kind}: run finished before pause cycle {at}");
        };
        let snap = paused.checkpoint();
        assert_eq!(snap.body.len(), body_len, "{kind}: body length");
        assert_eq!(
            tcc_types::hash::fnv1a(&snap.body),
            body_fnv,
            "{kind}: body bytes"
        );
        let r = Simulator::resume(cfg, programs, &snap)
            .expect("resume")
            .try_run()
            .expect("resumed run");
        assert_eq!(r.fingerprint(), full.fingerprint(), "{kind}: resumed run");
    }
}

// ---------------------------------------------------------------------
// Cache-array refusals: a snapshot whose tag arrays do not fit the
// machine's geometry is refused as `ResumeError::State`, never a panic
// and never a silently misrouted lookup.
// ---------------------------------------------------------------------

/// Resumes a one-processor machine (L1: 7 sets x 2 ways) from a
/// snapshot of its freshly built state whose empty L1 section is
/// replaced by `tick` and `sets` of `(line, stamp)` ways.
fn resume_with_l1(tick: u64, sets: &[Vec<(u64, u64)>]) -> Result<Simulator, ResumeError> {
    let mut cfg = SystemConfig::with_procs(1);
    cfg.cache.l1_bytes = 7 * 2 * 32;
    cfg.cache.l1_ways = 2;
    cfg.cache.l2_bytes = 11 * 2 * 32;
    cfg.cache.l2_ways = 2;
    let programs = vec![ThreadProgram::new(vec![WorkItem::Tx(Transaction::new(
        vec![TxOp::Load(Addr(0))],
    ))])];
    let snap = build(&cfg, &programs).checkpoint();
    let words = |ws: &[u64]| -> Vec<u8> { ws.iter().flat_map(|w| w.to_le_bytes()).collect() };
    // Tick 0, 7 sets, each empty, then the L2's tick 0 and 11 sets.
    let mut empty = vec![0, 7];
    empty.extend([0; 7]);
    empty.extend([0, 11]);
    let empty = words(&empty);
    let found: Vec<usize> = (0..snap.body.len() - empty.len())
        .filter(|&i| snap.body[i..].starts_with(&empty))
        .collect();
    assert_eq!(found.len(), 1, "the empty L1 section is unique");
    let mut crafted = vec![tick, sets.len() as u64];
    for set in sets {
        crafted.push(set.len() as u64);
        crafted.extend(set.iter().flat_map(|&(line, stamp)| [line, stamp]));
    }
    crafted.extend([0, 11]);
    let mut body = snap.body[..found[0]].to_vec();
    body.extend(words(&crafted));
    body.extend(&snap.body[found[0] + empty.len()..]);
    let crafted = Snapshot { body, ..snap };
    Simulator::resume(cfg, programs, &crafted)
}

fn assert_l1_refused(resumed: Result<Simulator, ResumeError>) {
    let Err(err) = resumed else {
        panic!("crafted L1 section was accepted");
    };
    assert!(
        matches!(
            &err,
            ResumeError::State(SnapError::Invalid {
                what: "HierCache.l1",
                ..
            })
        ),
        "expected an L1 state refusal, got: {err}"
    );
}

#[test]
fn resume_refuses_a_cache_array_with_the_wrong_set_count() {
    assert_l1_refused(resume_with_l1(0, &vec![Vec::new(); 6]));
}

#[test]
fn resume_refuses_a_cache_set_beyond_its_ways() {
    // Lines 0, 7 and 14 all hash to set 0 of 7.
    let mut sets = vec![Vec::new(); 7];
    sets[0] = vec![(0, 1), (7, 2), (14, 3)];
    assert_l1_refused(resume_with_l1(3, &sets));
}

#[test]
fn resume_refuses_a_cache_stamp_ahead_of_the_tick() {
    let mut sets = vec![Vec::new(); 7];
    sets[0] = vec![(0, 5)];
    assert_l1_refused(resume_with_l1(4, &sets));
}

#[test]
fn resume_refuses_a_cache_line_in_a_foreign_set() {
    let mut sets = vec![Vec::new(); 7];
    sets[1] = vec![(0, 1)];
    assert_l1_refused(resume_with_l1(1, &sets));
}

#[test]
fn resume_refuses_a_cache_line_resident_twice() {
    let mut sets = vec![Vec::new(); 7];
    sets[0] = vec![(7, 1), (7, 2)];
    assert_l1_refused(resume_with_l1(2, &sets));
}

#[test]
fn resume_accepts_a_well_formed_crafted_cache_array() {
    // The harness itself is sound: a consistent crafted section
    // resumes, so the refusals above come from the cache checks.
    let mut sets = vec![Vec::new(); 7];
    sets[0] = vec![(7, 1), (0, 2)];
    sets[3] = vec![(3, 2)];
    assert!(resume_with_l1(2, &sets).is_ok());
}
