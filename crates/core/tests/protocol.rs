//! End-to-end protocol tests for the scalable TCC simulator.
//!
//! Every test runs a complete machine (processors, directories, mesh,
//! vendor) and checks both the outcome (commits, violations) and the
//! serializability of the committed history.

use tcc_core::{
    ProtocolKind, SimResult, Simulator, SystemConfig, ThreadProgram, Transaction, TxOp, WorkItem,
};
use tcc_types::Addr;

fn cfg(n: usize) -> SystemConfig {
    SystemConfig {
        check_serializability: true,
        ..SystemConfig::with_procs(n)
    }
}

fn tx(ops: Vec<TxOp>) -> WorkItem {
    WorkItem::Tx(Transaction::new(ops))
}

fn run(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> SimResult {
    let r = Simulator::builder(cfg)
        .programs(programs)
        .build()
        .expect("valid config")
        .run();
    r.assert_serializable();
    r
}

/// Word address helpers: distinct cache lines, spread across homes.
fn line_addr(line: u64, word: u64) -> Addr {
    Addr(line * 32 + word * 4)
}

#[test]
fn uniprocessor_executes_all_transactions() {
    let programs = vec![ThreadProgram::new(vec![
        tx(vec![
            TxOp::Load(line_addr(1, 0)),
            TxOp::Compute(100),
            TxOp::Store(line_addr(1, 0)),
        ]),
        tx(vec![TxOp::Load(line_addr(2, 3)), TxOp::Compute(50)]),
        tx(vec![TxOp::Compute(10)]),
    ])];
    let r = run(cfg(1), programs);
    assert_eq!(r.commits, 3);
    assert_eq!(r.violations, 0);
    assert_eq!(r.instructions, 100 + 2 + 50 + 1 + 10);
    // Uniprocessor: all five components sum to the makespan.
    assert_eq!(r.breakdowns[0].total(), r.total_cycles);
    // Commit overhead should be a small fraction on one processor
    // (paper: ~1-3%); allow generous slack for tiny transactions.
    assert!(r.breakdowns[0].useful > 0);
}

#[test]
fn disjoint_transactions_commit_in_parallel_without_violations() {
    // 8 processors write to disjoint lines homed at their own node
    // (line ≡ node (mod 8)): the parallel-commit path with no conflicts.
    let n = 8u64;
    let programs: Vec<ThreadProgram> = (0..n)
        .map(|p| {
            let items = (0..5)
                .map(|t| {
                    tx(vec![
                        TxOp::Load(line_addr(p + n * t, 0)),
                        TxOp::Compute(200),
                        TxOp::Store(line_addr(p + n * t, 1)),
                    ])
                })
                .collect();
            ThreadProgram::new(items)
        })
        .collect();
    let r = run(cfg(n as usize), programs);
    assert_eq!(r.commits, 40);
    assert_eq!(r.violations, 0);
}

#[test]
fn true_conflict_violates_exactly_the_reader() {
    // P0 reads X then computes a long time; P1 quickly writes X. P1's
    // commit must invalidate P0 (word-granularity conflict) and P0 must
    // re-execute, finally reading P1's committed value.
    let x = line_addr(5, 2);
    let programs = vec![
        ThreadProgram::new(vec![tx(vec![TxOp::Load(x), TxOp::Compute(50_000)])]),
        ThreadProgram::new(vec![tx(vec![TxOp::Store(x), TxOp::Compute(10)])]),
    ];
    let r = run(cfg(2), programs);
    assert_eq!(r.commits, 2);
    assert!(r.violations >= 1, "the long-running reader must violate");
    assert!(r.breakdowns[0].violation > 0);
    assert_eq!(r.breakdowns[1].violation, 0);
}

#[test]
fn word_granularity_avoids_false_sharing_violations() {
    // P0 reads word 0 of line X; P1 writes word 7 of line X. Disjoint
    // words: no violation under word-granularity tracking.
    let programs = vec![
        ThreadProgram::new(vec![tx(vec![
            TxOp::Load(line_addr(6, 0)),
            TxOp::Compute(50_000),
        ])]),
        ThreadProgram::new(vec![tx(vec![
            TxOp::Store(line_addr(6, 7)),
            TxOp::Compute(10),
        ])]),
    ];
    let r = run(cfg(2), programs);
    assert_eq!(r.commits, 2);
    assert_eq!(r.violations, 0, "disjoint words must not conflict");
}

#[test]
fn line_granularity_exposes_false_sharing() {
    let mut c = cfg(2);
    c.cache.granularity = tcc_cache::Granularity::Line;
    let programs = vec![
        ThreadProgram::new(vec![tx(vec![
            TxOp::Load(line_addr(6, 0)),
            TxOp::Compute(50_000),
        ])]),
        ThreadProgram::new(vec![tx(vec![
            TxOp::Store(line_addr(6, 7)),
            TxOp::Compute(10),
        ])]),
    ];
    let r = Simulator::builder(c)
        .programs(programs)
        .build()
        .expect("valid config")
        .run();
    assert_eq!(r.commits, 2);
    assert!(r.violations >= 1, "line granularity must see false sharing");
}

#[test]
fn write_write_overlap_does_not_violate() {
    // Two writers to the same word, neither reads it: under lazy
    // versioning both commit (serialized by the directory), no
    // violations.
    let x = line_addr(9, 1);
    let programs = vec![
        ThreadProgram::new(vec![tx(vec![TxOp::Store(x), TxOp::Compute(1_000)])]),
        ThreadProgram::new(vec![tx(vec![TxOp::Store(x), TxOp::Compute(1_000)])]),
    ];
    let r = run(cfg(2), programs);
    assert_eq!(r.commits, 2);
    assert_eq!(r.violations, 0, "blind writes must not violate each other");
}

#[test]
fn committed_data_is_forwarded_from_the_owner() {
    // P0 writes X and commits; after a barrier, P1 reads X. The data
    // must travel P0 -> directory -> P1 (write-back protocol), and P1
    // must observe P0's committed value — which the checker verifies.
    // Line 8 is homed at node 0 so the forwarded reply to P1 crosses
    // the mesh and is visible in the remote-traffic accounting.
    let x = line_addr(8, 3);
    let programs = vec![
        ThreadProgram::new(vec![
            tx(vec![TxOp::Store(x), TxOp::Compute(10)]),
            WorkItem::Barrier,
            tx(vec![TxOp::Compute(1)]),
        ]),
        ThreadProgram::new(vec![
            tx(vec![TxOp::Compute(5)]),
            WorkItem::Barrier,
            tx(vec![TxOp::Load(x), TxOp::Compute(10)]),
        ]),
    ];
    let r = run(cfg(2), programs);
    assert_eq!(r.commits, 4);
    assert_eq!(r.violations, 0);
    // The forward shows up as Shared traffic (owner-sourced fill).
    assert!(
        r.traffic
            .bytes_in_category(tcc_types::TrafficCategory::Shared)
            > 0,
        "expected an owner-forwarded fill"
    );
}

#[test]
fn read_modify_write_chain_is_serializable() {
    // All 4 processors increment the same counter (load + store same
    // word) repeatedly. Heavy conflicts; every committed read must see
    // the immediately-preceding committed write.
    let x = line_addr(3, 0);
    let programs: Vec<ThreadProgram> = (0..4)
        .map(|_| {
            let items = (0..4)
                .map(|_| tx(vec![TxOp::Load(x), TxOp::Compute(100), TxOp::Store(x)]))
                .collect();
            ThreadProgram::new(items)
        })
        .collect();
    let r = run(cfg(4), programs);
    assert_eq!(r.commits, 16);
    assert!(r.violations > 0, "contended RMW must produce violations");
}

#[test]
fn starved_transaction_eventually_commits_via_early_tid() {
    // One long reader against three fast writers hammering its
    // read-set. The starvation threshold forces the reader into
    // serialized (early-TID) mode, guaranteeing completion.
    let x = line_addr(11, 0);
    let mut programs = vec![ThreadProgram::new(vec![tx(vec![
        TxOp::Load(x),
        TxOp::Compute(30_000),
    ])])];
    for _ in 0..3 {
        let items = (0..12)
            .map(|_| tx(vec![TxOp::Store(x), TxOp::Compute(500)]))
            .collect();
        programs.push(ThreadProgram::new(items));
    }
    let mut c = cfg(4);
    c.starvation_threshold = 3;
    let r = run(c, programs);
    assert_eq!(r.commits, 1 + 3 * 12);
    assert!(
        r.proc_counters[0].serialized_retries >= 1,
        "the starved reader should have used the early-TID path"
    );
}

#[test]
fn speculative_overflow_falls_back_to_serialized_mode() {
    // A transaction whose read-set exceeds the tiny cache must overflow
    // and complete via the serialized victim-buffer path.
    let mut c = cfg(2);
    c.cache.l1_bytes = 64;
    c.cache.l1_ways = 1;
    c.cache.l2_bytes = 256; // 8 lines of 32B
    c.cache.l2_ways = 2;
    // Read 64 distinct lines, then write a few, in one transaction.
    let mut ops = Vec::new();
    for i in 0..64 {
        ops.push(TxOp::Load(line_addr(i, 0)));
    }
    for i in 0..8 {
        ops.push(TxOp::Store(line_addr(i, 1)));
    }
    let programs = vec![
        ThreadProgram::new(vec![tx(ops)]),
        ThreadProgram::new(vec![tx(vec![TxOp::Compute(100)])]),
    ];
    let r = run(c, programs);
    assert_eq!(r.commits, 2);
    assert!(r.proc_counters[0].overflows >= 1, "must have overflowed");
    assert!(r.proc_counters[0].serialized_retries >= 1);
}

#[test]
fn producer_consumer_through_many_lines() {
    // P0 writes 32 lines; barrier; P1..P3 each read all of them and
    // must see P0's values (exercises owner forwarding + write-backs).
    let n_lines = 32u64;
    let writer_items = vec![
        tx((0..n_lines)
            .map(|i| TxOp::Store(line_addr(100 + i, i % 8)))
            .collect()),
        WorkItem::Barrier,
        tx(vec![TxOp::Compute(1)]),
    ];
    let reader_items = |_: usize| {
        vec![
            tx(vec![TxOp::Compute(1)]),
            WorkItem::Barrier,
            tx((0..n_lines)
                .map(|i| TxOp::Load(line_addr(100 + i, i % 8)))
                .collect()),
        ]
    };
    let programs = vec![
        ThreadProgram::new(writer_items),
        ThreadProgram::new(reader_items(1)),
        ThreadProgram::new(reader_items(2)),
        ThreadProgram::new(reader_items(3)),
    ];
    let r = run(cfg(4), programs);
    assert_eq!(r.commits, 8);
    assert_eq!(r.violations, 0);
}

#[test]
fn breakdowns_sum_to_makespan_with_barriers_and_conflicts() {
    let x = line_addr(4, 0);
    let programs: Vec<ThreadProgram> = (0..4)
        .map(|p| {
            ThreadProgram::new(vec![
                tx(vec![
                    TxOp::Load(x),
                    TxOp::Compute(500 * (p + 1) as u32),
                    TxOp::Store(x),
                ]),
                WorkItem::Barrier,
                tx(vec![TxOp::Compute(100)]),
            ])
        })
        .collect();
    let r = run(cfg(4), programs);
    for (i, b) in r.breakdowns.iter().enumerate() {
        assert_eq!(
            b.total(),
            r.total_cycles,
            "processor {i} breakdown {b:?} must sum to the makespan"
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let x = line_addr(8, 0);
    let mk = || -> Vec<ThreadProgram> {
        (0..4)
            .map(|p| {
                let items = (0..3)
                    .map(|_| {
                        tx(vec![
                            TxOp::Load(x),
                            TxOp::Compute(50 + p as u32),
                            TxOp::Store(line_addr(20 + p, 0)),
                        ])
                    })
                    .collect();
                ThreadProgram::new(items)
            })
            .collect()
    };
    let a = Simulator::builder(cfg(4))
        .programs(mk())
        .build()
        .expect("valid config")
        .run();
    let b = Simulator::builder(cfg(4))
        .programs(mk())
        .build()
        .expect("valid config")
        .run();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.events, b.events);
    assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
}

#[test]
fn sixty_four_processors_scale_end_to_end() {
    // A smoke test at the paper's largest configuration: 64 processors,
    // mostly-disjoint working sets with a sprinkle of sharing.
    let n = 64u64;
    let shared = line_addr(1, 0);
    let programs: Vec<ThreadProgram> = (0..n)
        .map(|p| {
            let mut items: Vec<WorkItem> = (0..3)
                .map(|t| {
                    tx(vec![
                        TxOp::Load(line_addr(1000 + p + n * t, 0)),
                        TxOp::Compute(400),
                        TxOp::Store(line_addr(1000 + p + n * t, 2)),
                    ])
                })
                .collect();
            if p == 0 {
                items.push(tx(vec![TxOp::Store(shared)]));
            } else {
                items.push(tx(vec![TxOp::Load(shared), TxOp::Compute(10)]));
            }
            ThreadProgram::new(items)
        })
        .collect();
    let r = run(cfg(64), programs);
    assert_eq!(r.commits, 64 * 4);
    assert_eq!(r.breakdowns.len(), 64);
    for b in &r.breakdowns {
        assert_eq!(b.total(), r.total_cycles);
    }
}

#[test]
fn empty_transaction_machine_drains() {
    // Transactions with no memory operations still acquire TIDs and
    // skip every directory — the gap-free sequence must not wedge.
    let programs: Vec<ThreadProgram> = (0..4)
        .map(|_| ThreadProgram::new(vec![tx(vec![TxOp::Compute(5)]); 3]))
        .collect();
    let r = run(cfg(4), programs);
    assert_eq!(r.commits, 12);
    assert_eq!(r.violations, 0);
}

#[test]
fn dirty_line_rewrite_generates_pre_writeback() {
    // Same processor writes the same line in two consecutive
    // transactions: the second write must first write back the
    // committed data (dirty-bit rule, §3.1).
    let x = line_addr(13, 0);
    let programs = vec![ThreadProgram::new(vec![
        tx(vec![TxOp::Store(x), TxOp::Compute(10)]),
        tx(vec![TxOp::Store(x), TxOp::Compute(10)]),
    ])];
    let r = run(cfg(1), programs);
    assert_eq!(r.commits, 2);
    // The pre-writeback is local (same node) so it does not show up in
    // remote traffic; instead verify via the simulation completing with
    // correct serializability (the checker would catch lost data).
}

#[test]
fn remote_traffic_is_zero_on_a_uniprocessor() {
    let programs = vec![ThreadProgram::new(vec![tx(vec![
        TxOp::Load(line_addr(2, 0)),
        TxOp::Store(line_addr(3, 0)),
        TxOp::Compute(100),
    ])])];
    let r = run(cfg(1), programs);
    assert_eq!(
        r.traffic.total_bytes(),
        0,
        "single node: nothing crosses the mesh"
    );
}

#[test]
fn fig2f_owner_drop_with_inflight_fill_regression() {
    // Proptest-shrunken regression (see DESIGN.md §3): in the Fig. 2f
    // owner-drop mode, P1 owns a line whose only valid word is its own
    // committed one; it upgrade-misses on another word, and while that
    // fill is in flight a DataRequest asks it to flush-and-drop. The
    // fill must not cold-install stale memory data over the word only
    // P1 held.
    let a = |l: u64, w: u64| Addr(l * 32 + w * 4);
    let p0 = ThreadProgram::new(vec![
        tx(vec![TxOp::Store(a(0, 0)), TxOp::Load(a(1, 0))]),
        tx(vec![TxOp::Load(a(2, 0)), TxOp::Store(a(0, 0))]),
    ]);
    let p1 = ThreadProgram::new(vec![
        tx(vec![
            TxOp::Store(a(2, 6)),
            TxOp::Store(a(0, 1)),
            TxOp::Compute(199),
        ]),
        tx(vec![TxOp::Load(a(2, 0)), TxOp::Load(a(2, 6))]),
    ]);
    let p2 = ThreadProgram::new(vec![
        tx(vec![TxOp::Load(a(0, 1)), TxOp::Store(a(2, 0))]),
        tx(vec![
            TxOp::Store(a(2, 0)),
            TxOp::Load(a(0, 1)),
            TxOp::Store(a(1, 0)),
        ]),
    ]);
    let mut c = cfg(3);
    c.owner_flush_keeps_line = false;
    c.network.link_latency = 12;
    c.starvation_threshold = 2;
    let r = Simulator::builder(c)
        .programs(vec![p0, p1, p2])
        .build()
        .expect("valid config")
        .run();
    assert_eq!(r.commits, 6);
    r.assert_serializable();
}

#[test]
fn parallel_commits_overlap_in_time() {
    // Figure 3's property, measured: transactions committing to
    // *disjoint* directories proceed concurrently. We run many
    // back-to-back tiny write transactions on every processor (each
    // against its own home directory) and compare against the
    // serialized-commit baseline on the same programs: if commits
    // serialized, the makespan would grow with the machine size.

    let n = 16;
    let mk = || -> Vec<ThreadProgram> {
        (0..n as u64)
            .map(|p| {
                let items = (0..12)
                    .map(|t| {
                        tx(vec![
                            TxOp::Store(line_addr(64 + p + (t % 4) * n as u64, 0)),
                            TxOp::Compute(40),
                        ])
                    })
                    .collect();
                ThreadProgram::new(items)
            })
            .collect()
    };
    let scalable = Simulator::builder(SystemConfig::with_procs(n))
        .programs(mk())
        .build()
        .expect("valid config")
        .run();
    let serialized = Simulator::builder(SystemConfig::with_procs(n))
        .protocol(ProtocolKind::SerializedCommit)
        .programs(mk())
        .build()
        .expect("valid config")
        .run();
    assert_eq!(scalable.commits, 16 * 12);
    assert_eq!(scalable.violations, 0);
    // The serialized baseline must be far slower: its commit token
    // admits one commit at a time machine-wide.
    assert!(
        serialized.total_cycles as f64 > scalable.total_cycles as f64 * 2.0,
        "parallel commit should beat the token by >2x: {} vs {}",
        serialized.total_cycles,
        scalable.total_cycles
    );
    // And the scalable run's commit phases must genuinely overlap:
    // the total commit time spent across processors exceeds the
    // wall-clock commit span any serialized schedule could fit.
    let total_commit: u64 = scalable.breakdowns.iter().map(|b| b.commit).sum();
    assert!(
        total_commit > scalable.total_cycles,
        "aggregate commit time {} should exceed the makespan {} when \
         commits overlap",
        total_commit,
        scalable.total_cycles
    );
}

#[test]
fn directory_occupancy_samples_come_only_from_timed_commits() {
    // TCC directories time each commit they serve; Tardis homes keep
    // no per-commit busy span, so they report no occupancy samples.
    let run_on = |protocol| {
        let programs = (0..4u64)
            .map(|p| {
                ThreadProgram::new(vec![tx(vec![
                    TxOp::Load(line_addr(p, 0)),
                    TxOp::Compute(20),
                    TxOp::Store(line_addr(p, 0)),
                ])])
            })
            .collect();
        Simulator::builder(cfg(4))
            .protocol(protocol)
            .programs(programs)
            .build()
            .expect("valid config")
            .run()
    };
    let tcc = run_on(ProtocolKind::Tcc);
    let tardis = run_on(ProtocolKind::Tardis);
    assert_eq!(tardis.commits, 4);
    assert!(!tcc.dir_occupancy.is_empty());
    assert!(tardis.dir_occupancy.is_empty());
}
