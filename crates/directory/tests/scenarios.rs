//! Directory-controller scenario tests beyond the inline unit suite:
//! waiter re-targeting chains, commit-window load locking, per-line
//! sharer pruning, and occupancy accounting.

use tcc_directory::{DirAction, DirConfig, Directory};
use tcc_types::{
    Cycle, DataSource, DirId, LineAddr, LineValues, NodeId, Payload, ProtocolBugs, Tid, WordMask,
};

const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);
const L: LineAddr = LineAddr(40);

fn dir() -> Directory {
    Directory::new(DirConfig {
        id: DirId(0),
        words_per_line: 8,
        bugs: ProtocolBugs::default(),
    })
}

fn stamp(word: usize, tid: u64) -> LineValues {
    let mut v = LineValues::fresh(8);
    v.apply_write(WordMask::single(word), Tid(tid));
    v
}

/// Runs one full commit of `tid` writing `word` of `line` by `who`,
/// acking any invalidations as non-retaining.
fn commit_line(d: &mut Directory, tid: u64, line: LineAddr, word: usize, who: NodeId) {
    d.handle_probe(Cycle(0), Tid(tid), who, true);
    d.handle_mark(Cycle(tid), Tid(tid), line, WordMask::single(word), who);
    let acts = d.handle_commit(Cycle(tid), Tid(tid), who, 1);
    for a in acts {
        if let Payload::Invalidate { line, .. } = a.payload {
            d.handle_inv_ack(Cycle(tid + 1), Tid(tid), line, a.to, false);
        }
    }
}

#[test]
fn data_request_retargets_through_an_ownership_chain() {
    let mut d = dir();
    // N1 commits L (owner N1).
    d.handle_load(Cycle(0), L, N1, 0);
    commit_line(&mut d, 0, L, 0, N1);
    assert_eq!(d.entry(L).unwrap().owner, Some(N1));

    // N3 loads L: DataRequest targets N1.
    let acts = d.handle_load(Cycle(0), L, N3, 7);
    assert_eq!(acts.len(), 1);
    assert_eq!(acts[0].to, N1);

    // Before N1's flush arrives, N2 fetches (piggybacks), and then N2
    // becomes... simulate instead: N1's flush arrives *after* ownership
    // moved to N2 (N2 committed meanwhile). First, N2 loads: piggyback.
    assert!(
        d.handle_load(Cycle(0), L, N2, 3).is_empty(),
        "second load piggybacks"
    );

    // N1's flush arrives and clears ownership; both waiters are served
    // from the merged memory.
    let acts = d.handle_writeback(L, Tid(0), stamp(0, 0), WordMask::ALL, N1, true);
    let served: Vec<NodeId> = acts
        .iter()
        .filter_map(|a| match &a.payload {
            Payload::LoadReply {
                source: DataSource::Owner,
                values,
                ..
            } => {
                assert_eq!(values.words[0], Some(Tid(0)));
                Some(a.to)
            }
            _ => None,
        })
        .collect();
    assert_eq!(served, vec![N3, N2], "waiters serve in arrival order");
}

#[test]
fn data_request_retargets_when_owner_changes_mid_flight() {
    let mut d = dir();
    // N1 owns L from TID 0.
    d.handle_load(Cycle(0), L, N1, 0);
    commit_line(&mut d, 0, L, 0, N1);
    // N3's load targets N1.
    let acts = d.handle_load(Cycle(0), L, N3, 1);
    assert_eq!(acts[0].to, N1);
    // Meanwhile N2 (which already fetched L before TID 0 committed —
    // fake it by registering N2 as sharer via a writeback race: N2
    // marks and commits TID 1, taking ownership).
    d.handle_skip(Cycle(1), Tid(1)); // placeholder tid for N3's future commit
    d.handle_probe(Cycle(0), Tid(2), N2, true);
    d.handle_mark(Cycle(2), Tid(2), L, WordMask::single(1), N2);
    let acts = d.handle_commit(Cycle(2), Tid(2), N2, 1);
    // Ownership moved while the DataRequest was in flight: when the
    // commit's ack window closes, the directory re-targets the request
    // at the new owner N2.
    let mut retargeted: Vec<DirAction> = Vec::new();
    for a in acts {
        if let Payload::Invalidate { line, .. } = a.payload {
            let out = d.handle_inv_ack(Cycle(3), Tid(2), line, a.to, false);
            retargeted.extend(
                out.into_iter()
                    .filter(|a| matches!(a.payload, Payload::DataRequest { .. })),
            );
        }
    }
    assert_eq!(d.entry(L).unwrap().owner, Some(N2));
    assert_eq!(retargeted.len(), 1);
    assert_eq!(retargeted[0].to, N2);
    // N1's old flush (superseded) arrives afterwards: merged, but no
    // further re-target is needed.
    let acts = d.handle_writeback(L, Tid(0), stamp(0, 0), WordMask::ALL, N1, true);
    assert!(!acts
        .iter()
        .any(|a| matches!(a.payload, Payload::DataRequest { .. })));
    // N2's flush serves the waiter with merged data (word 0 from N1's
    // flush, word 1 from N2's commit). N2's copy has a hole at word 0
    // (it never held N1's committed word), so its valid mask excludes it.
    let acts = d.handle_writeback(L, Tid(2), stamp(1, 2), WordMask(!1u64), N2, true);
    let reply = acts
        .iter()
        .find_map(|a| match &a.payload {
            Payload::LoadReply { values, .. } => Some((a.to, values.clone())),
            _ => None,
        })
        .expect("waiter served");
    assert_eq!(reply.0, N3);
    assert_eq!(reply.1.words[0], Some(Tid(0)));
    assert_eq!(reply.1.words[1], Some(Tid(2)));
}

#[test]
fn loads_stall_during_the_ack_window() {
    let mut d = dir();
    d.handle_load(Cycle(0), L, N1, 0);
    d.handle_load(Cycle(0), L, N2, 0);
    // N1 commits; invalidation to N2 outstanding.
    d.handle_probe(Cycle(0), Tid(0), N1, true);
    d.handle_mark(Cycle(0), Tid(0), L, WordMask::single(0), N1);
    let acts = d.handle_commit(Cycle(0), Tid(0), N1, 1);
    assert!(acts
        .iter()
        .any(|a| matches!(a.payload, Payload::Invalidate { .. })));
    // A load arriving inside the ack window must stall: the superseded
    // owner's flush may still be in flight.
    assert!(
        d.handle_load(Cycle(0), L, N3, 9).is_empty(),
        "load must stall until acks"
    );
    // The ack releases the window; the stalled load is forwarded to the
    // new owner.
    let acts = d.handle_inv_ack(Cycle(1), Tid(0), L, N2, false);
    assert!(acts
        .iter()
        .any(|a| a.to == N1 && matches!(a.payload, Payload::DataRequest { .. })));
}

#[test]
fn pruning_is_per_line_not_per_commit() {
    let mut d = dir();
    let la = LineAddr(40);
    let lb = LineAddr(41);
    // N2 shares both lines; N1 commits both in one transaction.
    d.handle_load(Cycle(0), la, N2, 0);
    d.handle_load(Cycle(0), lb, N2, 1);
    d.handle_load(Cycle(0), la, N1, 2);
    d.handle_load(Cycle(0), lb, N1, 3);
    d.handle_probe(Cycle(0), Tid(0), N1, true);
    d.handle_mark(Cycle(0), Tid(0), la, WordMask::single(0), N1);
    d.handle_mark(Cycle(0), Tid(0), lb, WordMask::single(0), N1);
    let acts = d.handle_commit(Cycle(0), Tid(0), N1, 2);
    assert_eq!(
        acts.iter()
            .filter(|a| matches!(a.payload, Payload::Invalidate { .. }))
            .count(),
        2
    );
    // N2 retains interest in lb (say an SM word) but not la.
    d.handle_inv_ack(Cycle(1), Tid(0), la, N2, false);
    d.handle_inv_ack(Cycle(1), Tid(0), lb, N2, true);
    assert!(!d.entry(la).unwrap().sharers.contains(N2), "la pruned");
    assert!(d.entry(lb).unwrap().sharers.contains(N2), "lb retained");
}

#[test]
fn occupancy_samples_cover_each_commit() {
    let mut d = dir();
    d.handle_load(Cycle(0), L, N1, 0);
    for tid in 0..4u64 {
        commit_line(&mut d, tid, L, (tid % 8) as usize, N1);
    }
    assert_eq!(d.now_serving(), Tid(4));
    assert_eq!(d.occupancy().len(), 4);
}

#[test]
fn working_set_shrinks_as_sharers_prune() {
    let mut d = dir();
    d.handle_load(Cycle(0), LineAddr(50), N1, 0);
    d.handle_load(Cycle(0), LineAddr(51), N2, 0);
    assert_eq!(d.working_set_entries(), 2);
    // N1 commits line 50; N2's copy of 51 is untouched. N1 becomes
    // owner of 50 (remote sharer of the home node 0) so both still
    // count.
    commit_line(&mut d, 0, LineAddr(50), 0, N1);
    assert_eq!(d.working_set_entries(), 2);
}

#[test]
fn skip_floods_advance_over_many_tids_cheaply() {
    let mut d = dir();
    // 1000 skips in reverse order, then the serving tid completes.
    for t in (1..1000u64).rev() {
        d.handle_skip(Cycle(0), Tid(t));
    }
    assert_eq!(d.now_serving(), Tid(0));
    d.handle_skip(Cycle(0), Tid(0));
    assert_eq!(d.now_serving(), Tid(1000));
}

#[test]
fn read_only_commit_advances_without_line_state() {
    // A transaction whose S-set includes this directory but whose W-set
    // does not: its Commit (marks = 0) is a pure skip.
    let mut d = dir();
    d.handle_load(Cycle(0), L, N1, 0);
    let acts = d.handle_probe(Cycle(0), Tid(0), N1, false);
    assert!(matches!(
        acts[0].payload,
        Payload::ProbeReply {
            now_serving: Tid(0),
            ..
        }
    ));
    d.handle_commit(Cycle(0), Tid(0), N1, 0);
    assert_eq!(d.now_serving(), Tid(1));
    assert!(d.entry(L).unwrap().owner.is_none(), "no ownership change");
}
