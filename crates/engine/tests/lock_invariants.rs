//! Deadlock-freedom tests for the lock manager.
//!
//! The engine's discipline is ordered acquisition: every transaction
//! sorts its lock targets by `canonical_order` before acquiring. The
//! property test below drives many randomly generated transactions
//! through a faithful blocked-waiter scheduler and checks the system
//! always drains — the classical result that a total resource order
//! excludes wait cycles. The companion regression tests check that the
//! `invariants` feature actually *detects* a violation of the discipline
//! rather than quietly relying on it.

// Tests use unwrap() freely; the workspace-level `clippy::unwrap_used`
// deny applies to shipped code only.
#![allow(clippy::unwrap_used)]

use odb_engine::locks::{canonical_order, AcquireResult, LockManager};
use odb_engine::txn::LockTarget;
use odb_ossim::ProcessId;
use std::collections::{BTreeSet, VecDeque};

fn target(kind: bool, w: u32) -> LockTarget {
    if kind {
        LockTarget::WarehouseBlock(w)
    } else {
        LockTarget::DistrictBlock(w)
    }
}

/// Runs `want` (per-process sorted target lists) through a blocked-waiter
/// scheduler: each process acquires its targets in order, parking when
/// queued; a release hands the lock over FIFO and wakes the waiter.
/// Returns the number of scheduler steps taken, panicking on livelock.
fn drive_to_completion(mut manager: LockManager, want: Vec<Vec<LockTarget>>) -> usize {
    struct Proc {
        targets: Vec<LockTarget>,
        next: usize,
        parked: bool,
    }
    let mut procs: Vec<Proc> = want
        .into_iter()
        .map(|targets| Proc {
            targets,
            next: 0,
            parked: false,
        })
        .collect();
    let mut runnable: VecDeque<usize> = (0..procs.len()).collect();
    let mut steps = 0;
    let budget = procs.iter().map(|p| p.targets.len() * 4 + 4).sum::<usize>() + 16;
    while let Some(i) = runnable.pop_front() {
        steps += 1;
        assert!(
            steps <= budget,
            "scheduler exceeded its step budget — deadlock or lost wakeup"
        );
        let pid = ProcessId(i as u32);
        if procs[i].next == procs[i].targets.len() {
            // Done acquiring: commit, releasing everything and waking any
            // handed-over waiters.
            let held = procs[i].targets.clone();
            for woken in manager
                .release_all(pid, &held)
                .expect("scheduler releases only held locks")
            {
                let w = woken.0 as usize;
                assert!(procs[w].parked, "woke a process that was not blocked");
                procs[w].parked = false;
                procs[w].next += 1; // it now owns the lock it waited on
                runnable.push_back(w);
            }
            continue;
        }
        let t = procs[i].targets[procs[i].next];
        match manager.acquire(pid, t) {
            AcquireResult::Granted => {
                procs[i].next += 1;
                runnable.push_back(i);
            }
            AcquireResult::Queued => {
                procs[i].parked = true;
            }
        }
    }
    for (i, p) in procs.iter().enumerate() {
        assert!(
            !p.parked && p.next == p.targets.len(),
            "process {i} never finished: {}/{} targets, parked={}",
            p.next,
            p.targets.len(),
            p.parked
        );
    }
    steps
}

/// splitmix64: the same mixer `SimOptions::for_point` seeds with.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Any population of transactions that acquires its targets in
/// canonical order always drains — no deadlock, no lost wakeup — under
/// heavy contention (targets drawn from a tiny warehouse pool, mirroring
/// the paper's 10-warehouse contention spike). Seeds `0..5000` each draw
/// 1–11 transactions of 1–5 distinct `(kind, warehouse < 4)` targets.
#[test]
fn canonical_order_never_deadlocks() {
    for seed in 0..5_000u64 {
        let mut state = seed;
        let mut draw = |n: u64| splitmix64(&mut state) % n;
        let want: Vec<Vec<LockTarget>> = (0..1 + draw(11))
            .map(|_| {
                let size = 1 + draw(5) as usize;
                let mut set = BTreeSet::new();
                while set.len() < size {
                    set.insert((draw(2) == 1, draw(4) as u32));
                }
                let mut ts: Vec<LockTarget> =
                    set.into_iter().map(|(k, w)| target(k, w)).collect();
                ts.sort_by_key(canonical_order);
                ts.dedup();
                ts
            })
            .collect();
        let outcome = std::panic::catch_unwind(|| drive_to_completion(LockManager::new(), want));
        assert!(outcome.is_ok(), "canonical_order_never_deadlocks failed at seed {seed}");
    }
}

/// In-order acquisition passes cleanly under the `invariants` witness.
#[test]
fn in_order_acquisition_is_accepted() {
    let mut m = LockManager::new();
    let pid = ProcessId(1);
    let mut ts = vec![
        LockTarget::DistrictBlock(2),
        LockTarget::WarehouseBlock(1),
        LockTarget::DistrictBlock(0),
    ];
    ts.sort_by_key(canonical_order);
    for &t in &ts {
        assert_eq!(m.acquire(pid, t), AcquireResult::Granted);
    }
    assert!(m.release_all(pid, &ts).unwrap().is_empty());
}

/// Out-of-order acquisition is *detected* by the `invariants` feature:
/// the canonical-order witness trips even though no deadlock happens to
/// occur in this single-process run.
#[cfg(all(feature = "invariants", debug_assertions))]
#[test]
fn out_of_order_acquisition_is_detected() {
    let caught = std::panic::catch_unwind(|| {
        let mut m = LockManager::new();
        let pid = ProcessId(1);
        // District sorts after warehouse: this order is backwards.
        m.acquire(pid, LockTarget::DistrictBlock(0));
        m.acquire(pid, LockTarget::WarehouseBlock(0));
    });
    assert!(
        caught.is_err(),
        "invariants feature must flag out-of-order acquisition"
    );
}
