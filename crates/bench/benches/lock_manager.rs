//! Self-timed microbenches of the nested O2PL lock manager: the
//! acquire / pre-commit / root-commit cycle, lock inheritance depth, and
//! deadlock detection — the operations §5.1 identifies as the non-network
//! overhead of a LOTEC system.

use lotec_bench::harness::{bench, opaque};
use lotec_mem::ObjectId;
use lotec_sim::NodeId;
use lotec_txn::{find_deadlock_cycle, LockMode, LockTable, TxnTree};

fn bench_flat_cycle() {
    let mut table = LockTable::new();
    for i in 0..64 {
        table.register_object(ObjectId::new(i), 4, NodeId::new(0));
    }
    let mut tree = TxnTree::new();
    bench("lock_acquire_commit_cycle", || {
        let root = tree.begin_root(NodeId::new(1));
        for i in 0..8u32 {
            table
                .acquire(ObjectId::new(i * 7 % 64), root, LockMode::Write, &tree)
                .expect("uncontended");
        }
        tree.commit_root(root);
        let mut rel = lotec_txn::CommitRelease::default();
        table.release_root_commit(root, &tree, &[], NodeId::new(1), &mut rel);
        rel.released.len()
    });
}

fn bench_nested_inheritance() {
    let mut table = LockTable::new();
    for i in 0..16 {
        table.register_object(ObjectId::new(i), 4, NodeId::new(0));
    }
    let mut tree = TxnTree::new();
    bench("lock_inheritance_depth8", || {
        let root = tree.begin_root(NodeId::new(1));
        // Chain of 8 nested sub-transactions, each locking one object,
        // pre-committing bottom-up so locks ripple to the root.
        let mut chain = vec![root];
        for i in 0..8u32 {
            let child = tree.begin_child(*chain.last().expect("nonempty"));
            table
                .acquire(ObjectId::new(i), child, LockMode::Write, &tree)
                .expect("uncontended");
            chain.push(child);
        }
        for &txn in chain.iter().skip(1).rev() {
            tree.pre_commit(txn);
            table.release_pre_commit(txn, &tree, &mut lotec_txn::PreCommitRelease::default());
        }
        tree.commit_root(root);
        let mut rel = lotec_txn::CommitRelease::default();
        table.release_root_commit(root, &tree, &[], NodeId::new(1), &mut rel);
        rel.released.len()
    });
}

fn bench_deadlock_scan() {
    // A contended table with long waiter queues but no cycle: the scan
    // must walk everything and conclude "no deadlock".
    let mut table = LockTable::new();
    let mut tree = TxnTree::new();
    for i in 0..32 {
        table.register_object(ObjectId::new(i), 4, NodeId::new(0));
    }
    let holders: Vec<_> = (0..32)
        .map(|i| {
            let t = tree.begin_root(NodeId::new(i % 8));
            table
                .acquire(ObjectId::new(i), t, LockMode::Write, &tree)
                .expect("grant");
            t
        })
        .collect();
    opaque(&holders);
    for w in 0..64u32 {
        let t = tree.begin_root(NodeId::new(w % 8));
        table
            .acquire(ObjectId::new(w % 32), t, LockMode::Write, &tree)
            .expect("queued");
    }
    bench("deadlock_scan_64_waiters", || {
        find_deadlock_cycle(&table, &tree).is_some()
    });
}

fn main() {
    bench_flat_cycle();
    bench_nested_inheritance();
    bench_deadlock_scan();
}
