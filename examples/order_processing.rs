//! Order processing: a hand-modelled transaction-processing workload.
//!
//! The paper's motivation (§2) is exactly this class of application:
//! throughput-oriented commercial transaction processing, where the
//! programmer writes plain object methods and the system hides both
//! distribution (via DSM) and concurrency/failure handling (via nested
//! transactions).
//!
//! This example builds an order-entry schema by hand with the public
//! `ClassBuilder` API — `Order`, `Customer` and `Inventory` classes whose
//! methods nest (placing an order debits inventory and updates the
//! customer's balance as sub-transactions) — and runs a burst of orders
//! across a cluster, with a slice of fault-injected sub-transactions to
//! show closed-nesting recovery at work.
//!
//! ```sh
//! cargo run --release --example order_processing
//! ```

use lotec::prelude::*;

/// Classes: 0 = Order, 1 = Customer, 2 = Inventory.
fn schema() -> Vec<lotec::object::ClassDef> {
    let order = ClassBuilder::new("Order")
        .attribute("status", 64)
        .attribute("lines", 6 * 4096) // order lines span several pages
        .attribute("totals", 256)
        // place(): builds the lines, then debits stock and charges the
        // customer as nested sub-transactions.
        .method("place", |m| {
            m.path(|p| {
                p.reads(&["status", "lines", "totals"])
                    .writes(&["status", "lines", "totals"])
                    .invokes(ClassId::new(2), MethodId::new(0)) // Inventory::debit
                    .invokes(ClassId::new(1), MethodId::new(0)) // Customer::charge
            })
        })
        // summarize(): reads only the compact totals page.
        .method("summarize", |m| m.path(|p| p.reads(&["status", "totals"])))
        .build();

    let customer = ClassBuilder::new("Customer")
        .attribute("balance", 128)
        .attribute("history", 3 * 4096)
        // charge(): fast path touches only the balance; slow path also
        // appends to the multi-page history. Conservative prediction must
        // cover both — LOTEC still skips the history pages when nobody
        // updated them.
        .method("charge", |m| {
            m.path(|p| p.reads(&["balance"]).writes(&["balance"]))
                .path(|p| {
                    p.reads(&["balance", "history"])
                        .writes(&["balance", "history"])
                })
        })
        .method("statement", |m| {
            m.path(|p| p.reads(&["balance", "history"]))
        })
        .build();

    let inventory = ClassBuilder::new("Inventory")
        .attribute("levels", 2 * 4096)
        .attribute("reorder_queue", 1024)
        .method("debit", |m| {
            m.path(|p| p.reads(&["levels"]).writes(&["levels"]))
                .path(|p| p.reads(&["levels"]).writes(&["levels", "reorder_queue"]))
        })
        .build();

    vec![order, customer, inventory]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig {
        num_nodes: 6,
        ..SystemConfig::default()
    };

    // 6 order objects, 4 customers, 3 inventory shards, spread over nodes.
    let mut instances = Vec::new();
    for i in 0..6u32 {
        instances.push((ClassId::new(0), NodeId::new(i % config.num_nodes)));
    }
    for i in 0..4u32 {
        instances.push((ClassId::new(1), NodeId::new((i + 1) % config.num_nodes)));
    }
    for i in 0..3u32 {
        instances.push((ClassId::new(2), NodeId::new((i + 2) % config.num_nodes)));
    }
    let registry = ObjectRegistry::build(&schema(), &instances, config.page_size)?;

    // A burst of order transactions: each places an order against a
    // customer and an inventory shard; every 7th charge hits the slow
    // (history-appending) path, and every 11th inventory debit is
    // fault-injected to abort — its parent order still commits, matching
    // closed-nesting semantics.
    let mut families = Vec::new();
    for i in 0..60u32 {
        let order = ObjectId::new(i % 6);
        let customer = ObjectId::new(6 + (i % 4));
        let inventory = ObjectId::new(10 + (i % 3));
        let charge_path = PathId::new(u32::from(i % 7 == 0));
        let debit = InvocationSpec {
            object: inventory,
            method: MethodId::new(0),
            path: PathId::new(u32::from(i % 5 == 0)),
            children: vec![],
            abort: i % 11 == 0,
        };
        let charge = InvocationSpec {
            object: customer,
            method: MethodId::new(0),
            path: charge_path,
            children: vec![],
            abort: false,
        };
        families.push(FamilySpec {
            node: NodeId::new(i % config.num_nodes),
            start: SimTime::from_micros(u64::from(i) * 25),
            root: InvocationSpec {
                object: order,
                method: MethodId::new(0),
                path: PathId::new(0),
                children: vec![debit, charge],
                abort: false,
            },
        });
    }
    // Interleave read-only reporting transactions.
    for i in 0..20u32 {
        families.push(FamilySpec {
            node: NodeId::new((i + 3) % config.num_nodes),
            start: SimTime::from_micros(u64::from(i) * 70 + 11),
            root: InvocationSpec::leaf(ObjectId::new(i % 6), MethodId::new(1), PathId::new(0)),
        });
    }

    let report = Engine::new(&config, &registry, &families)?.run()?;
    oracle::verify(&report)?;

    println!(
        "order processing on {} nodes under {}:",
        config.num_nodes, report.protocol
    );
    println!("  committed families : {}", report.stats.committed_families);
    println!(
        "  sub-txn aborts     : {} (fault-injected debits, rolled back locally)",
        report.stats.subtxn_aborts
    );
    println!("  deadlocks broken   : {}", report.stats.deadlocks);
    println!("  demand fetches     : {}", report.stats.demand_fetches);
    println!("  makespan           : {}", report.stats.makespan);
    if let Some(mean) = report.stats.mean_latency() {
        println!("  mean order latency : {mean}");
    }
    println!(
        "  throughput         : {:.0} txn/s (simulated)",
        report.stats.throughput_per_sec()
    );
    let t = report.traffic.total();
    println!(
        "  consistency traffic: {} bytes in {} messages",
        t.bytes, t.messages
    );
    println!(
        "\nserializability oracle: OK — the distributed execution is \
              equivalent to serial execution in commit order."
    );
    Ok(())
}
