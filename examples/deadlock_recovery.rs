//! Deadlock detection and recovery in action.
//!
//! Classic two-phase locking — nested or not — can deadlock across
//! transaction families: family A holds `O0` and waits for `O1` while
//! family B holds `O1` and waits for `O0`. The paper does not discuss this
//! (its randomized simulation presumably avoided the case), but any real
//! deployment needs liveness, so the engine detects waits-for cycles at
//! the GDO and aborts the youngest family, which rolls back, backs off and
//! retries.
//!
//! This example engineers a workload that *guarantees* deadlocks — every
//! family writes two hot objects in opposite orders from different nodes —
//! and shows the engine breaking them while the oracle certifies the final
//! execution serializable.
//!
//! ```sh
//! cargo run --release --example deadlock_recovery
//! ```

use lotec::prelude::*;

fn schema() -> Vec<lotec::object::ClassDef> {
    vec![ClassBuilder::new("Hot")
        .attribute("state", 2048)
        // touch(): read-modify-write of the whole object, optionally
        // invoking touch() on another Hot object (the nesting that builds
        // the deadly embrace).
        .method("touch_then", |m| {
            m.path(|p| {
                p.reads(&["state"])
                    .writes(&["state"])
                    .invokes(ClassId::new(0), MethodId::new(1))
            })
        })
        .method("touch", |m| {
            m.path(|p| p.reads(&["state"]).writes(&["state"]))
        })
        .build()]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig {
        num_nodes: 2,
        ..SystemConfig::default()
    };
    let registry = ObjectRegistry::build(
        &schema(),
        &[
            (ClassId::new(0), NodeId::new(0)),
            (ClassId::new(0), NodeId::new(1)),
        ],
        config.page_size,
    )?;

    // 20 colliding pairs: even families lock O0 then O1, odd families lock
    // O1 then O0, arriving nearly simultaneously from the two nodes.
    let mut families = Vec::new();
    for i in 0..20u32 {
        let (first, second) = if i % 2 == 0 {
            (ObjectId::new(0), ObjectId::new(1))
        } else {
            (ObjectId::new(1), ObjectId::new(0))
        };
        families.push(FamilySpec {
            node: NodeId::new(i % 2),
            start: SimTime::from_micros(u64::from(i / 2) * 400),
            root: InvocationSpec {
                object: first,
                method: MethodId::new(0), // touch_then -> nested touch
                path: PathId::new(0),
                children: vec![InvocationSpec::leaf(
                    second,
                    MethodId::new(1),
                    PathId::new(0),
                )],
                abort: false,
            },
        });
    }

    let report = Engine::new(&config, &registry, &families)?.run()?;
    oracle::verify(&report)?;

    println!(
        "deadly-embrace workload: {} families, 2 nodes, 2 hot objects",
        families.len()
    );
    println!(
        "  deadlocks detected and broken : {}",
        report.stats.deadlocks
    );
    println!(
        "  victim restarts               : {}",
        report.stats.restarts
    );
    println!(
        "  committed families            : {}",
        report.stats.committed_families
    );
    println!(
        "  makespan                      : {}",
        report.stats.makespan
    );
    assert_eq!(
        report.stats.committed_families, 20,
        "every family must commit eventually"
    );
    assert!(
        report.stats.deadlocks > 0,
        "this workload is built to deadlock"
    );
    println!(
        "\nEvery family committed despite {} deadlocks; the serializability \
         oracle confirms the surviving execution is equivalent to some serial \
         order — aborted attempts left no trace in the data.",
        report.stats.deadlocks
    );
    Ok(())
}
