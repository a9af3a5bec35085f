//! Replica failover, end to end: a driver plus three hot-standby replicas
//! of the coupled metasolver run on the virtual MCI machine; a scripted
//! fault kills the master replica while it posts its second exchange
//! window. The driver holds the boundary for one τ window, promotes the
//! lowest live slave, the promoted replica resumes from the dead master's
//! rank-scoped checkpoint and re-exchanges the missed window — bitwise
//! identical to a fault-free run.
//!
//! ```bash
//! cargo run --release --example failover_demo
//! ```

use nektarg::coupling::failover::{driver_outcome, replica_report, run_replicated, FailoverConfig};
use nektarg::coupling::Scenario;
use nektarg::mci::{FaultPlan, Universe};

const N_REPLICAS: usize = 3;
const TOTAL_STEPS: usize = 12; // 3 exchange windows at exchange_every = 4

fn main() {
    let dir = std::env::temp_dir().join("nkg_failover_demo");
    std::fs::create_dir_all(&dir).expect("create demo temp dir");
    let cfg = FailoverConfig::new(N_REPLICAS, TOTAL_STEPS, dir.join("demo.nkgc"));

    // One description of the run; every replica builds a bitwise clone.
    let small = Scenario::small();

    // Fault-free reference for comparison.
    let serial_report = small.build().run(TOTAL_STEPS);

    // The disaster: world rank 1 (master replica 0) dies attempting its
    // second post — the window-2 status report, i.e. mid-exchange.
    let plan = FaultPlan::new().kill_rank(1, 2);
    let universe = Universe::new(N_REPLICAS + 1).with_fault_plan(plan);

    println!(
        "replicated run: 1 driver + {N_REPLICAS} replicas, {TOTAL_STEPS} continuum steps, \
         master killed posting window 2\n"
    );
    let run = run_replicated(&universe, cfg, move || small.build());

    println!("dead ranks: {:?}", run.dead);
    let driver = driver_outcome(&run);
    println!("degradation events:");
    for e in &driver.events {
        println!("  {e:?}");
    }
    if let Some(t) = driver.time_to_recover {
        println!("time to recover: {:.1} ms", t.as_secs_f64() * 1e3);
    }
    println!(
        "active master at end of run: replica {}",
        driver.active_master
    );

    println!("\nper-window interface trace (continuity, patch mismatch, platelet census):");
    for (w, vals) in driver.trace.iter().enumerate() {
        println!(
            "  window {}: continuity {:.3e}  mismatch {:.3e}  census {:?}",
            w + 1,
            vals[0],
            vals[1],
            (
                vals[2] as u64,
                vals[3] as u64,
                vals[4] as u64,
                vals[5] as u64
            ),
        );
    }

    let promoted =
        replica_report(&run, driver.active_master).expect("the promoted replica finished the run");
    println!(
        "\npromoted replica: held windows {:?}, failovers {:?}",
        promoted.held_exchanges, promoted.failovers
    );
    assert!(
        promoted.physics_matches(&serial_report),
        "promoted replica diverged from the fault-free reference"
    );
    println!(
        "promoted replica physics match the fault-free reference BITWISE \
         ({} exchanges, {} continuum steps, {} DPD steps)",
        promoted.exchanges, promoted.ns_steps, promoted.dpd_steps
    );
}
