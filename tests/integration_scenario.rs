//! `Scenario` against the set-ups it replaced. This file keeps the one
//! hand-wired copy of each family — the small system of the fault suites
//! and the developed-Poiseuille system of the coupled suites — and holds
//! `Scenario::build` to it byte for byte, at step 0 and after two
//! exchanges. Every other test, example and bench builds through
//! `Scenario`, so this is what makes their golden values mean what they
//! meant before.

use nektarg::ckpt::SnapshotWriter;
use nektarg::coupling::atomistic::{AtomisticDomain, Embedding};
use nektarg::coupling::metasolver::ExecutionPolicy;
use nektarg::coupling::multipatch::poiseuille_multipatch;
use nektarg::coupling::scenario::Platelets;
use nektarg::coupling::{NektarG, Scenario, TimeProgression, UnitScaling};
use nektarg::dpd::inflow::OpenBoundaryX;
use nektarg::dpd::platelet::{PlateletParams, WallSites};
use nektarg::dpd::sim::{BinSampler, DpdConfig, DpdSim, WallGeometry};
use nektarg::dpd::Box3;
use nektarg::wpod::window::WindowPod;

/// The small system as `nkg-rank`, the fault suites and `bench_mci` wired
/// it before `Scenario`.
fn small_by_hand(seed: u64) -> NektarG {
    let mp = poiseuille_multipatch(6.0, 1.0, 12, 2, 2, 3, 0.5, 0.4, 5e-3);
    let cfg = DpdConfig {
        seed,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [6.0, 6.0, 3.0], [false, false, true]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    sim.fill_solvent();
    let mut ob = OpenBoundaryX::new(3, 1, 3.0, 1.0, [0.0; 3], 0);
    ob.target_count = Some(sim.particles.len());
    sim.set_open_x(ob);
    let embedding = Embedding {
        origin_ns: [2.5, 0.35],
        scaling: UnitScaling {
            unit_ns: 1.0,
            unit_dpd: 0.05,
            nu_ns: 0.5,
            nu_dpd: 0.85,
        },
    };
    let atom = AtomisticDomain::new(sim, embedding);
    NektarG::new(mp, atom, TimeProgression::new(5, 4))
}

/// The developed-Poiseuille system with platelets and WPOD as
/// `integration_ckpt` wired it before `Scenario`.
fn poiseuille_by_hand() -> NektarG {
    let (nu_ns, height) = (0.004, 1.0);
    let force = 8.0 * nu_ns * 0.1;
    let mut continuum = poiseuille_multipatch(6.0, height, 12, 2, 2, 4, nu_ns, force, 5e-3);
    for s in &mut continuum.patches {
        s.set_initial(
            move |_, y| force * y * (height - y) / (2.0 * nu_ns),
            |_, _| 0.0,
        );
    }
    let cfg = DpdConfig {
        seed: 3,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [8.0, 8.0, 4.0], [false, false, true]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    sim.fill_solvent();
    sim.seed_platelets(0.08);
    sim.sites = WallSites::on_plane(30, 1, 0.0, [2.0, 0.0, 0.0], [6.0, 0.0, 4.0], 9);
    sim.platelet_params = PlateletParams {
        delay_steps: 30,
        trigger_dist: 0.8,
        ..Default::default()
    };
    let mut ob = OpenBoundaryX::new(4, 1, 3.0, 1.0, [0.0; 3], 0);
    ob.target_count = Some(sim.particles.len());
    sim.set_open_x(ob);
    let atom = AtomisticDomain::new(
        sim,
        Embedding {
            origin_ns: [2.6, 0.3],
            scaling: UnitScaling {
                unit_ns: 1.0,
                unit_dpd: 0.05,
                nu_ns,
                nu_dpd: 0.85,
            },
        },
    );
    NektarG::new(continuum, atom, TimeProgression::new(10, 5))
        .with_wpod(BinSampler::new(1, 8, 0, 10), WindowPod::new(10, 10, 2.0))
}

fn image(ng: &NektarG) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    ng.encode_image(&mut w);
    w.seal().to_vec()
}

/// Byte-identical images at step 0 and after `steps` continuum steps.
fn assert_same_run(mut built: NektarG, mut by_hand: NektarG, steps: usize, what: &str) {
    assert_eq!(image(&built), image(&by_hand), "{what}: step 0");
    built.run(steps);
    by_hand.run(steps);
    assert_eq!(by_hand.report.exchanges, 2, "{what}: two exchanges");
    assert_eq!(image(&built), image(&by_hand), "{what}: step {steps}");
}

#[test]
fn small_is_the_hand_wired_small_system() {
    assert_same_run(Scenario::small().build(), small_by_hand(31), 8, "seed 31");
    // The per-shard variant of `nkg-rank`'s `coupled_restart`.
    let shard = Scenario {
        seed: 32,
        ..Scenario::small()
    };
    assert_same_run(shard.build(), small_by_hand(32), 8, "seed 32");
}

#[test]
fn poiseuille_is_the_hand_wired_coupled_system() {
    let sc = Scenario {
        platelets: Some(Platelets::poiseuille()),
        wpod: Some((BinSampler::new(1, 8, 0, 10), WindowPod::new(10, 10, 2.0))),
        ..Scenario::poiseuille()
    };
    assert_same_run(sc.build(), poiseuille_by_hand(), 10, "platelets + WPOD");
}

/// The `make` contract `NektarG::resume` and the failover drivers rely
/// on: the same description builds the same bytes, every time.
#[test]
fn a_scenario_built_twice_is_byte_identical() {
    let sc = Scenario {
        platelets: Some(Platelets::poiseuille()),
        ..Scenario::poiseuille()
    };
    let make = move || sc.build();
    assert_eq!(image(&make()), image(&make()));
}

/// The threading contract (DESIGN.md §7): the pool width is not an input.
/// Every width under both execution policies leaves the same bytes.
#[test]
fn state_bits_do_not_depend_on_the_pool_width() {
    let coupled = Scenario {
        platelets: Some(Platelets::poiseuille()),
        wpod: Some((BinSampler::new(1, 8, 0, 10), WindowPod::new(10, 10, 2.0))),
        ..Scenario::poiseuille()
    };
    for (sc, what) in [(Scenario::small(), "small"), (coupled, "poiseuille")] {
        let run = |policy, width| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut ng = Scenario {
                    policy,
                    ..sc.clone()
                }
                .build();
                ng.run(8);
                image(&ng)
            })
        };
        let reference = run(ExecutionPolicy::Serial, 1);
        for policy in [ExecutionPolicy::Serial, ExecutionPolicy::Overlapped] {
            for width in [1, 2, 4] {
                assert!(
                    run(policy, width) == reference,
                    "{what}: {policy:?} at pool width {width} differs from Serial at width 1"
                );
            }
        }
    }
}
