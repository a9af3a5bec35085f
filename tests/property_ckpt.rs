//! Round-trip properties of every [`nektarg::ckpt::Snapshot`] impl:
//! encode ∘ decode = id. Each case snapshots a randomized instance,
//! restores it into a compatibly constructed fresh one, and demands the
//! re-encoded bytes match the original byte-for-byte — deterministic
//! canonical encodings (sorted override maps, bit-exact floats) make the
//! byte comparison equivalent to deep state equality.
//!
//! Plus the two byte-level contracts of the container itself: the sliced
//! CRC32 equals the bytewise definition, and `SnapshotWriter` lays out
//! exactly the container the format documents (and PR 12's build wrote).

use nektarg::ckpt::crc32::crc32;
use nektarg::ckpt::{
    restore_bytes, snapshot_bytes, tag4, CkptError, Snapshot, SnapshotFile, SnapshotWriter,
    FORMAT_VERSION,
};
use nektarg::coupling::atomistic::{AtomisticDomain, Embedding};
use nektarg::coupling::metasolver::RunReport;
use nektarg::coupling::multipatch::poiseuille_multipatch;
use nektarg::coupling::{TimeProgression, UnitScaling};
use nektarg::dpd::inflow::OpenBoundaryX;
use nektarg::dpd::sim::{BinSampler, DpdConfig, DpdSim, WallGeometry};
use nektarg::dpd::Box3;
use nektarg::wpod::window::WindowPod;
use proptest::prelude::*;

/// Round trip plus re-encode: restore into `fresh`, then require identical
/// canonical bytes.
fn assert_round_trip<T: Snapshot>(original: &T, fresh: &mut T) -> Result<(), TestCaseError> {
    let bytes = snapshot_bytes(original);
    restore_bytes(fresh, &bytes).map_err(|e| TestCaseError::Fail(format!("restore: {e}")))?;
    prop_assert_eq!(
        bytes,
        snapshot_bytes(fresh),
        "re-encoded snapshot differs from the original"
    );
    Ok(())
}

fn small_sim(seed: u64) -> DpdSim {
    let cfg = DpdConfig {
        seed,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [5.0, 5.0, 3.0], [false, false, true]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    sim.fill_solvent();
    let mut ob = OpenBoundaryX::new(3, 1, 3.0, 1.0, [0.1, 0.0, 0.0], 0);
    ob.target_count = Some(sim.particles.len());
    sim.set_open_x(ob);
    sim
}

/// The definition the production CRC is checked against: one table, one
/// byte per step, reflected IEEE polynomial.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table: [u32; 256] = std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| {
            if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            }
        })
    });
    !bytes.iter().fold(!0u32, |c, &b| {
        table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slicing-by-8 equals the bytewise CRC for every length 0..4096 at
    /// all eight start alignments (the 8-byte fold has a tail of 0..7
    /// bytes and reads unaligned words).
    #[test]
    fn sliced_crc_equals_bytewise(raw in prop::collection::vec(0u16..256, 7..4103)) {
        let buf: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        for start in 0..8 {
            let window = &buf[start..];
            prop_assert_eq!(crc32(window), crc32_bytewise(window), "start {}", start);
        }
        // And every short length, where the tail loop does all the work.
        for len in 0..buf.len().min(24) {
            prop_assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {}", len);
        }
    }
}

#[test]
fn crc_standard_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

/// What PR 12's build (`5ad2613`) returned from `SnapshotWriter::to_bytes`
/// for the three sections of `writer_image_is_the_golden_container`.
const GOLDEN_CONTAINER_HEX: &str = "\
4e4b47430200000003000000414141410500000000000000f4990b470102030405454d505400000000000000\
0000000000424242426400000000000000096b31aa030a11181f262d343b424950575e656c737a81888f969d\
a4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1\
d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8";

/// The single-image writer produces the documented container: header,
/// then per section tag / length / CRC / payload, an empty section
/// included — equal to the parent build's bytes and to a container
/// assembled here from the layout alone.
#[test]
fn writer_image_is_the_golden_container() {
    let sections: [(u32, Vec<u8>); 3] = [
        (tag4(b"AAAA"), vec![1, 2, 3, 4, 5]),
        (tag4(b"EMPT"), vec![]),
        (
            tag4(b"BBBB"),
            (0..100u32).map(|i| (i * 7 + 3) as u8).collect(),
        ),
    ];
    let mut w = SnapshotWriter::new();
    w.add(sections[0].0, &sections[0].1);
    w.add_with(sections[1].0, |_| {});
    w.add_with(sections[2].0, |enc| {
        for &b in &sections[2].1 {
            enc.put(b);
        }
    });
    let image = w.seal().to_vec();

    let mut by_layout = b"NKGC".to_vec();
    by_layout.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    by_layout.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        by_layout.extend_from_slice(&tag.to_le_bytes());
        by_layout.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        by_layout.extend_from_slice(&crc32_bytewise(payload).to_le_bytes());
        by_layout.extend_from_slice(payload);
    }
    assert_eq!(image, by_layout);

    let golden: Vec<u8> = (0..GOLDEN_CONTAINER_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_CONTAINER_HEX[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(FORMAT_VERSION, 2);
    assert_eq!(image, golden);

    let file = SnapshotFile::from_image(image).unwrap();
    assert_eq!(
        file.tags(),
        sections.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    for (tag, payload) in &sections {
        assert_eq!(file.payload(*tag).unwrap(), payload.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// DpdSim (with its nested open boundary): any reachable mid-run state
    /// round-trips, and the restored sim continues bitwise.
    #[test]
    fn dpd_sim_round_trips(seed in 0u64..1_000, steps in 0usize..6) {
        let mut sim = small_sim(seed);
        for _ in 0..steps {
            sim.step();
        }
        let mut fresh = small_sim(seed);
        assert_round_trip(&sim, &mut fresh)?;
        sim.step();
        fresh.step();
        for (a, b) in sim.particles.pos_aos().iter().zip(&fresh.particles.pos_aos()) {
            for k in 0..3 {
                prop_assert_eq!(a[k].to_bits(), b[k].to_bits());
            }
        }
    }

    /// The open boundary alone, with accumulated flux debt.
    #[test]
    fn open_boundary_round_trips(seed in 0u64..1_000, steps in 1usize..5) {
        let mut sim = small_sim(seed);
        for _ in 0..steps {
            sim.step();
        }
        let original = sim.open_x.clone().unwrap();
        let mut fresh = OpenBoundaryX::new(3, 1, 3.0, 1.0, [0.1, 0.0, 0.0], 0);
        fresh.target_count = original.target_count;
        assert_round_trip(&original, &mut fresh)?;
    }

    /// The profile sampler mid-accumulation.
    #[test]
    fn bin_sampler_round_trips(seed in 0u64..1_000, steps in 1usize..5) {
        let mut sim = small_sim(seed);
        let mut sampler = BinSampler::new(1, 5, 0, 3);
        for _ in 0..steps {
            sim.step();
            sampler.accumulate(&sim);
        }
        let mut fresh = BinSampler::new(1, 5, 0, 3);
        assert_round_trip(&sampler, &mut fresh)?;
    }

    /// The multipatch continuum (nested per-patch NS solvers with their
    /// history ladders and interface overrides).
    #[test]
    fn multipatch_round_trips(steps in 0usize..4, force in 0.1f64..0.8) {
        let mut mp = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, force, 5e-3);
        for _ in 0..steps {
            mp.step();
        }
        let mut fresh = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, force, 5e-3);
        assert_round_trip(&mp, &mut fresh)?;
    }

    /// The WPOD accumulator at an arbitrary point of its window cycle.
    #[test]
    fn window_pod_round_trips(
        window in 2usize..6,
        stride in 1usize..4,
        pushes in 0usize..15,
        dim in 1usize..9,
    ) {
        let mut w = WindowPod::new(window, stride, 2.0);
        for i in 0..pushes {
            w.push((0..dim).map(|j| ((i * dim + j) as f64).sin()).collect());
        }
        let mut fresh = WindowPod::new(window, stride, 2.0);
        assert_round_trip(&w, &mut fresh)?;
    }

    /// The run report is plain data: arbitrary contents round-trip.
    #[test]
    fn run_report_round_trips(
        ns_steps in 0usize..10_000,
        continuity in prop::collection::vec(-1.0f64..1.0, 0..8),
        counts in prop::collection::vec(0usize..999, 0..8),
    ) {
        let census: Vec<(usize, usize, usize, usize)> = counts
            .iter()
            .map(|&c| (c, c / 2, c % 7, c % 3))
            .collect();
        let report = RunReport {
            ns_steps,
            dpd_steps: ns_steps * 20,
            exchanges: census.len(),
            continuity: continuity.clone(),
            patch_mismatch: continuity,
            platelet_census: census,
            wpod_windows: ns_steps / 7,
            held_exchanges: (0..(ns_steps % 4) as u64).collect(),
            failovers: vec![(ns_steps as u64 % 5, 0, 1); ns_steps % 3],
            // Supervision bookkeeping: excluded from snapshots and
            // equality, so it must not survive the round trip.
            rejoins: (0..(ns_steps % 3) as u64).collect(),
            snapshot_fallbacks: (0..(ns_steps % 2) as u64).collect(),
            pressure_iters_per_step: (0..(ns_steps % 6) as u64).collect(),
            viscous_iters_per_step: (0..(ns_steps % 5) as u64).map(|i| i * 3).collect(),
            elliptic_residual_per_step: vec![1e-11; ns_steps % 4],
            breakdown_steps: (0..(ns_steps % 2) as u64).collect(),
            // Cumulative telemetry counters ride the snapshot.
            telemetry_steps: ns_steps % 6,
            worst_residual_seen: 1e-11,
            // Wall-clock telemetry: excluded from snapshots and equality,
            // so it must not survive the round trip.
            window_timings: vec![Default::default(); ns_steps % 3],
        };
        let mut fresh = RunReport::default();
        assert_round_trip(&report, &mut fresh)?;
        prop_assert_eq!(&report, &fresh);
    }

    /// Time progression is pure config: round-trips into an equal instance
    /// and refuses a different one.
    #[test]
    fn progression_round_trips(substeps in 1usize..30, every in 1usize..20) {
        let tp = TimeProgression::new(substeps, every);
        let mut fresh = TimeProgression::new(substeps, every);
        assert_round_trip(&tp, &mut fresh)?;
        let mut other = TimeProgression::new(substeps + 1, every);
        prop_assert!(matches!(
            restore_bytes(&mut other, &snapshot_bytes(&tp)),
            Err(CkptError::Mismatch(_))
        ));
    }
}

/// The composed atomistic domain (embedding fingerprint + nested DPD
/// section + continuity history). One deterministic case — the inner DpdSim
/// is already property-tested above.
#[test]
fn atomistic_domain_round_trips() {
    let make = || {
        let sim = small_sim(17);
        AtomisticDomain::new(
            sim,
            Embedding {
                origin_ns: [2.0, 0.3],
                scaling: UnitScaling {
                    unit_ns: 1.0,
                    unit_dpd: 0.05,
                    nu_ns: 0.004,
                    nu_dpd: 0.85,
                },
            },
        )
    };
    let mut d = make();
    d.continuity_history = vec![0.25, 0.125, 0.0625];
    for _ in 0..3 {
        d.sim.step();
    }
    let mut fresh = make();
    let bytes = snapshot_bytes(&d);
    restore_bytes(&mut fresh, &bytes).unwrap();
    assert_eq!(bytes, snapshot_bytes(&fresh));
    assert_eq!(fresh.continuity_history, vec![0.25, 0.125, 0.0625]);
}
