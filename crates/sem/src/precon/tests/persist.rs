//! Tests of what outlives one build: class sharing, the artifact codec and
//! cache, against cold per-element builds.

use super::*;
use crate::precon::schur::PreconScratch;

/// A space that reports every element as its own geometry, so nothing is
/// shared: the reference for what sharing must not change.
struct Unshared<'a, S>(&'a S);

impl<S: EllipticSpace> EllipticSpace for Unshared<'_, S> {
    fn nglobal(&self) -> usize {
        self.0.nglobal()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn num_elems(&self) -> usize {
        self.0.num_elems()
    }
    fn nloc(&self) -> usize {
        self.0.nloc()
    }
    fn elem_gids(&self, e: usize) -> &[usize] {
        self.0.elem_gids(e)
    }
    fn apply_helmholtz_ws(&self, lambda: f64, u: &[f64], out: &mut [f64], ws: &mut ApplyScratch) {
        self.0.apply_helmholtz_ws(lambda, u, out, ws)
    }
    fn elem_matrix(&self, e: usize, lambda: f64, out: &mut [f64], ws: &mut ApplyScratch) {
        self.0.elem_matrix(e, lambda, out, ws)
    }
    fn elem_geom_bits(&self, e: usize, out: &mut Vec<u64>) {
        self.0.elem_geom_bits(e, out);
        out.push(e as u64);
    }
    fn node_roles(&self) -> Vec<NodeRole> {
        self.0.node_roles()
    }
    fn corner_hats(&self) -> (Vec<usize>, Vec<Vec<f64>>) {
        self.0.corner_hats()
    }
    fn fingerprint(&self) -> Option<ArtifactKey> {
        None
    }
}

/// Congruent elements share one class; the shared build solves bitwise
/// as the build that condenses every element separately, and reports the
/// class products once.
#[test]
fn class_sharing_is_bitwise_identical_to_per_element_builds() {
    fn check<S: EllipticSpace>(s: &S, lambda: f64, dir: &[usize], max_classes: usize) {
        let rhs = pseudo(s.nglobal(), 9);
        let vals = pseudo(dir.len(), 4);
        let solve = |eng: &mut EllipticSolver| {
            let mut x = vec![0.0; s.nglobal()];
            let st = eng.solve_into(s, &rhs, &vals, &mut x, usize::MAX);
            (st.cg.iterations, bits(&x))
        };
        let mut shared = engine(s, lambda, dir, PreconKind::LowEnergyCoarse);
        let mut apart = engine(&Unshared(s), lambda, dir, PreconKind::LowEnergyCoarse);
        assert!(
            shared.factors.op.classes.len() <= max_classes,
            "{} classes",
            shared.factors.op.classes.len()
        );
        assert_eq!(apart.factors.op.classes.len(), s.num_elems());
        assert_eq!(solve(&mut shared), solve(&mut apart));
        assert!(shared.class_footprint().1 < apart.class_footprint().1);
    }
    // The benchmark patch with its pressure Dirichlet set: the outlet
    // column and everything else.
    let s2 = bench_patch(4);
    check(&s2, 0.0, &s2.boundary_dofs(|t| t == BoundaryTag::Outlet), 2);
    // A pinned-Neumann box: the pinned corner's element and the rest.
    check(&space3(2), 0.3, &[0], 2);
}

/// Under one artifact cache an element class is shared exactly when a
/// cold build would reproduce it: equal dimension and `nloc` but not
/// equal D, a λ one ulp apart and a different local Dirichlet pattern
/// each build their own classes; two patches of congruent elements share
/// every class and solve bitwise as engines built without a cache.
#[test]
fn element_classes_are_shared_only_under_equal_keys() {
    use nkg_artifact::{with_cache, ArtifactCache, CacheMode, KindStats};
    use std::sync::Arc;
    let kind = PreconKind::LowEnergyCoarse;
    let classes = |e: &EllipticSolver| e.factors.op.classes.clone();
    let eclass = |c: &ArtifactCache| {
        let st = c.stats().into_iter().find(|(k, _)| *k == "eclass");
        st.map_or(KindStats::default(), |(_, st)| st)
    };
    // Build the two engines under one fresh cache; they share no class,
    // and every class was its own miss.
    let apart = |a: &dyn Fn() -> EllipticSolver, b: &dyn Fn() -> EllipticSolver, what: &str| {
        let cache = Arc::new(ArtifactCache::new(CacheMode::Process));
        let (a, b) = with_cache(&cache, || (classes(&a()), classes(&b())));
        for x in &a {
            assert!(
                !b.iter().any(|y| Arc::ptr_eq(x, y)),
                "{what}: shared a class"
            );
        }
        let st = eclass(&cache);
        assert_eq!(
            (st.misses, st.hits),
            ((a.len() + b.len()) as u64, 0),
            "{what}"
        );
    };

    let (s2, s3) = (space2(2, 1, 7), space3(3));
    assert_eq!(s2.nloc(), s3.nloc());
    apart(
        &|| engine(&s2, 1.0, &[], kind),
        &|| engine(&s3, 1.0, &[], kind),
        "2D P = 7 and 3D P = 3",
    );

    let s = space2(3, 2, 4);
    let wall = s.boundary_dofs(|t| t == BoundaryTag::Wall);
    let up = f64::from_bits(2.5f64.to_bits() + 1);
    apart(
        &|| engine(&s, 2.5, &wall, kind),
        &|| engine(&s, up, &wall, kind),
        "λ and its next float up",
    );

    // One element, so every element's pattern differs between the two.
    let one = space2(1, 1, 4);
    let (top, inlet) = (
        one.boundary_dofs(|t| t == BoundaryTag::Wall),
        one.boundary_dofs(|t| t == BoundaryTag::Inlet),
    );
    apart(
        &|| engine(&one, 2.5, &top, kind),
        &|| engine(&one, 2.5, &inlet, kind),
        "two Dirichlet patterns",
    );

    // Two congruent patches side by side: dyadic element sizes, so the
    // translated Jacobians are bitwise equal.
    let patch = |x0: f64| Space2d::new(QuadMesh::rectangle(4, 2, x0, x0 + 1.0, 0.0, 1.0), 4, false);
    let (pa, pb) = (patch(0.0), patch(1.0));
    let (wa, wb) = (
        pa.boundary_dofs(|t| t == BoundaryTag::Wall),
        pb.boundary_dofs(|t| t == BoundaryTag::Wall),
    );
    let cache = Arc::new(ArtifactCache::new(CacheMode::Process));
    let (ea, eb) = with_cache(&cache, || {
        (engine(&pa, 2.5, &wa, kind), engine(&pb, 2.5, &wb, kind))
    });
    let (ca, cb) = (classes(&ea), classes(&eb));
    assert_eq!(ca.len(), cb.len());
    assert!(ca.iter().zip(&cb).all(|(x, y)| Arc::ptr_eq(x, y)));
    assert_eq!(eclass(&cache).hits, cb.len() as u64);
    let solve = |s: &Space2d, dir: &[usize], mut eng: EllipticSolver| {
        let mut x = vec![0.0; s.nglobal];
        let st = eng.solve_into(s, &pseudo(s.nglobal, 3), &pseudo(dir.len(), 5), &mut x, 0);
        (st, bits(&x))
    };
    assert_eq!(
        solve(&pa, &wa, ea),
        solve(&pa, &wa, engine(&pa, 2.5, &wa, kind))
    );
    assert_eq!(
        solve(&pb, &wb, eb),
        solve(&pb, &wb, engine(&pb, 2.5, &wb, kind))
    );
}

/// The on-disk codec round-trips every bit: a decoded factor set solves
/// identically to the original.
#[test]
fn factors_codec_roundtrip_bitwise() {
    let s = space2(3, 2, 5);
    let bnd = s.boundary_dofs(|t| t == BoundaryTag::Wall);
    let rhs = pseudo(s.nglobal, 7);
    let vals = vec![0.5; bnd.len()];
    for kind in LADDER {
        let mut a = engine(&s, 2.7, &bnd, kind);
        let bytes = a.factors.encode().expect("factors encode");
        let mut b = engine(&s, 2.7, &bnd, kind);
        b.factors = std::sync::Arc::new(Factors::decode(&bytes).expect("factors decode"));
        let (mut xa, mut xb) = (vec![0.0; s.nglobal], vec![0.0; s.nglobal]);
        let sa = a.solve_into(&s, &rhs, &vals, &mut xa, usize::MAX);
        let sb = b.solve_into(&s, &rhs, &vals, &mut xb, usize::MAX);
        assert_eq!(sa, sb, "{kind:?}");
        assert_eq!(bits(&xa), bits(&xb), "{kind:?}: decoded factors diverged");
    }
}

/// A disk artifact is outside input: whatever bytes arrive, `decode`
/// either refuses or yields factors whose every index is in range, so
/// applying them cannot panic. Mutates each byte of the structural part
/// of an encoding (everything but the bulk of the first class's `f64`
/// payload, where any bit pattern is a valid number) and a sample of the
/// rest.
#[test]
fn decode_never_panics_on_mutated_bytes() {
    let s = space2(2, 2, 3);
    let bnd = s.boundary_dofs(|t| t == BoundaryTag::Inlet);
    let eng = engine(&s, 1.0, &bnd, PreconKind::LowEnergyCoarse);
    let good = eng.factors.encode().expect("encode");
    assert!(Factors::decode(&good).is_some());
    assert!(
        Factors::decode(&good[..good.len() - 1]).is_none(),
        "truncation"
    );
    assert!(Factors::decode(&[]).is_none());
    let mut survived = 0;
    for pos in 0..good.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[pos] ^= flip;
            let Some(f) = Factors::decode(&bad) else {
                continue;
            };
            survived += 1;
            // Whatever decoded must be safe to run end to end.
            let nb = f.op.nb();
            let (r, mut z, mut sx) = (pseudo(nb, 1), vec![0.0; nb], vec![0.0; nb]);
            let mut ews = ElemScratch::for_operator(&f.op);
            f.op.apply(&r, &mut sx, &mut ews);
            f.precon
                .apply(&r, &mut z, &mut PreconScratch::for_precon(&f.precon));
            if f.op.nglobal == s.nglobal {
                let mut yint = vec![0.0; f.op.interior_len()];
                let mut g = vec![0.0; nb];
                let rhs = pseudo(s.nglobal, 2);
                f.op.condense_rhs(&rhs, None, &mut g, &mut yint, &mut ews);
                let mut x = vec![0.0; s.nglobal];
                f.op.back_substitute(&r, &yint, &mut x, &mut ews);
            }
        }
    }
    // Flips inside f64 payloads decode fine; flips in lengths, indices and
    // tags must have been refused — both kinds were exercised.
    assert!(survived > 0 && survived < 3 * good.len());
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Cache-hit engines are bitwise identical to cold-built ones
        /// across random meshes, orders, shifts and Dirichlet sets: one
        /// solver built with no ambient cache, two built inside the same
        /// cache scope (the second is a hit), all solving the same
        /// problem.
        #[test]
        fn cached_factors_bitwise_equal_cold(
            seed in 0u64..1_000_000,
            p in 2usize..6,
            nx in 1usize..4,
            ny in 1usize..4,
            lambda in 0.0f64..50.0,
            coarse in proptest::prelude::any::<bool>(),
            mask_idx in 0usize..3,
        ) {
            use nkg_artifact::{with_cache, ArtifactCache, CacheMode};
            let kind = if coarse {
                PreconKind::LowEnergyCoarse
            } else {
                PreconKind::LowEnergy
            };
            let s = space2(nx, ny, p);
            let bnd = match mask_idx {
                0 => s.boundary_dofs(|_| true),
                1 => s.boundary_dofs(|t| matches!(t, BoundaryTag::Wall)),
                _ => s.boundary_dofs(|t| !matches!(t, BoundaryTag::Wall)),
            };
            let rhs = pseudo(s.nglobal, seed);
            let vals = pseudo(bnd.len(), seed + 1);
            let cold = engine(&s, lambda, &bnd, kind);
            let cache = std::sync::Arc::new(ArtifactCache::new(CacheMode::Process));
            let (warm1, warm2) =
                with_cache(&cache, || (engine(&s, lambda, &bnd, kind), engine(&s, lambda, &bnd, kind)));
            let solve = |mut eng: EllipticSolver| {
                let mut x = vec![0.0; s.nglobal];
                eng.solve_into(&s, &rhs, &vals, &mut x, usize::MAX);
                bits(&x)
            };
            let want = solve(cold);
            prop_assert_eq!(&want, &solve(warm1), "miss-path diverged from cold");
            prop_assert_eq!(&want, &solve(warm2), "hit-path diverged from cold");
            prop_assert!(cache.totals().hits > 0, "second build was not a cache hit");
        }
    }
}
