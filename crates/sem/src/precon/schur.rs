//! The preconditioner ladder on the condensed operator `S`, and the
//! immutable setup product ([`Factors`]) an engine shares through the
//! `nkg-artifact` cache, with its disk codec.

use super::condense::{Condensed, ElemClass};
use super::dense::{gemv, spd_inverse_in_place, symv};
use super::{EllipticSpace, NodeRole, PreconKind};
use nkg_artifact::Artifact;
use nkg_ckpt::{Dec, Enc};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `M⁻¹` for the compact system. Every stored matrix is an explicit
/// inverse, so an application is gathers, dense products and scatter-adds.
#[derive(Debug, Clone)]
pub(super) enum SchurPrecon {
    Identity,
    /// Reciprocal of the assembled diagonal of `S`.
    Jacobi(Vec<f64>),
    LowEnergy(LowEnergy),
}

/// Additive low-energy preconditioner
/// `z = Σ_g R_gᵀ S_g⁻¹ R_g r + D_v⁻¹ r + P (PᵀSP)⁻¹ Pᵀ r`
/// (the last term only for [`PreconKind::LowEnergyCoarse`]): one block per
/// assembled edge/face of the mesh, the vertices pointwise.
#[derive(Debug, Clone)]
pub(super) struct LowEnergy {
    /// Compact index and reciprocal diagonal of each vertex DoF.
    v_idx: Vec<u32>,
    v_inv: Vec<f64>,
    /// Block `k` acts on `blk_idx[blk_off[k]..blk_off[k+1]]`; its inverse
    /// (`m × m` for `m` indices) follows its predecessors' in `blk_inv`.
    blk_off: Vec<u32>,
    blk_idx: Vec<u32>,
    blk_inv: Vec<f64>,
    coarse: Option<Coarse>,
}

/// Galerkin coarse solve on the vertex space: `inv = (PᵀSP)⁻¹`, `P` the Q1
/// hat prolongation restricted to the free element-boundary DoFs, stored
/// by coarse column in CSR form.
#[derive(Debug, Clone)]
struct Coarse {
    nc: usize,
    inv: Vec<f64>,
    p_off: Vec<u32>,
    p_idx: Vec<u32>,
    p_val: Vec<f64>,
}

/// Per-engine scratch of [`SchurPrecon::apply`].
#[derive(Debug, Clone, Default)]
pub(super) struct PreconScratch {
    gather: Vec<f64>,
    out: Vec<f64>,
    rc: Vec<f64>,
    yc: Vec<f64>,
}

impl PreconScratch {
    pub(super) fn for_precon(p: &SchurPrecon) -> Self {
        let SchurPrecon::LowEnergy(le) = p else {
            return Self::default();
        };
        let m = le
            .blk_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let nc = le.coarse.as_ref().map_or(0, |c| c.nc);
        Self {
            gather: vec![0.0; m],
            out: vec![0.0; m],
            rc: vec![0.0; nc],
            yc: vec![0.0; nc],
        }
    }
}

/// Reciprocal of a diagonal entry, kept finite and positive so `M⁻¹`
/// stays SPD even where `S` has a numerically vanishing diagonal.
fn recip(d: f64) -> f64 {
    1.0 / d.abs().max(1e-300)
}

impl SchurPrecon {
    /// Assemble rung `kind` for the condensed operator `op` of `space`;
    /// `class_bl` is [`Condensed::build`]'s per-class list of free boundary
    /// local nodes.
    pub(super) fn build<S: EllipticSpace + ?Sized>(
        space: &S,
        op: &Condensed,
        class_bl: &[Vec<usize>],
        kind: PreconKind,
    ) -> Self {
        if kind == PreconKind::None {
            return SchurPrecon::Identity;
        }
        let nb = op.nb();
        let mut diag = vec![0.0f64; nb];
        for el in op.elems() {
            for (k, &c) in el.bidx.iter().enumerate() {
                diag[c as usize] += el.class.s[k * el.class.nb + k];
            }
        }
        if kind == PreconKind::Jacobi {
            return SchurPrecon::Jacobi(diag.iter().map(|&d| recip(d)).collect());
        }

        let roles = space.node_roles();
        // Edge/face blocks, keyed by their sorted compact index set so the
        // elements sharing an entity assemble into one block; BTreeMap
        // iteration fixes the block order.
        let mut blocks: BTreeMap<Vec<u32>, Vec<f64>> = BTreeMap::new();
        let mut is_vertex = vec![false; nb];
        for (el, &c) in op.elems().zip(&op.elem_class) {
            let bl = &class_bl[c as usize];
            let mut entities: BTreeMap<(u8, u8), Vec<(u32, usize)>> = BTreeMap::new();
            for (k, &loc) in bl.iter().enumerate() {
                let ent = match roles[loc] {
                    NodeRole::Vertex => {
                        is_vertex[el.bidx[k] as usize] = true;
                        continue;
                    }
                    NodeRole::Edge(i) => (0, i),
                    NodeRole::Face(i) => (1, i),
                    NodeRole::Interior => unreachable!("interior nodes are eliminated"),
                };
                entities.entry(ent).or_default().push((el.bidx[k], k));
            }
            for (_, mut members) in entities {
                // Sorted by compact index and deduplicated: a periodically
                // self-identified entity keeps one copy.
                members.sort_unstable();
                members.dedup_by_key(|m| m.0);
                let idx: Vec<u32> = members.iter().map(|m| m.0).collect();
                let m = idx.len();
                let mat = blocks.entry(idx).or_insert_with(|| vec![0.0; m * m]);
                for (r, &(_, kr)) in members.iter().enumerate() {
                    for (c, &(_, kc)) in members.iter().enumerate() {
                        mat[r * m + c] += el.class.s[kr * el.class.nb + kc];
                    }
                }
            }
        }
        let mut covered = is_vertex.clone();
        let (mut blk_off, mut blk_idx, mut blk_inv) = (vec![0u32], Vec::new(), Vec::new());
        for (idx, mut mat) in blocks {
            let m = idx.len();
            let d: Vec<f64> = (0..m).map(|i| mat[i * m + i]).collect();
            if !spd_inverse_in_place(&mut mat, m) {
                // Cannot happen for a well-posed problem; degrade the block
                // to its diagonal rather than lose positive definiteness.
                mat.fill(0.0);
                for i in 0..m {
                    mat[i * m + i] = recip(d[i]);
                }
            }
            for &c in &idx {
                covered[c as usize] = true;
            }
            blk_idx.extend_from_slice(&idx);
            blk_off.push(blk_idx.len() as u32);
            blk_inv.extend_from_slice(&mat);
        }
        // Vertices, plus any DoF no block covers (cannot happen on a
        // conforming mesh), pointwise.
        let v_idx: Vec<u32> = (0..nb as u32)
            .filter(|&c| is_vertex[c as usize] || !covered[c as usize])
            .collect();
        let v_inv = v_idx.iter().map(|&c| recip(diag[c as usize])).collect();

        let coarse = (kind == PreconKind::LowEnergyCoarse)
            .then(|| Coarse::build(space, op, class_bl))
            .flatten();
        SchurPrecon::LowEnergy(LowEnergy {
            v_idx,
            v_inv,
            blk_off,
            blk_idx,
            blk_inv,
            coarse,
        })
    }

    /// `z = M⁻¹ r` on the compact space.
    pub(super) fn apply(&self, r: &[f64], z: &mut [f64], ws: &mut PreconScratch) {
        match self {
            SchurPrecon::Identity => z.copy_from_slice(r),
            SchurPrecon::Jacobi(inv) => {
                for ((zi, &ri), &d) in z.iter_mut().zip(r).zip(inv) {
                    *zi = ri * d;
                }
            }
            SchurPrecon::LowEnergy(le) => le.apply(r, z, ws),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            SchurPrecon::Identity => 0,
            SchurPrecon::Jacobi(inv) => inv.len() * 8,
            SchurPrecon::LowEnergy(le) => {
                let coarse = le.coarse.as_ref().map_or(0, |c| {
                    (c.inv.len() + c.p_val.len()) * 8 + (c.p_off.len() + c.p_idx.len()) * 4
                });
                (le.v_inv.len() + le.blk_inv.len()) * 8
                    + (le.v_idx.len() + le.blk_off.len() + le.blk_idx.len()) * 4
                    + coarse
            }
        }
    }
}

impl LowEnergy {
    fn apply(&self, r: &[f64], z: &mut [f64], ws: &mut PreconScratch) {
        z.fill(0.0);
        let mut inv_off = 0;
        for w in self.blk_off.windows(2) {
            let idx = &self.blk_idx[w[0] as usize..w[1] as usize];
            let m = idx.len();
            let (g, o) = (&mut ws.gather[..m], &mut ws.out[..m]);
            for (v, &c) in g.iter_mut().zip(idx) {
                *v = r[c as usize];
            }
            symv(&self.blk_inv[inv_off..inv_off + m * m], g, o);
            inv_off += m * m;
            for (&v, &c) in o.iter().zip(idx) {
                z[c as usize] += v;
            }
        }
        for (&c, &d) in self.v_idx.iter().zip(&self.v_inv) {
            z[c as usize] += r[c as usize] * d;
        }
        if let Some(c) = &self.coarse {
            let col = |ci: usize| c.p_off[ci] as usize..c.p_off[ci + 1] as usize;
            for (ci, rc) in ws.rc.iter_mut().enumerate() {
                let span = col(ci);
                *rc = c.p_idx[span.clone()]
                    .iter()
                    .zip(&c.p_val[span])
                    .map(|(&g, &v)| v * r[g as usize])
                    .sum();
            }
            symv(&c.inv, &ws.rc, &mut ws.yc);
            for (ci, &y) in ws.yc.iter().enumerate() {
                let span = col(ci);
                for (&g, &v) in c.p_idx[span.clone()].iter().zip(&c.p_val[span]) {
                    z[g as usize] += v * y;
                }
            }
        }
    }
}

impl Coarse {
    /// `PᵀSP` over the free vertex DoFs, inverted. `None` when there are no
    /// free vertices or the coarse matrix is singular (a pure-Neumann
    /// Poisson problem without a pin), which leaves the one-level rung.
    fn build<S: EllipticSpace + ?Sized>(
        space: &S,
        op: &Condensed,
        class_bl: &[Vec<usize>],
    ) -> Option<Self> {
        let (corner_locs, hats) = space.corner_hats();
        // Coarse DoFs: free vertex DoFs in ascending compact index.
        let mut coarse_of: BTreeMap<u32, usize> = BTreeMap::new();
        for (el, &c) in op.elems().zip(&op.elem_class) {
            for (k, loc) in class_bl[c as usize].iter().enumerate() {
                if corner_locs.contains(loc) {
                    coarse_of.insert(el.bidx[k], 0);
                }
            }
        }
        for (i, v) in coarse_of.values_mut().enumerate() {
            *v = i;
        }
        let nc = coarse_of.len();
        if nc == 0 {
            return None;
        }
        let mut mat = vec![0.0f64; nc * nc];
        // Shared nodes are visited once per incident element with
        // identical hat values; the map keeps one entry per column.
        let mut cols: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); nc];
        let mut sp = Vec::new();
        for (el, &c) in op.elems().zip(&op.elem_class) {
            let bl = &class_bl[c as usize];
            let ElemClass { nb, s, .. } = el.class;
            // Element corners with a coarse DoF: (hat index, coarse DoF).
            let corners: Vec<(usize, usize)> = bl
                .iter()
                .enumerate()
                .filter_map(|(k, loc)| {
                    let h = corner_locs.iter().position(|c| c == loc)?;
                    Some((h, coarse_of[&el.bidx[k]]))
                })
                .collect();
            // sp = S_e P_e, one column per corner.
            sp.clear();
            sp.resize(corners.len() * nb, 0.0);
            let mut pe = vec![0.0; *nb];
            for (&(h, ci), q) in corners.iter().zip(sp.chunks_exact_mut((*nb).max(1))) {
                for ((p, &loc), &cidx) in pe.iter_mut().zip(bl).zip(el.bidx) {
                    *p = hats[h][loc];
                    if *p != 0.0 {
                        cols[ci].insert(cidx, *p);
                    }
                }
                gemv(s, &pe, q);
            }
            for &(hc, ci) in &corners {
                for (&(_, di), q) in corners.iter().zip(sp.chunks_exact((*nb).max(1))) {
                    mat[ci * nc + di] += bl
                        .iter()
                        .zip(q)
                        .map(|(&loc, &qv)| hats[hc][loc] * qv)
                        .sum::<f64>();
                }
            }
        }
        if !spd_inverse_in_place(&mut mat, nc) {
            return None;
        }
        let (mut p_off, mut p_idx, mut p_val) = (vec![0u32], Vec::new(), Vec::new());
        for col in cols {
            p_idx.extend(col.keys());
            p_val.extend(col.values());
            p_off.push(p_idx.len() as u32);
        }
        Some(Self {
            nc,
            inv: mat,
            p_off,
            p_idx,
            p_val,
        })
    }
}

/// The immutable setup product of one engine: the condensed operator and
/// its preconditioner. This is the expensive part of construction (element
/// matrices plus the inversions), so engines with the same (space,
/// λ, Dirichlet set, rung) `Arc`-share one copy through the
/// `nkg-artifact` cache.
#[derive(Debug, Clone)]
pub(crate) struct Factors {
    pub(super) op: Condensed,
    pub(super) precon: SchurPrecon,
}

impl Factors {
    pub(crate) fn build<S: EllipticSpace + ?Sized>(
        space: &S,
        lambda: f64,
        masked: &[bool],
        kind: PreconKind,
    ) -> Self {
        let (op, class_bl) = Condensed::build(space, lambda, masked);
        let precon = SchurPrecon::build(space, &op, &class_bl, kind);
        Self { op, precon }
    }
}

/// First word of an encoded [`Factors`]: tells this layout from the
/// full-system block factors older builds left in a disk cache.
const CODEC_TAG: u64 = u64::from_le_bytes(*b"NKGSCHUR");

/// The factors opt into the artifact disk tier: every `f64` round-trips
/// through its exact bit pattern, so a disk-hit engine solves bitwise
/// identically to a cold-built one. A disk file is outside input: `decode`
/// checks every length and index bound the apply kernels rely on and
/// answers `None` (cold rebuild) on any violation.
impl Artifact for Factors {
    fn approx_bytes(&self) -> usize {
        self.op.approx_bytes() + self.precon.approx_bytes()
    }

    fn encode(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.put(CODEC_TAG);
        let op = &self.op;
        e.put(op.nglobal as u64);
        e.put_slice(&op.bgid);
        e.put(op.classes.len() as u64);
        for c in &op.classes {
            e.put(c.nb as u64);
            e.put(c.ni as u64);
            e.put_slice(&c.s);
            e.put_slice(&c.w);
            e.put_slice(&c.aii_inv);
        }
        e.put_slice(&op.elem_class);
        e.put_slice(&op.bidx);
        e.put_slice(&op.igid);
        match &self.precon {
            SchurPrecon::Identity => e.put(0u8),
            SchurPrecon::Jacobi(inv) => {
                e.put(1u8);
                e.put_slice(inv);
            }
            SchurPrecon::LowEnergy(le) => {
                e.put(2u8);
                e.put_slice(&le.v_idx);
                e.put_slice(&le.v_inv);
                e.put_slice(&le.blk_off);
                e.put_slice(&le.blk_idx);
                e.put_slice(&le.blk_inv);
                e.put_bool(le.coarse.is_some());
                if let Some(c) = &le.coarse {
                    e.put_slice(&c.inv);
                    e.put_slice(&c.p_off);
                    e.put_slice(&c.p_idx);
                    e.put_slice(&c.p_val);
                }
            }
        }
        Some(e.into_bytes())
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        if d.take::<u64>().ok()? != CODEC_TAG {
            return None;
        }
        let nglobal = usize::try_from(d.take::<u64>().ok()?).ok()?;
        let bgid = d.take_vec::<u32>().ok()?;
        let ascending = bgid.windows(2).all(|w| w[0] < w[1]);
        if !ascending || bgid.last().is_some_and(|&g| g as usize >= nglobal) {
            return None;
        }
        let nb = bgid.len();
        // Offsets are `u32`; this also keeps the products below in range.
        if nglobal >= u32::MAX as usize {
            return None;
        }

        let nclasses = d.take::<u64>().ok()?;
        let mut classes = Vec::new();
        for _ in 0..nclasses {
            let cnb = usize::try_from(d.take::<u64>().ok()?).ok()?;
            let cni = usize::try_from(d.take::<u64>().ok()?).ok()?;
            if cnb > nb || cni > nglobal {
                return None;
            }
            let (s, w, aii_inv) = (
                d.take_vec::<f64>().ok()?,
                d.take_vec::<f64>().ok()?,
                d.take_vec::<f64>().ok()?,
            );
            if s.len() != cnb * cnb || w.len() != cni * cnb || aii_inv.len() != cni * cni {
                return None;
            }
            classes.push(Arc::new(ElemClass {
                nb: cnb,
                ni: cni,
                s,
                w,
                aii_inv,
            }));
        }
        let elem_class = d.take_vec::<u32>().ok()?;
        let (bidx, igid) = (d.take_vec::<u32>().ok()?, d.take_vec::<u32>().ok()?);
        let (mut nbs, mut nis) = (0usize, 0usize);
        for &c in &elem_class {
            let class = classes.get(c as usize)?;
            nbs += class.nb;
            nis += class.ni;
        }
        let in_compact = |idx: &[u32]| idx.iter().all(|&c| (c as usize) < nb);
        if bidx.len() != nbs || igid.len() != nis || !in_compact(&bidx) {
            return None;
        }
        if igid.iter().any(|&g| g as usize >= nglobal) {
            return None;
        }
        let op = Condensed {
            nglobal,
            bgid,
            classes,
            elem_class,
            bidx,
            igid,
        };

        // CSR offsets: start at 0, never decrease, end at `len`.
        let offsets_ok = |off: &[u32], len: usize| {
            off.first() == Some(&0)
                && off.windows(2).all(|w| w[0] <= w[1])
                && off.last().is_some_and(|&l| l as usize == len)
        };
        let precon = match d.take::<u8>().ok()? {
            0 => SchurPrecon::Identity,
            1 => {
                let inv = d.take_vec::<f64>().ok()?;
                if inv.len() != nb {
                    return None;
                }
                SchurPrecon::Jacobi(inv)
            }
            2 => {
                let (v_idx, v_inv) = (d.take_vec::<u32>().ok()?, d.take_vec::<f64>().ok()?);
                let blk_off = d.take_vec::<u32>().ok()?;
                let (blk_idx, blk_inv) = (d.take_vec::<u32>().ok()?, d.take_vec::<f64>().ok()?);
                if v_idx.len() != v_inv.len() || !in_compact(&v_idx) || !in_compact(&blk_idx) {
                    return None;
                }
                if !offsets_ok(&blk_off, blk_idx.len()) {
                    return None;
                }
                let inv_len: usize = blk_off
                    .windows(2)
                    .map(|w| ((w[1] - w[0]) as usize).pow(2))
                    .sum();
                if blk_inv.len() != inv_len {
                    return None;
                }
                let coarse = if d.take_bool().ok()? {
                    let inv = d.take_vec::<f64>().ok()?;
                    let p_off = d.take_vec::<u32>().ok()?;
                    let (p_idx, p_val) = (d.take_vec::<u32>().ok()?, d.take_vec::<f64>().ok()?);
                    let nc = p_off.len().checked_sub(1)?;
                    if inv.len() != nc * nc
                        || p_idx.len() != p_val.len()
                        || !offsets_ok(&p_off, p_idx.len())
                        || !in_compact(&p_idx)
                    {
                        return None;
                    }
                    Some(Coarse {
                        nc,
                        inv,
                        p_off,
                        p_idx,
                        p_val,
                    })
                } else {
                    None
                };
                SchurPrecon::LowEnergy(LowEnergy {
                    v_idx,
                    v_inv,
                    blk_off,
                    blk_idx,
                    blk_inv,
                    coarse,
                })
            }
            _ => return None,
        };
        d.finish().ok()?;
        Some(Self { op, precon })
    }
}
