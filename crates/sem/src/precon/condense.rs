//! Static condensation: interiors eliminated once at build, the operator
//! applied per iteration on the free element-boundary DoFs only.
//!
//! Three index spaces meet here. **Global** ids (`0..nglobal`) are the
//! space's. The **compact** space numbers the *free element-boundary*
//! DoFs — vertex/edge/face nodes not in the Dirichlet set — `0..nb()` in
//! ascending global id; Dirichlet DoFs have no compact index, so nothing
//! per iteration has to mask them. **Local** positions index one
//! element's free boundary nodes (the rows of its `S_e`) and free interior
//! nodes (the rows of its `W`), in local node order with masked nodes
//! dropped.

use super::dense::{gemv, gemv_t_sub, spd_inverse_in_place, symv};
use super::{ApplyScratch, EllipticSpace, NodeRole};
use nkg_artifact::{cached, Artifact, ArtifactKey, KeyHasher};
use nkg_simd::axpy;
use std::collections::HashMap;
use std::sync::Arc;

/// The condensed products of one class of congruent elements: equal
/// geometric factors, equal λ and equal local Dirichlet pattern give
/// bitwise equal products, so they are built and stored once — once per
/// engine, and once per ambient artifact cache across engines (kind
/// `"eclass"`, memory-only).
#[derive(Debug, Clone)]
pub(super) struct ElemClass {
    /// Free boundary / free interior node counts.
    pub(super) nb: usize,
    pub(super) ni: usize,
    /// Schur complement `A_bb − A_bi A_ii⁻¹ A_ib`, `nb × nb`, exactly
    /// symmetric.
    pub(super) s: Vec<f64>,
    /// `W = A_ii⁻¹ A_ib`, `ni × nb`: minus the discrete-harmonic extension.
    /// Condensing the RHS applies `Wᵀ`, back-substitution applies `W`.
    pub(super) w: Vec<f64>,
    /// `A_ii⁻¹`, `ni × ni`.
    pub(super) aii_inv: Vec<f64>,
}

/// The condensed operator of one (space, λ, Dirichlet set).
#[derive(Debug, Clone)]
pub(super) struct Condensed {
    pub(super) nglobal: usize,
    /// Compact → global id, strictly ascending.
    pub(super) bgid: Vec<u32>,
    /// Shared with every other engine built under the same artifact cache.
    pub(super) classes: Vec<Arc<ElemClass>>,
    /// Class of each element.
    pub(super) elem_class: Vec<u32>,
    /// Element-major: compact index of each free boundary node.
    pub(super) bidx: Vec<u32>,
    /// Element-major: global id of each free interior node.
    pub(super) igid: Vec<u32>,
}

/// Gather / product buffers of the per-element kernels.
#[derive(Debug, Clone, Default)]
pub(super) struct ElemScratch {
    xb: Vec<f64>,
    yb: Vec<f64>,
    xi: Vec<f64>,
}

impl ElemScratch {
    pub(super) fn for_operator(op: &Condensed) -> Self {
        let nb = op.classes.iter().map(|c| c.nb).max().unwrap_or(0);
        let ni = op.classes.iter().map(|c| c.ni).max().unwrap_or(0);
        Self {
            xb: vec![0.0; nb],
            yb: vec![0.0; nb],
            xi: vec![0.0; ni],
        }
    }
}

/// One element's view of the operator.
pub(super) struct ElemView<'a> {
    pub(super) class: &'a ElemClass,
    pub(super) bidx: &'a [u32],
    pub(super) igid: &'a [u32],
    /// Offset of this element's interior block in a flat
    /// [`Condensed::interior_len`] vector.
    pub(super) ioff: usize,
}

impl Condensed {
    /// Eliminate the interiors of `space` at shift `lambda` with Dirichlet
    /// flags `masked`. Also returns, per class, the local node index of
    /// each free boundary node — what the preconditioner assembly needs to
    /// place `S_e` rows on topological entities.
    pub(super) fn build<S: EllipticSpace + ?Sized>(
        space: &S,
        lambda: f64,
        masked: &[bool],
    ) -> (Self, Vec<Vec<usize>>) {
        let nglobal = space.nglobal();
        assert!(
            nglobal < u32::MAX as usize,
            "condensed engine indexes DoFs with u32"
        );
        let nloc = space.nloc();
        let roles = space.node_roles();
        let nelem = space.num_elems();

        // Compact numbering: free boundary DoFs in ascending global id.
        let mut compact = vec![u32::MAX; nglobal];
        for e in 0..nelem {
            for (k, &g) in space.elem_gids(e).iter().enumerate() {
                if roles[k] != NodeRole::Interior && !masked[g] {
                    compact[g] = 0;
                }
            }
        }
        let mut bgid = Vec::new();
        for (g, c) in compact.iter_mut().enumerate() {
            if *c == 0 {
                *c = bgid.len() as u32;
                bgid.push(g as u32);
            }
        }

        let mut classes: Vec<Arc<ElemClass>> = Vec::new();
        let mut class_bl: Vec<Vec<usize>> = Vec::new();
        let mut class_il: Vec<Vec<usize>> = Vec::new();
        let mut by_key: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut elem_class = Vec::with_capacity(nelem);
        let (mut bidx, mut igid) = (Vec::new(), Vec::new());
        // The element matrix depends on the geometry words alone, so
        // consecutive elements that differ only in their Dirichlet
        // pattern reuse one matrix.
        let mut ae = vec![0.0f64; nloc * nloc];
        let mut ae_geom: Vec<u64> = Vec::new();
        let mut key: Vec<u64> = Vec::new();
        let mut ws = ApplyScratch::new();
        // A space with a fingerprint lets its setup products be shared
        // (`EllipticSpace::fingerprint`); one without builds every class.
        let share = space.fingerprint().is_some();
        for e in 0..nelem {
            let gmap = space.elem_gids(e);
            key.clear();
            space.elem_geom_bits(e, &mut key);
            let ngeom = key.len();
            key.extend(gmap.iter().map(|&g| masked[g] as u64));
            let c = match by_key.get(&key) {
                Some(&c) => c,
                None => {
                    let free = |interior: bool| -> Vec<usize> {
                        (0..nloc)
                            .filter(|&k| {
                                (roles[k] == NodeRole::Interior) == interior && !masked[gmap[k]]
                            })
                            .collect()
                    };
                    let (bl, il) = (free(false), free(true));
                    let mut build = || {
                        if ae_geom != key[..ngeom] {
                            space.elem_matrix(e, lambda, &mut ae, &mut ws);
                            ae_geom.clear();
                            ae_geom.extend_from_slice(&key[..ngeom]);
                        }
                        ElemClass::build(&ae, nloc, &bl, &il)
                    };
                    let class = if share {
                        let ck = class_key(space.dim(), nloc, ngeom, &key, lambda);
                        cached("eclass", ck, build)
                    } else {
                        Arc::new(build())
                    };
                    classes.push(class);
                    class_bl.push(bl);
                    class_il.push(il);
                    let c = (classes.len() - 1) as u32;
                    by_key.insert(key.clone(), c);
                    c
                }
            };
            elem_class.push(c);
            bidx.extend(class_bl[c as usize].iter().map(|&k| compact[gmap[k]]));
            igid.extend(class_il[c as usize].iter().map(|&k| gmap[k] as u32));
        }
        let op = Self {
            nglobal,
            bgid,
            classes,
            elem_class,
            bidx,
            igid,
        };
        (op, class_bl)
    }

    /// Size of the compact space.
    pub(super) fn nb(&self) -> usize {
        self.bgid.len()
    }

    /// Total free interior nodes over all elements.
    pub(super) fn interior_len(&self) -> usize {
        self.igid.len()
    }

    /// Elements in order, each with its slices of the flat index arrays.
    pub(super) fn elems(&self) -> impl Iterator<Item = ElemView<'_>> {
        let (mut bo, mut io) = (0, 0);
        self.elem_class.iter().map(move |&c| {
            let class = &self.classes[c as usize];
            let view = ElemView {
                class,
                bidx: &self.bidx[bo..bo + class.nb],
                igid: &self.igid[io..io + class.ni],
                ioff: io,
            };
            bo += class.nb;
            io += class.ni;
            view
        })
    }

    /// `out = S x` on the compact space: per element a gather, one dense
    /// symmetric `S_e` product and a scatter-add.
    pub(super) fn apply(&self, x: &[f64], out: &mut [f64], ws: &mut ElemScratch) {
        out.fill(0.0);
        for el in self.elems() {
            let nb = el.class.nb;
            let (xb, yb) = (&mut ws.xb[..nb], &mut ws.yb[..nb]);
            for (v, &c) in xb.iter_mut().zip(el.bidx) {
                *v = x[c as usize];
            }
            symv(&el.class.s, xb, yb);
            for (&v, &c) in yb.iter().zip(el.bidx) {
                out[c as usize] += v;
            }
        }
    }

    /// Condense the global residual-form RHS `b = rhs − lift` (evaluated
    /// on free DoFs only): writes `g = b_b − Σ_e Wᵀ b_i` on the compact
    /// space and `y = A_ii⁻¹ b_i` per element into `yint`, and returns
    /// `‖b‖²` over all free DoFs — the norm the stopping test is relative
    /// to.
    pub(super) fn condense_rhs(
        &self,
        rhs: &[f64],
        lift: Option<&[f64]>,
        g: &mut [f64],
        yint: &mut [f64],
        ws: &mut ElemScratch,
    ) -> f64 {
        let b_at = |gid: u32| match lift {
            Some(l) => rhs[gid as usize] - l[gid as usize],
            None => rhs[gid as usize],
        };
        let mut norm2 = 0.0;
        for (v, &gid) in g.iter_mut().zip(&self.bgid) {
            *v = b_at(gid);
            norm2 += *v * *v;
        }
        for el in self.elems() {
            let (nb, ni) = (el.class.nb, el.class.ni);
            let (bi, gb) = (&mut ws.xi[..ni], &mut ws.yb[..nb]);
            for (v, &gid) in bi.iter_mut().zip(el.igid) {
                *v = b_at(gid);
                norm2 += *v * *v;
            }
            symv(&el.class.aii_inv, bi, &mut yint[el.ioff..el.ioff + ni]);
            gb.fill(0.0);
            gemv_t_sub(&el.class.w, bi, gb);
            for (&v, &c) in gb.iter().zip(el.bidx) {
                g[c as usize] += v;
            }
        }
        norm2
    }

    /// Recover the full solution from the compact one: `x_b` on the free
    /// boundary DoFs and `x_i = y − W x_b` on the interiors. Dirichlet
    /// entries of `x` are left as the caller set them.
    pub(super) fn back_substitute(
        &self,
        xb: &[f64],
        yint: &[f64],
        x: &mut [f64],
        ws: &mut ElemScratch,
    ) {
        for (&v, &gid) in xb.iter().zip(&self.bgid) {
            x[gid as usize] = v;
        }
        for el in self.elems() {
            let (nb, ni) = (el.class.nb, el.class.ni);
            let (xl, wx) = (&mut ws.xb[..nb], &mut ws.xi[..ni]);
            for (v, &c) in xl.iter_mut().zip(el.bidx) {
                *v = xb[c as usize];
            }
            gemv(&el.class.w, xl, wx);
            for ((&y, &w), &gid) in yint[el.ioff..].iter().zip(wx.iter()).zip(el.igid) {
                x[gid as usize] = y - w;
            }
        }
    }

    /// Resident bytes of this operator's own index arrays. The class
    /// products are counted by the `"eclass"` artifacts that own them,
    /// once however many elements and engines share them.
    pub(super) fn approx_bytes(&self) -> usize {
        (self.bgid.len() + self.elem_class.len() + self.bidx.len() + self.igid.len()) * 4
    }
}

/// The `"eclass"` artifact key: everything a class's products are a
/// function of. (D, `nloc`) fixes the GLL basis; the geometry words, their
/// count and the local Dirichlet mask (`words`, in that order) fix the
/// element matrix up to λ and its split into free boundary and interior.
fn class_key(dim: usize, nloc: usize, ngeom: usize, words: &[u64], lambda: f64) -> ArtifactKey {
    let mut h = KeyHasher::new("eclass");
    h.usize(dim);
    h.usize(nloc);
    h.usize(ngeom);
    for &w in words {
        h.u64(w);
    }
    h.f64(lambda);
    h.finish()
}

/// Memory-only: a `Factors` on disk carries its classes by value.
impl Artifact for ElemClass {
    fn approx_bytes(&self) -> usize {
        self.bytes()
    }
}

impl ElemClass {
    /// Bytes of the products `S_e`, `W` and `A_ii⁻¹`.
    pub(super) fn bytes(&self) -> usize {
        (self.s.len() + self.w.len() + self.aii_inv.len()) * 8
    }

    /// Condense the dense element matrix `ae` (`nloc × nloc`) onto the free
    /// boundary nodes `bl`, eliminating the free interior nodes `il`.
    fn build(ae: &[f64], nloc: usize, bl: &[usize], il: &[usize]) -> Self {
        let (nb, ni) = (bl.len(), il.len());
        let sub = |rows: &[usize], cols: &[usize]| -> Vec<f64> {
            let mut m = Vec::with_capacity(rows.len() * cols.len());
            for &r in rows {
                m.extend(cols.iter().map(|&c| ae[r * nloc + c]));
            }
            m
        };
        let mut aii_inv = sub(il, il);
        // The interior block is the element's own Dirichlet problem: SPD
        // for any λ ≥ 0 on a non-degenerate element.
        assert!(
            spd_inverse_in_place(&mut aii_inv, ni),
            "element interior block is not SPD (negative shift or degenerate element)"
        );
        // W = A_ii⁻¹ A_ib, then S = A_bb − A_ibᵀ W, both as row updates:
        // a row of a product is a combination of the right factor's rows.
        // S is symmetrised below (the kernel's A_e is symmetric only to
        // round-off).
        let aib = sub(il, bl);
        let mut w = vec![0.0; ni * nb];
        let mut s = sub(bl, bl);
        if nb > 0 && ni > 0 {
            for (wrow, inv_row) in w.chunks_exact_mut(nb).zip(aii_inv.chunks_exact(ni)) {
                for (&c, arow) in inv_row.iter().zip(aib.chunks_exact(nb)) {
                    axpy(c, arow, wrow);
                }
            }
            for (arow, wrow) in aib.chunks_exact(nb).zip(w.chunks_exact(nb)) {
                for (&a, srow) in arow.iter().zip(s.chunks_exact_mut(nb)) {
                    axpy(-a, wrow, srow);
                }
            }
        }
        for i in 0..nb {
            for j in 0..i {
                let m = 0.5 * (s[i * nb + j] + s[j * nb + i]);
                s[i * nb + j] = m;
                s[j * nb + i] = m;
            }
        }
        Self {
            nb,
            ni,
            s,
            w,
            aii_inv,
        }
    }
}
