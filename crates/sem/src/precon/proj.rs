//! Successive-RHS projection warm starts (Fischer), in the condensed space.

use nkg_ckpt::{CkptError, Dec, Enc};
use nkg_simd::{axpy, dot};

/// S-orthonormal basis of previous condensed solutions for one RHS stream.
///
/// Invariant: `w[i]ᵀ S w[j] = δ_ij`; `sw[i] = S w[i]`. The initial guess
/// for a new condensed RHS `g` is `x₀ = Σ (w_iᵀ g) w_i` — the S-norm-optimal
/// element of `span{w}` — and each converged solution is S-orthogonalized
/// back into the basis, evicting the oldest vector beyond `depth`
/// (dropping a member of an S-orthonormal set keeps the rest
/// S-orthonormal).
#[derive(Debug, Clone, Default)]
pub(super) struct ProjBasis {
    depth: usize,
    w: Vec<Vec<f64>>,
    sw: Vec<Vec<f64>>,
    /// Candidate scratch, so a rejected candidate never evicts anything.
    vtmp: Vec<f64>,
    svtmp: Vec<f64>,
}

impl ProjBasis {
    pub(super) fn new(depth: usize) -> Self {
        Self {
            depth,
            ..Self::default()
        }
    }

    /// Whether this stream keeps a basis at all.
    pub(super) fn enabled(&self) -> bool {
        self.depth > 0
    }

    pub(super) fn len(&self) -> usize {
        self.w.len()
    }

    /// Write the projected initial guess into `x0`; returns the basis size.
    pub(super) fn guess(&self, g: &[f64], x0: &mut [f64]) -> usize {
        x0.fill(0.0);
        for w in &self.w {
            let c = dot(w, g);
            axpy(c, w, x0);
        }
        self.w.len()
    }

    /// S-orthogonalize `x` against the basis and append it (evicting the
    /// oldest member at capacity). `sx` must hold `S x`.
    pub(super) fn absorb(&mut self, x: &[f64], sx: &[f64]) {
        if self.depth == 0 {
            return;
        }
        let n = x.len();
        if self.vtmp.len() < n {
            self.vtmp.resize(n, 0.0);
            self.svtmp.resize(n, 0.0);
        }
        let (wv, sv) = (&mut self.vtmp[..n], &mut self.svtmp[..n]);
        wv.copy_from_slice(x);
        sv.copy_from_slice(sx);
        let nrm2_full = dot(wv, sv);
        for (w, sw) in self.w.iter().zip(&self.sw) {
            // c = wᵀ S x  (S-projection of the candidate on the basis).
            let c = dot(sw, x);
            axpy(-c, w, wv);
            axpy(-c, sw, sv);
        }
        let nrm2 = dot(wv, sv);
        if nrm2 <= 1e-28 + 1e-14 * nrm2_full {
            // Candidate already (numerically) in the span — e.g. a steady
            // state resolving the same RHS every step, or a warm-started
            // solve whose orthogonal remainder is pure CG round-off. The
            // relative cut matters: normalizing a remainder of S-norm
            // ~`tol` would amplify solver noise into a garbage basis
            // vector that poisons every later guess. Keep the basis.
            return;
        }
        let inv = 1.0 / nrm2.sqrt();
        wv.iter_mut().for_each(|v| *v *= inv);
        sv.iter_mut().for_each(|v| *v *= inv);
        let (mut ws, mut ss) = if self.w.len() >= self.depth {
            // Recycle the evicted buffers: steady state allocates nothing.
            (self.w.remove(0), self.sw.remove(0))
        } else {
            (vec![0.0; n], vec![0.0; n])
        };
        ws.copy_from_slice(wv);
        ss.copy_from_slice(sv);
        self.w.push(ws);
        self.sw.push(ss);
    }
}

/// Encode the bases of one engine: the condensed length, then per slot the
/// `(w, Sw)` pairs in age order. Restoring this exactly preserves bitwise
/// solver state across checkpoint/restart.
pub(super) fn snapshot(enc: &mut Enc, nb: usize, slots: &[ProjBasis]) {
    enc.put(nb as u64);
    enc.put(slots.len() as u64);
    for p in slots {
        enc.put(p.w.len() as u64);
        for (w, sw) in p.w.iter().zip(&p.sw) {
            enc.put_slice(w);
            enc.put_slice(sw);
        }
    }
}

/// Decode a section written by [`snapshot`] into `slots`. The leading
/// condensed length must equal `nb`: a section written by a build whose
/// bases lived in the full nodal space starts with its slot count instead
/// and is refused here, not mis-sized into the engine. Slots beyond the
/// engine's configuration are dropped; vectors beyond a slot's depth are
/// dropped oldest-first.
pub(super) fn restore(
    dec: &mut Dec<'_>,
    nb: usize,
    slots: &mut [ProjBasis],
) -> Result<(), CkptError> {
    if dec.take::<u64>()? != nb as u64 {
        return Err(CkptError::Mismatch(
            "projection bases are not in this engine's condensed space".into(),
        ));
    }
    let nslots = dec.take::<u64>()? as usize;
    for p in slots.iter_mut() {
        p.w.clear();
        p.sw.clear();
    }
    for slot in 0..nslots {
        let nvec = dec.take::<u64>()? as usize;
        for i in 0..nvec {
            let w = dec.take_vec::<f64>()?;
            let sw = dec.take_vec::<f64>()?;
            if w.len() != nb || sw.len() != nb {
                return Err(CkptError::Malformed("projection basis length"));
            }
            if let Some(p) = slots.get_mut(slot) {
                if nvec - i <= p.depth {
                    p.w.push(w);
                    p.sw.push(sw);
                }
            }
        }
    }
    Ok(())
}
