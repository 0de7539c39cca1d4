//! The lattice miss estimator: closed-form counting instead of per-point
//! sampling.
//!
//! Where the sampled backend (§2.3) classifies a few hundred random
//! iteration points per candidate, this backend classifies whole
//! *populations* at once, in the spirit of the cache-associativity-lattice
//! characterisation of conflict misses (Adjiashvili & Haus — see
//! PAPERS.md): the iteration space is carved into sets of points that
//! provably share a classification, and each set is counted in closed
//! form. Per reference:
//!
//! 1. **Reuse geometry (exact).** The recency-ordered reuse candidates
//!    (`crate::reuse`) are walked most-recent first, maintaining the set
//!    of still-unclaimed points as a disjoint box list. Candidate `r`
//!    claims `remaining ∩ (space + r)` — every claimed point provably has
//!    that candidate as its most recent same-line source. Points no
//!    candidate claims have no in-space source: **cold**, exactly.
//! 2. **Line alignment (exact).** A spatial candidate only reuses the
//!    lines whose intra-line offset keeps source and current access on
//!    one line: an interval condition on `addr(v) mod line`. The offset
//!    axis is partitioned into alignment classes, and each class's
//!    population inside a box is counted exactly by the residue-histogram
//!    convolution of [`cme_polyhedra::modcount`] — never by enumeration.
//! 3. **Interference (stratified).** Whether a claimed population's reuse
//!    survives in cache is decided by the same exact interference solver
//!    the classifier uses ([`crate::interference`]), evaluated once per
//!    homogeneity stratum instead of once per point: claimed boxes are
//!    split until their address span is below the cache way size (the
//!    period of the set-mapping), then one solver verdict classifies the
//!    whole stratum as hit or replacement.
//!
//! Steps 1–2 are exact lattice-point counting; step 3 trades per-point
//! precision for a per-candidate cost that is *independent of the
//! iteration count* — the differential suite (`tests/lattice_vs_sim.rs`)
//! pins its accuracy against the exact cache simulator. The result
//! carries `half_width = 0`: there is no sampling noise to bound, and
//! repeated runs are bit-identical.

use crate::engine::EvalEngine;
use crate::estimate::{MissEstimate, RefEstimate, SolverStats};
use crate::estimator::Estimator;
use crate::interference::InterferenceEngine;
use crate::model::NestAnalysis;
use crate::reuse::ReuseCandidate;
use cme_loopnest::{MemoryLayout, TileSizes};
use cme_polyhedra::modcount::residue_counts;
use cme_polyhedra::{AffineForm, IntBox, Interval};
use rayon::prelude::*;
use std::collections::HashMap;
use std::rc::Rc;

/// Interference solver verdicts per reference per level, by space volume:
/// small spaces afford fine strata (differential accuracy), huge search
/// spaces keep the flat floor so one candidate evaluation stays well
/// under the sampled backend's per-candidate cost.
fn probe_budget(volume: u64) -> usize {
    if volume <= 1 << 16 {
        768
    } else if volume <= 1 << 24 {
        256
    } else {
        32
    }
}

/// Reuse-candidate depth per reference, by space volume. Small spaces use
/// the full shared lift (differential accuracy); large spaces lift only
/// the most-recent prefix via bounded selection — the sampled backend
/// never pays the full lift on its hot path, so the lattice must not
/// either. Points whose only reuse is deeper than the cap count as cold
/// (conservative, like every other truncation in the model).
fn candidate_cap(volume: u64) -> Option<usize> {
    if volume <= 1 << 16 {
        None
    } else if volume <= 1 << 24 {
        Some(48)
    } else {
        Some(16)
    }
}

/// Above this volume, offsets a partially-aligned claiming candidate
/// leaves behind are counted cold instead of falling through to older
/// candidates. For forward-walking spatial chains (the common shape) the
/// leftover offsets are the genuine per-line cold fraction, and any deep
/// cross-loop reuse they might still have is interference-blocked at this
/// scale anyway — while keeping them live fragments the ladder badly.
const DROP_PASS_VOLUME: u64 = 1 << 24;

/// Leaves one claimed box may split into while probe budget remains.
const MAX_LEAVES_PER_CELL: usize = 32;

/// Disjoint-box-list cap: beyond this the remaining population is
/// conservatively classified cold (misses can only be overestimated —
/// the same direction as every other approximation in the CME model).
const MAX_REMAINING_BOXES: usize = 2048;

/// The lattice scoring backend over a shared [`EvalEngine`].
pub struct LatticeEstimator<'e> {
    engine: &'e EvalEngine,
}

impl<'e> LatticeEstimator<'e> {
    pub fn new(engine: &'e EvalEngine) -> Self {
        LatticeEstimator { engine }
    }

    /// Estimate under an optional layout/tiling — deterministic, no
    /// sampling seed. The hierarchy decoration mirrors
    /// [`EvalEngine::estimate_canonical`]: every level is re-counted
    /// against its own geometry.
    pub fn estimate(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
    ) -> MissEstimate {
        let effective = tiles.filter(|t| !t.is_trivial(self.engine.nest()));
        let an = match layout {
            None => self.engine.analysis(effective),
            Some(l) => self.engine.analysis_for_layout(l, effective),
        };
        let l1 = estimate_analysis(&an);
        self.engine.decorate(l1, |k| {
            let level_an = match layout {
                None => self.engine.outer_analysis(k, effective),
                Some(l) => self.engine.outer_analysis_for_layout(k, l, effective),
            };
            estimate_analysis(&level_an)
        })
    }
}

impl Estimator for LatticeEstimator<'_> {
    fn name(&self) -> &'static str {
        "lattice"
    }

    fn engine(&self) -> &EvalEngine {
        self.engine
    }

    fn estimate_canonical(&self, tiles: Option<&TileSizes>) -> MissEstimate {
        self.estimate(None, tiles)
    }

    fn estimate_transformed(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
        _sample_seed: u64,
        _incumbent: Option<f64>,
    ) -> MissEstimate {
        self.estimate(layout, tiles)
    }

    fn cost(&self, values: &[i64], _incumbent: Option<f64>) -> f64 {
        let tiles = TileSizes(values.to_vec());
        let effective = (!tiles.is_trivial(self.engine.nest())).then_some(&tiles);
        self.estimate(None, effective).weighted_cost()
    }
}

/// Single-level lattice estimate of one assembled analysis. References
/// are counted in parallel, each with its own candidate lift and
/// interference engine; solver counters are summed in reference order.
pub(crate) fn estimate_analysis(an: &NestAnalysis) -> MissEstimate {
    let volume = an.space.volume();
    let cap = candidate_cap(volume);
    let refs: Vec<usize> = (0..an.addr.len()).collect();
    let counted: Vec<(RefEstimate, SolverStats)> = refs
        .par_iter()
        .map(|&a| {
            if volume == 0 {
                let empty = RefEstimate { p_cold: 0.0, p_repl: 0.0, half_width: 0.0 };
                return (empty, SolverStats::default());
            }
            let mut iface = an.engine();
            let capped;
            let cands = match cap {
                None => &an.candidates()[a],
                Some(cap) => {
                    capped = crate::reuse::lift_ref_capped(&an.base, a, &an.space, cap);
                    &capped
                }
            };
            let (cold, repl) = classify_ref(an, &mut iface, a, cands);
            let est = RefEstimate {
                p_cold: cold as f64 / volume as f64,
                p_repl: repl as f64 / volume as f64,
                half_width: 0.0,
            };
            (est, an.stats_of(&iface))
        })
        .collect();
    let mut solver = SolverStats::default();
    for (_, stats) in &counted {
        solver += *stats;
    }
    MissEstimate {
        n_samples: volume,
        volume,
        exact: true,
        per_ref: counted.into_iter().map(|(est, _)| est).collect(),
        solver,
        levels: None,
    }
}

/// A reuse candidate with its alignment class: the interval of intra-line
/// offsets `addr(v) mod line` for which source and current access share a
/// line.
struct AlignedCand {
    rv: Vec<i64>,
    src: usize,
    align: Interval,
}

/// Exact (cold, replacement) population counts for one reference.
fn classify_ref(
    an: &NestAnalysis,
    iface: &mut InterferenceEngine,
    a: usize,
    ref_cands: &[ReuseCandidate],
) -> (u64, u64) {
    let line = an.cache.line;
    let addr_a = &an.addr[a];
    let cands: Vec<AlignedCand> = ref_cands
        .iter()
        .filter_map(|c| {
            // addr_src(v - rv) = addr_a(v) + κ; same line ⇔ the intra-line
            // offset u = addr_a(v) mod line satisfies 0 ≤ u + κ < line.
            let kappa = an.addr[c.src_ref].c0 - addr_a.c0 - addr_a.displacement(&c.rv);
            let align = Interval::new((-kappa).max(0), (line - 1 - kappa).min(line - 1));
            (!align.is_empty()).then(|| AlignedCand { rv: c.rv.clone(), src: c.src_ref, align })
        })
        .collect();

    // Homogeneity target for interference strata: the set-mapping period
    // would be the way size, but verdicts genuinely change at finer
    // granularity; go as fine as the budget allows, never below a line.
    let span_target = (an.cache.size / an.cache.assoc / 16).max(line);
    let budget = probe_budget(an.space.volume());
    let drop_pass = an.space.volume() > DROP_PASS_VOLUME;
    // Shifted source regions per candidate.
    let shifted: Vec<Vec<IntBox>> = cands
        .iter()
        .map(|c| {
            an.space.regions.iter().map(|r| r.vbox.shift(&c.rv)).filter(|b| !b.is_empty()).collect()
        })
        .collect();
    let mut cold = 0u64;
    let mut repl = 0u64;
    // Interference verdicts are per (candidate, stratum box) — offset
    // classes share them, so mask splits never re-query the solver.
    let mut verdicts: HashMap<(usize, IntBox), bool> = HashMap::new();
    let mut probes = 0usize;
    // One ladder pass over (box × offset-mask) items: a point with
    // intra-line offset u is claimed by the first (most recent) candidate
    // whose shifted region contains it AND whose alignment interval
    // contains u. Boxes split geometrically; masks split lazily, only
    // when a partially-aligned candidate actually claims a cell — the
    // common full-line (temporal) candidates never fork a mask.
    let full_mask: Rc<Vec<bool>> = Rc::new(vec![true; line as usize]);
    let mut items: Vec<(IntBox, Rc<Vec<bool>>)> =
        an.space.regions.iter().map(|r| (r.vbox.clone(), full_mask.clone())).collect();
    'cands: for (k, c) in cands.iter().enumerate() {
        if items.is_empty() {
            break;
        }
        for sh in &shifted[k] {
            // Points whose source iteration v - rv falls in the shifted
            // region; cheap reject before any box churn.
            if !items.iter().any(|(bx, _)| bx.overlaps(sh)) {
                continue;
            }
            let mut next = Vec::with_capacity(items.len());
            for (bx, mask) in &items {
                if !bx.overlaps(sh) {
                    next.push((bx.clone(), mask.clone()));
                    continue;
                }
                let cell = bx.intersect(sh);
                next.extend(bx.subtract(sh).into_iter().map(|p| (p, mask.clone())));
                if let Some(claimed) = mask_and(mask, &c.align) {
                    repl += cell_replacements(
                        an,
                        iface,
                        a,
                        k,
                        c,
                        &cell,
                        &claimed,
                        span_target,
                        budget,
                        &mut verdicts,
                        &mut probes,
                    );
                }
                // Offsets outside the alignment interval fall through to
                // less recent candidates (or straight to cold at large
                // volume — see DROP_PASS_VOLUME).
                if let Some(pass) = mask_minus(mask, &c.align) {
                    if drop_pass {
                        cold += count_allowed(addr_a, &cell, line, &pass);
                    } else {
                        next.push((cell, pass));
                    }
                }
            }
            items = next;
            if items.len() > MAX_REMAINING_BOXES {
                // Geometry got too fragmented: drop the rest of the
                // candidate walk and call the leftovers cold.
                break 'cands;
            }
        }
    }
    for (bx, mask) in &items {
        cold += count_allowed(addr_a, bx, line, mask);
    }
    (cold, repl)
}

/// `mask ∩ align`, or `None` when empty. A full-cover interval returns a
/// shared handle (no allocation).
fn mask_and(mask: &Rc<Vec<bool>>, align: &Interval) -> Option<Rc<Vec<bool>>> {
    let line = mask.len() as i64;
    if align.lo <= 0 && align.hi >= line - 1 {
        return Some(mask.clone());
    }
    let out: Vec<bool> = (0..line).map(|u| mask[u as usize] && align.contains(u)).collect();
    out.iter().any(|&ok| ok).then(|| Rc::new(out))
}

/// `mask \ align`, or `None` when empty.
fn mask_minus(mask: &Rc<Vec<bool>>, align: &Interval) -> Option<Rc<Vec<bool>>> {
    let line = mask.len() as i64;
    if align.lo <= 0 && align.hi >= line - 1 {
        return None;
    }
    let out: Vec<bool> = (0..line).map(|u| mask[u as usize] && !align.contains(u)).collect();
    out.iter().any(|&ok| ok).then(|| Rc::new(out))
}

/// Population of a box restricted to the allowed intra-line offsets.
fn count_allowed(addr: &AffineForm, bx: &IntBox, line: i64, allowed: &[bool]) -> u64 {
    if allowed.iter().all(|&ok| ok) {
        return bx.volume();
    }
    residue_counts(addr, bx, line).iter().zip(allowed).filter_map(|(&n, &ok)| ok.then_some(n)).sum()
}

/// Replacement-miss population of one claimed cell: split into strata of
/// address span below the way size, one interference verdict per stratum.
#[allow(clippy::too_many_arguments)]
fn cell_replacements(
    an: &NestAnalysis,
    iface: &mut InterferenceEngine,
    a: usize,
    cand_idx: usize,
    cand: &AlignedCand,
    cell: &IntBox,
    allowed: &[bool],
    span_target: i64,
    budget: usize,
    verdicts: &mut HashMap<(usize, IntBox), bool>,
    probes: &mut usize,
) -> u64 {
    let addr_a = &an.addr[a];
    // Apportion the remaining budget: later cells still get strata, and
    // an exhausted budget degrades to one verdict per cell.
    let max_leaves =
        if *probes >= budget { 1 } else { ((budget - *probes) / 4).clamp(1, MAX_LEAVES_PER_CELL) };
    let mut repl = 0;
    for stratum in probe_strata(cell, addr_a, span_target, max_leaves) {
        let n = count_allowed(addr_a, &stratum, an.cache.line, allowed);
        if n == 0 {
            continue;
        }
        let blocked = match verdicts.get(&(cand_idx, stratum.clone())) {
            Some(&b) => b,
            None => {
                let v_cur = midpoint(&stratum);
                let v_src: Vec<i64> = v_cur.iter().zip(&cand.rv).map(|(v, r)| v - r).collect();
                let l0 = an.cache.line_of(addr_a.eval(&v_cur));
                let b = iface.blocks_reuse(&an.space, &an.addr, &v_src, cand.src, &v_cur, a, l0);
                *probes += 1;
                verdicts.insert((cand_idx, stratum.clone()), b);
                b
            }
        };
        if blocked {
            repl += n;
        }
    }
    repl
}

/// Split a box into at most `max_leaves` sub-boxes, halving the dimension
/// contributing most address span until every leaf's span is below the
/// homogeneity target (the scale on which interference verdicts can
/// change).
fn probe_strata(
    bx: &IntBox,
    addr: &AffineForm,
    span_target: i64,
    max_leaves: usize,
) -> Vec<IntBox> {
    let mut out = vec![bx.clone()];
    while out.len() < max_leaves {
        // Widest leaf by address span, if still above the homogeneity scale.
        let split = out
            .iter()
            .enumerate()
            .map(|(i, b)| (i, addr.range_over(b).len()))
            .max_by_key(|&(_, span)| span)
            .filter(|&(_, span)| span > span_target as u64);
        let Some((i, _)) = split else { break };
        let b = &out[i];
        let Some(dim) = widest_dim(b, addr) else { break };
        let iv = b.dims[dim];
        let mid = iv.lo + (iv.hi - iv.lo) / 2;
        let mut lo_half = b.clone();
        lo_half.dims[dim] = Interval::new(iv.lo, mid);
        let mut hi_half = b.clone();
        hi_half.dims[dim] = Interval::new(mid + 1, iv.hi);
        out[i] = lo_half;
        out.push(hi_half);
    }
    out
}

/// The splittable dimension contributing the most address span.
fn widest_dim(bx: &IntBox, addr: &AffineForm) -> Option<usize> {
    bx.dims
        .iter()
        .zip(&addr.coeffs)
        .enumerate()
        .filter(|(_, (iv, _))| iv.len() > 1)
        .max_by_key(|(_, (iv, &c))| c.unsigned_abs().saturating_mul(iv.len() - 1))
        .map(|(t, _)| t)
}

/// The component-wise middle point of a box.
fn midpoint(bx: &IntBox) -> Vec<i64> {
    bx.dims.iter().map(|iv| iv.lo + (iv.hi - iv.lo) / 2).collect()
}
