//! SchurDelta (paper Algorithm 4): marginal gains via forests rooted at
//! the *enlarged* set `S ∪ T`.
//!
//! With `U = V ∖ (S ∪ T)` and `Σ = S_T(L_{-S})`, Eq. (11) block-decomposes
//!
//! ```text
//! L_{-S}^{-1} = [ L_UU^{-1} + F Σ^{-1} Fᵀ    F Σ^{-1}  ]
//!               [ Σ^{-1} Fᵀ                 Σ^{-1}     ]
//! ```
//!
//! where `F_{ut} = Pr(ρ_u = t)` (Lemma 4.2). The forests rooted at `S ∪ T`
//! supply three things at once: the `L_UU^{-1}` estimators (same machinery
//! as ForestDelta, but with much shorter walks — the paper's speed-up),
//! the rooted probabilities `F̃`, and, through Eq. (15), the estimated
//! `Σ̃` — inverted densely since `|T| ≪ n`.

use crate::adaptive::{batch_schedule, Candidate, StopRule};
use crate::engine::{GreedyWorkspace, NodeScratch, SchurScratch};
use crate::forest_delta::top2_max;
use crate::schur::{estimated_schur, invert_estimated_schur};
use crate::{CfcmError, CfcmParams};
use cfcc_forest::bernstein::bernstein_halfwidth;
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_forest::rooted::{RootIndex, RootedCounts};
use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::pool;
use cfcc_linalg::vector::norm2_sq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, PoisonError};

/// Output of one Schur delta-estimation round.
#[derive(Debug, Clone)]
pub struct SchurDeltaEstimates {
    /// `Δ'(u, S)` per node (`NaN` for `u ∈ S`).
    pub deltas: Vec<f64>,
    /// Argmax node.
    pub best: Node,
    /// Forests sampled.
    pub forests: u64,
    /// Random-walk steps performed.
    pub walk_steps: u64,
    /// Ridge added to the estimated Schur complement (0 in the common case).
    pub ridge: f64,
}

/// Estimate marginal gains with the auxiliary root set `T` (Algorithm 4),
/// with a fresh (throwaway) workspace. Greedy loops should prefer
/// [`schur_delta_ws`] with the run's persistent
/// [`crate::engine::GreedyWorkspace`] so the dense round buffers are
/// reused across iterations instead of reallocated.
pub fn schur_delta(
    g: &Graph,
    in_s: &[bool],
    t_nodes: &[Node],
    params: &CfcmParams,
    iteration: u64,
) -> Result<SchurDeltaEstimates, CfcmError> {
    let mut ws = GreedyWorkspace::new();
    schur_delta_ws(g, in_s, t_nodes, params, iteration, &mut ws)
}

/// [`schur_delta`] against the run's persistent workspace: the
/// `|T| × w` round buffers live in `ws` and are re-shaped (never
/// reallocated while shrinking) across greedy iterations.
///
/// `in_s` marks `S`; `t_nodes` must be disjoint from `S` and non-empty.
pub fn schur_delta_ws(
    g: &Graph,
    in_s: &[bool],
    t_nodes: &[Node],
    params: &CfcmParams,
    iteration: u64,
    ws: &mut GreedyWorkspace,
) -> Result<SchurDeltaEstimates, CfcmError> {
    let n = g.num_nodes();
    assert!(!t_nodes.is_empty());
    debug_assert!(
        t_nodes.iter().all(|&t| !in_s[t as usize]),
        "T must be disjoint from S"
    );
    let mut in_root = in_s.to_vec();
    for &t in t_nodes {
        in_root[t as usize] = true;
    }

    let w = params.width(n);
    let mut sketch_rng =
        StdRng::seed_from_u64(params.seed ^ 0x5C47A ^ iteration.wrapping_mul(0x9E37));
    let sketch_w = JlSketch::sample(w, n, &mut sketch_rng);
    let sketch_q = JlSketch::sample(w, t_nodes.len(), &mut sketch_rng);
    let index = Arc::new(RootIndex::new(n, t_nodes));
    let mut acc = ElectricalAccumulator::new(
        g,
        &in_root,
        Some(sketch_w.clone()),
        DiagMode::Diagonal,
        Some(index),
    );
    let cfg = SamplerConfig {
        seed: params.seed ^ 0x5DE17 ^ iteration.wrapping_mul(0x85EB),
        threads: params.threads,
    };
    let dmax = g.max_degree_excluding(&in_root);
    let cap = params.forest_cap(n, 0, dmax);
    let mut rule = StopRule::new();
    let mut sampled = 0u64;
    let mut deltas = vec![f64::NAN; n];
    let mut last_ridge = 0.0f64;
    // Dense round buffers live in the run's persistent workspace: each
    // adaptive round — and each greedy iteration — re-fills the same
    // allocations instead of creating new ones.
    ws.schur.ensure(t_nodes.len(), w, params.threads.max(1));
    for total in batch_schedule(params.min_batch, cap) {
        absorb_batch(g, &in_root, sampled, total - sampled, &cfg, &mut acc);
        sampled = total;
        last_ridge = compute_schur_deltas(
            g,
            in_s,
            &in_root,
            t_nodes,
            &acc,
            &sketch_w,
            &sketch_q,
            params.threads,
            &mut ws.schur,
            &mut deltas,
        )?;
        let (best, second) = top2_max(&deltas);
        let mk = |u: Node| Candidate {
            node: u,
            score: deltas[u as usize],
            halfwidth: if in_root[u as usize] {
                // t ∈ T: denominator comes from Σ̃^{-1}, treated via the
                // stability criterion only.
                0.0
            } else {
                let hz = bernstein_halfwidth(
                    acc.num_forests(),
                    acc.diag_variance(u),
                    acc.diag_sup(u).max(1.0),
                    params.delta_confidence,
                );
                let z = acc.diag_means()[u as usize].max(f64::MIN_POSITIVE);
                deltas[u as usize] * (hz / z).min(1.0)
            },
        };
        if rule.check(mk(best), second.map(mk), params.epsilon) {
            break;
        }
    }
    let (best, _) = top2_max(&deltas);
    Ok(SchurDeltaEstimates {
        deltas,
        best,
        forests: acc.num_forests(),
        walk_steps: acc.total_walk_steps(),
        ridge: last_ridge,
    })
}

/// Assemble Δ' for all `u ∉ S` from the current accumulator state.
/// `in_root` marks `S ∪ T`. The round buffers come from the run's
/// persistent [`SchurScratch`], sized by [`SchurScratch::ensure`] for
/// `threads` tasks.
///
/// The `wfq_t` fill (split by root row) and the per-node loop (split by
/// node range) run on the worker pool. Every row and every node keeps its
/// serial arithmetic order, so the deltas are bit-identical at every
/// thread count.
#[allow(clippy::too_many_arguments)]
fn compute_schur_deltas(
    g: &Graph,
    in_s: &[bool],
    in_root: &[bool],
    t_nodes: &[Node],
    acc: &ElectricalAccumulator,
    sketch_w: &JlSketch,
    sketch_q: &JlSketch,
    threads: usize,
    ws: &mut SchurScratch,
    deltas: &mut [f64],
) -> Result<f64, CfcmError> {
    let n = g.num_nodes();
    let w = sketch_w.width();
    let t_len = t_nodes.len();
    let rooted: &RootedCounts = acc.rooted().expect("rooted tracking enabled");
    let num_forests = acc.num_forests();

    // Σ̃ and its inverse G — the quadratic forms below read G's entries
    // directly, so this is a genuine inverse consumer (|T| × |T|, small).
    let sigma = estimated_schur(g, in_root, t_nodes, rooted, num_forests);
    let (gmat, ridge) = invert_estimated_schur(sigma)?;

    // wfq_t = (W·F̃ + Q)ᵀ ∈ R^{|T| × w}, rows contiguous per root.
    let inv_n = 1.0 / num_forests as f64;
    let rows_per_task = t_len.div_ceil(threads.max(1)).max(1);
    let row_blocks: Vec<Mutex<&mut [f64]>> = ws
        .wfq_t
        .data_mut()
        .chunks_mut(rows_per_task * w)
        .map(Mutex::new)
        .collect();
    pool::run(threads, row_blocks.len(), &|t| {
        let mut block = row_blocks[t].lock().unwrap_or_else(PoisonError::into_inner);
        let lo = t * rows_per_task;
        let hi = lo + block.len() / w;
        block.fill(0.0);
        for u in 0..n as Node {
            if in_root[u as usize] {
                continue;
            }
            let col = sketch_w.column(u as usize);
            for (k, &count) in rooted.row(u)[lo..hi].iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let p = count as f64 * inv_n;
                let row = &mut block[k * w..k * w + w];
                for j in 0..w {
                    row[j] += p * col[j];
                }
            }
        }
        for (k, row) in block.chunks_exact_mut(w).enumerate() {
            let q = sketch_q.column(lo + k);
            for j in 0..w {
                row[j] += q[j];
            }
        }
    });
    drop(row_blocks);
    // ht = G · wfq_t ∈ R^{|T| × w}; row t is the column `H e_t` of
    // H = (W F̃ + Q) Σ̃^{-1}.
    gmat.matmul_into(&ws.wfq_t, &mut ws.ht, threads);

    acc.y_matrix_into(&mut ws.y);
    let (ht, y, z) = (&ws.ht, &ws.y, acc.diag_means());
    // Δ'(u, S), or NaN for u ∈ S.
    let node_delta = |u: Node, scratch: &mut NodeScratch| -> f64 {
        let ui = u as usize;
        if in_s[ui] {
            return f64::NAN;
        }
        if let Some(ti) = rooted.index().index_of(u) {
            // u = t ∈ T: bottom-right block of Eq. (11).
            let zt = gmat.get(ti, ti).max(f64::MIN_POSITIVE);
            return norm2_sq(ht.row(ti)) / zt;
        }
        // u ∈ U: top-left block. `gf` holds u's probability row F̃_{u·}.
        let NodeScratch { gf, col } = scratch;
        for (p, &c) in gf.iter_mut().zip(rooted.row(u)) {
            *p = c as f64 * inv_n;
        }
        // Quadratic form fᵀ G f over the non-zero entries.
        let mut quad = 0.0;
        for (ti, &pi) in gf.iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            let grow = gmat.row(ti);
            for (tj, &pj) in gf.iter().enumerate() {
                if pj != 0.0 {
                    quad += pi * pj * grow[tj];
                }
            }
        }
        let floor = 1.0 / g.degree(u) as f64;
        let zu = z[ui].max(floor) + quad.max(0.0);
        // Corrected column: Y e_u + H·f_u = Y e_u + Σ_t p_t · ht.row(t).
        col.copy_from_slice(y.column(u));
        for (ti, &p) in gf.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let hrow = ht.row(ti);
            for j in 0..w {
                col[j] += p * hrow[j];
            }
        }
        norm2_sq(col) / zu
    };
    let nodes_per_task = n.div_ceil(ws.tasks.len()).max(1);
    let out: Vec<Mutex<&mut [f64]>> = deltas.chunks_mut(nodes_per_task).map(Mutex::new).collect();
    pool::run(threads, out.len(), &|t| {
        let mut out = out[t].lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = ws.tasks[t].lock().unwrap_or_else(PoisonError::into_inner);
        let lo = t * nodes_per_task;
        for (k, d) in out.iter_mut().enumerate() {
            *d = node_delta((lo + k) as Node, &mut scratch);
        }
    });
    Ok(ridge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_deltas;
    use crate::params::{t_star, top_degree_nodes};
    use cfcc_graph::generators;
    use rand::rngs::StdRng;

    fn run_case(seed: u64, n: usize, s: Vec<Node>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, 2, &mut rng);
        let mut in_s = vec![false; n];
        for &x in &s {
            in_s[x as usize] = true;
        }
        let c = t_star(&g).max(2);
        let t_nodes: Vec<Node> = top_degree_nodes(&g, c + s.len())
            .into_iter()
            .filter(|&t| !in_s[t as usize])
            .take(c)
            .collect();
        let params = CfcmParams::with_epsilon(0.15).seed(seed ^ 0xA);
        let est = schur_delta(&g, &in_s, &t_nodes, &params, 1).unwrap();
        let exact: Vec<(Node, f64)> = exact_deltas(&g, &s).unwrap();
        let mut sorted = exact.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top3: Vec<Node> = sorted.iter().take(3).map(|&(u, _)| u).collect();
        assert!(
            top3.contains(&est.best),
            "estimated best {} not in exact top3 {top3:?}",
            est.best
        );
        let exact_of_best = exact.iter().find(|&&(u, _)| u == est.best).unwrap().1;
        assert!(
            exact_of_best >= 0.85 * sorted[0].1,
            "chosen {} gain {exact_of_best} vs best {}",
            est.best,
            sorted[0].1
        );
    }

    #[test]
    fn tracks_exact_deltas_small() {
        run_case(24, 40, vec![0]);
    }

    #[test]
    fn tracks_exact_deltas_larger_group() {
        run_case(25, 50, vec![1, 8]);
    }

    #[test]
    fn grounded_nodes_are_nan_and_t_nodes_scored() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let mut in_s = vec![false; 30];
        in_s[5] = true;
        let t_nodes: Vec<Node> = top_degree_nodes(&g, 4)
            .into_iter()
            .filter(|&t| t != 5)
            .take(3)
            .collect();
        let params = CfcmParams::with_epsilon(0.3).seed(2);
        let est = schur_delta(&g, &in_s, &t_nodes, &params, 0).unwrap();
        assert!(est.deltas[5].is_nan());
        for &t in &t_nodes {
            assert!(
                est.deltas[t as usize].is_finite(),
                "T node {t} must be scored"
            );
        }
    }

    /// The pool split of the delta assembly keeps every node's arithmetic
    /// order, so one accumulator gives the same deltas at any thread count.
    #[test]
    fn assembly_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(28);
        let g = generators::barabasi_albert(120, 2, &mut rng);
        let n = g.num_nodes();
        let mut in_s = vec![false; n];
        in_s[7] = true;
        let t_nodes: Vec<Node> = top_degree_nodes(&g, 6)
            .into_iter()
            .filter(|&t| t != 7)
            .take(5)
            .collect();
        let mut in_root = in_s.clone();
        for &t in &t_nodes {
            in_root[t as usize] = true;
        }
        let w = 16;
        let sketch_w = JlSketch::sample(w, n, &mut rng);
        let sketch_q = JlSketch::sample(w, t_nodes.len(), &mut rng);
        let mut acc = ElectricalAccumulator::new(
            &g,
            &in_root,
            Some(sketch_w.clone()),
            DiagMode::Diagonal,
            Some(Arc::new(RootIndex::new(n, &t_nodes))),
        );
        let cfg = SamplerConfig {
            seed: 3,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 200, &cfg, &mut acc);
        let assemble = |threads: usize| {
            let mut ws = SchurScratch::default();
            ws.ensure(t_nodes.len(), w, threads);
            let mut deltas = vec![0.0; n];
            compute_schur_deltas(
                &g,
                &in_s,
                &in_root,
                &t_nodes,
                &acc,
                &sketch_w,
                &sketch_q,
                threads,
                &mut ws,
                &mut deltas,
            )
            .unwrap();
            deltas.iter().map(|d| d.to_bits()).collect::<Vec<u64>>()
        };
        let serial = assemble(1);
        assert!(f64::from_bits(serial[7]).is_nan());
        for threads in [2, 4] {
            assert_eq!(assemble(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(27);
        let g = generators::barabasi_albert(35, 2, &mut rng);
        let mut in_s = vec![false; 35];
        in_s[3] = true;
        let t_nodes: Vec<Node> = top_degree_nodes(&g, 5)
            .into_iter()
            .filter(|&t| t != 3)
            .take(4)
            .collect();
        let params = CfcmParams::default().seed(55);
        let a = schur_delta(&g, &in_s, &t_nodes, &params, 2).unwrap();
        let b = schur_delta(&g, &in_s, &t_nodes, &params, 2).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.forests, b.forests);
    }
}
