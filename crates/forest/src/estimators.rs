//! Forest-based electrical estimators (DESIGN.md §5).
//!
//! Per sampled forest with root set `S` (or `S ∪ T`), this module extracts:
//!
//! * **Sketched voltage rows** `Y ≈ W · L_{-S}^{-1}` — per BFS-tree edge
//!   `(x, p_x)` it accumulates the signed subtree sums
//!   `δ_j(x) = [π_x = p_x]·sw_j(x) − [π_{p_x} = x]·sw_j(p_x)`, whose
//!   expectation is the weighted current through that edge (Lemma 3.2 +
//!   linearity); BFS-path prefix sums then telescope to voltages
//!   (Lemma 3.3 with the fixed path `P_{v,S}` = BFS path). The sketch is
//!   Rademacher (`±1/√w`), so subtree sums are taken exactly over its
//!   signs in integers and scaled once, in [`ElectricalAccumulator::y_matrix`].
//! * **Diagonal samples** `X_f(u)` with `E[X_f(u)] = (L_{-S}^{-1})_{uu}`:
//!   along `u`'s BFS path, count forest-path traversals of each edge in both
//!   directions. One top-down sweep over the BFS order takes most nodes from
//!   their BFS parent `p`: `X(u) = X(p) + 1` when `π_u = p`, and
//!   `X(u) = X(p)` when `p` is a root (`X(p) = 0`) or `π_p = u`. Any
//!   other node walks its BFS path with O(1) Euler-tour ancestor tests.
//!   Per forest this is O(n) plus those walks, not O(Σ depth). Welford
//!   accumulators retain mean and variance for the empirical-Bernstein
//!   stop (Lemma 3.6).
//! * **First-phase samples** `x_u = X_f(u) − scale · Φ̂₁(u)` implementing
//!   Lemma 3.5's reduction of `L†_uu` to `L_{-s}^{-1}` quantities (the
//!   shared `1ᵀL^{-1}1/n²` term is rank-preserving and omitted, as in
//!   Algorithm 3).
//! * **Rooted counts** for the Schur complement (Lemma 4.2) when an
//!   auxiliary root index is supplied.

use crate::forest::{EulerTour, Forest};
use crate::rooted::{RootIndex, RootedCounts};
use crate::sampler::ForestAccumulator;
use cfcc_graph::traversal::{bfs_from_set, NO_PARENT};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_util::stats::WelfordVec;
use std::sync::Arc;

/// What the accumulator's per-node Welford samples estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiagMode {
    /// `z_u ≈ (L_{-S}^{-1})_{uu}` (Algorithms 2 and 4).
    Diagonal,
    /// `x_u ≈ (L_{-s}^{-1})_{uu} − scale · 1ᵀL_{-s}^{-1}e_u`
    /// (Algorithm 3 / 5 first phase, `scale = 2/n`).
    FirstPhase {
        /// Multiplier on the all-ones voltage term (`2/n` in the paper).
        scale: f64,
    },
}

/// Immutable sampling context shared by accumulator clones.
#[derive(Debug)]
struct Ctx {
    n: usize,
    w: usize,
    in_root: Vec<bool>,
    bfs_parent: Vec<Node>,
    /// BFS order from the root set: every root first, then each node after
    /// its BFS parent. The top-down order of the diagonal-sample sweep and
    /// of the `Y` prefix sums.
    bfs_order: Vec<Node>,
    bfs_depth: Vec<u32>,
    /// `n × w` node-major sketch signs (empty when not sketching).
    signs: Vec<i8>,
    /// Magnitude `1/√w` of every sketch entry.
    scale: f64,
    mode: DiagMode,
    root_index: Option<Arc<RootIndex>>,
}

/// Streaming estimator state; implements [`ForestAccumulator`].
#[derive(Debug)]
pub struct ElectricalAccumulator {
    ctx: Arc<Ctx>,
    num_forests: u64,
    total_walk_steps: u64,
    /// `n × w` node-major accumulated edge deltas in sketch-sign units
    /// (empty when no sketch). Integer sums are exact, so they do not
    /// depend on absorb or merge order.
    edge_acc: Vec<i64>,
    /// Per-node Welford over diagonal (or first-phase) samples.
    diag: WelfordVec,
    /// Per-node max |sample| — empirical range for the Bernstein stop.
    diag_sup: Vec<f64>,
    rooted: Option<RootedCounts>,
    // ---- scratch reused across forests ----
    /// `n × w` node-major subtree sums of sketch signs; row `u` is valid
    /// for the current forest only when `sw_stamp[u]` equals its generation.
    sw: Vec<i32>,
    sw_stamp: Vec<u64>,
    /// Integer diagonal samples `X_f(u)` of the current forest.
    xs: Vec<i32>,
    yones: Vec<f64>,
    xdiag: Vec<f64>,
    labels: Vec<u32>,
    tour: EulerTour,
}

impl ElectricalAccumulator {
    /// Build an accumulator for forests of `g` rooted at `in_root`.
    ///
    /// * `sketch` — optional JL sketch over node ids (only non-root
    ///   coordinates are ever read). Only its signs and scale are kept.
    /// * `mode` — diagonal or first-phase samples.
    /// * `root_index` — track rooted counts for these roots (SchurDelta).
    ///
    /// Panics if `g` has more than `i32::MAX` nodes (the subtree-sum bound).
    pub fn new(
        g: &Graph,
        in_root: &[bool],
        sketch: Option<JlSketch>,
        mode: DiagMode,
        root_index: Option<Arc<RootIndex>>,
    ) -> Self {
        let n = g.num_nodes();
        assert_eq!(in_root.len(), n);
        assert!(
            i32::try_from(n).is_ok(),
            "subtree sign sums are i32: n must be at most i32::MAX"
        );
        let roots: Vec<Node> = (0..n as Node).filter(|&u| in_root[u as usize]).collect();
        assert!(!roots.is_empty(), "root set must be non-empty");
        let bfs = bfs_from_set(g, &roots);
        assert_eq!(
            bfs.order.len(),
            n,
            "graph must be connected to the root set"
        );
        if let Some(q) = &sketch {
            assert_eq!(q.dim(), n, "sketch must span all node ids");
        }
        if let Some(idx) = &root_index {
            assert!(
                idx.nodes().iter().all(|&t| in_root[t as usize]),
                "tracked roots must be in the root set"
            );
        }
        let w = sketch.as_ref().map_or(0, |q| q.width());
        let ctx = Arc::new(Ctx {
            n,
            w,
            in_root: in_root.to_vec(),
            bfs_parent: bfs.parent,
            bfs_order: bfs.order,
            bfs_depth: bfs.depth,
            signs: sketch.as_ref().map_or_else(Vec::new, JlSketch::signs),
            scale: sketch.as_ref().map_or(0.0, JlSketch::scale),
            mode,
            root_index,
        });
        Self::from_ctx(ctx)
    }

    fn from_ctx(ctx: Arc<Ctx>) -> Self {
        let n = ctx.n;
        let w = ctx.w;
        let rooted = ctx
            .root_index
            .as_ref()
            .map(|idx| RootedCounts::new(n, idx.clone()));
        let first_phase = matches!(ctx.mode, DiagMode::FirstPhase { .. });
        Self {
            num_forests: 0,
            total_walk_steps: 0,
            edge_acc: vec![0; n * w],
            diag: WelfordVec::new(n),
            diag_sup: vec![0.0; n],
            rooted,
            sw: vec![0; n * w],
            sw_stamp: if w > 0 { vec![0; n] } else { Vec::new() },
            yones: if first_phase {
                vec![0.0; n]
            } else {
                Vec::new()
            },
            xs: vec![0; n],
            xdiag: vec![0.0; n],
            labels: Vec::new(),
            tour: EulerTour::default(),
            ctx,
        }
    }

    /// Forests absorbed so far (`Ñ` in the paper).
    pub fn num_forests(&self) -> u64 {
        self.num_forests
    }

    /// Total random-walk steps over all forests (the Lemma 3.7 cost metric).
    pub fn total_walk_steps(&self) -> u64 {
        self.total_walk_steps
    }

    /// Sketch width `w` (0 when not sketching).
    pub fn width(&self) -> usize {
        self.ctx.w
    }

    /// Mean diagonal/first-phase estimate per node (roots are 0).
    pub fn diag_means(&self) -> &[f64] {
        self.diag.means()
    }

    /// Welford variance of node `u`'s samples.
    pub fn diag_variance(&self, u: Node) -> f64 {
        self.diag.variance_at(u as usize)
    }

    /// Empirical sample range bound for node `u` (max |sample| seen).
    pub fn diag_sup(&self, u: Node) -> f64 {
        self.diag_sup[u as usize]
    }

    /// BFS depth of `u` from the root set (the theoretical sample bound).
    pub fn bfs_depth(&self, u: Node) -> u32 {
        self.ctx.bfs_depth[u as usize]
    }

    /// Rooted counts (SchurDelta), if tracked.
    pub fn rooted(&self) -> Option<&RootedCounts> {
        self.rooted.as_ref()
    }

    /// The sketched voltage matrix `Y ≈ W L_{-S}^{-1}` as an `n × w`
    /// node-major buffer: `column(u) = Y·e_u`. Root rows are zero.
    pub fn y_matrix(&self) -> YMatrix {
        let mut y = YMatrix::default();
        self.y_matrix_into(&mut y);
        y
    }

    /// [`ElectricalAccumulator::y_matrix`] into a caller-owned buffer,
    /// reshaped to `n × w` (its allocation is reused when large enough).
    ///
    /// Each edge sum is scaled once, as `(m · scale) · (1/Ñ)`. At a
    /// power-of-4 width the scale `1/√w` is a power of two, so this equals
    /// a plain f64 sum of the sketch entries bit for bit.
    pub fn y_matrix_into(&self, y: &mut YMatrix) {
        let n = self.ctx.n;
        let w = self.ctx.w;
        assert!(w > 0, "no sketch configured");
        assert!(self.num_forests > 0, "no forests absorbed");
        let scale = self.ctx.scale;
        let inv = 1.0 / self.num_forests as f64;
        y.w = w;
        y.data.resize(n * w, 0.0);
        for &u in &self.ctx.bfs_order {
            let ui = u as usize;
            let p = self.ctx.bfs_parent[ui];
            if p == NO_PARENT {
                y.data[ui * w..ui * w + w].fill(0.0); // root: zero voltage
                continue;
            }
            let (dst, src) = split_rows(&mut y.data, ui, p as usize, w);
            let acc = &self.edge_acc[ui * w..ui * w + w];
            for j in 0..w {
                dst[j] = src[j] + (acc[j] as f64 * scale) * inv;
            }
        }
    }

    fn absorb_inner(&mut self, f: &Forest) {
        let ctx = &*self.ctx;
        let n = ctx.n;
        let w = ctx.w;
        debug_assert_eq!(f.parent.len(), n);
        self.num_forests += 1;
        self.total_walk_steps += f.walk_steps;

        // ---- sketched subtree sums and per-BFS-edge deltas, one pass ----
        // Visiting x bottom-up, its children have already been folded into
        // its subtree sum, so both of its BFS-edge updates can be applied
        // before x is folded into its own parent. A parent's row starts as
        // its sign column on first touch; an untouched row (a leaf) is read
        // straight from the signs. All sums are exact integers in units of
        // the sketch scale.
        if w > 0 {
            let q = &ctx.signs;
            let gen = self.num_forests;
            let (sw, stamp) = (&mut self.sw, &mut self.sw_stamp);
            for &x in &f.bottomup {
                let xi = x as usize;
                let pb = ctx.bfs_parent[xi];
                debug_assert_ne!(pb, NO_PARENT);
                let dst = &mut self.edge_acc[xi * w..xi * w + w];
                if f.parent[xi] == pb {
                    subtree_row(sw, stamp, q, xi, gen, w).add_to(dst);
                }
                let pbi = pb as usize;
                if !ctx.in_root[pbi] && f.parent[pbi] == x {
                    subtree_row(sw, stamp, q, pbi, gen, w).sub_from(dst);
                }
                let p = f.parent[xi];
                if f.is_root(p) {
                    continue;
                }
                let pi = p as usize;
                let own = (stamp[pi] != gen).then(|| &q[pi * w..pi * w + w]);
                if stamp[xi] == gen {
                    let (dst, src) = split_rows(sw, pi, xi, w);
                    fold_child(dst, src, own);
                } else {
                    fold_child(&mut sw[pi * w..pi * w + w], &q[xi * w..xi * w + w], own);
                }
                stamp[pi] = gen;
            }
        }

        f.euler_tour_into(&mut self.tour);
        let tour = &self.tour;
        let first_scale = match ctx.mode {
            DiagMode::FirstPhase { scale } => Some(scale),
            DiagMode::Diagonal => None,
        };

        // ---- diagonal (and first-phase) samples, one top-down sweep ----
        // Visiting u after its BFS parent p: if π_u = p, u's forest
        // ancestors are u and p's, so X(u) = X(p) + 1. If p is not a root
        // and π_p = u, p's ancestors are p and u's, and p's own forward
        // term vanishes, so X(u) = X(p). If p is a root, u's path is the
        // one edge (u, p), so X(u) = X(p) = 0 unless π_u = p. Otherwise
        // walk u's BFS path. The first-phase all-ones voltage is the
        // BFS-path prefix sum of the same two edge indicators, weighted by
        // subtree sizes. Root entries are never written and stay zero.
        let xs = &mut self.xs;
        for &u in &ctx.bfs_order {
            let ui = u as usize;
            let pb = ctx.bfs_parent[ui];
            if pb == NO_PARENT {
                continue;
            }
            let pbi = pb as usize;
            let fwd = f.parent[ui] == pb;
            let p_root = ctx.in_root[pbi];
            let back = !p_root && f.parent[pbi] == u;
            let x = if fwd {
                xs[pbi] + 1
            } else if back || p_root {
                xs[pbi]
            } else {
                bfs_path_sample(ctx, f, tour, u)
            };
            xs[ui] = x;
            let mut sample = f64::from(x);
            if let Some(scale) = first_scale {
                let mut delta = 0.0;
                if fwd {
                    delta += tour.subtree_size(u) as f64;
                }
                if back {
                    delta -= tour.subtree_size(pb) as f64;
                }
                let y = self.yones[pbi] + delta;
                self.yones[ui] = y;
                sample -= scale * y;
            }
            self.xdiag[ui] = sample;
            let abs = sample.abs();
            if abs > self.diag_sup[ui] {
                self.diag_sup[ui] = abs;
            }
        }
        self.diag.push(&self.xdiag);

        // ---- rooted counts for the Schur complement ----
        if let Some(counts) = &mut self.rooted {
            counts.record_forest(f, &mut self.labels);
        }
    }
}

/// `X_f(u)` by walking `u`'s BFS path: per edge `(a, b)`, +1 if `π_a = b`
/// and `a` is `u`'s forest ancestor-or-self, −1 if `π_b = a` and `b` is.
fn bfs_path_sample(ctx: &Ctx, f: &Forest, tour: &EulerTour, u: Node) -> i32 {
    let mut x = 0;
    let mut a = u;
    while !ctx.in_root[a as usize] {
        let b = ctx.bfs_parent[a as usize];
        debug_assert_ne!(b, NO_PARENT);
        if f.parent[a as usize] == b && tour.is_ancestor_or_self(a, u) {
            x += 1;
        }
        if !ctx.in_root[b as usize] && f.parent[b as usize] == a && tour.is_ancestor_or_self(b, u) {
            x -= 1;
        }
        a = b;
    }
    x
}

/// A node's subtree sum of sketch signs in the current forest.
enum SubtreeRow<'a> {
    /// Its `sw` row, once a child has been folded in.
    Folded(&'a [i32]),
    /// Its own sign column (no child folded in yet).
    Leaf(&'a [i8]),
}

impl SubtreeRow<'_> {
    #[inline]
    fn add_to(self, dst: &mut [i64]) {
        match self {
            Self::Folded(r) => dst.iter_mut().zip(r).for_each(|(d, &v)| *d += i64::from(v)),
            Self::Leaf(r) => dst.iter_mut().zip(r).for_each(|(d, &v)| *d += i64::from(v)),
        }
    }

    #[inline]
    fn sub_from(self, dst: &mut [i64]) {
        match self {
            Self::Folded(r) => dst.iter_mut().zip(r).for_each(|(d, &v)| *d -= i64::from(v)),
            Self::Leaf(r) => dst.iter_mut().zip(r).for_each(|(d, &v)| *d -= i64::from(v)),
        }
    }
}

/// Node `x`'s subtree sign sum in the current forest (generation `gen`).
#[inline]
fn subtree_row<'a>(
    sw: &'a [i32],
    stamp: &[u64],
    q: &'a [i8],
    x: usize,
    gen: u64,
    w: usize,
) -> SubtreeRow<'a> {
    if stamp[x] == gen {
        SubtreeRow::Folded(&sw[x * w..x * w + w])
    } else {
        SubtreeRow::Leaf(&q[x * w..x * w + w])
    }
}

/// Fold a child's subtree sum into its parent's row `dst`. On the
/// parent's first touch (`own` = its sign column) the row starts as
/// `own + child`; afterwards the child is added.
#[inline]
fn fold_child<T: Copy + Into<i32>>(dst: &mut [i32], child: &[T], own: Option<&[i8]>) {
    match own {
        Some(own) => {
            for ((d, &c), &o) in dst.iter_mut().zip(child).zip(own) {
                *d = i32::from(o) + c.into();
            }
        }
        None => {
            for (d, &c) in dst.iter_mut().zip(child) {
                *d += c.into();
            }
        }
    }
}

/// Borrow two distinct `w`-rows of a node-major buffer (`dst = row a`,
/// `src = row b`). Requires `a != b`.
#[inline]
fn split_rows<T>(buf: &mut [T], a: usize, b: usize, w: usize) -> (&mut [T], &[T]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = buf.split_at_mut(b * w);
        (&mut lo[a * w..a * w + w], &hi[..w])
    } else {
        let (lo, hi) = buf.split_at_mut(a * w);
        let dst = &mut hi[..w];
        (dst, &lo[b * w..b * w + w])
    }
}

impl ForestAccumulator for ElectricalAccumulator {
    fn absorb(&mut self, forest: &Forest) {
        self.absorb_inner(forest);
    }

    fn merge(&mut self, other: Self) {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx),
            "merging incompatible accumulators"
        );
        self.num_forests += other.num_forests;
        self.total_walk_steps += other.total_walk_steps;
        for (a, b) in self.edge_acc.iter_mut().zip(&other.edge_acc) {
            *a += b;
        }
        self.diag.merge(&other.diag);
        for (a, &b) in self.diag_sup.iter_mut().zip(&other.diag_sup) {
            if b > *a {
                *a = b;
            }
        }
        if let (Some(mine), Some(theirs)) = (&mut self.rooted, other.rooted) {
            mine.merge(theirs);
        }
    }

    fn fresh(&self) -> Self {
        Self::from_ctx(self.ctx.clone())
    }

    fn count(&self) -> u64 {
        self.num_forests
    }
}

/// Node-major sketched voltage matrix (`n` columns of width `w`).
#[derive(Debug, Clone, Default)]
pub struct YMatrix {
    data: Vec<f64>,
    w: usize,
}

impl YMatrix {
    /// Sketch width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// The sketched column for node `u` (`Y e_u ∈ R^w`).
    #[inline]
    pub fn column(&self, u: Node) -> &[f64] {
        &self.data[u as usize * self.w..(u as usize + 1) * self.w]
    }

    /// `‖Y e_u‖²` — the JL estimate of `‖L_{-S}^{-1} e_u‖²`.
    #[inline]
    pub fn column_norm_sq(&self, u: Node) -> f64 {
        cfcc_linalg::vector::norm2_sq(self.column(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{absorb_batch, SamplerConfig};
    use cfcc_graph::generators;
    use cfcc_linalg::laplacian::laplacian_submatrix_dense;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mask(n: usize, roots: &[Node]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &r in roots {
            m[r as usize] = true;
        }
        m
    }

    #[test]
    fn diagonal_estimates_match_dense() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let in_root = mask(30, &[0, 9]);
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_root);
        let inv = sub.cholesky().unwrap().inverse();
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, None);
        let cfg = SamplerConfig {
            seed: 77,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 30_000, &cfg, &mut acc);
        for (ci, &u) in keep.iter().enumerate() {
            let expect = inv.get(ci, ci);
            let got = acc.diag_means()[u as usize];
            let se = (acc.diag_variance(u) / acc.num_forests() as f64).sqrt();
            assert!(
                (got - expect).abs() < 5.0 * se + 0.02,
                "u={u}: got {got} expect {expect} (se {se})"
            );
        }
    }

    #[test]
    fn sketched_voltages_match_dense() {
        let mut rng = SmallRng::seed_from_u64(37);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let n = g.num_nodes();
        let in_root = mask(n, &[3]);
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_root);
        let inv = sub.cholesky().unwrap().inverse();
        let sketch = JlSketch::sample(6, n, &mut rng);
        let sketch_copy = sketch.clone();
        let mut acc =
            ElectricalAccumulator::new(&g, &in_root, Some(sketch), DiagMode::Diagonal, None);
        let cfg = SamplerConfig {
            seed: 99,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 40_000, &cfg, &mut acc);
        let y = acc.y_matrix();
        // expected: (W L^{-1})_{j,u} = Σ_v W_{jv} inv[cv][cu]
        for (cu, &u) in keep.iter().enumerate() {
            let col = y.column(u);
            for (j, &got) in col.iter().enumerate().take(6) {
                let mut expect = 0.0;
                for (cv, &v) in keep.iter().enumerate() {
                    expect += sketch_copy.column(v as usize)[j] * inv.get(cv, cu);
                }
                assert!(
                    (got - expect).abs() < 0.05,
                    "u={u} j={j}: got {got} expect {expect}"
                );
            }
        }
    }

    #[test]
    fn first_phase_matches_dense_reduction() {
        // x_u should estimate (L_{-s}^{-1})_{uu} − (2/n)·1ᵀL_{-s}^{-1}e_u.
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::barabasi_albert(24, 2, &mut rng);
        let n = g.num_nodes();
        let s = g.max_degree_node().unwrap();
        let in_root = mask(n, &[s]);
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_root);
        let inv = sub.cholesky().unwrap().inverse();
        let scale = 2.0 / n as f64;
        let mut acc =
            ElectricalAccumulator::new(&g, &in_root, None, DiagMode::FirstPhase { scale }, None);
        let cfg = SamplerConfig {
            seed: 1234,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 40_000, &cfg, &mut acc);
        for (cu, &u) in keep.iter().enumerate() {
            let ones_col: f64 = (0..keep.len()).map(|cv| inv.get(cv, cu)).sum();
            let expect = inv.get(cu, cu) - scale * ones_col;
            let got = acc.diag_means()[u as usize];
            let se = (acc.diag_variance(u) / acc.num_forests() as f64).sqrt();
            assert!(
                (got - expect).abs() < 5.0 * se + 0.03,
                "u={u}: got {got} expect {expect} se {se}"
            );
        }
    }

    #[test]
    fn parallel_merge_matches_serial_means() {
        let mut rng = SmallRng::seed_from_u64(43);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let in_root = mask(40, &[0]);
        let build = || ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, None);
        let mut serial = build();
        absorb_batch(
            &g,
            &in_root,
            0,
            512,
            &SamplerConfig {
                seed: 5,
                threads: 1,
            },
            &mut serial,
        );
        let mut par = build();
        absorb_batch(
            &g,
            &in_root,
            0,
            512,
            &SamplerConfig {
                seed: 5,
                threads: 3,
            },
            &mut par,
        );
        assert_eq!(serial.num_forests(), par.num_forests());
        for u in 0..40 {
            assert!(
                (serial.diag_means()[u] - par.diag_means()[u]).abs() < 1e-9,
                "node {u}"
            );
        }
    }

    /// Integer tallies, and the sketched voltages summed from them, are
    /// invariant across thread counts (the Welford statistics are not; see
    /// `absorb_batch`).
    #[test]
    fn integer_tallies_identical_across_thread_counts() {
        let mut rng = SmallRng::seed_from_u64(53);
        let g = generators::barabasi_albert(300, 2, &mut rng);
        let t_nodes: Vec<Node> = (1..13).collect();
        let in_root = mask(300, &(0..13).collect::<Vec<Node>>());
        let idx = Arc::new(RootIndex::new(300, &t_nodes));
        let sketch = JlSketch::sample(8, 300, &mut rng);
        let run = |threads: usize| {
            let mut acc = ElectricalAccumulator::new(
                &g,
                &in_root,
                Some(sketch.clone()),
                DiagMode::Diagonal,
                Some(idx.clone()),
            );
            let cfg = SamplerConfig { seed: 61, threads };
            absorb_batch(&g, &in_root, 0, 37, &cfg, &mut acc);
            absorb_batch(&g, &in_root, 37, 64, &cfg, &mut acc);
            acc
        };
        let serial = run(1);
        assert_eq!(serial.num_forests(), 101);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(par.num_forests(), serial.num_forests(), "{threads} threads");
            assert_eq!(
                par.total_walk_steps(),
                serial.total_walk_steps(),
                "{threads} threads"
            );
            let (a, b) = (serial.rooted().unwrap(), par.rooted().unwrap());
            for u in 0..300 {
                assert_eq!(a.row(u), b.row(u), "node {u}, {threads} threads");
            }
            let (ya, yb) = (serial.y_matrix(), par.y_matrix());
            for u in 0..300 {
                let bits =
                    |y: &YMatrix| y.column(u).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ya), bits(&yb), "y column {u}, {threads} threads");
            }
        }
    }

    #[test]
    fn rooted_tracking_through_accumulator() {
        let mut rng = SmallRng::seed_from_u64(47);
        let g = generators::barabasi_albert(20, 2, &mut rng);
        let t_nodes = vec![1u32, 2u32];
        let in_root = mask(20, &[0, 1, 2]);
        let idx = Arc::new(RootIndex::new(20, &t_nodes));
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, Some(idx));
        absorb_batch(&g, &in_root, 0, 500, &SamplerConfig::default(), &mut acc);
        let rooted = acc.rooted().unwrap();
        // Counts per node sum to ≤ Ñ (the remainder roots in S).
        for u in 0..20u32 {
            let total: u64 = rooted.row(u).iter().map(|&c| c as u64).sum();
            if in_root[u as usize] {
                assert_eq!(total, 0, "roots are never counted");
            } else {
                assert!(total <= acc.num_forests(), "u={u} total {total}");
            }
        }
    }

    /// One forest's sample of every node against an explicit walk of its
    /// BFS path with ancestors found by parent pointers. The graph and
    /// forest are built so the top-down sweep meets each of its cases, the
    /// three named in `absorb_inner` at depth ≥ 2:
    ///
    /// ```text
    /// graph:  0-1, 0-7, 1-2, 1-4, 1-7, 2-3, 3-4, 2-6, 3-5, 5-6   (root 0)
    /// BFS:    1←0, 7←0, 2←1, 4←1, 3←2, 6←2, 5←3
    /// forest: 5 → 6 → 2 → 3 → 4 → 1 → 0, and 7 → 1
    /// ```
    ///
    /// `π_u = p` (X(p) + 1): 1, 4, 6. `π_p = u` with `p` not a root
    /// (X(p)): 3, whose BFS parent is 2. BFS-path walk: 2 and 5 (5's walk
    /// meets a −1 term on the edge (3, 2)). Root BFS parent (X = 0): 7.
    #[test]
    fn one_forest_samples_match_explicit_bfs_path_walk() {
        let edges = [
            (0, 1),
            (0, 7),
            (1, 2),
            (1, 4),
            (1, 7),
            (2, 3),
            (3, 4),
            (2, 6),
            (3, 5),
            (5, 6),
        ];
        let n = 8;
        let g = Graph::from_edges(n, &edges).unwrap();
        let in_root = mask(n, &[0]);
        let bfs = bfs_from_set(&g, &[0]);
        assert_eq!(bfs.parent[1..], [0, 1, 2, 1, 3, 2, 0], "BFS tree as drawn");
        let mut parent = vec![NO_PARENT; n];
        for (x, p) in [(5, 6), (6, 2), (2, 3), (3, 4), (4, 1), (1, 0), (7, 1)] {
            parent[x] = p;
        }
        let f = Forest {
            parent,
            bottomup: vec![7, 5, 6, 2, 3, 4, 1],
            ..Forest::default()
        };
        f.validate(&g, &in_root);

        let anc = |a: Node, mut u: Node| loop {
            if u == a {
                return true;
            }
            if f.is_root(u) {
                return false;
            }
            u = f.parent[u as usize];
        };
        let size = |a: Node| (0..n as Node).filter(|&v| anc(a, v)).count() as f64;
        // (X, all-ones voltage) by the explicit walk.
        let walk = |u: Node| {
            let (mut x, mut y, mut a) = (0i32, 0.0, u);
            while a != 0 {
                let b = bfs.parent[a as usize];
                if f.parent[a as usize] == b {
                    x += i32::from(anc(a, u));
                    y += size(a);
                }
                if b != 0 && f.parent[b as usize] == a {
                    x -= i32::from(anc(b, u));
                    y -= size(b);
                }
                a = b;
            }
            (x, y)
        };
        // Which branch of the sweep a non-root node takes.
        let case = |u: Node| {
            let p = bfs.parent[u as usize];
            if f.parent[u as usize] == p {
                "forward"
            } else if p == 0 {
                "root parent"
            } else if f.parent[p as usize] == u {
                "backward"
            } else {
                "walk"
            }
        };
        for c in ["forward", "backward", "walk"] {
            assert!(
                (1..n as Node).any(|u| case(u) == c && bfs.depth[u as usize] >= 2),
                "case {c} is not met at depth >= 2"
            );
        }
        assert_eq!(case(7), "root parent");
        let xs: Vec<i32> = (0..n as Node).map(|u| walk(u).0).collect();
        assert_eq!(xs, [0, 1, 1, 1, 2, 0, 2, 0], "walked samples");

        let scale = 2.0 / n as f64;
        for mode in [DiagMode::Diagonal, DiagMode::FirstPhase { scale }] {
            let mut acc = ElectricalAccumulator::new(&g, &in_root, None, mode, None);
            acc.absorb(&f);
            for u in 1..n as Node {
                let (x, y) = walk(u);
                let want = match mode {
                    DiagMode::Diagonal => f64::from(x),
                    DiagMode::FirstPhase { scale } => f64::from(x) - scale * y,
                };
                let got = acc.diag_means()[u as usize];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{mode:?}, node {u} ({}): got {got}, walked {want}",
                    case(u)
                );
                assert_eq!(acc.diag_sup(u).to_bits(), want.abs().to_bits());
            }
            assert_eq!(acc.diag_means()[0], 0.0, "root");
        }
    }

    #[test]
    fn diag_sup_bounded_by_bfs_depth_in_diag_mode() {
        let g = generators::grid(5, 5);
        let in_root = mask(25, &[12]);
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, None);
        absorb_batch(&g, &in_root, 0, 200, &SamplerConfig::default(), &mut acc);
        for u in 0..25u32 {
            assert!(
                acc.diag_sup(u) <= acc.bfs_depth(u) as f64 + 1e-12,
                "u={u}: sup {} depth {}",
                acc.diag_sup(u),
                acc.bfs_depth(u)
            );
        }
    }
}
