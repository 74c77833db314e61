//! Test oracle: the straightforward per-forest accumulation that
//! [`ElectricalAccumulator`] must reproduce bit for bit.
//!
//! It keeps the three-pass sketched subtree sums (copy every row from the
//! sketch, fold children into parents, then apply the BFS-edge updates), the
//! child-CSR + stack Euler tour, and per-node sparse `(root index, count)`
//! lists for the rooted counts. The tests below feed the same forests to
//! both and compare every output.
//!
//! The subtree sums run twice: over the sketch signs in integers, scaled
//! once at the end (what the accumulator does, so the bit-for-bit asserts
//! hold at every width), and as plain f64 sums of the sketch entries. At
//! power-of-4 widths the two agree bit for bit; at other widths (`1/√w`
//! inexact) the f64 sums round.
//!
//! The diagonal samples keep the per-node BFS-path walk on purpose: it is
//! the check on the accumulator's BFS-parent recurrence.

use crate::estimators::{DiagMode, ElectricalAccumulator};
use crate::forest::Forest;
use crate::rooted::RootIndex;
use cfcc_graph::traversal::{bfs_from_set, NO_PARENT};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_util::stats::WelfordVec;
use std::ops::{AddAssign, SubAssign};
use std::sync::Arc;

/// Euler tour by an explicit DFS over a child CSR: `(tin, tout)`.
fn euler_tour_dfs(f: &Forest) -> (Vec<u32>, Vec<u32>) {
    let n = f.num_nodes();
    let mut offs = vec![0u32; n + 1];
    for &x in &f.bottomup {
        offs[f.parent[x as usize] as usize + 1] += 1;
    }
    for i in 0..n {
        offs[i + 1] += offs[i];
    }
    let mut targets = vec![0 as Node; f.bottomup.len()];
    let mut cursor: Vec<u32> = offs[..n].to_vec();
    for &x in &f.bottomup {
        let p = f.parent[x as usize] as usize;
        targets[cursor[p] as usize] = x;
        cursor[p] += 1;
    }
    let (mut tin, mut tout) = (vec![0u32; n], vec![0u32; n]);
    let mut stack: Vec<(Node, u32)> = Vec::new();
    let mut time = 0u32;
    for r in 0..n as Node {
        if !f.is_root(r) {
            continue;
        }
        stack.push((r, offs[r as usize]));
        tin[r as usize] = time;
        time += 1;
        while let Some(&mut (u, ref mut next_child)) = stack.last_mut() {
            if *next_child < offs[u as usize + 1] {
                let c = targets[*next_child as usize];
                *next_child += 1;
                tin[c as usize] = time;
                time += 1;
                stack.push((c, offs[c as usize]));
            } else {
                tout[u as usize] = time;
                stack.pop();
            }
        }
    }
    (tin, tout)
}

/// Per-forest subtree sums of `col(u)` (`w` values per node) over each
/// tree: copy every row, then fold children into parents bottom-up.
fn subtree_sums<T, I>(f: &Forest, n: usize, w: usize, col: impl Fn(usize) -> I) -> Vec<T>
where
    T: Copy + Default + AddAssign,
    I: Iterator<Item = T>,
{
    let mut sw = vec![T::default(); n * w];
    for &x in &f.bottomup {
        let xi = x as usize;
        for (d, v) in sw[xi * w..xi * w + w].iter_mut().zip(col(xi)) {
            *d = v;
        }
    }
    for &x in &f.bottomup {
        let p = f.parent[x as usize];
        if !f.is_root(p) {
            for j in 0..w {
                let v = sw[x as usize * w + j];
                sw[p as usize * w + j] += v;
            }
        }
    }
    sw
}

/// Per BFS edge `(x, p_x)`: add `sw(x)` to `acc(x)` if `π_x = p_x`, and
/// subtract `sw(p_x)` if `π_{p_x} = x`.
fn edge_updates<T: Copy + AddAssign + SubAssign>(
    bfs_parent: &[Node],
    in_root: &[bool],
    w: usize,
    f: &Forest,
    sw: &[T],
    acc: &mut [T],
) {
    for &x in &f.bottomup {
        let xi = x as usize;
        let pb = bfs_parent[xi] as usize;
        if f.parent[xi] as usize == pb {
            for j in 0..w {
                acc[xi * w + j] += sw[xi * w + j];
            }
        }
        if !in_root[pb] && f.parent[pb] == x {
            for j in 0..w {
                acc[xi * w + j] -= sw[pb * w + j];
            }
        }
    }
}

/// Serial reference accumulator (see the module docs).
struct ReferenceAccumulator {
    n: usize,
    w: usize,
    in_root: Vec<bool>,
    bfs_parent: Vec<Node>,
    bfs_order: Vec<Node>,
    sketch: Option<JlSketch>,
    mode: DiagMode,
    index: Option<Arc<RootIndex>>,
    num_forests: u64,
    total_walk_steps: u64,
    edge_acc: Vec<i64>,
    edge_acc_f64: Vec<f64>,
    diag: WelfordVec,
    diag_sup: Vec<f64>,
    rooted: Vec<Vec<(u32, u32)>>,
}

impl ReferenceAccumulator {
    fn new(
        g: &Graph,
        in_root: &[bool],
        sketch: Option<JlSketch>,
        mode: DiagMode,
        index: Option<Arc<RootIndex>>,
    ) -> Self {
        let n = g.num_nodes();
        let roots: Vec<Node> = (0..n as Node).filter(|&u| in_root[u as usize]).collect();
        let bfs = bfs_from_set(g, &roots);
        let w = sketch.as_ref().map_or(0, |q| q.width());
        Self {
            n,
            w,
            in_root: in_root.to_vec(),
            bfs_parent: bfs.parent,
            bfs_order: bfs.order,
            sketch,
            mode,
            index,
            num_forests: 0,
            total_walk_steps: 0,
            edge_acc: vec![0; n * w],
            edge_acc_f64: vec![0.0; n * w],
            diag: WelfordVec::new(n),
            diag_sup: vec![0.0; n],
            rooted: vec![Vec::new(); n],
        }
    }

    fn absorb(&mut self, f: &Forest) {
        let (n, w) = (self.n, self.w);
        self.num_forests += 1;
        self.total_walk_steps += f.walk_steps;

        if let Some(q) = &self.sketch {
            let signs = q.signs();
            let sw = subtree_sums(f, n, w, |u| {
                signs[u * w..u * w + w].iter().map(|&s| s as i64)
            });
            edge_updates(
                &self.bfs_parent,
                &self.in_root,
                w,
                f,
                &sw,
                &mut self.edge_acc,
            );
            let sw = subtree_sums(f, n, w, |u| q.column(u).iter().copied());
            edge_updates(
                &self.bfs_parent,
                &self.in_root,
                w,
                f,
                &sw,
                &mut self.edge_acc_f64,
            );
        }

        let first_scale = match self.mode {
            DiagMode::FirstPhase { scale } => Some(scale),
            DiagMode::Diagonal => None,
        };
        let mut yones = vec![0.0f64; n];
        if first_scale.is_some() {
            let mut ssize = vec![0.0f64; n];
            for &x in &f.bottomup {
                ssize[x as usize] = 1.0;
            }
            for &x in &f.bottomup {
                let p = f.parent[x as usize];
                if !f.is_root(p) {
                    ssize[p as usize] += ssize[x as usize];
                }
            }
            for &u in &self.bfs_order {
                let ui = u as usize;
                let pb = self.bfs_parent[ui];
                if pb == NO_PARENT {
                    continue;
                }
                let mut delta = 0.0;
                if f.parent[ui] == pb {
                    delta += ssize[ui];
                }
                let pbi = pb as usize;
                if !self.in_root[pbi] && f.parent[pbi] == u {
                    delta -= ssize[pbi];
                }
                yones[ui] = yones[pbi] + delta;
            }
        }

        let (tin, tout) = euler_tour_dfs(f);
        let anc = |a: Node, u: Node| {
            tin[a as usize] <= tin[u as usize] && tin[u as usize] < tout[a as usize]
        };
        let mut xdiag = vec![0.0f64; n];
        for &u in &f.bottomup {
            let ui = u as usize;
            let mut x_acc = 0i64;
            let mut a = u;
            while !self.in_root[a as usize] {
                let b = self.bfs_parent[a as usize];
                if f.parent[a as usize] == b && anc(a, u) {
                    x_acc += 1;
                }
                if !self.in_root[b as usize] && f.parent[b as usize] == a && anc(b, u) {
                    x_acc -= 1;
                }
                a = b;
            }
            let mut sample = x_acc as f64;
            if let Some(scale) = first_scale {
                sample -= scale * yones[ui];
            }
            xdiag[ui] = sample;
            self.diag_sup[ui] = self.diag_sup[ui].max(sample.abs());
        }
        self.diag.push(&xdiag);

        if let Some(index) = &self.index {
            let root_of = f.root_of();
            for &x in &f.bottomup {
                if let Some(ti) = index.index_of(root_of[x as usize]) {
                    let list = &mut self.rooted[x as usize];
                    match list.iter_mut().find(|e| e.0 == ti as u32) {
                        Some(e) => e.1 += 1,
                        None => list.push((ti as u32, 1)),
                    }
                }
            }
        }
    }

    /// `Y ≈ W L_{-S}^{-1}`, node-major, by BFS-path prefix sums of the
    /// integer edge sums, each scaled once.
    fn y_matrix(&self) -> Vec<f64> {
        let scale = self.sketch.as_ref().map_or(0.0, JlSketch::scale);
        self.prefix_sums(|i| self.edge_acc[i] as f64 * scale)
    }

    /// The same prefix sums over the plain f64 edge sums.
    fn y_matrix_f64(&self) -> Vec<f64> {
        self.prefix_sums(|i| self.edge_acc_f64[i])
    }

    fn prefix_sums(&self, edge: impl Fn(usize) -> f64) -> Vec<f64> {
        let (n, w) = (self.n, self.w);
        let inv = 1.0 / self.num_forests as f64;
        let mut data = vec![0.0f64; n * w];
        for &u in &self.bfs_order {
            let p = self.bfs_parent[u as usize];
            if p == NO_PARENT {
                continue;
            }
            for j in 0..w {
                let i = u as usize * w + j;
                data[i] = data[p as usize * w + j] + edge(i) * inv;
            }
        }
        data
    }
}

/// Assert that `acc` reproduces `reference` exactly.
fn assert_matches(acc: &ElectricalAccumulator, reference: &ReferenceAccumulator) {
    let n = reference.n;
    assert_eq!(acc.num_forests(), reference.num_forests);
    assert_eq!(acc.total_walk_steps(), reference.total_walk_steps);
    let bits = |v: f64| v.to_bits();
    for u in 0..n {
        let un = u as Node;
        assert_eq!(
            bits(acc.diag_means()[u]),
            bits(reference.diag.mean_at(u)),
            "diag mean of node {u}"
        );
        assert_eq!(
            bits(acc.diag_variance(un)),
            bits(reference.diag.variance_at(u)),
            "diag variance of node {u}"
        );
        assert_eq!(
            bits(acc.diag_sup(un)),
            bits(reference.diag_sup[u]),
            "diag sup of node {u}"
        );
    }
    if reference.w > 0 {
        let y = acc.y_matrix();
        let y_ref = reference.y_matrix();
        let w = reference.w;
        for u in 0..n {
            let got: Vec<u64> = y.column(u as Node).iter().map(|&v| bits(v)).collect();
            let want: Vec<u64> = y_ref[u * w..u * w + w].iter().map(|&v| bits(v)).collect();
            assert_eq!(got, want, "y column of node {u}");
        }
    }
    if let Some(index) = &reference.index {
        let rooted = acc.rooted().expect("rooted counts tracked");
        for u in 0..n {
            let mut dense = vec![0u32; index.len()];
            for &(ti, c) in &reference.rooted[u] {
                dense[ti as usize] = c;
            }
            assert_eq!(rooted.row(u as Node), dense.as_slice(), "rooted row {u}");
        }
    }
}

mod tests {
    use super::*;
    use crate::sampler::ForestAccumulator;
    use crate::wilson::sample_forest_into;
    use cfcc_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Root set `s ∪ t`; rooted counts track `t`.
    struct Case {
        g: Graph,
        s: Vec<Node>,
        t: Vec<Node>,
    }

    impl Case {
        fn in_root(&self) -> Vec<bool> {
            let mut m = vec![false; self.g.num_nodes()];
            for &r in self.s.iter().chain(&self.t) {
                m[r as usize] = true;
            }
            m
        }
    }

    fn by_degree(g: &Graph, c: usize) -> Vec<Node> {
        let mut nodes: Vec<Node> = (0..g.num_nodes() as Node).collect();
        nodes.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
        nodes.truncate(c);
        nodes
    }

    /// Run both accumulators over `forests` in both modes and compare.
    fn check(case: &Case, w: usize, forests: &[Forest], seed: u64) {
        let n = case.g.num_nodes();
        let in_root = case.in_root();
        let index = Arc::new(RootIndex::new(n, &case.t));
        let sketch = JlSketch::sample(w, n, &mut SmallRng::seed_from_u64(seed));
        let modes = [
            DiagMode::Diagonal,
            DiagMode::FirstPhase {
                scale: 2.0 / n as f64,
            },
        ];
        for mode in modes {
            let mut acc = ElectricalAccumulator::new(
                &case.g,
                &in_root,
                Some(sketch.clone()),
                mode,
                Some(index.clone()),
            );
            let mut reference = ReferenceAccumulator::new(
                &case.g,
                &in_root,
                Some(sketch.clone()),
                mode,
                Some(index.clone()),
            );
            for f in forests {
                acc.absorb(f);
                reference.absorb(f);
            }
            assert_matches(&acc, &reference);
        }
    }

    fn wilson_forests(case: &Case, count: usize, seed: u64) -> Vec<Forest> {
        let in_root = case.in_root();
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut f = Forest::default();
                sample_forest_into(&case.g, &in_root, &mut rng, &mut f);
                f
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_ba_with_hub_roots() {
        let g = generators::barabasi_albert(600, 2, &mut SmallRng::seed_from_u64(3));
        let hubs = by_degree(&g, 24);
        let case = Case {
            s: hubs[20..].to_vec(),
            t: hubs[..20].to_vec(),
            g,
        };
        check(&case, 16, &wilson_forests(&case, 48, 5), 7);
    }

    #[test]
    fn matches_reference_on_grid() {
        let case = Case {
            g: generators::grid(24, 24),
            s: vec![300],
            t: vec![0, 23, 552, 575, 100],
        };
        check(&case, 8, &wilson_forests(&case, 32, 11), 13);
    }

    #[test]
    fn matches_reference_on_geometric_road_graph() {
        let g = generators::geometric_with_edges(800, 1000, &mut SmallRng::seed_from_u64(17));
        let hubs = by_degree(&g, 5);
        let case = Case {
            s: hubs[..1].to_vec(),
            t: hubs[1..].to_vec(),
            g,
        };
        check(&case, 8, &wilson_forests(&case, 32, 19), 23);
    }

    /// A single root, as in the first phase: the deepest BFS trees, so the
    /// longest chains of the diagonal-sample recurrence.
    #[test]
    fn matches_reference_on_grid_with_single_root() {
        let case = Case {
            g: generators::grid(24, 24),
            s: vec![300],
            t: Vec::new(),
        };
        check(&case, 8, &wilson_forests(&case, 32, 47), 53);
    }

    #[test]
    fn matches_reference_on_geometric_road_graph_with_single_root() {
        let g = generators::geometric_with_edges(800, 1000, &mut SmallRng::seed_from_u64(59));
        let case = Case {
            s: by_degree(&g, 1),
            t: Vec::new(),
            g,
        };
        check(&case, 8, &wilson_forests(&case, 32, 61), 67);
    }

    /// At power-of-4 widths `1/√w` is a power of two, so every f64 partial
    /// sum of sketch entries is exact and the integer `Y` equals the plain
    /// f64 sum bit for bit (this is why the integer sums leave SchurCFCM's
    /// outputs unchanged at the usual width 64).
    #[test]
    fn integer_y_equals_f64_sums_at_power_of_4_widths() {
        let g = generators::barabasi_albert(400, 2, &mut SmallRng::seed_from_u64(37));
        let hubs = by_degree(&g, 12);
        let case = Case {
            s: hubs[10..].to_vec(),
            t: hubs[..10].to_vec(),
            g,
        };
        let n = case.g.num_nodes();
        let in_root = case.in_root();
        let forests = wilson_forests(&case, 40, 41);
        for w in [4, 16, 64] {
            let sketch = JlSketch::sample(w, n, &mut SmallRng::seed_from_u64(43 + w as u64));
            let mut acc = ElectricalAccumulator::new(
                &case.g,
                &in_root,
                Some(sketch.clone()),
                DiagMode::Diagonal,
                None,
            );
            let mut reference = ReferenceAccumulator::new(
                &case.g,
                &in_root,
                Some(sketch),
                DiagMode::Diagonal,
                None,
            );
            for f in &forests {
                acc.absorb(f);
                reference.absorb(f);
            }
            let y = acc.y_matrix();
            let y_f64 = reference.y_matrix_f64();
            for u in 0..n {
                let got: Vec<u64> = y.column(u as Node).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = y_f64[u * w..u * w + w]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "w={w}, y column of node {u}");
            }
        }
    }

    /// A 10k-node path rooted at both ends. Its spanning forests drop one
    /// edge `(c, c+1)`, so they are built directly (Wilson would need
    /// ~n²/6 steps each); cut 0 gives one tree of depth n−2.
    #[test]
    fn matches_reference_on_deep_path() {
        let n = 10_000usize;
        let case = Case {
            g: generators::path(n),
            s: vec![0],
            t: vec![n as Node - 1],
        };
        let mut rng = SmallRng::seed_from_u64(29);
        let cuts = [0, rng.gen_range(1..n - 2)];
        let forests: Vec<Forest> = cuts
            .iter()
            .map(|&c| {
                let c = c as Node;
                let mut bottomup: Vec<Node> = (1..=c).rev().collect();
                bottomup.extend(c + 1..n as Node - 1);
                let mut parent = vec![NO_PARENT; n];
                for &x in &bottomup {
                    parent[x as usize] = if x <= c { x - 1 } else { x + 1 };
                }
                Forest {
                    parent,
                    bottomup,
                    walk_steps: c as u64,
                    ..Forest::default()
                }
            })
            .collect();
        check(&case, 4, &forests, 31);
    }
}
