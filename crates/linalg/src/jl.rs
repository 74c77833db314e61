//! Johnson–Lindenstrauss Rademacher sketches (paper Lemma 3.4).
//!
//! A sketch is a `w × d` matrix with i.i.d. entries `±1/√w`. Both the
//! forest-based estimators and the ApproxGreedy baseline use it to compress
//! the columns of `L_{-S}^{-1}` before taking squared norms.
//!
//! Storage is *node-major* (`d` rows of `w` sketch coordinates): the forest
//! estimators walk nodes in forest order and need all `w` coordinates of a
//! node at once, so this layout keeps the inner loop contiguous.

use rand::Rng;

/// Practical sketch width: `max(floor, ceil(alpha · log2 d))`, capped.
///
/// The theoretical bound `w ≥ 24 (ε/7)^{-2} ln d` exceeds 10⁴ for any
/// realistic ε and is never used by practical implementations; the paper's
/// running times are only achievable with `O(log n)` widths (DESIGN.md §5).
pub fn practical_width(d: usize, epsilon: f64) -> usize {
    let alpha = (2.0 / epsilon).max(2.0); // width grows as ε shrinks
    let w = (alpha * (d.max(2) as f64).log2()).ceil() as usize;
    w.clamp(8, 64)
}

/// Theoretical width from Lemma 3.4 with the paper's `ε/7` split.
pub fn theoretical_width(d: usize, epsilon: f64) -> usize {
    (24.0 * (epsilon / 7.0).powi(-2) * (d.max(2) as f64).ln()).ceil() as usize
}

/// A `w × d` Rademacher JL sketch, stored node-major.
#[derive(Debug, Clone)]
pub struct JlSketch {
    w: usize,
    d: usize,
    /// `data[u*w..(u+1)*w]` = sketch column for coordinate `u`, scaled by `1/√w`.
    data: Vec<f64>,
}

impl JlSketch {
    /// Sample a sketch with the given width `w` over `d` coordinates.
    pub fn sample<R: Rng>(w: usize, d: usize, rng: &mut R) -> Self {
        assert!(w > 0);
        let scale = 1.0 / (w as f64).sqrt();
        let mut data = Vec::with_capacity(w * d);
        for _ in 0..d {
            for _ in 0..w {
                let sign = if rng.gen::<bool>() { scale } else { -scale };
                data.push(sign);
            }
        }
        Self { w, d, data }
    }

    /// Sketch width `w`.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Number of coordinates `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The common magnitude `1/√w` of every entry.
    #[inline]
    pub fn scale(&self) -> f64 {
        1.0 / (self.w as f64).sqrt()
    }

    /// The entries' signs as a node-major `d × w` matrix of `±1`:
    /// `column(u)[j] == signs()[u * w + j] as f64 * scale()`. Sums of
    /// sketch entries can be taken exactly over these and scaled once.
    pub fn signs(&self) -> Vec<i8> {
        self.data
            .iter()
            .map(|&v| if v > 0.0 { 1 } else { -1 })
            .collect()
    }

    /// The `w` sketch values of coordinate `u` (a column of the `w × d`
    /// matrix, contiguous in this layout).
    #[inline]
    pub fn column(&self, u: usize) -> &[f64] {
        &self.data[u * self.w..(u + 1) * self.w]
    }

    /// Row `j` of the sketch as a dense vector (strided gather; used by
    /// ApproxGreedy which needs rows as CG right-hand sides).
    pub fn row(&self, j: usize) -> Vec<f64> {
        assert!(j < self.w);
        (0..self.d).map(|u| self.data[u * self.w + j]).collect()
    }

    /// Apply to a vector: `y = Q x` with `y ∈ R^w`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.d);
        assert_eq!(y.len(), self.w);
        y.fill(0.0);
        for (u, &xu) in x.iter().enumerate() {
            if xu == 0.0 {
                continue;
            }
            let col = self.column(u);
            for j in 0..self.w {
                y[j] += xu * col[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn widths_are_sane() {
        assert!(practical_width(1000, 0.2) >= 8);
        assert!(practical_width(1000, 0.2) <= 64);
        assert!(practical_width(1000, 0.1) >= practical_width(1000, 0.3));
        // Theoretical width is enormous — the reason practical mode exists.
        assert!(theoretical_width(1000, 0.2) > 10_000);
    }

    #[test]
    fn entries_are_pm_inv_sqrt_w() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = JlSketch::sample(16, 10, &mut rng);
        let s = 1.0 / 4.0;
        for u in 0..10 {
            for &v in q.column(u) {
                assert!((v - s).abs() < 1e-15 || (v + s).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn signs_times_scale_are_the_entries() {
        let mut rng = StdRng::seed_from_u64(4);
        for w in [4, 8, 64] {
            let q = JlSketch::sample(w, 30, &mut rng);
            let (signs, scale) = (q.signs(), q.scale());
            assert_eq!(signs.len(), 30 * w);
            for u in 0..30 {
                for (j, &v) in q.column(u).iter().enumerate() {
                    assert_eq!((signs[u * w + j] as f64 * scale).to_bits(), v.to_bits());
                }
            }
        }
    }

    #[test]
    fn row_column_consistent_with_apply() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = JlSketch::sample(8, 20, &mut rng);
        let x: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; 8];
        q.apply(&x, &mut y);
        for (j, &yj) in y.iter().enumerate() {
            let row = q.row(j);
            let naive: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((yj - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_preservation_statistical() {
        // E‖Qx‖² = ‖x‖²; with w = 64 the relative error over a few vectors
        // should be modest. Fixed seed keeps this deterministic.
        let mut rng = StdRng::seed_from_u64(3);
        let q = JlSketch::sample(64, 500, &mut rng);
        let mut worst: f64 = 0.0;
        for t in 0..5 {
            let x: Vec<f64> = (0..500).map(|i| ((i * (t + 1)) as f64).cos()).collect();
            let norm_x: f64 = x.iter().map(|v| v * v).sum();
            let mut y = vec![0.0; 64];
            q.apply(&x, &mut y);
            let norm_y: f64 = y.iter().map(|v| v * v).sum();
            worst = worst.max(((norm_y - norm_x) / norm_x).abs());
        }
        assert!(worst < 0.5, "JL distortion too large: {worst}");
    }
}
