//! Bundling: componentwise counts with majority thresholding.
//!
//! Bundling (`[A + B + C]` in the paper) sums vectors componentwise and
//! thresholds at half to return to binary space. [`DenseAccumulator`]
//! keeps one `u32` counter per component. It is the associative memory's
//! training accumulator, whose counts persist with a model so training
//! can resume, and the reference the streaming encoder's bit-sliced
//! kernel is tested against.
//!
//! The majority rule is the paper's: the output bit is 0 when half or
//! more of the bundled arguments are 0, and 1 otherwise (ties go to 0).

use super::vector::Hypervector;

/// Majority rule applied when thresholding a bundle of `k` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TiePolicy {
    /// The paper's rule: output 1 only for a strict majority of ones
    /// (`count > k/2`); an exact tie yields 0.
    #[default]
    ZeroOnTie,
    /// Break exact ties with the corresponding bit of a caller-provided
    /// tie-break vector (used by the ablation study).
    TieBreakVector,
}

/// Reference bundling accumulator with one `u32` counter per component.
///
/// # Examples
///
/// ```
/// use laelaps_core::hv::{DenseAccumulator, Hypervector};
///
/// let a = Hypervector::from_bits([true, true, false]);
/// let b = Hypervector::from_bits([true, false, false]);
/// let c = Hypervector::from_bits([false, true, false]);
/// let mut acc = DenseAccumulator::new(3);
/// acc.add(&a);
/// acc.add(&b);
/// acc.add(&c);
/// // Majority of {a, b, c}.
/// let m = acc.majority();
/// assert_eq!(m, Hypervector::from_bits([true, true, false]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseAccumulator {
    counts: Vec<u32>,
    added: u32,
}

impl DenseAccumulator {
    /// Creates an empty accumulator for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "accumulator dimension must be nonzero");
        DenseAccumulator {
            counts: vec![0; dim],
            added: 0,
        }
    }

    /// Reconstructs an accumulator from persisted per-component counts
    /// (the inverse of [`DenseAccumulator::counts`] +
    /// [`DenseAccumulator::len`]), enabling resumable training.
    ///
    /// Returns `None` if `counts` is empty or any component count exceeds
    /// `added` — states no sequence of [`DenseAccumulator::add`] calls
    /// could have produced.
    pub fn from_counts(counts: Vec<u32>, added: u32) -> Option<Self> {
        if counts.is_empty() || counts.iter().any(|&c| c > added) {
            return None;
        }
        Some(DenseAccumulator { counts, added })
    }

    /// Dimension of the bundled vectors.
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// Number of vectors added so far.
    pub fn len(&self) -> u32 {
        self.added
    }

    /// Whether no vector has been added yet.
    pub fn is_empty(&self) -> bool {
        self.added == 0
    }

    /// Adds one vector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&mut self, v: &Hypervector) {
        assert_eq!(v.dim(), self.dim(), "accumulator dimension mismatch");
        for (i, c) in self.counts.iter_mut().enumerate() {
            *c += v.get(i) as u32;
        }
        self.added += 1;
    }

    /// Adds the binding `a ⊕ b` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_xor(&mut self, a: &Hypervector, b: &Hypervector) {
        assert_eq!(a.dim(), self.dim(), "accumulator dimension mismatch");
        assert_eq!(b.dim(), self.dim(), "accumulator dimension mismatch");
        for i in 0..self.dim() {
            self.counts[i] += (a.get(i) ^ b.get(i)) as u32;
        }
        self.added += 1;
    }

    /// Adds weighted counts from another accumulator (used to merge the two
    /// half-window partial sums of the sliding temporal histogram).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &DenseAccumulator) {
        assert_eq!(other.dim(), self.dim(), "accumulator dimension mismatch");
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.added += other.added;
    }

    /// Raw per-component counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Thresholds with the paper's majority rule (ties to 0):
    /// bit `i` is 1 iff `counts[i] > added/2`.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn majority(&self) -> Hypervector {
        assert!(self.added > 0, "majority of an empty bundle is undefined");
        self.threshold(self.added / 2 + 1)
    }

    /// Majority with an explicit tie policy; `tie` supplies the bits used
    /// for exact ties under [`TiePolicy::TieBreakVector`].
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty, or if the policy is
    /// [`TiePolicy::TieBreakVector`] and `tie` has a different dimension.
    pub fn majority_with(&self, policy: TiePolicy, tie: &Hypervector) -> Hypervector {
        assert!(self.added > 0, "majority of an empty bundle is undefined");
        match policy {
            TiePolicy::ZeroOnTie => self.majority(),
            TiePolicy::TieBreakVector => {
                assert_eq!(tie.dim(), self.dim(), "tie-break dimension mismatch");
                if self.added % 2 == 1 {
                    // No ties possible with an odd count.
                    return self.majority();
                }
                let half = self.added / 2;
                let mut out = Hypervector::zero(self.dim());
                for (i, &c) in self.counts.iter().enumerate() {
                    let bit = match c.cmp(&half) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => tie.get(i),
                        std::cmp::Ordering::Less => false,
                    };
                    out.set(i, bit);
                }
                out
            }
        }
    }

    /// Thresholds at an arbitrary count: bit `i` is 1 iff `counts[i] >= t`.
    pub fn threshold(&self, t: u32) -> Hypervector {
        let mut out = Hypervector::zero(self.dim());
        for (i, &c) in self.counts.iter().enumerate() {
            if c >= t {
                out.set(i, true);
            }
        }
        out
    }

    /// Resets to the empty bundle.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.added = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Hypervector::random(dim, &mut rng)).collect()
    }

    #[test]
    fn dense_majority_of_three() {
        let a = Hypervector::from_bits([true, true, false, false]);
        let b = Hypervector::from_bits([true, false, true, false]);
        let c = Hypervector::from_bits([true, false, false, false]);
        let mut acc = DenseAccumulator::new(4);
        for v in [&a, &b, &c] {
            acc.add(v);
        }
        assert_eq!(
            acc.majority(),
            Hypervector::from_bits([true, false, false, false])
        );
    }

    #[test]
    fn dense_tie_goes_to_zero() {
        let a = Hypervector::from_bits([true, false]);
        let b = Hypervector::from_bits([false, false]);
        let mut acc = DenseAccumulator::new(2);
        acc.add(&a);
        acc.add(&b);
        // Component 0 is tied 1-1 → 0 under the paper's rule.
        assert_eq!(acc.majority(), Hypervector::from_bits([false, false]));
    }

    #[test]
    fn dense_tie_break_vector() {
        let a = Hypervector::from_bits([true, false, true]);
        let b = Hypervector::from_bits([false, false, true]);
        let tie = Hypervector::from_bits([true, true, false]);
        let mut acc = DenseAccumulator::new(3);
        acc.add(&a);
        acc.add(&b);
        let m = acc.majority_with(TiePolicy::TieBreakVector, &tie);
        // comp 0: tie → tie bit 1; comp 1: zero count → 0; comp 2: full → 1.
        assert_eq!(m, Hypervector::from_bits([true, false, true]));
    }

    #[test]
    fn bundling_preserves_similarity_to_inputs() {
        // The defining property of bundling: [A+B+C] is similar to A, B, C.
        let dim = 10_000;
        let vs = random_vectors(3, dim, 19);
        let mut acc = DenseAccumulator::new(dim);
        for v in &vs {
            acc.add(v);
        }
        let m = acc.majority();
        for v in &vs {
            // Each input agrees with the majority on ~75% of components.
            let sim = m.similarity(v);
            assert!(sim > 0.70, "similarity {sim} too low");
        }
    }

    #[test]
    fn clear_resets_state() {
        let dim = 64;
        let vs = random_vectors(5, dim, 23);
        let mut acc = DenseAccumulator::new(dim);
        for v in &vs {
            acc.add(v);
        }
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.counts(), vec![0u32; dim]);
        acc.add(&vs[0]);
        assert_eq!(acc.majority(), vs[0]);
    }

    #[test]
    fn threshold_edges() {
        let dim = 65;
        let mut acc = DenseAccumulator::new(dim);
        let v = Hypervector::ones(dim);
        for _ in 0..4 {
            acc.add(&v);
        }
        assert_eq!(acc.threshold(0), Hypervector::ones(dim));
        assert_eq!(acc.threshold(4), Hypervector::ones(dim));
        assert_eq!(acc.threshold(5), Hypervector::zero(dim));
    }

    #[test]
    fn dense_merge_adds_counts() {
        let dim = 32;
        let vs = random_vectors(6, dim, 29);
        let mut a = DenseAccumulator::new(dim);
        let mut b = DenseAccumulator::new(dim);
        let mut whole = DenseAccumulator::new(dim);
        for v in &vs[..3] {
            a.add(v);
            whole.add(v);
        }
        for v in &vs[3..] {
            b.add(v);
            whole.add(v);
        }
        a.merge(&b);
        assert_eq!(a.counts(), whole.counts());
        assert_eq!(a.len(), 6);
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn majority_of_empty_panics() {
        let acc = DenseAccumulator::new(8);
        let _ = acc.majority();
    }
}
