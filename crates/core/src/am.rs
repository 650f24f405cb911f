//! Associative memory (AM): prototype storage and nearest-prototype
//! classification (paper §III-B).
//!
//! Training accumulates the `H` vectors of each brain state into a
//! prototype: all interictal `H`s (30 s in the paper) are summed and
//! thresholded into `P1`, ictal `H`s (10–30 s) into `P2`. Inference labels
//! each unseen window by the prototype at minimum Hamming distance and
//! reports the confidence score `Δ = |η(H,P1) − η(H,P2)|` consumed by the
//! postprocessor.

use crate::error::{LaelapsError, Result};
use crate::hv::{DenseAccumulator, Hypervector};

/// Brain-state label produced by the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Between seizures.
    Interictal,
    /// During a seizure.
    Ictal,
}

impl Label {
    /// True for [`Label::Ictal`].
    pub fn is_ictal(self) -> bool {
        matches!(self, Label::Ictal)
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Interictal => write!(f, "interictal"),
            Label::Ictal => write!(f, "ictal"),
        }
    }
}

/// One classification event: label plus distances and Δ score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Winning label (minimum Hamming distance; ties go to interictal,
    /// the safe default for a detector tuned against false alarms).
    pub label: Label,
    /// Hamming distance to the interictal prototype `P1`.
    pub dist_interictal: usize,
    /// Hamming distance to the ictal prototype `P2`.
    pub dist_ictal: usize,
}

impl Classification {
    /// The classification the two prototype distances imply: the nearer
    /// prototype's label, interictal on a tie.
    pub fn from_distances(dist_interictal: usize, dist_ictal: usize) -> Self {
        Classification {
            label: if dist_ictal < dist_interictal {
                Label::Ictal
            } else {
                Label::Interictal
            },
            dist_interictal,
            dist_ictal,
        }
    }

    /// The confidence score `Δ = |η(H,P1) − η(H,P2)|`.
    pub fn delta(&self) -> f64 {
        (self.dist_interictal as f64 - self.dist_ictal as f64).abs()
    }
}

/// The trained associative memory holding the two prototypes.
///
/// # Examples
///
/// ```
/// use laelaps_core::am::{AmTrainer, Label};
/// use laelaps_core::hv::Hypervector;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let proto_a = Hypervector::random(2000, &mut rng);
/// let proto_b = Hypervector::random(2000, &mut rng);
///
/// let mut trainer = AmTrainer::new(2000);
/// trainer.add_interictal(&proto_a);
/// trainer.add_ictal(&proto_b);
/// let am = trainer.finish()?;
///
/// assert_eq!(am.classify(&proto_b).label, Label::Ictal);
/// # Ok::<(), laelaps_core::LaelapsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociativeMemory {
    interictal: Hypervector,
    ictal: Hypervector,
}

impl AssociativeMemory {
    /// Builds an AM directly from two prototypes.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::InvalidConfig`] if dimensions differ.
    pub fn from_prototypes(interictal: Hypervector, ictal: Hypervector) -> Result<Self> {
        if interictal.dim() != ictal.dim() {
            return Err(LaelapsError::InvalidConfig {
                field: "prototypes",
                reason: format!(
                    "prototype dimensions differ: {} vs {}",
                    interictal.dim(),
                    ictal.dim()
                ),
            });
        }
        Ok(AssociativeMemory { interictal, ictal })
    }

    /// The interictal prototype `P1`.
    pub fn interictal(&self) -> &Hypervector {
        &self.interictal
    }

    /// The ictal prototype `P2`.
    pub fn ictal(&self) -> &Hypervector {
        &self.ictal
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.interictal.dim()
    }

    /// Normalized distance between the two prototypes; should be well away
    /// from 0 for a discriminative model.
    pub fn prototype_separation(&self) -> f64 {
        self.interictal.hamming(&self.ictal) as f64 / self.dim() as f64
    }

    /// Classifies a query vector by minimum Hamming distance.
    ///
    /// # Panics
    ///
    /// Panics if `query` has a different dimension.
    pub fn classify(&self, query: &Hypervector) -> Classification {
        // Ties favor interictal: an alarm needs strict evidence.
        Classification::from_distances(self.interictal.hamming(query), self.ictal.hamming(query))
    }
}

/// Incremental AM trainer: feed labeled `H` vectors, then [`AmTrainer::finish`].
///
/// The trainer *is* the paper's resumable training state: prototypes are
/// majority votes over two mergeable [`DenseAccumulator`]s, so keeping the
/// trainer around (see [`crate::PatientModel::train_state`]) lets later
/// labeled segments be folded in ([`crate::PatientModel::absorb`]) with
/// results identical to retraining from the union of all segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmTrainer {
    interictal: DenseAccumulator,
    ictal: DenseAccumulator,
}

impl AmTrainer {
    /// Creates a trainer for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        AmTrainer {
            interictal: DenseAccumulator::new(dim),
            ictal: DenseAccumulator::new(dim),
        }
    }

    /// Resumes a trainer from persisted per-class accumulators.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::InvalidConfig`] if the accumulator
    /// dimensions differ.
    pub fn from_accumulators(
        interictal: DenseAccumulator,
        ictal: DenseAccumulator,
    ) -> Result<Self> {
        if interictal.dim() != ictal.dim() {
            return Err(LaelapsError::InvalidConfig {
                field: "accumulators",
                reason: format!(
                    "accumulator dimensions differ: {} vs {}",
                    interictal.dim(),
                    ictal.dim()
                ),
            });
        }
        Ok(AmTrainer { interictal, ictal })
    }

    /// Hypervector dimension this trainer accumulates.
    pub fn dim(&self) -> usize {
        self.interictal.dim()
    }

    /// The interictal accumulator (raw counts for persistence).
    pub fn interictal_accumulator(&self) -> &DenseAccumulator {
        &self.interictal
    }

    /// The ictal accumulator (raw counts for persistence).
    pub fn ictal_accumulator(&self) -> &DenseAccumulator {
        &self.ictal
    }

    /// Accumulates an interictal training window.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs.
    pub fn add_interictal(&mut self, h: &Hypervector) {
        self.interictal.add(h);
    }

    /// Accumulates an ictal training window.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs.
    pub fn add_ictal(&mut self, h: &Hypervector) {
        self.ictal.add(h);
    }

    /// Number of (interictal, ictal) windows accumulated.
    pub fn counts(&self) -> (u32, u32) {
        (self.interictal.len(), self.ictal.len())
    }

    /// Thresholds both accumulators into prototypes without consuming the
    /// trainer, so it can keep accumulating (the resumable-training path).
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::EmptyTrainingSegment`] if either class
    /// received no windows.
    pub fn snapshot(&self) -> Result<AssociativeMemory> {
        if self.interictal.is_empty() {
            return Err(LaelapsError::EmptyTrainingSegment {
                prototype: "interictal",
            });
        }
        if self.ictal.is_empty() {
            return Err(LaelapsError::EmptyTrainingSegment { prototype: "ictal" });
        }
        AssociativeMemory::from_prototypes(self.interictal.majority(), self.ictal.majority())
    }

    /// Thresholds both accumulators into prototypes.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::EmptyTrainingSegment`] if either class
    /// received no windows.
    pub fn finish(self) -> Result<AssociativeMemory> {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_copies(
        base: &Hypervector,
        n: usize,
        flip_prob: f64,
        rng: &mut StdRng,
    ) -> Vec<Hypervector> {
        use rand::Rng;
        (0..n)
            .map(|_| {
                let mut v = base.clone();
                for i in 0..v.dim() {
                    if rng.gen_bool(flip_prob) {
                        let cur = v.get(i);
                        v.set(i, !cur);
                    }
                }
                v
            })
            .collect()
    }

    #[test]
    fn learns_prototypes_from_noisy_windows() {
        let dim = 4000;
        let mut rng = StdRng::seed_from_u64(3);
        let inter = Hypervector::random(dim, &mut rng);
        let ictal = Hypervector::random(dim, &mut rng);
        let mut trainer = AmTrainer::new(dim);
        for h in noisy_copies(&inter, 60, 0.2, &mut rng) {
            trainer.add_interictal(&h);
        }
        for h in noisy_copies(&ictal, 20, 0.2, &mut rng) {
            trainer.add_ictal(&h);
        }
        assert_eq!(trainer.counts(), (60, 20));
        let am = trainer.finish().unwrap();
        // Prototypes recover the underlying class centers.
        assert!(am.interictal().similarity(&inter) > 0.9);
        assert!(am.ictal().similarity(&ictal) > 0.9);
        assert!(am.prototype_separation() > 0.4);
        // Unseen noisy queries classify correctly.
        let mut correct = 0;
        for q in noisy_copies(&ictal, 50, 0.25, &mut rng) {
            if am.classify(&q).label == Label::Ictal {
                correct += 1;
            }
        }
        assert!(correct >= 48, "only {correct}/50 ictal queries correct");
    }

    #[test]
    fn tie_classifies_as_interictal() {
        let p1 = Hypervector::from_bits([true, false, false, false]);
        let p2 = Hypervector::from_bits([false, true, false, false]);
        let am = AssociativeMemory::from_prototypes(p1, p2).unwrap();
        let q = Hypervector::from_bits([false, false, false, false]);
        let c = am.classify(&q);
        assert_eq!(c.dist_interictal, c.dist_ictal);
        assert_eq!(c.label, Label::Interictal);
        assert_eq!(c.delta(), 0.0);
    }

    #[test]
    fn delta_is_absolute_difference() {
        let p1 = Hypervector::from_bits([true, true, true, true]);
        let p2 = Hypervector::from_bits([false, false, false, false]);
        let am = AssociativeMemory::from_prototypes(p1, p2).unwrap();
        let q = Hypervector::from_bits([true, true, true, false]);
        let c = am.classify(&q);
        assert_eq!(c.dist_interictal, 1);
        assert_eq!(c.dist_ictal, 3);
        assert_eq!(c.delta(), 2.0);
        assert_eq!(c.label, Label::Interictal);
    }

    #[test]
    fn empty_training_is_rejected() {
        let trainer = AmTrainer::new(100);
        assert!(matches!(
            trainer.finish(),
            Err(LaelapsError::EmptyTrainingSegment {
                prototype: "interictal"
            })
        ));
        let mut trainer = AmTrainer::new(100);
        trainer.add_interictal(&Hypervector::zero(100));
        assert!(matches!(
            trainer.finish(),
            Err(LaelapsError::EmptyTrainingSegment { prototype: "ictal" })
        ));
    }

    #[test]
    fn mismatched_prototypes_rejected() {
        let p1 = Hypervector::zero(64);
        let p2 = Hypervector::zero(128);
        assert!(AssociativeMemory::from_prototypes(p1, p2).is_err());
    }

    #[test]
    fn label_display_and_predicates() {
        assert_eq!(Label::Ictal.to_string(), "ictal");
        assert_eq!(Label::Interictal.to_string(), "interictal");
        assert!(Label::Ictal.is_ictal());
        assert!(!Label::Interictal.is_ictal());
    }
}
