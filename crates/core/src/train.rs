//! Training patient-specific models from labeled segments (paper §III-B).
//!
//! The paper trains from remarkably little data: one 30 s interictal
//! segment (taken 10 min before the first seizure) and one or two ictal
//! segments of 10–30 s. Each segment is encoded into `H` vectors, which are
//! accumulated and thresholded into the two AM prototypes.

use std::ops::Range;

use crate::am::AmTrainer;
use crate::config::LaelapsConfig;
use crate::encoder::{frame_blocks, Encoder};
use crate::error::{LaelapsError, Result};
use crate::model::PatientModel;

/// Labeled training segments over a preprocessed multichannel signal.
///
/// `signal[j]` holds electrode `j`'s samples at the configured rate.
/// Segments are sample ranges into that signal; they are encoded
/// independently (each restarts the streaming encoder, so segment
/// boundaries never leak into windows).
#[derive(Debug, Clone)]
pub struct TrainingData<'a> {
    signal: &'a [Vec<f32>],
    ictal: Vec<Range<usize>>,
    interictal: Vec<Range<usize>>,
}

impl<'a> TrainingData<'a> {
    /// Starts assembling training data over `signal`.
    pub fn new(signal: &'a [Vec<f32>]) -> Self {
        TrainingData {
            signal,
            ictal: Vec::new(),
            interictal: Vec::new(),
        }
    }

    /// Adds an ictal (seizure) segment.
    #[must_use]
    pub fn ictal(mut self, segment: Range<usize>) -> Self {
        self.ictal.push(segment);
        self
    }

    /// Adds an interictal (background) segment.
    #[must_use]
    pub fn interictal(mut self, segment: Range<usize>) -> Self {
        self.interictal.push(segment);
        self
    }

    /// The underlying signal.
    pub fn signal(&self) -> &'a [Vec<f32>] {
        self.signal
    }

    /// Registered ictal segments.
    pub fn ictal_segments(&self) -> &[Range<usize>] {
        &self.ictal
    }

    /// Registered interictal segments.
    pub fn interictal_segments(&self) -> &[Range<usize>] {
        &self.interictal
    }
}

/// Trains [`PatientModel`]s from [`TrainingData`].
///
/// # Examples
///
/// See [`crate::Detector`] for an end-to-end train-then-detect example.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: LaelapsConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: LaelapsConfig) -> Self {
        Trainer { config }
    }

    /// The configuration models will be trained with.
    pub fn config(&self) -> &LaelapsConfig {
        &self.config
    }

    /// Trains the associative memory from the labeled segments.
    ///
    /// # Errors
    ///
    /// * [`LaelapsError::InvalidConfig`] — invalid configuration or empty /
    ///   ragged signal;
    /// * [`LaelapsError::SegmentOutOfBounds`] — a segment exceeds the
    ///   signal;
    /// * [`LaelapsError::EmptyTrainingSegment`] — a class yields no full
    ///   analysis window (segments must span at least
    ///   `window + hop + ℓ + 1` samples).
    pub fn train(&self, data: &TrainingData<'_>) -> Result<PatientModel> {
        self.config.validate()?;
        let electrodes = data.signal.len();
        if electrodes == 0 {
            return Err(LaelapsError::InvalidConfig {
                field: "signal",
                reason: "training signal has no electrodes".into(),
            });
        }
        let len = data.signal[0].len();
        if data.signal.iter().any(|ch| ch.len() != len) {
            return Err(LaelapsError::InvalidConfig {
                field: "signal",
                reason: "all electrode channels must have equal length".into(),
            });
        }

        let mut trainer = AmTrainer::new(self.config.dim);
        let mut encoder = Encoder::new(&self.config, electrodes)?;

        for seg in &data.interictal {
            self.encode_segment(&mut encoder, data.signal, seg.clone(), |h| {
                trainer.add_interictal(h)
            })?;
        }
        for seg in &data.ictal {
            self.encode_segment(&mut encoder, data.signal, seg.clone(), |h| {
                trainer.add_ictal(h)
            })?;
        }

        let am = trainer.snapshot()?;
        // Keep the accumulators: they are the resumable training state that
        // lets `PatientModel::absorb` fold in later confirmed seizures.
        PatientModel::new(self.config.clone(), electrodes, am)?.with_train_state(trainer)
    }

    /// Folds `data`'s labeled segments into this model's training state
    /// and re-thresholds the prototypes, returning the next model
    /// generation. This is the paper's incremental-update property made
    /// operational: the result is **identical** to retraining from the
    /// union of the original and the new segments, at the cost of
    /// encoding only the new ones.
    ///
    /// Available on models that carry a training state — those produced
    /// by [`Trainer::train`], a previous `absorb`, or a format-v2 load.
    /// The Δ threshold `tr` carries over unchanged; re-tune it afterwards
    /// if desired.
    ///
    /// # Errors
    ///
    /// * [`LaelapsError::MissingTrainState`] — the model has no
    ///   accumulator state;
    /// * [`LaelapsError::ElectrodeMismatch`] — the signal's channel count
    ///   differs from the model's;
    /// * the segment/validation errors of [`Trainer::train`].
    fn absorb_into(model: &PatientModel, data: &TrainingData<'_>) -> Result<PatientModel> {
        let mut state = model
            .train_state()
            .ok_or(LaelapsError::MissingTrainState)?
            .clone();
        let electrodes = data.signal.len();
        if electrodes != model.electrodes() {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: model.electrodes(),
                got: electrodes,
            });
        }
        let len = data.signal[0].len();
        if data.signal.iter().any(|ch| ch.len() != len) {
            return Err(LaelapsError::InvalidConfig {
                field: "signal",
                reason: "all electrode channels must have equal length".into(),
            });
        }
        let trainer = Trainer::new(model.config().clone());
        let mut encoder = Encoder::new(model.config(), electrodes)?;
        for seg in &data.interictal {
            trainer.encode_segment(&mut encoder, data.signal, seg.clone(), |h| {
                state.add_interictal(h)
            })?;
        }
        for seg in &data.ictal {
            trainer.encode_segment(&mut encoder, data.signal, seg.clone(), |h| {
                state.add_ictal(h)
            })?;
        }
        let am = state.snapshot()?;
        Ok(PatientModel::new(model.config().clone(), electrodes, am)?
            .with_train_state(state)?
            .with_generation(model.generation() + 1))
    }

    fn encode_segment(
        &self,
        encoder: &mut Encoder,
        signal: &[Vec<f32>],
        seg: Range<usize>,
        mut sink: impl FnMut(&crate::hv::Hypervector),
    ) -> Result<()> {
        let len = signal[0].len();
        if seg.end > len || seg.start >= seg.end {
            return Err(LaelapsError::SegmentOutOfBounds {
                start: seg.start,
                end: seg.end,
                signal_len: len,
            });
        }
        encoder.reset();
        frame_blocks(signal, seg, |block| {
            encoder.push_frames(block, |window| sink(&window.vector))
        })
    }
}

impl PatientModel {
    /// Folds `data`'s labeled segments into this model's resumable
    /// training state and re-thresholds the prototypes, returning the
    /// next model generation (see [`PatientModel::generation`]).
    ///
    /// This is the paper's incremental-update property made operational:
    /// prototypes are majority votes over mergeable accumulators, so the
    /// result is **identical** to retraining from the union of the
    /// original and the new segments, at the cost of encoding only the
    /// new ones. The Δ threshold `tr` carries over unchanged; re-tune it
    /// afterwards if desired.
    ///
    /// # Errors
    ///
    /// * [`LaelapsError::MissingTrainState`] — the model has no
    ///   accumulator state (e.g. it was loaded from a format-v1 file);
    /// * [`LaelapsError::ElectrodeMismatch`] — the signal's channel count
    ///   differs from the model's;
    /// * the segment/validation errors of [`Trainer::train`].
    ///
    /// # Examples
    ///
    /// ```
    /// use laelaps_core::{LaelapsConfig, Trainer, TrainingData};
    /// # use rand::{Rng, SeedableRng, rngs::StdRng};
    /// # let mut rng = StdRng::seed_from_u64(7);
    /// # let noise = |len: usize, rng: &mut StdRng| -> Vec<Vec<f32>> {
    /// #     (0..2).map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    /// # };
    /// let config = LaelapsConfig::builder().dim(256).seed(1).build()?;
    /// let first = noise(512 * 60, &mut rng);
    /// let model = Trainer::new(config).train(
    ///     &TrainingData::new(&first)
    ///         .interictal(0..512 * 30)
    ///         .ictal(512 * 40..512 * 55),
    /// )?;
    ///
    /// // A newly confirmed seizure arrives later: fold it in.
    /// let second = noise(512 * 20, &mut rng);
    /// let updated = model.absorb(&TrainingData::new(&second).ictal(0..512 * 15))?;
    /// assert_eq!(updated.generation(), model.generation() + 1);
    /// # Ok::<(), laelaps_core::LaelapsError>(())
    /// ```
    pub fn absorb(&self, data: &TrainingData<'_>) -> Result<PatientModel> {
        Trainer::absorb_into(self, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise(electrodes: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..electrodes)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    fn config() -> LaelapsConfig {
        LaelapsConfig::builder().dim(512).seed(5).build().unwrap()
    }

    #[test]
    fn trains_with_paper_sized_segments() {
        // 30 s interictal + 15 s ictal at 512 Hz.
        let signal = noise(8, 512 * 60, 1);
        let data = TrainingData::new(&signal)
            .interictal(0..512 * 30)
            .ictal(512 * 40..512 * 55);
        let model = Trainer::new(config()).train(&data).unwrap();
        assert_eq!(model.electrodes(), 8);
        assert_eq!(model.am().dim(), 512);
    }

    #[test]
    fn two_ictal_segments_supported() {
        // Patients with TrS = 2 in Table I train on two seizures.
        let signal = noise(4, 512 * 90, 2);
        let data = TrainingData::new(&signal)
            .interictal(0..512 * 30)
            .ictal(512 * 40..512 * 55)
            .ictal(512 * 70..512 * 85);
        assert!(Trainer::new(config()).train(&data).is_ok());
    }

    #[test]
    fn segment_out_of_bounds_rejected() {
        let signal = noise(2, 512 * 10, 3);
        let data = TrainingData::new(&signal)
            .interictal(0..512 * 5)
            .ictal(512 * 8..512 * 20);
        let err = Trainer::new(config()).train(&data).unwrap_err();
        assert!(matches!(err, LaelapsError::SegmentOutOfBounds { .. }));
    }

    #[test]
    fn empty_segment_rejected() {
        let signal = noise(2, 512 * 10, 4);
        let data = TrainingData::new(&signal)
            .interictal(100..100)
            .ictal(0..512 * 2);
        assert!(Trainer::new(config()).train(&data).is_err());
    }

    #[test]
    fn too_short_segment_yields_empty_training_error() {
        // Below warmup (ℓ = 6 diffs) + one full 512-sample window = 518
        // samples: no H vector can be produced.
        let signal = noise(2, 512 * 10, 5);
        let data = TrainingData::new(&signal)
            .interictal(0..500)
            .ictal(512 * 4..512 * 8);
        let err = Trainer::new(config()).train(&data).unwrap_err();
        assert!(matches!(
            err,
            LaelapsError::EmptyTrainingSegment {
                prototype: "interictal"
            }
        ));
    }

    #[test]
    fn missing_classes_rejected() {
        let signal = noise(2, 512 * 10, 6);
        let only_inter = TrainingData::new(&signal).interictal(0..512 * 5);
        assert!(Trainer::new(config()).train(&only_inter).is_err());
        let only_ictal = TrainingData::new(&signal).ictal(0..512 * 5);
        assert!(Trainer::new(config()).train(&only_ictal).is_err());
    }

    #[test]
    fn empty_signal_rejected() {
        let signal: Vec<Vec<f32>> = Vec::new();
        let data = TrainingData::new(&signal).interictal(0..10).ictal(0..10);
        assert!(Trainer::new(config()).train(&data).is_err());
    }

    #[test]
    fn absorb_equals_retraining_from_the_union() {
        // The accumulator-merge property: folding new segments into a
        // trained model's state must reproduce the model trained on the
        // union of all segments, bit for bit.
        let first = noise(4, 512 * 60, 8);
        let second = noise(4, 512 * 40, 9);
        let trainer = Trainer::new(config());

        let base = trainer
            .train(
                &TrainingData::new(&first)
                    .interictal(0..512 * 30)
                    .ictal(512 * 40..512 * 55),
            )
            .unwrap();
        let updated = base
            .absorb(
                &TrainingData::new(&second)
                    .ictal(0..512 * 15)
                    .interictal(512 * 20..512 * 35),
            )
            .unwrap();
        assert_eq!(updated.generation(), 1);

        // Retrain from scratch on the union (same segment order per class).
        let mut union_state = AmTrainer::new(config().dim);
        let mut encoder = Encoder::new(&config(), 4).unwrap();
        for (signal, seg) in [(&first, 0..512 * 30), (&second, 512 * 20..512 * 35)] {
            trainer
                .encode_segment(&mut encoder, signal, seg, |h| union_state.add_interictal(h))
                .unwrap();
        }
        for (signal, seg) in [(&first, 512 * 40..512 * 55), (&second, 0..512 * 15)] {
            trainer
                .encode_segment(&mut encoder, signal, seg, |h| union_state.add_ictal(h))
                .unwrap();
        }
        let union_am = union_state.snapshot().unwrap();
        assert_eq!(updated.am(), &union_am);
        assert_eq!(updated.train_state().unwrap(), &union_state);

        // A second absorb stacks on the first.
        let third = noise(4, 512 * 20, 10);
        let again = updated
            .absorb(&TrainingData::new(&third).ictal(0..512 * 10))
            .unwrap();
        assert_eq!(again.generation(), 2);
    }

    #[test]
    fn absorb_without_state_is_rejected() {
        let signal = noise(2, 512 * 30, 11);
        let data = TrainingData::new(&signal)
            .interictal(0..512 * 10)
            .ictal(512 * 15..512 * 25);
        let model = Trainer::new(config()).train(&data).unwrap();
        // Strip the state by reassembling from parts.
        let bare = PatientModel::new(
            model.config().clone(),
            model.electrodes(),
            model.am().clone(),
        )
        .unwrap();
        assert!(matches!(
            bare.absorb(&data),
            Err(LaelapsError::MissingTrainState)
        ));
        // Electrode mismatch is caught before any encoding.
        let wrong = noise(3, 512 * 10, 12);
        assert!(matches!(
            model.absorb(&TrainingData::new(&wrong).ictal(0..512 * 5)),
            Err(LaelapsError::ElectrodeMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn training_is_deterministic() {
        let signal = noise(4, 512 * 60, 7);
        let data = TrainingData::new(&signal)
            .interictal(0..512 * 30)
            .ictal(512 * 40..512 * 55);
        let m1 = Trainer::new(config()).train(&data).unwrap();
        let m2 = Trainer::new(config()).train(&data).unwrap();
        assert_eq!(m1.am().interictal(), m2.am().interictal());
        assert_eq!(m1.am().ictal(), m2.am().ictal());
    }
}
