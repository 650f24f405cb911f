//! The complete streaming Laelaps detector: samples in, alarms out.

use crate::am::{AssociativeMemory, Classification};
use crate::encoder::Encoder;
use crate::error::Result;
use crate::model::PatientModel;
use crate::postprocess::{Alarm, Postprocessor};

/// One classification event emitted by the detector every 0.5 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorEvent {
    /// Sequential index of this classification event (0-based).
    pub index: u64,
    /// Index of the last input sample included in the analysis window.
    pub end_sample: u64,
    /// Time of `end_sample` in seconds from the start of the stream.
    pub time_secs: f64,
    /// The classifier output (label, distances, Δ).
    pub classification: Classification,
    /// An alarm, if the postprocessor fired on this event.
    pub alarm: Option<Alarm>,
}

/// Streaming seizure detector combining the encoder, associative memory,
/// and postprocessor of a trained [`PatientModel`].
///
/// # Examples
///
/// ```
/// use laelaps_core::{Detector, LaelapsConfig, Trainer, TrainingData};
///
/// // Train a toy model on 2 electrodes of synthetic data.
/// let config = LaelapsConfig::builder().dim(512).seed(3).build()?;
/// let n = 512 * 40;
/// let signal: Vec<Vec<f32>> = (0..2)
///     .map(|j| {
///         (0..n)
///             .map(|t| {
///                 let x = t as f32 / 512.0 + j as f32;
///                 if (15360..20480).contains(&t) {
///                     (x * 3.0).sin().powi(3) // "seizure"
///                 } else {
///                     (x * 40.0).sin() + (x * 17.0).cos()
///                 }
///             })
///             .collect()
///     })
///     .collect();
/// let data = TrainingData::new(&signal)
///     .ictal(15360..20480)
///     .interictal(0..15360);
/// let model = Trainer::new(config).train(&data)?;
///
/// let mut det = Detector::new(&model)?;
/// let mut frame = [0.0f32; 2];
/// for t in 0..n {
///     frame[0] = signal[0][t];
///     frame[1] = signal[1][t];
///     let _ = det.push_frame(&frame)?;
/// }
/// # Ok::<(), laelaps_core::LaelapsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Detector {
    encoder: Encoder,
    am: AssociativeMemory,
    post: Postprocessor,
    config: crate::LaelapsConfig,
    events: u64,
}

impl Detector {
    /// Instantiates the runtime pipeline of a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LaelapsError::InvalidConfig`] if the model's
    /// configuration fails validation.
    pub fn new(model: &PatientModel) -> Result<Self> {
        let config = model.config();
        let encoder = Encoder::new(config, model.electrodes())?;
        Ok(Detector {
            encoder,
            am: model.am().clone(),
            post: Postprocessor::new(config),
            config: config.clone(),
            events: 0,
        })
    }

    /// Number of electrodes expected per frame.
    pub fn electrodes(&self) -> usize {
        self.encoder.electrodes()
    }

    /// Overrides the Δ threshold `tr` (used during tuning sweeps).
    pub fn set_tr(&mut self, tr: f64) {
        self.post.set_tr(tr);
        self.config.tr = tr;
    }

    /// Replaces the associative memory (and Δ threshold) with a newer
    /// model's **without touching any streaming state**: the encoder's
    /// LBP/window pipeline and the postprocessor's label window, armed
    /// flag, and refractory hold all carry across. The very next frame is
    /// classified by the new prototypes — this is the frame-boundary
    /// model hot-swap the serving layer builds on.
    ///
    /// The replacement must be the *same patient pipeline*: every
    /// configuration field except `tr` must match (same dimension, seed,
    /// windowing, electrodes), which is exactly what
    /// [`PatientModel::absorb`] produces.
    ///
    /// # Errors
    ///
    /// * [`crate::LaelapsError::ElectrodeMismatch`] — different electrode
    ///   count;
    /// * [`crate::LaelapsError::InvalidConfig`] — any configuration field
    ///   other than `tr` differs.
    pub fn hot_swap(&mut self, model: &PatientModel) -> Result<()> {
        if model.electrodes() != self.electrodes() {
            return Err(crate::LaelapsError::ElectrodeMismatch {
                expected: self.electrodes(),
                got: model.electrodes(),
            });
        }
        if !model.config().same_pipeline(&self.config) {
            return Err(crate::LaelapsError::InvalidConfig {
                field: "config",
                reason: "hot-swap requires an identical configuration \
                         (only `tr` may differ)"
                    .into(),
            });
        }
        self.am = model.am().clone();
        self.post.set_tr(model.config().tr);
        self.config.tr = model.config().tr;
        Ok(())
    }

    /// Pushes one multichannel sample frame.
    ///
    /// Returns `Some(DetectorEvent)` every 0.5 s once the pipeline is warm.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LaelapsError::ElectrodeMismatch`] if the frame
    /// width differs from the model's electrode count.
    pub fn push_frame(&mut self, frame: &[f32]) -> Result<Option<DetectorEvent>> {
        let Some(window) = self.encoder.push_frame(frame)? else {
            return Ok(None);
        };
        let classification = self.am.classify(&window.vector);
        let alarm = self.post.push(&classification);
        let event = DetectorEvent {
            index: self.events,
            end_sample: window.end_sample,
            time_secs: window.end_sample as f64 / self.config.sample_rate as f64,
            classification,
            alarm,
        };
        self.events += 1;
        Ok(Some(event))
    }

    /// Runs the detector over a whole multichannel signal, returning every
    /// classification event (alarms included).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Detector::push_frame`]; additionally
    /// rejects ragged channel lengths.
    pub fn run(&mut self, signal: &[Vec<f32>]) -> Result<Vec<DetectorEvent>> {
        let len = signal.first().map_or(0, |ch| ch.len());
        if signal.iter().any(|ch| ch.len() != len) {
            return Err(crate::LaelapsError::InvalidConfig {
                field: "signal",
                reason: "all electrode channels must have equal length".into(),
            });
        }
        let mut events = Vec::new();
        let mut frame = vec![0.0f32; signal.len()];
        for t in 0..len {
            for (j, ch) in signal.iter().enumerate() {
                frame[j] = ch[t];
            }
            if let Some(e) = self.push_frame(&frame)? {
                events.push(e);
            }
        }
        Ok(events)
    }

    /// Resets all streaming state, keeping the trained model.
    pub fn reset(&mut self) {
        self.encoder.reset();
        self.post.reset();
        self.events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{Trainer, TrainingData};
    use crate::LaelapsConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic two-state signal: background noise with a sawtooth
    /// "seizure" inserted at a known range.
    fn two_state_signal(
        electrodes: usize,
        len: usize,
        seizure: std::ops::Range<usize>,
        seed: u64,
    ) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..electrodes)
            .map(|_| {
                let mut prev = 0.0f32;
                (0..len)
                    .map(|t| {
                        if seizure.contains(&t) {
                            // Slow asymmetric sawtooth: rises for 100
                            // samples, crashes for 20.
                            let p = t % 120;
                            if p < 100 {
                                p as f32 / 100.0
                            } else {
                                (120 - p) as f32 / 20.0
                            }
                        } else {
                            // White-ish noise with mild smoothing.
                            prev = 0.3 * prev + rng.gen_range(-1.0f32..1.0);
                            prev
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn trained_model(seed: u64) -> (crate::PatientModel, Vec<Vec<f32>>) {
        let config = LaelapsConfig::builder()
            .dim(1024)
            .seed(seed)
            .build()
            .unwrap();
        let len = 512 * 60;
        let seizure = 512 * 40..512 * 55;
        let signal = two_state_signal(4, len, seizure.clone(), seed);
        let data = TrainingData::new(&signal)
            .ictal(seizure)
            .interictal(512 * 5..512 * 35);
        let model = Trainer::new(config).train(&data).unwrap();
        (model, signal)
    }

    #[test]
    fn detects_trained_like_seizure_in_new_data() {
        let (model, _) = trained_model(11);
        // New recording from the same "patient": seizure at a new location.
        let seizure = 512 * 30..512 * 50;
        let test = two_state_signal(4, 512 * 70, seizure.clone(), 999);
        let mut det = Detector::new(&model).unwrap();
        let events = det.run(&test).unwrap();
        let alarms: Vec<_> = events.iter().filter(|e| e.alarm.is_some()).collect();
        assert_eq!(alarms.len(), 1, "expected exactly one alarm");
        let t = alarms[0].time_secs;
        let onset = seizure.start as f64 / 512.0;
        assert!(
            t >= onset && t <= onset + 30.0,
            "alarm at {t:.1}s, onset at {onset:.1}s"
        );
    }

    #[test]
    fn no_alarm_on_pure_background() {
        let (model, _) = trained_model(13);
        let test = two_state_signal(4, 512 * 120, 0..0, 777);
        let mut det = Detector::new(&model).unwrap();
        let events = det.run(&test).unwrap();
        let alarms = events.iter().filter(|e| e.alarm.is_some()).count();
        assert_eq!(alarms, 0, "background-only data must raise no alarms");
    }

    #[test]
    fn event_cadence_is_half_second() {
        let (model, signal) = trained_model(17);
        let mut det = Detector::new(&model).unwrap();
        let events = det.run(&signal).unwrap();
        assert!(events.len() > 10);
        for pair in events.windows(2) {
            let dt = pair[1].time_secs - pair[0].time_secs;
            assert!((dt - 0.5).abs() < 1e-9, "cadence {dt}");
        }
    }

    #[test]
    fn reset_gives_identical_rerun() {
        let (model, signal) = trained_model(19);
        let mut det = Detector::new(&model).unwrap();
        let a = det.run(&signal).unwrap();
        det.reset();
        let b = det.run(&signal).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.classification, y.classification);
            assert_eq!(x.end_sample, y.end_sample);
        }
    }

    #[test]
    fn wrong_width_frame_rejected() {
        let (model, _) = trained_model(23);
        let mut det = Detector::new(&model).unwrap();
        assert!(det.push_frame(&[0.0; 3]).is_err());
        assert_eq!(det.electrodes(), 4);
    }

    #[test]
    fn high_tr_suppresses_all_alarms() {
        let (model, signal) = trained_model(29);
        let mut det = Detector::new(&model).unwrap();
        det.set_tr(f64::MAX / 4.0);
        let events = det.run(&signal).unwrap();
        assert!(events.iter().all(|e| e.alarm.is_none()));
    }
}
