//! The complete streaming Laelaps detector: samples in, alarms out.

use crate::am::{AssociativeMemory, Classification};
use crate::encoder::{frame_blocks, signal_len, Encoder, WindowVector};
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
    decide: Decide,
}

/// Everything after the encoder: classify a window, postprocess the
/// label, and number the event.
#[derive(Debug, Clone)]
struct Decide {
    am: AssociativeMemory,
    post: Postprocessor,
    config: crate::LaelapsConfig,
    events: u64,
}

impl Decide {
    fn event(&mut self, window: WindowVector) -> DetectorEvent {
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
        event
    }
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
            decide: Decide {
                am: model.am().clone(),
                post: Postprocessor::new(config),
                config: config.clone(),
                events: 0,
            },
        })
    }

    /// Number of electrodes expected per frame.
    pub fn electrodes(&self) -> usize {
        self.encoder.electrodes()
    }

    /// Frames pushed since the detector was built or reset. A frame
    /// counts once the run of frames it was encoded with is done, its
    /// event (if any) handed on, so after a panic it counts only
    /// finished frames.
    pub fn samples_seen(&self) -> u64 {
        self.encoder.samples_seen()
    }

    /// Overrides the Δ threshold `tr` (used during tuning sweeps).
    pub fn set_tr(&mut self, tr: f64) {
        self.decide.post.set_tr(tr);
        self.decide.config.tr = tr;
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
        if !model.config().same_pipeline(&self.decide.config) {
            return Err(crate::LaelapsError::InvalidConfig {
                field: "config",
                reason: "hot-swap requires an identical configuration \
                         (only `tr` may differ)"
                    .into(),
            });
        }
        self.decide.am = model.am().clone();
        self.set_tr(model.config().tr);
        Ok(())
    }

    /// Pushes one multichannel sample frame: the one-frame case of
    /// [`Detector::push_frames`].
    ///
    /// Returns `Some(DetectorEvent)` every 0.5 s once the pipeline is warm.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LaelapsError::ElectrodeMismatch`] if the frame
    /// width differs from the model's electrode count.
    pub fn push_frame(&mut self, frame: &[f32]) -> Result<Option<DetectorEvent>> {
        let window = self.encoder.push_frame(frame)?;
        Ok(window.map(|window| self.decide.event(window)))
    }

    /// Pushes any number of whole frames, frame-major (`frames ×
    /// electrodes` samples), and hands each event they complete to
    /// `emit`, in order. The events are exactly those that pushing the
    /// frames one at a time through [`Detector::push_frame`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LaelapsError::ElectrodeMismatch`], before
    /// encoding anything, if `samples` does not divide into whole frames.
    pub fn push_frames(
        &mut self,
        samples: &[f32],
        mut emit: impl FnMut(DetectorEvent),
    ) -> Result<()> {
        let decide = &mut self.decide;
        self.encoder
            .push_frames(samples, |window| emit(decide.event(window)))
    }

    /// Runs the detector over a whole multichannel signal, returning every
    /// classification event (alarms included).
    ///
    /// # Errors
    ///
    /// Returns [`crate::LaelapsError::ElectrodeMismatch`] if the signal's
    /// channel count differs from the model's electrode count, or
    /// [`crate::LaelapsError::InvalidConfig`] for ragged channel lengths.
    pub fn run(&mut self, signal: &[Vec<f32>]) -> Result<Vec<DetectorEvent>> {
        let len = signal_len(signal, self.electrodes())?;
        let mut events = Vec::new();
        frame_blocks(signal, 0..len, |block| {
            self.push_frames(block, |event| events.push(event))
        })?;
        Ok(events)
    }

    /// Resets all streaming state, keeping the trained model.
    pub fn reset(&mut self) {
        self.encoder.reset();
        self.decide.post.reset();
        self.decide.events = 0;
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

    /// The frame-major samples of an electrode-major signal.
    fn frame_major(signal: &[Vec<f32>]) -> Vec<f32> {
        (0..signal[0].len())
            .flat_map(|t| signal.iter().map(move |ch| ch[t]))
            .collect()
    }

    #[test]
    fn push_frames_matches_push_frame_over_random_splits() {
        let (model, signal) = trained_model(31);
        let frames = frame_major(&signal);
        let mut det = Detector::new(&model).unwrap();
        let want: Vec<DetectorEvent> = frames
            .chunks_exact(4)
            .filter_map(|frame| det.push_frame(frame).unwrap())
            .collect();
        assert!(want.iter().any(|e| e.alarm.is_some()));
        let mut rng = StdRng::seed_from_u64(37);
        for _ in 0..4 {
            det.reset();
            let mut got = Vec::new();
            let mut rest = &frames[..];
            while !rest.is_empty() {
                // From one frame to past two hops.
                let run = rng.gen_range(1..=600).min(rest.len() / 4);
                let (chunk, tail) = rest.split_at(run * 4);
                det.push_frames(chunk, |e| got.push(e)).unwrap();
                rest = tail;
            }
            assert_eq!(got, want);
        }
        det.reset();
        assert_eq!(det.run(&signal).unwrap(), want);
    }

    #[test]
    fn a_panic_mid_chunk_counts_only_the_finished_runs() {
        let (model, signal) = trained_model(41);
        let frames = frame_major(&signal);
        let mut det = Detector::new(&model).unwrap();
        let mut first = None;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            det.push_frames(&frames, |event| {
                if first.is_some() {
                    panic!("second event");
                }
                first = Some(event);
            })
        }));
        assert!(outcome.is_err());
        // The run that ended at the first event finished; the one that
        // ended at the second did not.
        let first = first.expect("one event before the panic");
        assert_eq!(det.samples_seen(), first.end_sample + 1);
    }

    #[test]
    fn wrong_width_frame_rejected() {
        let (model, _) = trained_model(23);
        let mut det = Detector::new(&model).unwrap();
        assert!(det.push_frame(&[0.0; 3]).is_err());
        assert!(det.push_frame(&[0.0; 8]).is_err());
        // A partial frame fails the whole chunk before anything is encoded.
        assert!(det.push_frames(&[0.0; 4 * 9 + 3], |_| {}).is_err());
        assert_eq!(det.samples_seen(), 0);
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
