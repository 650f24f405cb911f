//! Postprocessing of classifier output (paper §III-C).
//!
//! The classifier emits a label and a Δ score every 0.5 s. The
//! postprocessor slides a window over the last 10 of them and flags a
//! seizure-onset alarm only when *both* hold:
//!
//! * at least `tc` labels in the window are ictal (`tc = 10` in the paper,
//!   i.e. 10 consecutive ictal labels ≈ 5 s of sustained evidence);
//! * the mean Δ of those ictal labels exceeds the patient-specific
//!   threshold `tr`.
//!
//! The combination trades detection delay for the paper's headline
//! zero-false-alarm operation. After an alarm the postprocessor enters a
//! refractory hold so one seizure produces one alarm event.

use std::collections::VecDeque;

use crate::am::{Classification, Label};
use crate::config::LaelapsConfig;

/// An alarm raised by the postprocessor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// Index of the label (classification event) that triggered the alarm.
    pub label_index: u64,
    /// Mean Δ of the ictal labels in the triggering window.
    pub mean_delta: f64,
}

/// Sliding-window decision logic over classifier labels and Δ scores.
///
/// # Examples
///
/// ```
/// use laelaps_core::am::{Classification, Label};
/// use laelaps_core::postprocess::Postprocessor;
/// use laelaps_core::LaelapsConfig;
///
/// let config = LaelapsConfig::default(); // tc = 10, tr = 0
/// let mut post = Postprocessor::new(&config);
/// let ictal = Classification {
///     label: Label::Ictal,
///     dist_interictal: 900,
///     dist_ictal: 100,
/// };
/// // Nine ictal labels are not enough...
/// for _ in 0..9 {
///     assert!(post.push(&ictal).is_none());
/// }
/// // ...the tenth consecutive one raises the alarm.
/// assert!(post.push(&ictal).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Postprocessor {
    window: VecDeque<(Label, f64)>,
    window_len: usize,
    tc: usize,
    tr: f64,
    refractory_labels: usize,
    labels_seen: u64,
    refractory_until: Option<u64>,
    armed: bool,
}

impl Postprocessor {
    /// Creates a postprocessor from a validated configuration.
    pub fn new(config: &LaelapsConfig) -> Self {
        Postprocessor {
            window: VecDeque::with_capacity(config.postprocess_len),
            window_len: config.postprocess_len,
            tc: config.tc,
            tr: config.tr,
            refractory_labels: config.refractory_labels,
            labels_seen: 0,
            refractory_until: None,
            armed: true,
        }
    }

    /// Current Δ threshold `tr`.
    pub fn tr(&self) -> f64 {
        self.tr
    }

    /// Replaces the Δ threshold (used when tuning `tr` post-training).
    pub fn set_tr(&mut self, tr: f64) {
        self.tr = tr;
    }

    /// Number of labels consumed so far.
    pub fn labels_seen(&self) -> u64 {
        self.labels_seen
    }

    /// Pushes one classification event; returns an alarm if the decision
    /// criteria are met and the postprocessor is not in refractory hold.
    pub fn push(&mut self, c: &Classification) -> Option<Alarm> {
        let idx = self.labels_seen;
        self.labels_seen += 1;
        if self.window.len() == self.window_len {
            self.window.pop_front();
        }
        self.window.push_back((c.label, c.delta()));

        // The ictal Δs are walked in place, not collected: a label
        // allocates nothing.
        let ictal = || {
            self.window
                .iter()
                .filter(|(l, _)| l.is_ictal())
                .map(|&(_, d)| d)
        };
        let count = ictal().count();
        let mean = || ictal().sum::<f64>() / count as f64;
        let condition = count >= self.tc && mean() > self.tr;

        // Re-arm once the condition has lapsed so one sustained seizure
        // yields exactly one alarm.
        if !condition {
            self.armed = true;
        }
        if let Some(until) = self.refractory_until {
            if idx < until {
                return None;
            }
            self.refractory_until = None;
        }
        if condition && self.armed {
            self.armed = false;
            self.refractory_until = Some(idx + self.refractory_labels as u64);
            return Some(Alarm {
                label_index: idx,
                mean_delta: mean(),
            });
        }
        None
    }

    /// Clears all state (window contents, refractory hold, counters).
    pub fn reset(&mut self) {
        self.window.clear();
        self.labels_seen = 0;
        self.refractory_until = None;
        self.armed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ictal(delta: f64) -> Classification {
        Classification {
            label: Label::Ictal,
            dist_interictal: (500.0 + delta / 2.0) as usize,
            dist_ictal: (500.0 - delta / 2.0) as usize,
        }
    }

    fn inter(delta: f64) -> Classification {
        Classification {
            label: Label::Interictal,
            dist_interictal: (500.0 - delta / 2.0) as usize,
            dist_ictal: (500.0 + delta / 2.0) as usize,
        }
    }

    fn config_with_tr(tr: f64) -> LaelapsConfig {
        LaelapsConfig::builder().tr(tr).build().unwrap()
    }

    #[test]
    fn alarm_requires_tc_consecutive_ictal_labels() {
        let mut post = Postprocessor::new(&config_with_tr(0.0));
        for i in 0..9 {
            assert!(post.push(&ictal(100.0)).is_none(), "label {i}");
        }
        let alarm = post.push(&ictal(100.0)).expect("10th label should alarm");
        assert_eq!(alarm.label_index, 9);
        assert!((alarm.mean_delta - 100.0).abs() < 1e-9);
    }

    #[test]
    fn interictal_interruption_resets_count() {
        let mut post = Postprocessor::new(&config_with_tr(0.0));
        for _ in 0..9 {
            assert!(post.push(&ictal(100.0)).is_none());
        }
        assert!(post.push(&inter(100.0)).is_none());
        // Window now has 9 ictal + 1 interictal: tc=10 cannot be met until
        // the interictal label ages out.
        for _ in 0..9 {
            assert!(post.push(&ictal(100.0)).is_none());
        }
        assert!(post.push(&ictal(100.0)).is_some());
    }

    #[test]
    fn tr_blocks_low_confidence_alarms() {
        let mut post = Postprocessor::new(&config_with_tr(50.0));
        for _ in 0..20 {
            assert!(
                post.push(&ictal(30.0)).is_none(),
                "mean Δ 30 must not beat tr = 50"
            );
        }
        // Raising the Δ lifts the running mean above tr eventually.
        let mut fired = false;
        for _ in 0..20 {
            if post.push(&ictal(90.0)).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn tr_boundary_is_strict() {
        // mean Δ must *exceed* tr.
        let mut post = Postprocessor::new(&config_with_tr(100.0));
        for _ in 0..30 {
            assert!(post.push(&ictal(100.0)).is_none());
        }
    }

    #[test]
    fn one_seizure_one_alarm() {
        let mut post = Postprocessor::new(&config_with_tr(0.0));
        let mut alarms = 0;
        // A 60-label (30 s) seizure.
        for _ in 0..60 {
            if post.push(&ictal(80.0)).is_some() {
                alarms += 1;
            }
        }
        assert_eq!(alarms, 1);
    }

    #[test]
    fn rearms_after_refractory_and_condition_lapse() {
        let config = LaelapsConfig::builder()
            .tr(0.0)
            .refractory_labels(20)
            .build()
            .unwrap();
        let mut post = Postprocessor::new(&config);
        let mut alarms = 0;
        // Seizure 1.
        for _ in 0..30 {
            alarms += post.push(&ictal(80.0)).is_some() as u32;
        }
        // Long interictal gap (longer than the refractory hold).
        for _ in 0..40 {
            alarms += post.push(&inter(80.0)).is_some() as u32;
        }
        // Seizure 2.
        for _ in 0..30 {
            alarms += post.push(&ictal(80.0)).is_some() as u32;
        }
        assert_eq!(alarms, 2);
    }

    #[test]
    fn refractory_suppresses_back_to_back_alarms() {
        let config = LaelapsConfig::builder()
            .tr(0.0)
            .refractory_labels(1000)
            .build()
            .unwrap();
        let mut post = Postprocessor::new(&config);
        let mut alarms = 0;
        for block in 0..4 {
            for _ in 0..20 {
                alarms += post.push(&ictal(80.0)).is_some() as u32;
            }
            for _ in 0..15 {
                alarms += post.push(&inter(80.0)).is_some() as u32;
            }
            let _ = block;
        }
        assert_eq!(alarms, 1, "refractory hold must swallow later alarms");
    }

    #[test]
    fn reset_clears_history() {
        let mut post = Postprocessor::new(&config_with_tr(0.0));
        for _ in 0..9 {
            post.push(&ictal(50.0));
        }
        post.reset();
        for _ in 0..9 {
            assert!(post.push(&ictal(50.0)).is_none());
        }
        assert!(post.push(&ictal(50.0)).is_some());
        assert_eq!(post.labels_seen(), 10);
    }

    #[test]
    fn set_tr_takes_effect() {
        let mut post = Postprocessor::new(&config_with_tr(0.0));
        post.set_tr(1000.0);
        assert_eq!(post.tr(), 1000.0);
        for _ in 0..30 {
            assert!(post.push(&ictal(500.0)).is_none());
        }
    }
}
