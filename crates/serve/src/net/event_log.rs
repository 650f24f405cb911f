//! The client's log of a session's event stream: exact, but about 8 bytes
//! per event instead of a `DetectorEvent`'s 72.
//!
//! A session emits one event per hop, and nearly every event follows from
//! the one before it: the next index, the same step in `end_sample`,
//! `time_secs = end_sample / fs`, the label its distances imply and no
//! alarm. Such an event takes one slot holding its two distances; any
//! other event is kept whole out of line, behind a marker slot. The
//! prediction is checked bit for bit when an event is logged, so a
//! stream that breaks the pattern costs space, never exactness.

use laelaps_core::am::Classification;
use laelaps_core::DetectorEvent;

/// The slot of an event kept whole. No predicted slot equals it, since
/// each of a predicted event's distances is below `u32::MAX`.
const WHOLE: u64 = u64::MAX;

/// The next event as the previous ones predict it.
#[derive(Debug, Default)]
struct Predictor {
    last: Option<DetectorEvent>,
    /// `end_sample` step between the last two events.
    step: u64,
}

impl Predictor {
    fn predict(&self, dist_interictal: usize, dist_ictal: usize) -> Option<DetectorEvent> {
        let last = self.last.as_ref()?;
        let end_sample = last.end_sample.wrapping_add(self.step);
        let fs = (last.end_sample as f64 / last.time_secs).round();
        Some(DetectorEvent {
            index: last.index.wrapping_add(1),
            end_sample,
            time_secs: end_sample as f64 / fs,
            classification: Classification::from_distances(dist_interictal, dist_ictal),
            alarm: None,
        })
    }

    fn advance(&mut self, event: &DetectorEvent) {
        if let Some(last) = &self.last {
            self.step = event.end_sample.wrapping_sub(last.end_sample);
        }
        self.last = Some(*event);
    }
}

/// Whether `predicted` reproduces `event` exactly, down to the bits of
/// `time_secs`.
fn reproduces(predicted: &DetectorEvent, event: &DetectorEvent) -> bool {
    predicted.index == event.index
        && predicted.end_sample == event.end_sample
        && predicted.time_secs.to_bits() == event.time_secs.to_bits()
        && predicted.classification == event.classification
        && event.alarm.is_none()
}

#[derive(Debug, Default)]
pub(super) struct EventLog {
    /// One slot per event: `dist_interictal | dist_ictal << 32` for a
    /// predicted event, [`WHOLE`] for the next event of `whole`.
    slots: Vec<u64>,
    whole: Vec<DetectorEvent>,
    predictor: Predictor,
}

impl EventLog {
    pub(super) fn push(&mut self, event: DetectorEvent) {
        let c = &event.classification;
        let slot = match (
            u32::try_from(c.dist_interictal),
            u32::try_from(c.dist_ictal),
        ) {
            (Ok(a), Ok(b)) if a < u32::MAX && b < u32::MAX => self
                .predictor
                .predict(c.dist_interictal, c.dist_ictal)
                .filter(|p| reproduces(p, &event))
                .map(|_| u64::from(a) | u64::from(b) << 32),
            _ => None,
        };
        match slot {
            Some(slot) => self.slots.push(slot),
            None => {
                self.slots.push(WHOLE);
                self.whole.push(event);
            }
        }
        self.predictor.advance(&event);
    }

    /// Events logged so far.
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every logged event, in order.
    pub(super) fn into_events(self) -> Vec<DetectorEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        let mut whole = self.whole.into_iter();
        let mut predictor = Predictor::default();
        for slot in self.slots {
            let event = if slot == WHOLE {
                whole.next().expect("every marker slot has its event")
            } else {
                let (a, b) = (slot & u64::from(u32::MAX), slot >> 32);
                predictor
                    .predict(a as usize, b as usize)
                    .expect("a predicted slot follows an event")
            };
            predictor.advance(&event);
            events.push(event);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laelaps_core::am::Label;
    use laelaps_core::Alarm;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The fields of an event, with floats as bits so that NaN and −0.0
    /// compare exactly.
    fn bits(e: &DetectorEvent) -> impl PartialEq + std::fmt::Debug {
        (
            e.index,
            e.end_sample,
            e.time_secs.to_bits(),
            e.classification,
            e.alarm.map(|a| (a.label_index, a.mean_delta.to_bits())),
        )
    }

    /// A session's events at `fs` Hz with a `fs / 2` hop.
    fn regular(fs: u64, index: u64, rng: &mut StdRng) -> DetectorEvent {
        let end_sample = 6 + fs + index * (fs / 2);
        DetectorEvent {
            index,
            end_sample,
            time_secs: end_sample as f64 / fs as f64,
            classification: Classification::from_distances(
                rng.gen_range(0..2000),
                rng.gen_range(0..2000),
            ),
            alarm: None,
        }
    }

    #[test]
    fn a_regular_stream_keeps_only_its_first_two_events_whole() {
        let mut rng = StdRng::seed_from_u64(1);
        for fs in [130, 256, 512, 1000, 1024] {
            let mut log = EventLog::default();
            let events: Vec<_> = (0..500).map(|i| regular(fs, i, &mut rng)).collect();
            for e in &events {
                log.push(*e);
            }
            assert_eq!(log.whole.len(), 2, "fs {fs}");
            assert_eq!(log.len(), events.len());
            let back = log.into_events();
            assert!(back.iter().map(bits).eq(events.iter().map(bits)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn any_event_sequence_round_trips(
            fs in prop_oneof![Just(512u64), 100u64..=2048],
            len in 0usize..200,
            irregular_per_mille in prop_oneof![Just(0u32), 1u32..=1000],
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = EventLog::default();
            let mut events = Vec::with_capacity(len);
            for i in 0..len as u64 {
                let mut e = regular(fs, i, &mut rng);
                if rng.gen_range(0..1000) < irregular_per_mille {
                    match rng.gen_range(0..7) {
                        0 => {
                            e.alarm = Some(Alarm {
                                label_index: rng.gen(),
                                mean_delta: rng.gen_range(0.0..1e4),
                            })
                        }
                        1 => e.end_sample = rng.gen(),
                        2 => e.index = rng.gen(),
                        3 => {
                            e.classification.label = match e.classification.label {
                                Label::Ictal => Label::Interictal,
                                Label::Interictal => Label::Ictal,
                            }
                        }
                        4 => {
                            let big = u32::MAX as usize + rng.gen_range(0..3usize);
                            e.classification = Classification::from_distances(
                                big,
                                rng.gen_range(0..big + 1),
                            )
                        }
                        5 => {
                            e.time_secs = [f64::NAN, -0.0, 0.0, f64::INFINITY, rng.gen()]
                                [rng.gen_range(0..5)]
                        }
                        _ => {
                            // On either side of the largest slot value.
                            let d = u32::MAX as usize - rng.gen_range(0..2usize);
                            e.classification = Classification::from_distances(d, d);
                        }
                    }
                }
                log.push(e);
                events.push(e);
                prop_assert_eq!(log.len(), events.len());
            }
            let back = log.into_events();
            prop_assert_eq!(back.len(), events.len());
            for (got, want) in back.iter().zip(&events) {
                prop_assert_eq!(bits(got), bits(want));
            }
        }
    }
}
