//! Shared fixtures: a trained toy model plus fresh test signals.

// Each integration-test binary compiles this module separately and uses a
// different subset of it.
#![allow(dead_code)]

pub mod alloc;
pub mod wire_digest;

use laelaps_core::{LaelapsConfig, PatientModel, Trainer, TrainingData};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two-state signal: smoothed noise with an asymmetric-sawtooth "seizure"
/// over `seizure` (the same construction the core detector tests use).
pub fn two_state_signal(
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
                        let p = t % 120;
                        if p < 100 {
                            p as f32 / 100.0
                        } else {
                            (120 - p) as f32 / 20.0
                        }
                    } else {
                        prev = 0.3 * prev + rng.gen_range(-1.0f32..1.0);
                        prev
                    }
                })
                .collect()
        })
        .collect()
}

/// Trains a small (dim 512, 4-electrode) model on one synthetic seizure.
pub fn trained_model(seed: u64) -> PatientModel {
    let config = LaelapsConfig::builder()
        .dim(512)
        .seed(seed)
        .build()
        .unwrap();
    let len = 512 * 60;
    let seizure = 512 * 40..512 * 55;
    let signal = two_state_signal(4, len, seizure.clone(), seed);
    let data = TrainingData::new(&signal)
        .ictal(seizure)
        .interictal(512 * 5..512 * 35);
    Trainer::new(config).train(&data).unwrap()
}

/// Interleaves a channel-major signal into frame-major sample order.
pub fn interleave(signal: &[Vec<f32>]) -> Vec<f32> {
    let len = signal[0].len();
    let mut out = Vec::with_capacity(len * signal.len());
    for t in 0..len {
        for ch in signal {
            out.push(ch[t]);
        }
    }
    out
}
