//! Synthetic patients and their trained models: the workload's inputs,
//! derived from the seed alone.

use std::sync::Arc;
use std::time::Instant;

use laelaps_core::tuning::{tune_tr, DEFAULT_ALPHA};
use laelaps_core::PatientModel;
use laelaps_eval::parallel::parallel_map;
use laelaps_eval::runner::{train_laelaps, PreparedPatient};
use laelaps_ieeg::synth::demo_patient;

use crate::workload::{Spec, CHUNK_FRAMES};

/// Trained models and, per model, the held-out test signal cut into
/// interleaved frame-major chunks of [`CHUNK_FRAMES`] frames.
pub struct Cohort {
    pub electrodes: usize,
    pub models: Vec<Arc<PatientModel>>,
    pub pools: Vec<Vec<Arc<[f32]>>>,
    /// Per model, seconds spent in `train_laelaps` + `tune_tr`.
    pub train_s: Vec<f64>,
}

/// SplitMix64 finaliser: spreads a seed over all 64 bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Trained {
    model: PatientModel,
    chunks: Vec<Arc<[f32]>>,
    electrodes: usize,
    train_s: f64,
}

/// Synthesizes and trains `spec.models` patients from `seed`, on up to
/// `threads` threads. The same seed gives the same models and chunks.
pub fn build(spec: &Spec, seed: u64, threads: usize) -> Result<Cohort, String> {
    let ids: Vec<u64> = (0..spec.models as u64).collect();
    let trained = parallel_map(&ids, threads, |&i| train_one(spec.dim, seed, i));
    let mut cohort = Cohort {
        electrodes: 0,
        models: Vec::with_capacity(spec.models),
        pools: Vec::with_capacity(spec.models),
        train_s: Vec::with_capacity(spec.models),
    };
    for t in trained {
        let t = t?;
        cohort.electrodes = t.electrodes;
        cohort.models.push(Arc::new(t.model));
        cohort.pools.push(t.chunks);
        cohort.train_s.push(t.train_s);
    }
    Ok(cohort)
}

fn train_one(dim: usize, seed: u64, index: u64) -> Result<Trained, String> {
    // A profile whose seizure schedule cannot be split for training is
    // skipped deterministically, so every seed yields a full cohort.
    for attempt in 0..8u64 {
        let profile_seed = mix(seed ^ mix(index + 1) ^ (attempt << 56));
        let profile = demo_patient(profile_seed);
        let Ok(prep) = PreparedPatient::new(&profile) else {
            continue;
        };
        let start = Instant::now();
        let (model, replay) =
            train_laelaps(&prep, dim).map_err(|e| format!("training failed: {e}"))?;
        let tr = tune_tr(&replay, DEFAULT_ALPHA);
        let model = model
            .with_tr(tr)
            .map_err(|e| format!("tuned tr rejected: {e}"))?;
        let train_s = start.elapsed().as_secs_f64();
        let signal = prep.test_signal();
        let chunks = interleave(&signal);
        if chunks.is_empty() {
            return Err("test signal shorter than one chunk".into());
        }
        return Ok(Trained {
            model,
            chunks,
            electrodes: signal.len(),
            train_s,
        });
    }
    Err(format!("no usable patient profile for model {index}"))
}

/// Cuts electrode-major channels into frame-major chunks, dropping the
/// ragged tail so every push is uniform.
fn interleave(channels: &[Vec<f32>]) -> Vec<Arc<[f32]>> {
    let electrodes = channels.len();
    let frames = channels.first().map_or(0, Vec::len);
    (0..frames / CHUNK_FRAMES)
        .map(|c| {
            let mut chunk = Vec::with_capacity(CHUNK_FRAMES * electrodes);
            for t in c * CHUNK_FRAMES..(c + 1) * CHUNK_FRAMES {
                chunk.extend(channels.iter().map(|ch| ch[t]));
            }
            Arc::from(chunk)
        })
        .collect()
}

impl Cohort {
    /// The chunk session `session` receives at stream position
    /// `position`: its model's pool, entered at its stream's offset and
    /// read cyclically.
    pub fn chunk(&self, spec: &Spec, session: usize, position: usize) -> &Arc<[f32]> {
        let (model, stream) = spec.stream_of(session);
        let pool = &self.pools[model];
        let start = stream * pool.len() / spec.streams_per_model;
        &pool[(start + position) % pool.len()]
    }
}
