//! The full three-kernel Laelaps pipeline on the simulated TX2.
//!
//! Consumes raw multichannel samples in 0.5 s chunks and emits one
//! classification event per chunk (once warm), exactly as the deployed
//! GPU implementation of Fig. 2 — and bit-for-bit identical to the
//! reference `laelaps-core` detector given the same model.

use laelaps_core::encoder::SpatialEncoder;
use laelaps_core::model::PatientModel;

use crate::device::{CostSheet, ExecutionStats, TegraX2};
use crate::pack::{pack_hv, pack_item_memory};

use super::classify::{run_classify_kernel, ClassifyKernelOutput};
use super::encode::GpuEncoder;
use super::lbp::{run_lbp_kernel, CHUNK};

/// One GPU classification event.
#[derive(Debug, Clone)]
pub struct GpuEvent {
    /// Classifier output (distances, label, Δ).
    pub classification: ClassifyKernelOutput,
    /// Per-kernel cost sheets (LBP, encode, classify).
    pub costs: [CostSheet; 3],
}

/// The simulated GPU deployment of a trained model.
#[derive(Debug, Clone)]
pub struct GpuPipeline {
    lbp_len: usize,
    electrodes: usize,
    encoder: GpuEncoder,
    p1: Vec<u32>,
    p2: Vec<u32>,
    history: Vec<Vec<f32>>,
}

impl GpuPipeline {
    /// Builds the pipeline from a trained model (item memories are
    /// regenerated from the model seed, prototypes packed from the AM).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the core encoder.
    pub fn new(model: &PatientModel) -> laelaps_core::Result<Self> {
        let config = model.config();
        let spatial = SpatialEncoder::new(config, model.electrodes())?;
        let encoder = GpuEncoder::new(
            config.dim,
            pack_item_memory(&spatial.code_memory()),
            pack_item_memory(&spatial.electrode_memory()),
        );
        Ok(GpuPipeline {
            lbp_len: config.lbp_len,
            electrodes: model.electrodes(),
            encoder,
            p1: pack_hv(model.am().interictal()),
            p2: pack_hv(model.am().ictal()),
            history: vec![Vec::new(); model.electrodes()],
        })
    }

    /// Electrode count.
    pub fn electrodes(&self) -> usize {
        self.electrodes
    }

    /// Processes one 0.5 s chunk (`chunk[e]` = 256 samples of electrode
    /// `e`). Returns an event once two chunks of context are available.
    ///
    /// # Panics
    ///
    /// Panics if the chunk shape is wrong.
    pub fn push_chunk(&mut self, chunk: &[Vec<f32>]) -> Option<GpuEvent> {
        assert_eq!(chunk.len(), self.electrodes, "one row per electrode");
        assert!(
            chunk.iter().all(|c| c.len() == CHUNK),
            "chunks are {CHUNK} samples"
        );
        // Maintain lbp_len samples of context per electrode.
        let mut staged: Vec<Vec<f32>> = Vec::with_capacity(self.electrodes);
        let have_context = self.history[0].len() >= self.lbp_len;
        for (hist, ch) in self.history.iter_mut().zip(chunk.iter()) {
            if have_context {
                let mut s = Vec::with_capacity(CHUNK + self.lbp_len);
                s.extend_from_slice(&hist[hist.len() - self.lbp_len..]);
                s.extend_from_slice(ch);
                staged.push(s);
            }
            hist.clear();
            hist.extend_from_slice(ch);
        }
        if !have_context {
            return None;
        }
        let lbp = run_lbp_kernel(&staged, self.lbp_len);
        let enc = self.encoder.encode_chunk(&lbp.codes);
        // A full 1 s window needs two accumulated half-windows.
        let h = enc.h?;
        let classification = run_classify_kernel(&h, &self.p1, &self.p2);
        let costs = [lbp.cost, enc.cost, classification.cost];
        Some(GpuEvent {
            classification,
            costs,
        })
    }

    /// Simulated time/energy of one classification event on `device`.
    pub fn event_stats(&self, device: &TegraX2, event: &GpuEvent) -> ExecutionStats {
        device.execute(&event.costs)
    }

    /// Clears streaming state (model retained).
    pub fn reset(&mut self) {
        self.encoder.reset();
        for h in &mut self.history {
            h.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laelaps_core::{Detector, LaelapsConfig, Trainer, TrainingData};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_model(dim: usize, electrodes: usize) -> (PatientModel, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(99);
        let len = 512 * 50;
        let signal: Vec<Vec<f32>> = (0..electrodes)
            .map(|_| {
                let mut prev = 0.0f32;
                (0..len)
                    .map(|t| {
                        if (512 * 35..512 * 47).contains(&t) {
                            ((t % 128) as f32 / 128.0).powi(2)
                        } else {
                            prev = 0.5 * prev + rng.gen_range(-1.0f32..1.0);
                            prev
                        }
                    })
                    .collect()
            })
            .collect();
        let config = LaelapsConfig::builder().dim(dim).seed(5).build().unwrap();
        let data = TrainingData::new(&signal)
            .interictal(512 * 2..512 * 32)
            .ictal(512 * 35..512 * 47);
        let model = Trainer::new(config).train(&data).unwrap();
        (model, signal)
    }

    #[test]
    fn bit_exact_against_core_detector() {
        let (model, signal) = trained_model(1024, 6);
        // Core reference events.
        let mut core = Detector::new(&model).unwrap();
        let core_events = core.run(&signal).unwrap();

        // GPU pipeline consumes aligned chunks: core's windows start after
        // the lbp warm-up (6 samples), so feed chunks offset by warm-up.
        let mut gpu = GpuPipeline::new(&model).unwrap();
        let mut gpu_events = Vec::new();
        // Prime the context with the first lbp_len samples via a shifted
        // chunking: chunk k covers samples [6 + 256k, 6 + 256(k+1)).
        let lbp_len = model.config().lbp_len;
        // First push: samples [6-6, 6+256) handled by feeding an initial
        // pseudo-chunk of the first 6+?.. — instead feed chunks starting
        // at sample 6 with an initial context chunk of samples 0..262?
        // Simpler: feed a first chunk of samples [0, 256) (context only),
        // then chunks of 256 starting at 256·k + 6 would misalign history.
        // Alignment trick: feed chunk0 = samples[6..262), etc., after
        // seeding history with samples [0..6) via a dummy full chunk
        // built from the first 262 samples.
        let n = signal[0].len();
        let mut start = 6usize;
        // Seed the per-electrode history with samples [0, 6).
        {
            let seed_chunk: Vec<Vec<f32>> = signal
                .iter()
                .map(|ch| {
                    let mut v = vec![0.0f32; 256 - lbp_len];
                    v.extend_from_slice(&ch[0..lbp_len]);
                    v
                })
                .collect();
            let _ = gpu.push_chunk(&seed_chunk);
        }
        while start + 256 <= n {
            let chunk: Vec<Vec<f32>> = signal
                .iter()
                .map(|ch| ch[start..start + 256].to_vec())
                .collect();
            if let Some(e) = gpu.push_chunk(&chunk) {
                gpu_events.push(e);
            }
            start += 256;
        }
        assert!(!core_events.is_empty());
        assert_eq!(gpu_events.len(), core_events.len());
        for (g, c) in gpu_events.iter().zip(core_events.iter()) {
            assert_eq!(
                g.classification.dist_interictal as usize,
                c.classification.dist_interictal
            );
            assert_eq!(
                g.classification.dist_ictal as usize,
                c.classification.dist_ictal
            );
            assert_eq!(g.classification.is_ictal, c.classification.label.is_ictal());
        }
    }

    #[test]
    fn event_time_is_roughly_constant_in_electrodes() {
        // Table II: 12.5 ms at 24 electrodes vs 13.0 ms at 128.
        let device = TegraX2::default();
        let stats_for = |electrodes: usize| {
            let (model, signal) = trained_model(1024, electrodes);
            let mut gpu = GpuPipeline::new(&model).unwrap();
            let mut last = None;
            let mut start = 0usize;
            while start + 256 <= signal[0].len().min(512 * 4) {
                let chunk: Vec<Vec<f32>> = signal
                    .iter()
                    .map(|ch| ch[start..start + 256].to_vec())
                    .collect();
                if let Some(e) = gpu.push_chunk(&chunk) {
                    last = Some(gpu.event_stats(&device, &e));
                }
                start += 256;
            }
            last.unwrap()
        };
        let t24 = stats_for(24);
        let t128 = stats_for(128);
        assert!(
            t128.time_ms / t24.time_ms < 1.15,
            "24el {:.2}ms vs 128el {:.2}ms",
            t24.time_ms,
            t128.time_ms
        );
        // And in the paper's published ballpark (≈12–14 ms, 30–40 mJ).
        assert!((10.0..16.0).contains(&t128.time_ms), "{}", t128.time_ms);
        assert!((25.0..45.0).contains(&t128.energy_mj), "{}", t128.energy_mj);
    }

    #[test]
    fn reset_clears_warm_state() {
        let (model, signal) = trained_model(256, 3);
        let mut gpu = GpuPipeline::new(&model).unwrap();
        let mut produced = 0;
        for k in 0..4 {
            let chunk: Vec<Vec<f32>> = signal
                .iter()
                .map(|ch| ch[k * 256..(k + 1) * 256].to_vec())
                .collect();
            produced += gpu.push_chunk(&chunk).is_some() as usize;
        }
        assert!(produced > 0);
        gpu.reset();
        let chunk: Vec<Vec<f32>> = signal.iter().map(|ch| ch[..256].to_vec()).collect();
        assert!(gpu.push_chunk(&chunk).is_none());
    }
}
