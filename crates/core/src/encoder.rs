//! The Laelaps HD encoder (paper §III-B, Fig. 1).
//!
//! The window vector `H` is a holographic histogram of every electrode's
//! LBP codes over the last second, built by two bundles:
//!
//! 1. the **spatial record** of each sample,
//!    `S = [E1⊕C(1) + … + En⊕C(n)]`, binds each electrode vector (IM2)
//!    to the vector of its current LBP code (IM1) and takes the majority
//!    across electrodes;
//! 2. the **temporal bundle** counts each component of `S` over a half
//!    window of `hop` samples (0.5 s). `H` sets a component when its
//!    count over the last two half windows exceeds `hop`, half of the 1 s
//!    window, so one `H` appears every `hop` samples.
//!
//! [`Encoder::push_frame`] has the shape of the paper's GPU kernel
//! (Fig. 2), which runs word-outer and electrodes-inner over a whole
//! chunk of samples. A frame only advances the electrodes' LBP
//! extractors and stores their codes in a `hop × electrodes` buffer. On
//! the hop-th frame of a half window, one pass of the encode kernel
//! (`encoder::kernel`) over the buffer computes the half window's counts
//! with bit-sliced circuits and emits `H`. No hypervector is built
//! between the codes and `H`, and nothing allocates but the returned
//! `H`. [`SpatialEncoder::encode`] runs the kernel's spatial circuit for
//! one frame.
//!
//! The kernel's circuit is written once and compiled once per lane: a
//! portable lane on every target, which is the reference and is NEON on
//! aarch64, and on x86-64 an AVX2 lane that holds each 256-component
//! group in one register. Each kernel picks its lane once, when it is
//! built, from what the running CPU reports; no setting chooses it, and
//! every lane gives bit-identical vectors. The lanes share the circuit's
//! code, so there is no lane trait and no hand-written intrinsic (see the
//! kernel's module docs).

mod kernel;

use crate::config::LaelapsConfig;
use crate::error::{LaelapsError, Result};
use crate::hv::{Hypervector, ItemMemory};
use crate::lbp::{LbpCode, LbpExtractor};

use kernel::{planes_for, Group, Kernel, MAX_ELECTRODES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed offset separating IM1 (codes) from IM2 (electrodes) and the
/// tie-break vector, all derived from the single model seed.
const IM1_SEED_OFFSET: u64 = 0x1B9_C0DE;
const IM2_SEED_OFFSET: u64 = 0x0E1E_C0DE;
const TIE_SEED_OFFSET: u64 = 0x71E_B17;

/// What the item memories and the tie-break vector are generated from.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    symbols: usize,
    electrodes: usize,
    dim: usize,
    seed: u64,
}

impl Seeds {
    fn code_memory(self) -> ItemMemory {
        ItemMemory::new(
            self.symbols,
            self.dim,
            self.seed.wrapping_add(IM1_SEED_OFFSET),
        )
    }

    fn electrode_memory(self) -> ItemMemory {
        ItemMemory::new(
            self.electrodes,
            self.dim,
            self.seed.wrapping_add(IM2_SEED_OFFSET),
        )
    }

    fn tie_vector(self) -> Hypervector {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(TIE_SEED_OFFSET));
        Hypervector::random(self.dim, &mut rng)
    }
}

/// Stateless spatial encoder: maps one LBP code per electrode to the
/// spatial record `S`.
///
/// Owns the two item memories (IM1: codes, IM2: electrodes), stored once
/// in the encode kernel's layout. Reused by the streaming [`Encoder`] and
/// exposed separately for the GPU-simulator cross-checks and for
/// per-layer measurements.
#[derive(Debug, Clone)]
pub struct SpatialEncoder {
    kernel: Kernel,
    seeds: Seeds,
}

impl SpatialEncoder {
    /// Builds the item memories for `electrodes` channels from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::InvalidConfig`] if `electrodes` is zero or
    /// above 65535.
    pub fn new(config: &LaelapsConfig, electrodes: usize) -> Result<Self> {
        if electrodes == 0 || electrodes > MAX_ELECTRODES {
            return Err(LaelapsError::InvalidConfig {
                field: "electrodes",
                reason: format!(
                    "electrode count must be in 1..={MAX_ELECTRODES}, got {electrodes}"
                ),
            });
        }
        let seeds = Seeds {
            symbols: config.symbol_count(),
            electrodes,
            dim: config.dim,
            seed: config.seed,
        };
        let kernel = Kernel::new(
            &seeds.code_memory(),
            &seeds.electrode_memory(),
            &seeds.tie_vector(),
            config.tie_policy,
        );
        Ok(SpatialEncoder { kernel, seeds })
    }

    /// Number of electrodes this encoder binds.
    pub fn electrodes(&self) -> usize {
        self.seeds.electrodes
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.seeds.dim
    }

    /// The LBP-code item memory (IM1), regenerated from the model seed.
    pub fn code_memory(&self) -> ItemMemory {
        self.seeds.code_memory()
    }

    /// The electrode item memory (IM2), regenerated from the model seed.
    pub fn electrode_memory(&self) -> ItemMemory {
        self.seeds.electrode_memory()
    }

    /// The vector whose bits break exact spatial ties under
    /// [`crate::hv::TiePolicy::TieBreakVector`], regenerated from the
    /// model seed.
    pub fn tie_vector(&self) -> Hypervector {
        self.seeds.tie_vector()
    }

    /// Encodes one spatial record from the per-electrode LBP codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len()` differs from the electrode count or a code
    /// is out of range for the configured ℓ.
    pub fn encode(&mut self, codes: &[LbpCode]) -> Hypervector {
        assert_eq!(
            codes.len(),
            self.electrodes(),
            "one LBP code per electrode required"
        );
        let mut s = Hypervector::zero(self.dim());
        self.kernel.spatial(codes, s.limbs_mut());
        s
    }
}

/// A temporal histogram vector with its window provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowVector {
    /// The encoded `H` vector.
    pub vector: Hypervector,
    /// Index of the last sample included in the window (0-based).
    pub end_sample: u64,
    /// Sequential index of this window (0-based).
    pub index: u64,
}

/// Streaming encoder producing one `H` vector per hop (0.5 s).
///
/// # Examples
///
/// ```
/// use laelaps_core::{Encoder, LaelapsConfig};
///
/// let config = LaelapsConfig::builder().dim(256).seed(1).build()?;
/// let mut enc = Encoder::new(&config, 4)?;
/// let mut produced = 0;
/// for t in 0..2000 {
///     let x = (t as f32 * 0.1).sin();
///     let frame = [x, -x, x * 0.5, 1.0 - x];
///     if enc.push_frame(&frame)?.is_some() {
///         produced += 1;
///     }
/// }
/// assert!(produced > 0);
/// # Ok::<(), laelaps_core::LaelapsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    spatial: SpatialEncoder,
    extractors: Vec<LbpExtractor>,
    /// The current half window's codes: one row per warm frame, one code
    /// per electrode.
    codes: Box<[LbpCode]>,
    /// Rows of `codes` filled so far.
    filled: usize,
    /// The previous half window's bit-sliced counts, per group.
    prev: Box<[Group]>,
    /// Whether `prev` holds a half window yet.
    primed: bool,
    hop: usize,
    samples_seen: u64,
    windows_emitted: u64,
}

impl Encoder {
    /// Creates a streaming encoder for `electrodes` channels.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::InvalidConfig`] if `electrodes` is zero or
    /// above 65535, the configuration is invalid, or a half window of
    /// codes does not fit in memory.
    pub fn new(config: &LaelapsConfig, electrodes: usize) -> Result<Self> {
        config.validate()?;
        let spatial = SpatialEncoder::new(config, electrodes)?;
        let hop = config.hop_samples;
        let too_long = || LaelapsError::InvalidConfig {
            field: "hop_samples",
            reason: format!("a half window of {hop} frames × {electrodes} codes does not fit"),
        };
        let len = hop.checked_mul(electrodes).ok_or_else(too_long)?;
        let mut codes = Vec::new();
        codes.try_reserve_exact(len).map_err(|_| too_long())?;
        codes.resize(len, 0);
        let prev = vec![Group::ZERO; spatial.kernel.groups() * planes_for(hop)];
        Ok(Encoder {
            spatial,
            extractors: (0..electrodes)
                .map(|_| LbpExtractor::new(config.lbp_len))
                .collect(),
            codes: codes.into_boxed_slice(),
            filled: 0,
            prev: prev.into_boxed_slice(),
            primed: false,
            hop,
            samples_seen: 0,
            windows_emitted: 0,
        })
    }

    /// Number of electrodes.
    pub fn electrodes(&self) -> usize {
        self.extractors.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.spatial.dim()
    }

    /// Total samples pushed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Borrow the inner spatial encoder (item memories).
    pub fn spatial(&self) -> &SpatialEncoder {
        &self.spatial
    }

    /// Pushes one multichannel frame (one sample per electrode).
    ///
    /// Returns `Some(WindowVector)` whenever a full 1 s window (with 0.5 s
    /// overlap) completes — i.e. every `hop` samples after warm-up.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::ElectrodeMismatch`] if `frame.len()` differs
    /// from the electrode count.
    pub fn push_frame(&mut self, frame: &[f32]) -> Result<Option<WindowVector>> {
        let n = self.extractors.len();
        if frame.len() != n {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: n,
                got: frame.len(),
            });
        }
        self.samples_seen += 1;
        let row = &mut self.codes[self.filled * n..][..n];
        let mut warm = true;
        for ((ex, &x), code) in self.extractors.iter_mut().zip(frame).zip(row) {
            match ex.push(x) {
                Some(c) => *code = c,
                None => warm = false,
            }
        }
        if !warm {
            // All extractors warm up simultaneously; nothing to encode yet.
            return Ok(None);
        }
        self.filled += 1;
        if self.filled < self.hop {
            return Ok(None);
        }
        // Half-window boundary: bundle the buffered frames, and combine
        // them with the previous half window into H once there is one.
        self.filled = 0;
        let mut h = self.primed.then(|| Hypervector::zero(self.dim()));
        self.spatial.kernel.half_window(
            &self.codes,
            self.hop,
            &mut self.prev,
            h.as_mut().map(Hypervector::limbs_mut),
        );
        self.primed = true;
        Ok(h.map(|vector| {
            let index = self.windows_emitted;
            self.windows_emitted += 1;
            WindowVector {
                vector,
                end_sample: self.samples_seen - 1,
                index,
            }
        }))
    }

    /// Encodes a whole multichannel signal and returns every `H` vector.
    ///
    /// `signal[j]` is electrode `j`'s sample vector; all must share one
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::ElectrodeMismatch`] if `signal.len()` differs
    /// from the electrode count, or [`LaelapsError::InvalidConfig`] if the
    /// channels have unequal lengths.
    pub fn encode_signal(&mut self, signal: &[Vec<f32>]) -> Result<Vec<WindowVector>> {
        if signal.len() != self.extractors.len() {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: self.extractors.len(),
                got: signal.len(),
            });
        }
        let len = signal.first().map_or(0, |ch| ch.len());
        if signal.iter().any(|ch| ch.len() != len) {
            return Err(LaelapsError::InvalidConfig {
                field: "signal",
                reason: "all electrode channels must have equal length".into(),
            });
        }
        let mut out = Vec::new();
        let mut frame = vec![0.0f32; signal.len()];
        for t in 0..len {
            for (j, ch) in signal.iter().enumerate() {
                frame[j] = ch[t];
            }
            if let Some(wv) = self.push_frame(&frame)? {
                out.push(wv);
            }
        }
        Ok(out)
    }

    /// Resets all streaming state (extractors, partial sums, counters).
    pub fn reset(&mut self) {
        for ex in &mut self.extractors {
            ex.reset();
        }
        self.filled = 0;
        self.primed = false;
        self.samples_seen = 0;
        self.windows_emitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hv::{DenseAccumulator, TiePolicy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_config(dim: usize) -> LaelapsConfig {
        LaelapsConfig::builder().dim(dim).seed(7).build().unwrap()
    }

    fn random_signal(electrodes: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..electrodes)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn window_cadence_matches_hop() {
        let config = test_config(128);
        let mut enc = Encoder::new(&config, 2).unwrap();
        let signal = random_signal(2, 512 * 3, 1);
        let windows = enc.encode_signal(&signal).unwrap();
        // First H needs warmup (7 samples) + 2 half-windows; afterwards one
        // H every 256 samples. 1536 samples → floor((1536-6)/256) = 5 halves
        // → 4 full windows.
        assert_eq!(windows.len(), 4);
        for w in windows.windows(2) {
            assert_eq!(w[1].end_sample - w[0].end_sample, 256);
            assert_eq!(w[1].index - w[0].index, 1);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let config = test_config(256);
        let signal = random_signal(3, 1400, 2);
        let mut e1 = Encoder::new(&config, 3).unwrap();
        let mut e2 = Encoder::new(&config, 3).unwrap();
        let w1 = e1.encode_signal(&signal).unwrap();
        let w2 = e2.encode_signal(&signal).unwrap();
        assert_eq!(w1, w2);
        assert!(!w1.is_empty());
    }

    #[test]
    fn different_seeds_give_different_encodings() {
        let signal = random_signal(3, 1400, 3);
        let c1 = LaelapsConfig::builder().dim(256).seed(1).build().unwrap();
        let c2 = LaelapsConfig::builder().dim(256).seed(2).build().unwrap();
        let w1 = Encoder::new(&c1, 3)
            .unwrap()
            .encode_signal(&signal)
            .unwrap();
        let w2 = Encoder::new(&c2, 3)
            .unwrap()
            .encode_signal(&signal)
            .unwrap();
        assert_ne!(w1[0].vector, w2[0].vector);
    }

    #[test]
    fn reset_reproduces_from_scratch() {
        let config = test_config(128);
        let signal = random_signal(2, 1200, 4);
        let mut enc = Encoder::new(&config, 2).unwrap();
        let first = enc.encode_signal(&signal).unwrap();
        enc.reset();
        let second = enc.encode_signal(&signal).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn rejects_wrong_frame_width() {
        let config = test_config(128);
        let mut enc = Encoder::new(&config, 4).unwrap();
        let err = enc.push_frame(&[0.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            LaelapsError::ElectrodeMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn rejects_ragged_signal() {
        let config = test_config(128);
        let mut enc = Encoder::new(&config, 2).unwrap();
        let ragged = vec![vec![0.0; 100], vec![0.0; 99]];
        assert!(enc.encode_signal(&ragged).is_err());
    }

    #[test]
    fn rejects_electrode_counts_the_counter_cannot_hold() {
        let config = test_config(128);
        for electrodes in [0, MAX_ELECTRODES + 1] {
            assert!(matches!(
                Encoder::new(&config, electrodes),
                Err(LaelapsError::InvalidConfig {
                    field: "electrodes",
                    ..
                })
            ));
        }
    }

    #[test]
    fn similar_inputs_give_similar_h() {
        // Two windows of the same stationary process should be much closer
        // than windows from different processes.
        let config = test_config(2048);
        let mut enc = Encoder::new(&config, 4).unwrap();
        // Slow asymmetric sawtooth — ictal-like, highly regular.
        let saw: Vec<Vec<f32>> = (0..4)
            .map(|j| {
                (0..2048)
                    .map(|t| {
                        let phase = ((t + j * 3) % 128) as f32 / 128.0;
                        if phase < 0.8 {
                            phase
                        } else {
                            (1.0 - phase) * 4.0
                        }
                    })
                    .collect()
            })
            .collect();
        let ws = enc.encode_signal(&saw).unwrap();
        assert!(ws.len() >= 4);
        let noise = random_signal(4, 2048, 5);
        let mut enc2 = Encoder::new(&config, 4).unwrap();
        let wn = enc2.encode_signal(&noise).unwrap();
        let same = ws[1].vector.similarity(&ws[2].vector);
        let cross = ws[1].vector.similarity(&wn[2].vector);
        assert!(
            same > cross + 0.05,
            "same-state similarity {same} should exceed cross-state {cross}"
        );
    }

    #[test]
    fn spatial_encoder_is_permutation_sensitive() {
        // Binding electrode identity must make the record depend on *which*
        // electrode carries which code.
        let config = test_config(4096);
        let mut sp = SpatialEncoder::new(&config, 8).unwrap();
        let codes_a: Vec<u8> = (0..8).collect();
        let mut codes_b = codes_a.clone();
        codes_b.swap(0, 7);
        let sa = sp.encode(&codes_a);
        let sb = sp.encode(&codes_b);
        assert!(sa.similarity(&sb) < 0.95);
        let sa2 = sp.encode(&codes_a);
        assert_eq!(sa, sa2, "spatial encoding must be deterministic");
    }

    #[test]
    fn spatial_encoder_single_electrode_is_pure_binding() {
        let config = test_config(512);
        let mut sp = SpatialEncoder::new(&config, 1).unwrap();
        let s = sp.encode(&[42]);
        let expected = sp.electrode_memory().get(0).xor(sp.code_memory().get(42));
        assert_eq!(s, expected);
    }

    #[test]
    fn wide_montage_spatial_record_matches_dense_majority() {
        // Far above the paper's 128 electrodes: a counter width no other
        // test reaches.
        let electrodes = 300;
        for policy in [TiePolicy::ZeroOnTie, TiePolicy::TieBreakVector] {
            let config = LaelapsConfig::builder()
                .dim(200)
                .seed(9)
                .tie_policy(policy)
                .build()
                .unwrap();
            let mut sp = SpatialEncoder::new(&config, electrodes).unwrap();
            let (im1, im2, tie) = (sp.code_memory(), sp.electrode_memory(), sp.tie_vector());
            let mut rng = StdRng::seed_from_u64(10);
            let codes: Vec<u8> = (0..electrodes).map(|_| rng.gen_range(0..64)).collect();
            let mut dense = DenseAccumulator::new(200);
            for (e, &c) in codes.iter().enumerate() {
                dense.add_xor(im2.get(e), im1.get(usize::from(c)));
            }
            assert_eq!(sp.encode(&codes), dense.majority_with(policy, &tie));
        }
    }
}
