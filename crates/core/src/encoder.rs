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
//! [`Encoder::push_frames`] has the shape of the paper's GPU kernel
//! (Fig. 2), which runs word-outer and electrodes-inner over a whole
//! chunk of samples. It takes any number of whole frames and splits them
//! into runs that end at a half-window boundary or at the end of the
//! chunk. The encoder keeps one previous sample and one LBP code per
//! electrode, and writes a run's codes in one pass straight into a
//! `hop × electrodes` buffer. When the buffer is full, one pass of the
//! encode kernel (`encoder::kernel`) over it computes the half window's
//! counts with bit-sliced circuits and emits `H`. No hypervector is built
//! between the codes and `H`, and nothing allocates but the emitted `H`s.
//! [`Encoder::push_frame`] is the one-frame case of the same path, and
//! [`SpatialEncoder::encode`] runs the kernel's spatial circuit for one
//! frame.
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
use crate::lbp::{LbpCode, MAX_LBP_LEN};

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
    /// Each electrode's previous sample.
    last: Box<[f32]>,
    /// Each electrode's latest LBP code: its last ℓ comparisons, the
    /// oldest in the top bit.
    code: Box<[LbpCode]>,
    /// Keeps a code's ℓ bits.
    mask: LbpCode,
    /// Frames after a reset that only seed `last` and `code`: the first
    /// code needs ℓ comparisons, so it completes on frame ℓ (0-based).
    warmup: u64,
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
            last: vec![0.0; electrodes].into_boxed_slice(),
            code: vec![0; electrodes].into_boxed_slice(),
            // `validate` holds ℓ to 1..=MAX_LBP_LEN, so the mask fits a code.
            mask: LbpCode::MAX >> (MAX_LBP_LEN - config.lbp_len),
            warmup: config.lbp_len as u64,
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
        self.last.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.spatial.dim()
    }

    /// Frames pushed since the encoder was built or reset. A frame
    /// counts once the run of frames it was encoded with is done, its
    /// window (if any) handed on, so after a panic it counts only
    /// finished frames.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Borrow the inner spatial encoder (item memories).
    pub fn spatial(&self) -> &SpatialEncoder {
        &self.spatial
    }

    /// Pushes one multichannel frame (one sample per electrode): the
    /// one-frame case of [`Encoder::push_frames`].
    ///
    /// Returns `Some(WindowVector)` whenever a full 1 s window (with 0.5 s
    /// overlap) completes — i.e. every `hop` samples after warm-up.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::ElectrodeMismatch`] if `frame.len()` differs
    /// from the electrode count.
    pub fn push_frame(&mut self, frame: &[f32]) -> Result<Option<WindowVector>> {
        if frame.len() != self.electrodes() {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: self.electrodes(),
                got: frame.len(),
            });
        }
        let mut window = None;
        self.encode(frame, 1, |w| window = Some(w));
        Ok(window)
    }

    /// Pushes any number of whole frames, frame-major (`frames ×
    /// electrodes` samples), and hands each window they complete to
    /// `emit`, in order. The windows are exactly those that pushing the
    /// frames one at a time through [`Encoder::push_frame`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`LaelapsError::ElectrodeMismatch`], before encoding
    /// anything, if `samples` does not divide into whole frames; `got` is
    /// the width of the partial frame left over.
    pub fn push_frames(&mut self, samples: &[f32], emit: impl FnMut(WindowVector)) -> Result<()> {
        let n = self.electrodes();
        if !samples.len().is_multiple_of(n) {
            return Err(LaelapsError::ElectrodeMismatch {
                expected: n,
                got: samples.len() % n,
            });
        }
        self.encode(samples, samples.len() / n, emit);
        Ok(())
    }

    /// The one encode path: `frames` whole frames of `samples`.
    ///
    /// Frames go in runs that end at a half-window boundary or at the end
    /// of `samples`. A run's LBP codes are written in one pass straight
    /// into its rows of the half-window buffer, and the kernel runs once
    /// the buffer is full. `samples_seen` advances once a run is done.
    fn encode(&mut self, samples: &[f32], frames: usize, mut emit: impl FnMut(WindowVector)) {
        let n = self.electrodes();
        let mask = self.mask;
        let mut rest = samples;
        let mut left = frames;
        // Warm-up: the first ℓ frames after a reset only seed the LBP
        // state. A comparison older than ℓ frames leaves the mask, so the
        // code of frame ℓ holds exactly the frames since the reset.
        while left > 0 && self.samples_seen < self.warmup {
            let (frame, tail) = rest.split_at(n);
            for ((&x, last), code) in frame.iter().zip(&mut *self.last).zip(&mut *self.code) {
                *code = lbp_step(*code, *last, x, mask);
                *last = x;
            }
            self.samples_seen += 1;
            rest = tail;
            left -= 1;
        }
        while left > 0 {
            let run = left.min(self.hop - self.filled);
            let rows = &mut self.codes[self.filled * n..][..run * n];
            for f in 0..run {
                let frame = &rest[f * n..][..n];
                let row = &mut rows[f * n..][..n];
                let state = self.last.iter_mut().zip(&mut *self.code);
                for ((&x, (last, code)), out) in frame.iter().zip(state).zip(row) {
                    *code = lbp_step(*code, *last, x, mask);
                    *last = x;
                    *out = *code;
                }
            }
            rest = &rest[run * n..];
            left -= run;
            self.filled += run;
            let end = self.samples_seen + run as u64;
            if self.filled == self.hop {
                self.close_half_window(end - 1, &mut emit);
            }
            self.samples_seen = end;
        }
    }

    /// Bundles the full half-window buffer and, once there is a previous
    /// half window, emits `H` as the window ending at `end_sample`.
    fn close_half_window(&mut self, end_sample: u64, emit: &mut impl FnMut(WindowVector)) {
        self.filled = 0;
        let mut h = self.primed.then(|| Hypervector::zero(self.dim()));
        self.spatial.kernel.half_window(
            &self.codes,
            self.hop,
            &mut self.prev,
            h.as_mut().map(Hypervector::limbs_mut),
        );
        self.primed = true;
        if let Some(vector) = h {
            let index = self.windows_emitted;
            self.windows_emitted += 1;
            emit(WindowVector {
                vector,
                end_sample,
                index,
            });
        }
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
        let len = signal_len(signal, self.electrodes())?;
        let mut out = Vec::new();
        frame_blocks(signal, 0..len, |block| {
            self.push_frames(block, |window| out.push(window))
        })?;
        Ok(out)
    }

    /// Resets all streaming state (LBP state, partial sums, counters).
    pub fn reset(&mut self) {
        self.filled = 0;
        self.primed = false;
        self.samples_seen = 0;
        self.windows_emitted = 0;
    }
}

/// One LBP step: `code` after sample `x` follows `last`. The new bit is
/// 1 iff the amplitude rose, as in [`crate::lbp::LbpExtractor::push`].
#[inline(always)]
fn lbp_step(code: LbpCode, last: f32, x: f32, mask: LbpCode) -> LbpCode {
    ((code << 1) | LbpCode::from(x > last)) & mask
}

/// The length of an electrode-major `signal` (`signal[j][t]`) of
/// `electrodes` channels.
///
/// # Errors
///
/// [`LaelapsError::ElectrodeMismatch`] for another channel count, or
/// [`LaelapsError::InvalidConfig`] if the channels have unequal lengths.
pub(crate) fn signal_len(signal: &[Vec<f32>], electrodes: usize) -> Result<usize> {
    if signal.len() != electrodes {
        return Err(LaelapsError::ElectrodeMismatch {
            expected: electrodes,
            got: signal.len(),
        });
    }
    let len = signal.first().map_or(0, Vec::len);
    if signal.iter().any(|ch| ch.len() != len) {
        return Err(LaelapsError::InvalidConfig {
            field: "signal",
            reason: "all electrode channels must have equal length".into(),
        });
    }
    Ok(len)
}

/// Frames per block that [`frame_blocks`] hands on: one second at the
/// paper's 512 Hz.
const BLOCK_FRAMES: usize = 512;

/// Hands samples `range` of an electrode-major `signal` to `push` as
/// frame-major blocks of up to [`BLOCK_FRAMES`] frames, copied into one
/// reused buffer, so encoding runs a chunk at a time.
pub(crate) fn frame_blocks(
    signal: &[Vec<f32>],
    range: std::ops::Range<usize>,
    mut push: impl FnMut(&[f32]) -> Result<()>,
) -> Result<()> {
    let mut block = Vec::with_capacity(range.len().min(BLOCK_FRAMES) * signal.len());
    for start in range.clone().step_by(BLOCK_FRAMES) {
        block.clear();
        for t in start..range.end.min(start + BLOCK_FRAMES) {
            block.extend(signal.iter().map(|ch| ch[t]));
        }
        push(&block)?;
    }
    Ok(())
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
    fn spatial_record_matches_dense_majority_at_every_remainder() {
        // Every `n mod 4` tail of the four-word counter step, on the
        // small counter (n ≤ 15), the wide one, and far above the
        // paper's 128 electrodes, a counter width no other test reaches.
        let counts = (1..=7).chain(12..=19).chain(300..=303);
        for (electrodes, policy) in counts.flat_map(|n| {
            [TiePolicy::ZeroOnTie, TiePolicy::TieBreakVector].map(|policy| (n, policy))
        }) {
            let config = LaelapsConfig::builder()
                .dim(200)
                .seed(9)
                .tie_policy(policy)
                .build()
                .unwrap();
            let mut sp = SpatialEncoder::new(&config, electrodes).unwrap();
            let (im1, im2, tie) = (sp.code_memory(), sp.electrode_memory(), sp.tie_vector());
            let mut rng = StdRng::seed_from_u64(10);
            // Every code, then few distinct codes, which make exact ties
            // common.
            for symbols in [64, 3, 3, 3] {
                let codes: Vec<u8> = (0..electrodes).map(|_| rng.gen_range(0..symbols)).collect();
                let mut dense = DenseAccumulator::new(200);
                for (e, &c) in codes.iter().enumerate() {
                    dense.add_xor(im2.get(e), im1.get(usize::from(c)));
                }
                assert_eq!(
                    sp.encode(&codes),
                    dense.majority_with(policy, &tie),
                    "{electrodes} electrodes, {policy:?}"
                );
            }
        }
    }
}
