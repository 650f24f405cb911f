//! Property-based tests for the HD-computing and LBP invariants.

use laelaps_core::hv::{
    limbs_for, pack_words, unpack_words, words_for, DenseAccumulator, Hypervector, ItemMemory,
    TiePolicy, LIMB_BITS,
};
use laelaps_core::lbp::{lbp_codes, lbp_histogram, LbpCode, LbpExtractor};
use laelaps_core::{Encoder, LaelapsConfig, SpatialEncoder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn arb_hypervector(dim: usize) -> impl Strategy<Value = Hypervector> {
    proptest::collection::vec(any::<bool>(), dim).prop_map(Hypervector::from_bits)
}

fn arb_dim() -> impl Strategy<Value = usize> {
    // Mix limb-aligned and ragged dimensions.
    prop_oneof![Just(64usize), Just(100), Just(128), Just(129), Just(500)]
}

/// Dimensions that stress the padding/masking branches: everything that
/// is *not* a multiple of the word or limb size, plus the aligned cases
/// as controls.
fn arb_ragged_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        (1usize..=200).boxed(),  // dense small coverage, mostly ragged
        Just(1000usize).boxed(), // paper's d (not a multiple of 64)
        (1usize..=20).prop_map(|k| 64 * k + 1).boxed(), // just past a limb edge
        (1usize..=20).prop_map(|k| 64 * k - 1).boxed(), // just short of one
        (1usize..=40).prop_map(|k| 32 * k).boxed(), // word-aligned, half limb-ragged
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xor_involution(dim in arb_dim(), seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        prop_assert_eq!(a.xor(&b).xor(&b), a);
    }

    #[test]
    fn hamming_is_a_metric(
        (a, b, c) in arb_dim().prop_flat_map(|d| {
            (arb_hypervector(d), arb_hypervector(d), arb_hypervector(d))
        })
    ) {
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    #[test]
    fn hamming_invariant_under_xor(
        (a, b, m) in arb_dim().prop_flat_map(|d| {
            (arb_hypervector(d), arb_hypervector(d), arb_hypervector(d))
        })
    ) {
        // Binding by a common vector preserves distances (isometry).
        prop_assert_eq!(a.xor(&m).hamming(&b.xor(&m)), a.hamming(&b));
    }

    #[test]
    fn majority_bounded_by_inputs(
        (dim, vectors) in arb_dim().prop_flat_map(|d| {
            (Just(d), proptest::collection::vec(arb_hypervector(d), 1..12))
        })
    ) {
        // A component where every input agrees must keep that value.
        let mut acc = DenseAccumulator::new(dim);
        for v in &vectors {
            acc.add(v);
        }
        let m = acc.majority();
        for i in 0..dim {
            let all_one = vectors.iter().all(|v| v.get(i));
            let all_zero = vectors.iter().all(|v| !v.get(i));
            if all_one {
                prop_assert!(m.get(i));
            }
            if all_zero {
                prop_assert!(!m.get(i));
            }
        }
    }

    #[test]
    fn tie_break_only_touches_ties(
        (dim, vectors) in arb_dim().prop_flat_map(|d| {
            (Just(d), proptest::collection::vec(arb_hypervector(d), 2..10))
        }),
        tie_seed in any::<u64>()
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(tie_seed);
        let tie = Hypervector::random(dim, &mut rng);
        let mut acc = DenseAccumulator::new(dim);
        for v in &vectors {
            acc.add(v);
        }
        let zero_tie = acc.majority();
        let vec_tie = acc.majority_with(TiePolicy::TieBreakVector, &tie);
        let k = vectors.len() as u32;
        for i in 0..dim {
            let count = acc.counts()[i];
            if 2 * count != k {
                prop_assert_eq!(zero_tie.get(i), vec_tie.get(i));
            } else {
                prop_assert_eq!(vec_tie.get(i), tie.get(i));
            }
        }
    }

    #[test]
    fn lbp_codes_in_range(signal in proptest::collection::vec(-100f32..100.0, 10..200),
                          len in 1usize..=8) {
        let codes = lbp_codes(&signal, len);
        let expected = signal.len().saturating_sub(len);
        prop_assert_eq!(codes.len(), expected);
        for c in codes {
            prop_assert!((c as usize) < (1 << len));
        }
    }

    #[test]
    fn lbp_histogram_mass_conserved(
        signal in proptest::collection::vec(-10f32..10.0, 20..300)
    ) {
        let codes = lbp_codes(&signal, 6);
        let hist = lbp_histogram(&codes, 6);
        prop_assert_eq!(hist.iter().map(|&c| c as usize).sum::<usize>(), codes.len());
    }

    #[test]
    fn lbp_invariant_to_offset_and_scale(
        signal in proptest::collection::vec(-10f32..10.0, 20..100),
        offset in -5f32..5.0,
        scale in 0.5f32..4.0
    ) {
        // LBP only sees the sign of differences: positive affine transforms
        // must not change the codes.
        let transformed: Vec<f32> = signal.iter().map(|&x| x * scale + offset).collect();
        prop_assert_eq!(lbp_codes(&signal, 6), lbp_codes(&transformed, 6));
    }

    #[test]
    fn streaming_lbp_matches_batch(
        signal in proptest::collection::vec(-10f32..10.0, 10..150),
        len in 1usize..=8
    ) {
        let mut ex = LbpExtractor::new(len);
        let streamed: Vec<_> = signal.iter().filter_map(|&x| ex.push(x)).collect();
        prop_assert_eq!(streamed, lbp_codes(&signal, len));
    }

    #[test]
    fn limbs_roundtrip_any_dim(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // from_limbs is the exact inverse of limbs() for every dim,
        // including the `rem != 0` padding-validation branch.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let v = Hypervector::random(dim, &mut rng);
        assert_eq!(v.limbs().len(), limbs_for(dim));
        let back = Hypervector::from_limbs(dim, v.limbs().to_vec()).expect("valid limbs");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn padding_bits_stay_zero(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // Every constructor keeps bits at positions >= dim clear — the
        // invariant hamming() and the accumulators rely on.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for v in [
            Hypervector::random(dim, &mut rng),
            Hypervector::ones(dim),
            Hypervector::zero(dim),
        ] {
            let rem = dim % LIMB_BITS;
            if rem != 0 {
                let tail = v.limbs()[v.limbs().len() - 1];
                prop_assert_eq!(tail & !((1u64 << rem) - 1), 0, "dim {}", dim);
            }
            prop_assert_eq!(
                v.limbs().iter().map(|l| l.count_ones() as usize).sum::<usize>(),
                v.count_ones()
            );
        }
    }

    #[test]
    fn from_limbs_rejects_any_set_padding_bit(
        dim in arb_ragged_dim(),
        seed in any::<u64>(),
        bit_pick in any::<u64>()
    ) {
        let rem = dim % LIMB_BITS;
        if rem != 0 {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let v = Hypervector::random(dim, &mut rng);
            let mut limbs = v.limbs().to_vec();
            // Set one padding bit, chosen uniformly above `rem`.
            let bad = rem + (bit_pick as usize) % (LIMB_BITS - rem);
            let last = limbs.len() - 1;
            limbs[last] |= 1u64 << bad;
            prop_assert!(Hypervector::from_limbs(dim, limbs).is_none());
        }
    }

    #[test]
    fn word_pack_roundtrips_and_masks(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // u32-word view: exact round-trip, correct length, zero padding
        // bits in the packed form, popcount preserved.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let v = Hypervector::random(dim, &mut rng);
        let words = pack_words(&v);
        prop_assert_eq!(words.len(), words_for(dim));
        prop_assert_eq!(
            words.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            v.count_ones()
        );
        let rem = dim % 32;
        if rem != 0 {
            let tail = words[words.len() - 1];
            prop_assert_eq!(tail & !((1u32 << rem) - 1), 0);
        }
        prop_assert_eq!(unpack_words(&words, dim), v);
    }

    #[test]
    fn unpack_tolerates_dirty_padding(dim in arb_ragged_dim(), seed in any::<u64>()) {
        // A device buffer with garbage above `dim` must unpack to the
        // same vector as a clean one (only low `dim` bits are read).
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let v = Hypervector::random(dim, &mut rng);
        let mut words = pack_words(&v);
        let rem = dim % 32;
        if rem != 0 {
            let last = words.len() - 1;
            words[last] |= !((1u32 << rem) - 1);
        }
        prop_assert_eq!(unpack_words(&words, dim), v);
    }

    #[test]
    fn item_memory_deterministic(len in 1usize..64, dim in arb_dim(), seed in any::<u64>()) {
        let a = ItemMemory::new(len, dim, seed);
        let b = ItemMemory::new(len, dim, seed);
        for i in 0..len {
            prop_assert_eq!(a.get(i), b.get(i));
        }
        prop_assert_eq!(a.storage_bits(), len * dim);
    }
}

/// Ragged dimensions the encoder accepts (it requires d ≥ 64).
fn arb_encoder_dim() -> impl Strategy<Value = usize> {
    prop_oneof![64usize..=320, Just(1000usize), 321usize..=700]
}

/// Electrode counts on both sides of the kernel's 15-electrode counter.
fn arb_electrodes() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=15, 16usize..=128]
}

fn tie_policy(tie_break: bool) -> TiePolicy {
    if tie_break {
        TiePolicy::TieBreakVector
    } else {
        TiePolicy::ZeroOnTie
    }
}

/// The spatial record as the dense oracle computes it.
fn dense_record(spatial: &SpatialEncoder, policy: TiePolicy, codes: &[LbpCode]) -> Hypervector {
    let (im1, im2) = (spatial.code_memory(), spatial.electrode_memory());
    let mut acc = DenseAccumulator::new(spatial.dim());
    for (e, &c) in codes.iter().enumerate() {
        acc.add_xor(im2.get(e), im1.get(usize::from(c)));
    }
    acc.majority_with(policy, &spatial.tie_vector())
}

/// The streaming encoder rebuilt on the dense oracle: each frame's
/// spatial record is a `DenseAccumulator` majority of the bound vectors,
/// each half window a dense count of the records, and `H` the majority
/// of the last two half windows' `2 · hop` records, ties to 0.
struct ReferenceEncoder {
    im1: ItemMemory,
    im2: ItemMemory,
    tie: Hypervector,
    policy: TiePolicy,
    extractors: Vec<LbpExtractor>,
    half: DenseAccumulator,
    prev: Option<DenseAccumulator>,
    hop: u32,
    seen: u64,
    emitted: u64,
}

impl ReferenceEncoder {
    fn new(config: &LaelapsConfig, electrodes: usize) -> Self {
        let spatial = SpatialEncoder::new(config, electrodes).expect("valid electrode count");
        ReferenceEncoder {
            im1: spatial.code_memory(),
            im2: spatial.electrode_memory(),
            tie: spatial.tie_vector(),
            policy: config.tie_policy,
            extractors: (0..electrodes)
                .map(|_| LbpExtractor::new(config.lbp_len))
                .collect(),
            half: DenseAccumulator::new(config.dim),
            prev: None,
            hop: config.hop_samples as u32,
            seen: 0,
            emitted: 0,
        }
    }

    /// `(H, end_sample, index)` of the window this frame completes.
    fn push(&mut self, frame: &[f32]) -> Option<(Hypervector, u64, u64)> {
        self.seen += 1;
        let codes: Vec<Option<LbpCode>> = self
            .extractors
            .iter_mut()
            .zip(frame)
            .map(|(ex, &x)| ex.push(x))
            .collect();
        let codes: Vec<LbpCode> = codes.into_iter().collect::<Option<_>>()?;
        let mut spatial = DenseAccumulator::new(self.half.dim());
        for (e, &c) in codes.iter().enumerate() {
            spatial.add_xor(self.im2.get(e), self.im1.get(usize::from(c)));
        }
        self.half
            .add(&spatial.majority_with(self.policy, &self.tie));
        if self.half.len() < self.hop {
            return None;
        }
        let cur = std::mem::replace(&mut self.half, DenseAccumulator::new(spatial.dim()));
        self.prev.replace(cur.clone()).map(|mut window| {
            window.merge(&cur);
            self.emitted += 1;
            (window.majority(), self.seen - 1, self.emitted - 1)
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spatial_encoder_matches_dense_majority(
        dim in arb_encoder_dim(),
        electrodes in arb_electrodes(),
        tie_break in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = tie_policy(tie_break);
        let config = LaelapsConfig::builder()
            .dim(dim)
            .seed(seed)
            .tie_policy(policy)
            .build()
            .expect("valid config");
        let mut spatial = SpatialEncoder::new(&config, electrodes).expect("valid electrode count");
        let mut rng = <rand::rngs::StdRng as SeedableRng>::seed_from_u64(seed);
        for _ in 0..4 {
            // Few distinct codes make exact ties common.
            let codes: Vec<LbpCode> = (0..electrodes).map(|_| rng.gen_range(0..3)).collect();
            prop_assert_eq!(spatial.encode(&codes), dense_record(&spatial, policy, &codes));
        }
    }

    #[test]
    fn encoder_matches_dense_reference(
        dim in arb_encoder_dim(),
        electrodes in arb_electrodes(),
        // Even rates in 130..=1024 Hz: the hop must halve the window.
        (tie_break, hop) in (any::<bool>(), 65u32..=512),
        (seed, reset_pick) in (any::<u64>(), any::<u64>()),
    ) {
        let config = LaelapsConfig::builder()
            .dim(dim)
            .seed(seed)
            .sample_rate(2 * hop)
            .tie_policy(tie_policy(tie_break))
            .build()
            .expect("valid config");
        let hop = config.hop_samples;
        let mut encoder = Encoder::new(&config, electrodes).expect("valid encoder");
        let mut reference = ReferenceEncoder::new(&config, electrodes);
        // Three and a half half windows past warm-up, and a reset anywhere.
        let frames = config.lbp_len + 1 + hop * 7 / 2;
        let reset_at = (reset_pick % frames as u64) as usize;
        let mut rng = <rand::rngs::StdRng as SeedableRng>::seed_from_u64(seed ^ 1);
        let signal: Vec<f32> = (0..frames * electrodes)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut windows = 0;
        // Runs of 1 frame to more than two hops, so that runs start and
        // end inside the warm-up and cross half-window boundaries; one
        // frame goes through `push_frame`, longer runs through
        // `push_frames`. A run never crosses the reset.
        let mut t = 0;
        while t < frames {
            if t == reset_at {
                encoder.reset();
                reference = ReferenceEncoder::new(&config, electrodes);
            }
            let end = if t < reset_at { reset_at } else { frames };
            let run = rng.gen_range(1..=2 * hop + 2).min(end - t);
            let samples = &signal[t * electrodes..(t + run) * electrodes];
            let mut got = Vec::new();
            if run == 1 {
                got.extend(encoder.push_frame(samples).expect("frame width matches"));
            } else {
                encoder
                    .push_frames(samples, |w| got.push(w))
                    .expect("whole frames");
            }
            let got: Vec<_> = got
                .into_iter()
                .map(|w| (w.vector, w.end_sample, w.index))
                .collect();
            let want: Vec<_> = samples
                .chunks_exact(electrodes)
                .filter_map(|frame| reference.push(frame))
                .collect();
            windows += want.len();
            prop_assert_eq!(got, want, "frames {}..{}", t, t + run);
            t += run;
        }
        prop_assert!(windows >= 1 || reset_at > hop);
    }
}
