//! Bit-layout helpers shared by every packed consumer of a
//! [`Hypervector`].
//!
//! The canonical storage is u64 limbs (component `i` at bit `i % 64` of
//! limb `i / 64`, padding bits zero — see [`Hypervector`]); [`limbs_for`]
//! gives its length. The **u32 word** view is the GPU layout of the paper
//! (§V-B packs `d`-bit vectors into 32-bit words): word `w` holds
//! components `[32w, 32w + 32)`, so word `2k` is the low half of limb `k`
//! and word `2k + 1` its high half. [`pack_words`] / [`unpack_words`]
//! convert.
//!
//! Keeping these here means the GPU cost model (`laelaps-gpu-sim`) and
//! the detector's own vectors agree on layout by construction instead of
//! by parallel re-implementation.

use super::vector::{Hypervector, LIMB_BITS};

/// Number of bits per u32 word view.
pub const WORD_BITS: usize = 32;

/// Number of u64 limbs storing a `dim`-bit vector.
pub fn limbs_for(dim: usize) -> usize {
    dim.div_ceil(LIMB_BITS)
}

/// Number of u32 words viewing a `dim`-bit vector (the paper's layout:
/// d = 1 kbit → 32 words).
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Packs a hypervector into u32 words (component `i` → bit `i % 32` of
/// word `i / 32`). Padding bits of the last word are zero.
pub fn pack_words(hv: &Hypervector) -> Vec<u32> {
    let words = words_for(hv.dim());
    let mut out = vec![0u32; words];
    for (i, limb) in hv.limbs().iter().enumerate() {
        out[2 * i] = (limb & 0xFFFF_FFFF) as u32;
        if 2 * i + 1 < words {
            out[2 * i + 1] = (limb >> 32) as u32;
        }
    }
    out
}

/// Unpacks u32 words back into a hypervector of dimension `dim`.
///
/// Only the low `dim` bits are read: set padding bits in the last word
/// are ignored, matching a device buffer whose tail was never cleared.
///
/// # Panics
///
/// Panics if `words` is too short for `dim`.
pub fn unpack_words(words: &[u32], dim: usize) -> Hypervector {
    assert!(words.len() >= words_for(dim), "word buffer too short");
    let mut limbs = vec![0u64; limbs_for(dim)];
    for (i, limb) in limbs.iter_mut().enumerate() {
        let lo = words[2 * i] as u64;
        let hi = words.get(2 * i + 1).copied().unwrap_or(0) as u64;
        *limb = lo | (hi << 32);
    }
    let rem = dim % LIMB_BITS;
    if rem != 0 {
        let last = limbs.len() - 1;
        limbs[last] &= (1u64 << rem) - 1;
    }
    Hypervector::from_limbs(dim, limbs).expect("padding masked above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(32), 1);
        assert_eq!(words_for(33), 2);
        assert_eq!(words_for(1000), 32); // paper's d = 1 kbit → 32 words
        assert_eq!(limbs_for(64), 1);
        assert_eq!(limbs_for(65), 2);
        assert_eq!(limbs_for(1000), 16);
    }

    #[test]
    fn roundtrip_packs_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1usize, 31, 32, 33, 64, 70, 100, 1000, 1024, 2000] {
            let hv = Hypervector::random(dim, &mut rng);
            let packed = pack_words(&hv);
            assert_eq!(packed.len(), words_for(dim));
            assert_eq!(unpack_words(&packed, dim), hv, "dim {dim}");
        }
    }

    #[test]
    fn unpack_ignores_dirty_padding() {
        // A device buffer whose padding bits were never cleared must still
        // unpack to a valid (padding-zero) hypervector.
        let dim = 70; // words_for = 3, last word holds bits 64..70
        let mut words = vec![0u32; words_for(dim)];
        words[2] = u32::MAX; // bits 64..96 all set, 70..96 are padding
        let hv = unpack_words(&words, dim);
        assert_eq!(hv.count_ones(), 6);
        assert!(Hypervector::from_limbs(dim, hv.limbs().to_vec()).is_some());
    }

    #[test]
    fn popcount_preserved() {
        let mut rng = StdRng::seed_from_u64(2);
        let hv = Hypervector::random(777, &mut rng);
        let packed = pack_words(&hv);
        let ones: u32 = packed.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, hv.count_ones());
    }
}
