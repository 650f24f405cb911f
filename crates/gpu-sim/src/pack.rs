//! Bit-packing between `laelaps-core` hypervectors and the GPU layout.
//!
//! The TX2 implementation stores `d`-bit vectors as arrays of 32-bit
//! words (§V-B: "packed into 32 integer variables with 32-bit each,
//! padded if necessary" for d = 1 kbit).
//!
//! The conversions themselves live in [`laelaps_core::hv::pack`], next to
//! the detector's own limb layout, so the cost model here and the
//! production hot path agree on layout by construction. This module
//! re-exports them under the GPU-side names.

use laelaps_core::hv::ItemMemory;

pub use laelaps_core::hv::pack::{pack_words as pack_hv, unpack_words as unpack_hv, words_for};

/// Packs a whole item memory (one word row per symbol).
pub fn pack_item_memory(im: &ItemMemory) -> Vec<Vec<u32>> {
    im.iter().map(pack_hv).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use laelaps_core::hv::Hypervector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_packs_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [32usize, 64, 100, 1000, 1024, 2000] {
            let hv = Hypervector::random(dim, &mut rng);
            let packed = pack_hv(&hv);
            assert_eq!(packed.len(), words_for(dim));
            assert_eq!(unpack_hv(&packed, dim), hv, "dim {dim}");
        }
    }

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(32), 1);
        assert_eq!(words_for(33), 2);
        assert_eq!(words_for(1000), 32); // paper's d = 1 kbit → 32 words
    }

    #[test]
    fn item_memory_packs_every_symbol() {
        let im = ItemMemory::new(64, 1000, 9);
        let packed = pack_item_memory(&im);
        assert_eq!(packed.len(), 64);
        for (row, hv) in packed.iter().zip(im.iter()) {
            assert_eq!(&unpack_hv(row, 1000), hv);
        }
    }

    #[test]
    fn popcount_preserved() {
        let mut rng = StdRng::seed_from_u64(2);
        let hv = Hypervector::random(777, &mut rng);
        let packed = pack_hv(&hv);
        let ones: u32 = packed.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, hv.count_ones());
    }
}
