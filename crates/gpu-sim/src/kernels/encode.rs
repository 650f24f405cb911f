//! HD encoding kernel (Fig. 2, middle): 32-thread blocks, one block per
//! 32-bit word of the hypervector.
//!
//! For every sample, each block gathers the bound word
//! `IM2[e] ⊕ IM1[code(e)]` for 32 electrodes at a time, transposes the
//! 32 × 32 bit matrix (`__ballot_sync` on silicon) and popcounts, so each
//! thread accumulates one component's electrode count. The thresholded
//! spatial record `S` is then accumulated over the 256 samples of the
//! chunk; merged with the previous chunk's partial sum and thresholded at
//! half the 1 s window, it yields the query vector `H` every 0.5 s.

use crate::device::CostSheet;

use super::lbp::CHUNK;

/// Streaming encoder state across 0.5 s chunks.
#[derive(Debug, Clone)]
pub struct GpuEncoder {
    words: usize,
    dim: usize,
    electrodes: usize,
    im1: Vec<Vec<u32>>,
    im2: Vec<Vec<u32>>,
    prev_half: Option<Vec<u16>>,
}

/// Output of one encoding-kernel launch.
#[derive(Debug, Clone)]
pub struct EncodeKernelOutput {
    /// The packed query vector `H`, once two half-windows are available.
    pub h: Option<Vec<u32>>,
    /// Work accounting.
    pub cost: CostSheet,
}

impl GpuEncoder {
    /// Creates an encoder from packed item memories.
    ///
    /// # Panics
    ///
    /// Panics if the memories are empty or disagree on word width.
    pub fn new(dim: usize, im1: Vec<Vec<u32>>, im2: Vec<Vec<u32>>) -> Self {
        let words = crate::pack::words_for(dim);
        assert!(!im1.is_empty() && !im2.is_empty(), "empty item memory");
        assert!(
            im1.iter().chain(im2.iter()).all(|v| v.len() == words),
            "item memory word width mismatch"
        );
        GpuEncoder {
            words,
            dim,
            electrodes: im2.len(),
            im1,
            im2,
            prev_half: None,
        }
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Electrode count.
    pub fn electrodes(&self) -> usize {
        self.electrodes
    }

    /// Shared-memory footprint of the two item memories in bytes
    /// (must fit the TX2's 64 kB per SM; §V-B).
    pub fn shared_footprint_bytes(&self) -> usize {
        (self.im1.len() + self.im2.len()) * self.words * 4
    }

    /// Processes one chunk of LBP codes (`codes[e][t]`, 256 samples).
    ///
    /// Returns `H` every call once warm (i.e. from the second chunk on).
    ///
    /// # Panics
    ///
    /// Panics if the code matrix shape is wrong.
    // Index loops deliberately mirror the CUDA thread/word mapping.
    #[allow(clippy::needless_range_loop)]
    pub fn encode_chunk(&mut self, codes: &[Vec<u8>]) -> EncodeKernelOutput {
        assert_eq!(codes.len(), self.electrodes, "one code row per electrode");
        assert!(
            codes.iter().all(|c| c.len() == CHUNK),
            "each electrode needs {CHUNK} codes"
        );
        let n = self.electrodes;
        let majority = (n / 2) as u32; // S bit set iff count > n/2
        let mut acc = vec![0u16; self.dim];
        for t in 0..CHUNK {
            for comp in 0..self.dim {
                let w = comp / 32;
                let b = comp % 32;
                let mut count = 0u32;
                for e in 0..n {
                    let bound = self.im2[e][w] ^ self.im1[codes[e][t] as usize][w];
                    count += (bound >> b) & 1;
                }
                acc[comp] += (count > majority) as u16;
            }
        }
        let h = self.prev_half.take().map(|prev| {
            let window = (CHUNK * 2) as u32;
            let mut packed = vec![0u32; self.words];
            for comp in 0..self.dim {
                let total = prev[comp] as u32 + acc[comp] as u32;
                if total > window / 2 {
                    packed[comp / 32] |= 1 << (comp % 32);
                }
            }
            packed
        });
        self.prev_half = Some(acc);

        // Accounting (per Fig. 2): 32 blocks × 32 threads; per sample each
        // thread processes ⌈n/32⌉ electrode groups of
        // (2 shared loads + XOR) then a transpose (~2 ops with ballot)
        // and popcount+add; plus threshold and accumulate.
        let groups = n.div_ceil(32) as u64;
        let per_thread_per_t = groups * (3 + 2 + 2) + 2;
        let threads = self.words as u64 * 32;
        let cost = CostSheet {
            thread_instructions: threads * CHUNK as u64 * per_thread_per_t + threads * 4, // H production
            // IMs are staged into shared memory once per launch.
            global_bytes: (self.shared_footprint_bytes()
                + n * CHUNK // codes
                + self.words * 4) as u64,
            shared_bytes: (CHUNK * n * self.words * 8) as u64,
            blocks: self.words as u64,
            threads_per_block: 32,
            syncs_per_block: CHUNK as u64,
        };
        EncodeKernelOutput { h, cost }
    }

    /// Clears streaming state.
    pub fn reset(&mut self) {
        self.prev_half = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_item_memory, unpack_hv};
    use laelaps_core::hv::{DenseAccumulator, ItemMemory};

    fn setup(dim: usize, electrodes: usize) -> (GpuEncoder, ItemMemory, ItemMemory) {
        let im1 = ItemMemory::new(64, dim, 11);
        let im2 = ItemMemory::new(electrodes, dim, 22);
        let enc = GpuEncoder::new(dim, pack_item_memory(&im1), pack_item_memory(&im2));
        (enc, im1, im2)
    }

    /// Dense reference: spatial majority then temporal threshold, built on
    /// laelaps-core accumulators.
    #[allow(clippy::needless_range_loop)] // mirrors the kernel's index mapping
    fn reference_h(
        codes_a: &[Vec<u8>],
        codes_b: &[Vec<u8>],
        im1: &ItemMemory,
        im2: &ItemMemory,
        dim: usize,
    ) -> laelaps_core::hv::Hypervector {
        let n = codes_a.len();
        let mut counts = vec![0u32; dim];
        for codes in [codes_a, codes_b] {
            for t in 0..CHUNK {
                let mut spatial = DenseAccumulator::new(dim);
                for e in 0..n {
                    spatial.add_xor(im2.get(e), im1.get(codes[e][t] as usize));
                }
                let s = spatial.majority();
                for (comp, c) in counts.iter_mut().enumerate() {
                    *c += s.get(comp) as u32;
                }
            }
        }
        let mut h = laelaps_core::hv::Hypervector::zero(dim);
        for (comp, &c) in counts.iter().enumerate() {
            if c > CHUNK as u32 {
                h.set(comp, true);
            }
        }
        h
    }

    fn random_codes(electrodes: usize, seed: u64) -> Vec<Vec<u8>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..electrodes)
            .map(|_| (0..CHUNK).map(|_| rng.gen_range(0..64u8)).collect())
            .collect()
    }

    #[test]
    fn first_chunk_yields_no_h() {
        let (mut enc, _, _) = setup(256, 4);
        let out = enc.encode_chunk(&random_codes(4, 1));
        assert!(out.h.is_none());
        let out2 = enc.encode_chunk(&random_codes(4, 2));
        assert!(out2.h.is_some());
    }

    #[test]
    fn matches_dense_reference_bit_for_bit() {
        for &(dim, n) in &[(128usize, 3usize), (256, 8), (320, 5)] {
            let (mut enc, im1, im2) = setup(dim, n);
            let a = random_codes(n, 3);
            let b = random_codes(n, 4);
            enc.encode_chunk(&a);
            let h = enc.encode_chunk(&b).h.expect("H after two chunks");
            let reference = reference_h(&a, &b, &im1, &im2, dim);
            assert_eq!(unpack_hv(&h, dim), reference, "dim {dim}, n {n}");
        }
    }

    #[test]
    fn shared_footprint_matches_paper_budget() {
        // §V-B: d = 1 kbit → IM1 64 kbit + IM2 (128 el) 128 kbit = 24 kB,
        // well inside the 64 kB shared memory.
        let (enc, _, _) = setup(1024, 128);
        assert_eq!(enc.shared_footprint_bytes(), (64 + 128) * 32 * 4);
        assert!(enc.shared_footprint_bytes() < 64 * 1024);
    }

    #[test]
    fn grid_shape_matches_paper() {
        // 32 blocks × 32 threads for d = 1 kbit.
        let (mut enc, _, _) = setup(1024, 16);
        let out = enc.encode_chunk(&random_codes(16, 5));
        assert_eq!(out.cost.blocks, 32);
        assert_eq!(out.cost.threads_per_block, 32);
    }

    #[test]
    fn reset_restarts_windowing() {
        let (mut enc, _, _) = setup(128, 2);
        enc.encode_chunk(&random_codes(2, 6));
        enc.reset();
        assert!(enc.encode_chunk(&random_codes(2, 7)).h.is_none());
    }
}
