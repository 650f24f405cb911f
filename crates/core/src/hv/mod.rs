//! Hyperdimensional (HD) computing primitives.
//!
//! This module implements the binary HD arithmetic the Laelaps paper builds
//! on (§II-B): bit-packed [`Hypervector`]s with XOR *binding* and Hamming
//! similarity, majority-rule *bundling* via [`DenseAccumulator`], and
//! seeded [`ItemMemory`] tables of atomic vectors. The streaming
//! [`crate::Encoder`] bundles with its own bit-sliced kernel, which the
//! tests check against [`DenseAccumulator`].
//!
//! # Examples
//!
//! Binding and bundling, end to end:
//!
//! ```
//! use laelaps_core::hv::{DenseAccumulator, ItemMemory};
//!
//! let codes = ItemMemory::new(64, 2000, 1); // IM1: one vector per LBP code
//! let elecs = ItemMemory::new(4, 2000, 2);  // IM2: one vector per electrode
//!
//! // Spatial record S = [E1⊕C(1) + E2⊕C(2) + E3⊕C(3) + E4⊕C(4)].
//! let mut acc = DenseAccumulator::new(2000);
//! for (e, code) in [(0, 13usize), (1, 13), (2, 40), (3, 63)] {
//!     acc.add_xor(elecs.get(e), codes.get(code));
//! }
//! let s = acc.majority();
//! assert_eq!(s.dim(), 2000);
//! ```

mod accum;
mod item_memory;
pub mod pack;
mod vector;

pub use accum::{DenseAccumulator, TiePolicy};
pub use item_memory::ItemMemory;
pub use pack::{limbs_for, pack_words, unpack_words, words_for, WORD_BITS};
pub use vector::{Hypervector, LIMB_BITS};
