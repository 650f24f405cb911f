//! The encode kernel: spatial and temporal bundling as bit-sliced
//! circuits over groups of four 64-bit limbs.
//!
//! A [`Group`] holds 256 consecutive components as four limbs; every
//! circuit below computes all 256 at once, and a group's counters fit in
//! registers. The item memories are stored once, group-major and
//! zero-padded to whole groups, so the slice of IM1 and IM2 that one group
//! reads (`2^ℓ + n` entries of 32 bytes) stays in L1 for a whole pass.
//!
//! For one frame and one group, the spatial record is
//!
//! 1. **gathered**: electrode `e`'s bound word `IM2[e] ^ IM1[code(e)]`;
//! 2. **counted**: bound words enter a bit-sliced counter, plane `k`
//!    holding bit `k` of every component's count, four at a time: two
//!    carry-save adders (CSAs) fold four words into plane 0, a third
//!    folds their two carries into plane 1, and its carry ripples up from
//!    plane 2. The last `n mod 4` words go in as a pair (a CSA into plane
//!    0, its carry rippled from plane 1), a single word (rippled from
//!    plane 0), or both;
//! 3. **thresholded**: a constant compare of the counter against the
//!    strict majority `n/2 + 1`, plus the tie-break vector's bit where
//!    exactly `n/2` electrodes agree under [`TiePolicy::TieBreakVector`].
//!
//! [`Kernel::half_window`] runs this for every buffered frame of a half
//! window, group by group, and counts the records in a 4-plane counter
//! flushed every 15 frames into the half window's count. Both counters
//! are local variables. The window vector is then `H = prev + cur > hop`,
//! a bit-sliced add and compare.
//!
//! # Lanes
//!
//! The circuit is written once, over `Group`'s four limbs, and compiled
//! once per lane:
//!
//! - **portable**: the target's baseline instructions. It is the
//!   reference every other lane matches bit for bit, and the only lane on
//!   targets other than x86-64; on aarch64 it already compiles to NEON,
//!   which is baseline there.
//! - **AVX2** (x86-64): the same functions compiled again under
//!   `#[target_feature(enable = "avx2")]`, where each `Group` operation
//!   becomes one 256-bit `vpxor`, `vpand` or `vpor`.
//!
//! A [`Kernel`] picks its lane once, in [`Kernel::new`], from what the
//! running CPU reports, never from a setting, and both entry points run
//! on it. The circuit is `#[inline(always)]` throughout, so each lane's
//! entry point holds its own copy of it. There is no lane trait and no
//! `std::arch` intrinsic: the compiler already emits one instruction per
//! operation, and a hand-written `Group` per lane would only repeat the
//! circuit.

use std::ops::{BitAnd, BitOr, BitXor};

use crate::hv::{Hypervector, ItemMemory, TiePolicy, LIMB_BITS};
use crate::lbp::LbpCode;

/// Limbs per [`Group`].
const GROUP_LIMBS: usize = 4;

/// Planes of the spatial counter for up to 15 electrodes: the
/// small-montage path, whose whole counter stays in registers.
const SMALL_PLANES: usize = 4;

/// Planes of the spatial counter for more electrodes.
const WIDE_PLANES: usize = 16;

/// The most electrodes the spatial counter can count.
pub(super) const MAX_ELECTRODES: usize = (1 << WIDE_PLANES) - 1;

/// Planes of the temporal pre-counter, which holds up to 15 frames.
const PENDING_PLANES: usize = 4;
const FLUSH_EVERY: usize = (1 << PENDING_PLANES) - 1;

/// Planes a half-window count may need: any hop fits a `usize`.
const COUNT_PLANES: usize = usize::BITS as usize;

/// 256 components, one bit each, as four limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Group([u64; GROUP_LIMBS]);

impl Group {
    pub(super) const ZERO: Group = Group([0; GROUP_LIMBS]);
    const ONES: Group = Group([u64::MAX; GROUP_LIMBS]);

    /// Up to four limbs; missing ones are zero padding.
    fn load(limbs: &[u64]) -> Group {
        let mut group = Group::ZERO;
        group.0[..limbs.len()].copy_from_slice(limbs);
        group
    }

    /// Writes the first `out.len()` (at most four) limbs.
    #[inline(always)]
    fn store(self, out: &mut [u64]) {
        out.copy_from_slice(&self.0[..out.len()]);
    }
}

macro_rules! limbwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Group {
            type Output = Group;

            #[inline(always)]
            fn $method(self, rhs: Group) -> Group {
                let [a, b, c, d] = self.0;
                let [e, f, g, h] = rhs.0;
                Group([a $op e, b $op f, c $op g, d $op h])
            }
        }
    };
}

limbwise!(BitAnd, bitand, &);
limbwise!(BitOr, bitor, |);
limbwise!(BitXor, bitxor, ^);

/// Carry-save adder: `sum + 2·carry = a + b + c` per component.
#[inline(always)]
fn csa(a: Group, b: Group, c: Group) -> (Group, Group) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Adds the one-bit `w` into the bit-sliced counter `count`. A carry out
/// of the top plane is dropped, so the total must fit.
#[inline(always)]
fn ripple(count: &mut [Group], mut w: Group) {
    for plane in count {
        let carry = *plane & w;
        *plane = *plane ^ w;
        w = carry;
    }
}

/// Bit `k` of `t`.
#[inline(always)]
fn bit(t: usize, k: usize) -> bool {
    k < usize::BITS as usize && (t >> k) & 1 == 1
}

/// One step of a compare against a constant, least significant bit
/// first: `ge` says whether the bits below compare `≥`, `p` is the
/// counter's next bit and `t_bit` the constant's.
#[inline(always)]
fn ge_step(ge: Group, p: Group, t_bit: bool) -> Group {
    if t_bit {
        p & ge
    } else {
        p | ge
    }
}

/// Per component, whether the bit-sliced `count` is at least `t`
/// (`t < 2^count.len()`).
#[inline(always)]
fn at_least(count: &[Group], t: usize) -> Group {
    count
        .iter()
        .enumerate()
        .fold(Group::ONES, |ge, (k, &p)| ge_step(ge, p, bit(t, k)))
}

/// Adds the pre-counter `pending` into the bit-sliced `count`; the sum
/// must fit.
#[inline(always)]
fn add_pending(count: &mut [Group], pending: &[Group; PENDING_PLANES]) {
    let mut carry = Group::ZERO;
    for (k, plane) in count.iter_mut().enumerate() {
        let addend = pending.get(k).copied().unwrap_or(Group::ZERO);
        (*plane, carry) = csa(*plane, addend, carry);
    }
}

/// Per component, whether `a + b > bound`, for bit-sliced counts of equal
/// width whose sum fits one more plane.
#[inline(always)]
fn sum_exceeds(a: &[Group], b: &[Group], bound: usize) -> Group {
    let target = bound + 1;
    let mut carry = Group::ZERO;
    let mut ge = Group::ONES;
    for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
        let (sum, next) = csa(x, y, carry);
        carry = next;
        ge = ge_step(ge, sum, bit(target, k));
    }
    ge_step(ge, carry, bit(target, a.len()))
}

/// Planes of a bit-sliced count of at most `max`.
pub(super) fn planes_for(max: usize) -> usize {
    (usize::BITS - max.leading_zeros()) as usize
}

/// Where a kernel's circuit runs: the one circuit, compiled for the
/// target's baseline or for a wider instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// The target's baseline instructions: the reference lane.
    Portable,
    /// 256-bit AVX2 registers, one per `Group`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Lane {
    /// The widest lane the running CPU supports.
    fn detect() -> Lane {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Lane::Avx2;
        }
        Lane::Portable
    }

    /// Every lane the running CPU supports, the reference first.
    #[cfg(test)]
    fn supported() -> Vec<Lane> {
        let mut lanes = vec![Lane::Portable, Lane::detect()];
        lanes.dedup();
        lanes
    }
}

/// The item memories in the kernel's layout, the spatial majority rule,
/// and the lane the circuit runs on.
#[derive(Debug, Clone)]
pub(super) struct Kernel {
    /// IM1: entry `g * symbols + c` is group `g` of code `c`'s vector.
    codes: Box<[Group]>,
    /// IM2: entry `g * n + e` is group `g` of electrode `e`'s vector.
    electrodes: Box<[Group]>,
    /// The tie-break vector, one entry per group.
    tie: Box<[Group]>,
    symbols: usize,
    n: usize,
    /// Planes of the spatial count of `n` electrodes.
    planes: usize,
    /// `Some(n / 2)` when exact ties can occur and take the tie vector's
    /// bit; otherwise they go to 0.
    tie_at: Option<usize>,
    /// Chosen once, from the running CPU.
    lane: Lane,
}

impl Kernel {
    /// Lays out the item memories, which must share one dimension, for
    /// the widest lane the running CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if `im_electrodes` holds more than [`MAX_ELECTRODES`]
    /// vectors.
    pub(super) fn new(
        im_codes: &ItemMemory,
        im_electrodes: &ItemMemory,
        tie: &Hypervector,
        policy: TiePolicy,
    ) -> Kernel {
        let n = im_electrodes.len();
        assert!(
            n <= MAX_ELECTRODES,
            "{n} electrodes overflow the spatial counter"
        );
        let groups = tie.dim().div_ceil(LIMB_BITS * GROUP_LIMBS);
        let group_major = |vectors: &[&Hypervector]| -> Box<[Group]> {
            let mut out = vec![Group::ZERO; groups * vectors.len()];
            for (i, v) in vectors.iter().enumerate() {
                for (g, limbs) in v.limbs().chunks(GROUP_LIMBS).enumerate() {
                    out[g * vectors.len() + i] = Group::load(limbs);
                }
            }
            out.into_boxed_slice()
        };
        Kernel {
            codes: group_major(&im_codes.iter().collect::<Vec<_>>()),
            electrodes: group_major(&im_electrodes.iter().collect::<Vec<_>>()),
            tie: group_major(&[tie]),
            symbols: im_codes.len(),
            n,
            planes: planes_for(n),
            tie_at: (policy == TiePolicy::TieBreakVector && n.is_multiple_of(2)).then_some(n / 2),
            lane: Lane::detect(),
        }
    }

    /// [`Kernel::new`] on `lane`, which must be one of
    /// [`Lane::supported`].
    #[cfg(test)]
    fn on_lane(
        lane: Lane,
        im_codes: &ItemMemory,
        im_electrodes: &ItemMemory,
        tie: &Hypervector,
        policy: TiePolicy,
    ) -> Kernel {
        assert!(Lane::supported().contains(&lane), "{lane:?} is unsupported");
        Kernel {
            lane,
            ..Kernel::new(im_codes, im_electrodes, tie, policy)
        }
    }

    /// Groups per vector.
    pub(super) fn groups(&self) -> usize {
        self.tie.len()
    }

    /// Whether the small-montage counter can count every electrode.
    fn small(&self) -> bool {
        self.planes <= SMALL_PLANES
    }

    /// Group `g` of one frame's spatial record: the majority of the
    /// electrodes' bound words. `K` bounds the counter's planes at
    /// compile time, so that the small-montage counter lives in
    /// registers.
    #[inline(always)]
    fn record<const K: usize>(&self, g: usize, frame: &[LbpCode]) -> Group {
        let codes = &self.codes[g * self.symbols..][..self.symbols];
        let electrodes = &self.electrodes[g * self.n..][..self.n];
        let mut planes = [Group::ZERO; K];
        let used = if K == SMALL_PLANES { K } else { self.planes };
        let count = &mut planes[..used];
        let bind = |e: Group, c: LbpCode| e ^ codes[usize::from(c)];
        // Four words need three planes, which every counter of four or
        // more electrodes has.
        for (e, c) in electrodes.chunks_exact(4).zip(frame.chunks_exact(4)) {
            let (sum, low) = csa(count[0], bind(e[0], c[0]), bind(e[1], c[1]));
            let (sum, high) = csa(sum, bind(e[2], c[2]), bind(e[3], c[3]));
            count[0] = sum;
            let (sum, carry) = csa(count[1], low, high);
            count[1] = sum;
            ripple(&mut count[2..], carry);
        }
        let tail = self.n - self.n % 4;
        let mut bound = electrodes[tail..]
            .iter()
            .zip(&frame[tail..])
            .map(|(&e, &c)| bind(e, c));
        while let Some(a) = bound.next() {
            match bound.next() {
                Some(b) => {
                    let (sum, carry) = csa(count[0], a, b);
                    count[0] = sum;
                    ripple(&mut count[1..], carry);
                }
                None => ripple(count, a),
            }
        }
        let strict = at_least(count, self.n / 2 + 1);
        match self.tie_at {
            Some(half) => strict | (at_least(count, half) & self.tie[g]),
            None => strict,
        }
    }

    /// Writes one frame's spatial record into `out`, the record's limbs.
    pub(super) fn spatial(&self, frame: &[LbpCode], out: &mut [u64]) {
        match self.lane {
            Lane::Portable => self.spatial_circuit(frame, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Lane::Avx2` is chosen only after
            // `is_x86_feature_detected!("avx2")` returned true.
            Lane::Avx2 => unsafe { self.spatial_avx2(frame, out) },
        }
    }

    /// Bundles one half window. `frames` holds `hop` rows of one code per
    /// electrode. `prev` holds the previous half window's bit-sliced
    /// counts, `planes_for(hop)` planes per group, and receives this
    /// one's. When `h` is given it receives the window vector's limbs,
    /// `H = prev + this > hop`.
    pub(super) fn half_window(
        &self,
        frames: &[LbpCode],
        hop: usize,
        prev: &mut [Group],
        h: Option<&mut [u64]>,
    ) {
        match self.lane {
            Lane::Portable => self.half_window_circuit(frames, hop, prev, h),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Lane::Avx2` is chosen only after
            // `is_x86_feature_detected!("avx2")` returned true.
            Lane::Avx2 => unsafe { self.half_window_avx2(frames, hop, prev, h) },
        }
    }

    /// [`Kernel::spatial`] on the AVX2 lane.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn spatial_avx2(&self, frame: &[LbpCode], out: &mut [u64]) {
        self.spatial_circuit(frame, out);
    }

    /// [`Kernel::half_window`] on the AVX2 lane.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn half_window_avx2(
        &self,
        frames: &[LbpCode],
        hop: usize,
        prev: &mut [Group],
        h: Option<&mut [u64]>,
    ) {
        self.half_window_circuit(frames, hop, prev, h);
    }

    /// [`Kernel::spatial`]'s circuit, compiled into its caller's lane.
    #[inline(always)]
    fn spatial_circuit(&self, frame: &[LbpCode], out: &mut [u64]) {
        for (g, limbs) in out.chunks_mut(GROUP_LIMBS).enumerate() {
            let record = if self.small() {
                self.record::<SMALL_PLANES>(g, frame)
            } else {
                self.record::<WIDE_PLANES>(g, frame)
            };
            record.store(limbs);
        }
    }

    /// [`Kernel::half_window`]'s circuit, compiled into its caller's lane.
    #[inline(always)]
    fn half_window_circuit(
        &self,
        frames: &[LbpCode],
        hop: usize,
        prev: &mut [Group],
        h: Option<&mut [u64]>,
    ) {
        if self.small() {
            self.bundle::<SMALL_PLANES>(frames, hop, prev, h);
        } else {
            self.bundle::<WIDE_PLANES>(frames, hop, prev, h);
        }
    }

    #[inline(always)]
    fn bundle<const K: usize>(
        &self,
        frames: &[LbpCode],
        hop: usize,
        prev: &mut [Group],
        mut h: Option<&mut [u64]>,
    ) {
        let planes = planes_for(hop);
        assert_eq!(frames.len(), hop * self.n, "one row of codes per frame");
        assert_eq!(prev.len(), self.groups() * planes, "one count per group");
        for (g, prev) in prev.chunks_exact_mut(planes).enumerate() {
            let mut count = [Group::ZERO; COUNT_PLANES];
            let count = &mut count[..planes];
            let mut pending = [Group::ZERO; PENDING_PLANES];
            let mut until_flush = FLUSH_EVERY;
            for frame in frames.chunks_exact(self.n) {
                ripple(&mut pending, self.record::<K>(g, frame));
                until_flush -= 1;
                if until_flush == 0 {
                    add_pending(count, &pending);
                    pending = [Group::ZERO; PENDING_PLANES];
                    until_flush = FLUSH_EVERY;
                }
            }
            add_pending(count, &pending);
            if let Some(h) = h.as_deref_mut() {
                let start = g * GROUP_LIMBS;
                let end = h.len().min(start + GROUP_LIMBS);
                sum_exceeds(prev, count, hop).store(&mut h[start..end]);
            }
            prev.copy_from_slice(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Bit-sliced planes holding `counts[i]` at component `i`.
    fn planes_of(counts: &[usize], planes: usize) -> Vec<Group> {
        (0..planes)
            .map(|k| {
                let mut g = Group::ZERO;
                for (i, &c) in counts.iter().enumerate() {
                    g.0[i / 64] |= (((c >> k) & 1) as u64) << (i % 64);
                }
                g
            })
            .collect()
    }

    fn component(g: Group, i: usize) -> bool {
        (g.0[i / 64] >> (i % 64)) & 1 == 1
    }

    #[test]
    fn compare_and_sum_circuits_match_integer_arithmetic() {
        let a: Vec<usize> = (0..256).map(|i| (i * 37) % 256).collect();
        let b: Vec<usize> = (0..256).map(|i| (i * 91 + 5) % 256).collect();
        let (pa, pb) = (planes_of(&a, 8), planes_of(&b, 8));
        for t in [1usize, 2, 100, 128, 255] {
            let ge = at_least(&pa, t);
            let gt = sum_exceeds(&pa, &pb, t);
            for i in 0..a.len() {
                assert_eq!(component(ge, i), a[i] >= t, "{} >= {t}", a[i]);
                assert_eq!(
                    component(gt, i),
                    a[i] + b[i] > t,
                    "{} + {} > {t}",
                    a[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn pending_flush_adds_counts() {
        let counts: Vec<usize> = (0..256).map(|i| i % 200).collect();
        let small: Vec<usize> = (0..256).map(|i| i % 16).collect();
        let mut count = planes_of(&counts, 9);
        let pending: [Group; PENDING_PLANES] = planes_of(&small, PENDING_PLANES)
            .try_into()
            .expect("four planes");
        add_pending(&mut count, &pending);
        let sums: Vec<usize> = counts.iter().zip(&small).map(|(a, b)| a + b).collect();
        assert_eq!(count, planes_of(&sums, 9));
    }

    /// Everything `kernel` writes for two half windows of codes, `a` and
    /// `b`: the spatial records of `a`'s first three rows, then
    /// `half_window` unprimed and primed, each with `h` unset and set.
    fn outputs(kernel: &Kernel, dim: usize, hop: usize, a: &[LbpCode], b: &[LbpCode]) -> Vec<u64> {
        let limbs = dim.div_ceil(LIMB_BITS);
        let mut out = Vec::new();
        let mut record = vec![0; limbs];
        for frame in a.chunks_exact(kernel.n).take(3) {
            kernel.spatial(frame, &mut record);
            out.extend_from_slice(&record);
        }
        let zero = vec![Group::ZERO; kernel.groups() * planes_for(hop)];
        let mut h = vec![0; limbs];
        let mut prev = zero.clone();
        for (frames, with_h) in [(a, false), (b, true), (a, false)] {
            kernel.half_window(frames, hop, &mut prev, with_h.then_some(&mut h[..]));
            out.extend(prev.iter().flat_map(|g| g.0));
            out.extend_from_slice(&h);
        }
        let mut prev = zero;
        kernel.half_window(b, hop, &mut prev, Some(&mut h));
        out.extend(prev.iter().flat_map(|g| g.0));
        out.extend_from_slice(&h);
        out
    }

    #[test]
    fn every_supported_lane_matches_the_portable_lane_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(26);
        for dim in [64, 200, 1000, 10000] {
            // Both counter widths: up to 15 electrodes, and more.
            for electrodes in [1, 2, 12, 15, 16, 128] {
                let im_codes = ItemMemory::new(64, dim, rng.gen());
                let im_electrodes = ItemMemory::new(electrodes, dim, rng.gen());
                let tie = Hypervector::random(dim, &mut rng);
                for policy in [TiePolicy::ZeroOnTie, TiePolicy::TieBreakVector] {
                    let kernel =
                        |lane| Kernel::on_lane(lane, &im_codes, &im_electrodes, &tie, policy);
                    let reference = kernel(Lane::Portable);
                    // The 15-frame pending flush lands on both sides of the
                    // last frame.
                    for hop in [1, 14, 15, 16, 256] {
                        let mut codes = || -> Vec<LbpCode> {
                            (0..hop * electrodes)
                                .map(|_| rng.gen_range(0..64))
                                .collect()
                        };
                        let (a, b) = (codes(), codes());
                        let want = outputs(&reference, dim, hop, &a, &b);
                        for lane in Lane::supported() {
                            assert_eq!(
                                outputs(&kernel(lane), dim, hop, &a, &b),
                                want,
                                "{lane:?}: d = {dim}, {electrodes} electrodes, {policy:?}, hop {hop}"
                            );
                        }
                    }
                }
            }
        }
    }
}
