//! A test-side reference of the wire's frame checksum, written from its
//! definition (the `wire` module docs) rather than from the streaming
//! code that seals and verifies real frames, plus helpers that seal
//! hand-built or hand-patched frames with it.

use laelaps_serve::wire::CHECKSUM_LEN;

/// Lane starting states, the fold seed and the odd multiplier, as
/// documented.
const LANE_SEEDS: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];
const FOLD_SEED: u64 = 0x510e_527f_ade6_82d1;
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

fn step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(LANE_MUL);
    x ^ (x >> 32)
}

/// The checksum of `bytes` (a frame's header and payload): zero-pad to
/// whole 8-byte words, step lane `i % 4` with little-endian word `i`,
/// then fold the four lanes in order.
pub fn frame_digest(bytes: &[u8]) -> u64 {
    let mut padded = bytes.to_vec();
    padded.resize(bytes.len().div_ceil(8) * 8, 0);
    let mut lanes = LANE_SEEDS;
    for (i, word) in padded.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(word.try_into().unwrap());
        lanes[i % 4] = step(lanes[i % 4], word);
    }
    lanes.into_iter().fold(FOLD_SEED, step)
}

/// Appends the checksum over the current frame bytes (for hand-built
/// frames).
pub fn seal(frame: &mut Vec<u8>) {
    let digest = frame_digest(frame);
    frame.extend_from_slice(&digest.to_le_bytes());
}

/// Recomputes and replaces the trailing checksum of a hand-patched frame.
pub fn reseal(frame: &mut Vec<u8>) {
    frame.truncate(frame.len() - CHECKSUM_LEN);
    seal(frame);
}
