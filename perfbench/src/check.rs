//! Checks a drive against a bare `Detector` per session and turns the
//! observations into window latencies.

use std::collections::BTreeMap;
use std::time::Duration;

use laelaps_core::{Detector, DetectorEvent};
use laelaps_eval::parallel::parallel_map;

use crate::cohort::Cohort;
use crate::drive::{Drive, Lane};
use crate::workload::{Spec, CHUNK_FRAMES};

/// The verdict on one drive.
#[derive(Debug, Default)]
pub struct Check {
    /// Everything that makes the run incorrect, one line each.
    pub problems: Vec<String>,
    pub offered_frames: u64,
    /// Dropped, refused or discarded frames, plus every processed frame
    /// of a session whose events differ from the reference.
    pub lost_frames: u64,
    /// Chunks offered and chunks counted lost.
    pub offered_chunks: u64,
    pub lost_chunks: u64,
    /// Window latencies, ns, sorted; a lost window reads `u64::MAX`.
    pub latencies_ns: Vec<u64>,
    pub lost_windows: u64,
}

impl Check {
    pub fn lost_frac(&self) -> f64 {
        self.lost_frames as f64 / self.offered_frames.max(1) as f64
    }

    /// The `p`-quantile (nearest rank) of the window latencies, ms;
    /// infinite when it falls on a lost window.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let v = &self.latencies_ns;
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        match v[rank - 1] {
            u64::MAX => f64::INFINITY,
            ns => ns as f64 / 1e6,
        }
    }
}

/// The `q`-quantile of `v`, linearly interpolated between order
/// statistics; NaN when empty.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v`; NaN when empty.
pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The reference event stream of one `(model, stream)` input, with the
/// event count after each chunk so any prefix can be cut from it.
struct Reference {
    events: Vec<DetectorEvent>,
    after_chunk: Vec<usize>,
}

fn reference(cohort: &Cohort, spec: &Spec, session: usize, positions: &[usize]) -> Reference {
    let (model, _) = spec.stream_of(session);
    let mut detector = Detector::new(&cohort.models[model]).expect("trained models are valid");
    let mut events = Vec::new();
    let mut after_chunk = Vec::with_capacity(positions.len());
    for &p in positions {
        for frame in cohort
            .chunk(spec, session, p)
            .chunks_exact(cohort.electrodes)
        {
            if let Some(event) = detector
                .push_frame(frame)
                .expect("frames have the model's width")
            {
                events.push(event);
            }
        }
        after_chunk.push(events.len());
    }
    Reference {
        events,
        after_chunk,
    }
}

/// Whether a lane received exactly the positions `0..n`.
fn contiguous(lane: &Lane) -> bool {
    lane.accepted.iter().enumerate().all(|(i, &p)| i == p)
}

/// Compares every session's events with a bare `Detector` fed the frames
/// that session accepted, checks the frame accounting, and derives the
/// window latencies. References run on up to `threads` threads; sessions
/// sharing an input share one reference run.
pub fn check(spec: &Spec, cohort: &Cohort, drive: &Drive, threads: usize) -> Check {
    // One job per distinct input: a `(model, stream)` fed contiguously
    // from position 0 (as long as its longest session), or a lane of its
    // own when the service dropped some of its chunks.
    let mut jobs: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut by_stream = BTreeMap::new();
    let mut job_of = vec![0; drive.lanes.len()];
    for (s, lane) in drive.lanes.iter().enumerate() {
        let n = lane.accepted.len();
        job_of[s] = if contiguous(lane) {
            let j = *by_stream.entry(spec.stream_of(s)).or_insert_with(|| {
                jobs.push((s, Vec::new()));
                jobs.len() - 1
            });
            if jobs[j].1.len() < n {
                jobs[j].1 = (0..n).collect();
            }
            j
        } else {
            jobs.push((s, lane.accepted.clone()));
            jobs.len() - 1
        };
    }
    let references = parallel_map(&jobs, threads, |(rep, positions)| {
        reference(cohort, spec, *rep, positions)
    });

    let mut check = Check::default();
    for (s, lane) in drive.lanes.iter().enumerate() {
        let reference = &references[job_of[s]];
        let n = lane.accepted.len();
        let expected =
            &reference.events[..n.checked_sub(1).map_or(0, |i| reference.after_chunk[i])];
        let st = &lane.stats;
        let offered = (lane.offered * CHUNK_FRAMES) as u64;
        check.offered_frames += offered;
        check.offered_chunks += lane.offered as u64;
        let mut lost = st.frames_dropped + st.frames_refused + st.frames_discarded;
        if lane.events.as_slice() != expected {
            let at = lane
                .events
                .iter()
                .zip(expected)
                .position(|(a, b)| a != b)
                .unwrap_or(lane.events.len().min(expected.len()));
            check.problems.push(format!(
                "session {s}: {} events, reference {}; first difference at event {at}",
                lane.events.len(),
                expected.len()
            ));
            lost += st.frames_processed;
        }
        if st.frames_in + st.frames_dropped + st.frames_refused != offered
            || st.frames_in != st.frames_processed + st.frames_discarded
            || st.frames_in != (n * CHUNK_FRAMES) as u64
        {
            check.problems.push(format!(
                "session {s}: accounting broken: offered {offered}, in {}, processed {}, \
                 discarded {}, dropped {}, refused {}, accepted chunks {n}",
                st.frames_in,
                st.frames_processed,
                st.frames_discarded,
                st.frames_dropped,
                st.frames_refused
            ));
        }
        check.lost_frames += lost;
        check.lost_chunks += lost.div_ceil(CHUNK_FRAMES as u64);

        // Window latency: from when the chunk holding the window's last
        // sample was due to the first observation that included it.
        for (i, event) in lane.events.iter().enumerate() {
            let chunk = (event.end_sample / CHUNK_FRAMES as u64) as usize;
            let j = lane.seen.partition_point(|&(count, _)| count <= i);
            let (Some(&due), Some(&(_, seen))) = (lane.due.get(chunk), lane.seen.get(j)) else {
                check
                    .problems
                    .push(format!("session {s}: event {i} was never observed"));
                continue;
            };
            check
                .latencies_ns
                .push(seen.saturating_duration_since(due).as_nanos() as u64);
        }
        // A chunk that never entered the ring takes its window with it.
        let lost_windows = (lane.offered - n) as u64;
        check.lost_windows += lost_windows;
        check
            .latencies_ns
            .extend(std::iter::repeat_n(u64::MAX, lost_windows as usize));
    }
    check.latencies_ns.sort_unstable();
    check
}

/// Quantile `p` of durations, ms; 0 for none.
pub fn quantile_ms(values: &[Duration], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile(values.iter().map(|d| d.as_secs_f64() * 1e3).collect(), p)
}
