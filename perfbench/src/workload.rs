//! The three workloads and the metric catalogues they report.

/// Frames per pushed chunk: 0.5 s of signal, one window hop.
pub const CHUNK_FRAMES: usize = 256;
/// Sample rate of the synthetic patients, Hz.
pub const SAMPLE_RATE: usize = 512;

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Push the next chunk as soon as the session has room for it.
    Closed,
    /// Push on a fixed schedule, whatever the service does, at this many
    /// frames per second in total, arrivals staggered evenly across
    /// sessions.
    Open { frames_per_s: f64 },
}

/// How chunks reach the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// `SessionHandle` pushes in this process.
    InProcess,
    /// One `IngestClient` connection per session over loopback TCP,
    /// models resolved through a `ModelRegistry`.
    Tcp,
}

/// One workload: everything the run derives its inputs from, besides the
/// seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Hypervector dimension d.
    pub dim: usize,
    pub sessions: usize,
    /// Distinct trained patient models; session `s` runs model
    /// `s % models`.
    pub models: usize,
    /// Distinct chunk streams per model. Sessions that share a model and
    /// a stream receive identical frames, so one bare `Detector` run is
    /// the reference for all of them.
    pub streams_per_model: usize,
    pub arrival: Arrival,
    pub transport: Transport,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Chunks of the workload's own stream replayed through each core
    /// layer on one thread in the traced run.
    pub replay_chunks: usize,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["golden-closed", "deploy-open", "deploy-tcp"];

/// The full-size workload called `name`, or `None` for an unknown name.
/// `nproc` sizes the worker pool and the TCP session count.
pub fn spec(name: &str, nproc: usize) -> Option<Spec> {
    let spec = match name {
        // d = 10000, encode-bound: per-session item memories overflow L2.
        "golden-closed" => Spec {
            name: "golden-closed",
            dim: 10_000,
            sessions: 64,
            models: 4,
            streams_per_model: 2,
            arrival: Arrival::Closed,
            transport: Transport::InProcess,
            setup_repeats: 3,
            replay_chunks: 192,
        },
        // d = 1000 at 4x real time per session (256 x 4 x 512 frames/s):
        // workers mostly idle even when neighbours on a shared host slow
        // the machine down. At 8x real time (1.05M frames/s) a slowed
        // 2-CPU machine saturated and the backlog grew.
        "deploy-open" => Spec {
            name: "deploy-open",
            dim: 1_000,
            sessions: 256,
            models: 4,
            streams_per_model: 4,
            arrival: Arrival::Open {
                frames_per_s: (256 * 4 * SAMPLE_RATE) as f64,
            },
            transport: Transport::InProcess,
            setup_repeats: 5,
            replay_chunks: 768,
        },
        // d = 1000 over loopback TCP, one connection per worker.
        "deploy-tcp" => Spec {
            name: "deploy-tcp",
            dim: 1_000,
            sessions: nproc.max(1),
            models: nproc.clamp(1, 4),
            streams_per_model: 1,
            arrival: Arrival::Closed,
            transport: Transport::Tcp,
            setup_repeats: 5,
            replay_chunks: 768,
        },
        _ => return None,
    };
    Some(spec)
}

impl Spec {
    /// The same workload shrunk for the self-tests: few sessions and
    /// models, a short replay, one set-up.
    #[cfg(test)]
    pub fn smoke(mut self) -> Spec {
        self.sessions = self.sessions.min(4);
        self.models = self.models.min(2);
        self.streams_per_model = 1;
        self.setup_repeats = 1;
        self.replay_chunks = 8;
        if let Arrival::Open { .. } = self.arrival {
            self.arrival = Arrival::Open {
                frames_per_s: (self.sessions * 4 * SAMPLE_RATE) as f64,
            };
        }
        self
    }

    /// `(model, stream)` of session `s`.
    pub fn stream_of(&self, session: usize) -> (usize, usize) {
        (
            session % self.models,
            (session / self.models) % self.streams_per_model,
        )
    }
}

/// A reported metric: its name, its unit, and for a per-layer metric the
/// end-to-end metrics and workloads it is predicted to move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        moves: "",
    }
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef { name, unit, moves }
}

/// What an untraced run (`--trace 0`) reports, on every workload, over
/// the whole measured phase. Latency tails (p90, p99) go to the report
/// line only: on a shared host, scheduling hiccups moved the p90 of
/// whole runs by up to 3x between runs.
pub const END_TO_END: &[MetricDef] = &[
    m("frames_per_s", "1/s"),
    m("window_latency_p50_ms", "ms"),
    m("cpu_us_per_frame", "us"),
    m("delivered_frac", "frac"),
    m("rss_mb", "MB"),
    m("setup_s", "s"),
];

const ENCODE: &str = "frames_per_s on golden-closed most, on deploy-tcp less; \
                      cpu_us_per_frame on deploy-open";
const NOTHING: &str = "no end-to-end metric on any workload";
const SERVE: &str = "window_latency_* and cpu_us_per_frame on deploy-open; \
                     little on golden-closed";
const WIRE: &str = "frames_per_s and cpu_us_per_frame on deploy-tcp only";
const SETUP: &str = "setup_s";

/// What a traced run (`--trace 1`) reports, on every workload. A layer a
/// workload does not exercise (wire and net in process, persist without
/// a registry, generator lag in closed loop) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("lbp.ns_per_frame", "ns", ENCODE),
    layer("spatial.ns_per_frame", "ns", ENCODE),
    layer("temporal.ns_per_frame", "ns", ENCODE),
    layer("encode.ns_per_frame", "ns", ENCODE),
    layer("encode.allocs_per_frame", "count", ENCODE),
    layer("classify.ns_per_window", "ns", NOTHING),
    layer("postprocess.ns_per_window", "ns", NOTHING),
    layer("detector.ns_per_frame", "ns", ENCODE),
    layer("detector.allocs_per_frame", "count", ENCODE),
    layer("serve.push_ns_per_chunk", "ns", SERVE),
    layer("serve.push_full_frac", "frac", SERVE),
    layer("serve.open_session_us", "us", SETUP),
    layer("serve.flush_ms", "ms", SERVE),
    layer("serve.overhead_ns_per_frame", "ns", SERVE),
    layer("wire.encode_ns_per_chunk", "ns", WIRE),
    layer("wire.decode_ns_per_chunk", "ns", WIRE),
    layer("wire.bytes_per_frame", "B", WIRE),
    layer("net.send_ns_per_chunk", "ns", WIRE),
    layer("net.throttles", "count", WIRE),
    layer("train.s_per_model", "s", SETUP),
    layer("persist.save_ms", "ms", SETUP),
    layer("persist.load_ms", "ms", SETUP),
    layer(
        "gen.lag_p99_ms",
        "ms",
        "validity of deploy-open: a run lagging half a session interval is invalid",
    ),
    layer(
        "ledger.unattributed_ns_per_frame",
        "ns",
        "the residual of workers x wall the layers above do not explain",
    ),
    layer(
        "trace.frames_per_s",
        "1/s",
        "frames_per_s of the traced drive; against the untraced drive it gives the overhead",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        "none: the cost of the benchmark's own spans",
    ),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
        .map(|def| def.unit)
}
