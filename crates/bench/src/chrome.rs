//! Chrome trace-event export for the serving stack's per-chunk traces.
//!
//! Converts a [`laelaps_serve::TraceSnapshot`] (in process) or the spans
//! of a wire `TraceDump` (via `laelapsctl`) into the Chrome trace-event
//! JSON format — a `traceEvents` array of complete (`"ph": "X"`) spans —
//! which loads directly into Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. The mapping keeps the attribution visible in the
//! UI without any post-processing:
//!
//! * **process (`pid`)** = worker shard — each shard gets its own track
//!   group, so cross-shard load imbalance is visible at a glance;
//! * **thread (`tid`)** = session id — one row per session within its
//!   shard;
//! * **span name** = pipeline stage (`wire_decode`, `ring_wait`,
//!   `drain`, …), with the trace id, model generation, and pin reason
//!   (if the trace was pinned) in `args` for the selection panel.
//!
//! Timestamps are microseconds since the tracer's epoch (Chrome's native
//! `ts` unit), so spans of one chunk line up end to end across stages.

use laelaps_serve::wire::WireSpan;
use laelaps_serve::{PinReason, Stage, TraceSnapshot};

use crate::json::Json;

/// One span row ready for export: a decoded stage name plus the raw
/// attribution, independent of whether it came from an in-process
/// snapshot or over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSpan {
    /// Stage name (`"wire_decode"`, …; `"stage_<n>"` for discriminants
    /// this build does not know — a newer peer's stages still export).
    pub name: String,
    /// Worker shard (Chrome `pid`).
    pub shard: u16,
    /// Session id (Chrome `tid`).
    pub session: u64,
    /// Trace id the span belongs to.
    pub trace_id: u64,
    /// Model generation the session was running.
    pub generation: u32,
    /// Pin reason name if the span's trace was pinned.
    pub pin: Option<&'static str>,
    /// Span start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// Flattens an in-process trace snapshot into export rows (every
/// retained span, oldest first).
pub fn snapshot_spans(snapshot: &TraceSnapshot) -> Vec<ChromeSpan> {
    snapshot
        .spans
        .iter()
        .map(|span| ChromeSpan {
            name: span.stage.name().to_string(),
            shard: span.shard,
            session: span.session,
            trace_id: span.trace_id,
            generation: span.generation,
            pin: snapshot.pin_reason(span.trace_id).map(PinReason::name),
            start_us: span.start_us,
            dur_us: span.dur_us,
        })
        .collect()
}

/// Flattens the spans of a wire `TraceDump` into export rows.
pub fn wire_spans(spans: &[WireSpan]) -> Vec<ChromeSpan> {
    spans
        .iter()
        .map(|span| ChromeSpan {
            name: Stage::ALL
                .get(span.stage as usize)
                .map_or_else(|| format!("stage_{}", span.stage), |s| s.name().to_string()),
            shard: span.shard,
            session: span.session,
            trace_id: span.trace_id,
            generation: span.generation,
            pin: PinReason::from_raw(span.pin).map(PinReason::name),
            start_us: span.start_us,
            dur_us: span.dur_us,
        })
        .collect()
}

/// Renders export rows as a Chrome trace-event JSON document.
pub fn trace_document(spans: &[ChromeSpan]) -> Json {
    let events = spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("trace_id".to_string(), Json::num_u64(span.trace_id)),
                (
                    "generation".to_string(),
                    Json::num_u64(span.generation as u64),
                ),
            ];
            if let Some(pin) = span.pin {
                args.push(("pin".to_string(), Json::Str(pin.to_string())));
            }
            Json::obj([
                ("name", Json::Str(span.name.clone())),
                ("cat", Json::Str("laelaps".into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::num_u64(span.start_us)),
                ("dur", Json::num_u64(span.dur_us)),
                ("pid", Json::num_u64(span.shard as u64)),
                ("tid", Json::num_u64(span.session)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: u8, pin: u8) -> WireSpan {
        WireSpan {
            trace_id: 41,
            stage,
            pin,
            shard: 1,
            generation: 3,
            session: 9,
            start_us: 1_000,
            dur_us: 120,
        }
    }

    #[test]
    fn wire_spans_decode_stage_and_pin_names() {
        let rows = wire_spans(&[span(3, 1), span(200, 0)]);
        assert_eq!(rows[0].name, "drain");
        assert_eq!(rows[0].pin, Some("alarm"));
        assert_eq!(rows[1].name, "stage_200", "unknown stages still export");
        assert_eq!(rows[1].pin, None);
    }

    #[test]
    fn document_is_valid_chrome_trace_json() {
        let doc = trace_document(&wire_spans(&[span(0, 5)]));
        let text = doc.render_pretty();
        let back = Json::parse(&text).expect("valid JSON");
        let events = back
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            event.get("name").and_then(Json::as_str),
            Some("wire_decode")
        );
        assert_eq!(event.get("ts").and_then(Json::as_f64), Some(1_000.0));
        assert_eq!(event.get("dur").and_then(Json::as_f64), Some(120.0));
        assert_eq!(event.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(event.get("tid").and_then(Json::as_f64), Some(9.0));
        let args = event.get("args").expect("args");
        assert_eq!(args.get("pin").and_then(Json::as_str), Some("model_swap"));
        assert_eq!(args.get("trace_id").and_then(Json::as_f64), Some(41.0));
    }

    #[test]
    fn empty_snapshot_exports_an_empty_event_list() {
        let doc = trace_document(&snapshot_spans(&TraceSnapshot::default()));
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_array),
            Some(&[] as &[Json])
        );
    }
}
