//! The live introspection plane: `stats` and `trace` wire requests.
//!
//! A running cluster must be inspectable without restart. Two request
//! kinds ride the existing envelope:
//!
//! * `stats` — `{"prefix": "..."}` — a snapshot of the process-wide
//!   telemetry registry (optionally filtered by metric-name prefix), with
//!   p50/p95/p99 derived from each histogram's log2 buckets via
//!   [`gp_telemetry::HistSnapshot::percentile`].
//! * `trace` — `{"id": N}` — the assembled span tree of a completed
//!   sampled trace, fetched from the serving shard's bounded
//!   [`gp_telemetry::TraceStore`] (a router probes every shard's store).
//!
//! Both are answered synchronously at admission — they never enter the
//! work queue, are never cached, and work identically on the blocking
//! and reactor front ends because both funnel through the same
//! submission path.

use crate::codec::{first, Decoded};
use gp_core::json::{write_num, write_str, Reader};

/// The `stats` request: export the telemetry registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsRequest {
    /// Restrict the export to metrics whose name starts with this prefix
    /// (empty = everything).
    pub prefix: String,
}

impl StatsRequest {
    /// Write the canonical `req` object.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"prefix\":");
        write_str(out, &self.prefix);
        out.push('}');
    }

    /// Decode a `req` object (a missing prefix means "everything").
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<StatsRequest> {
        let mut prefix = None;
        r.object(|r, key| match &*key {
            "prefix" => first(&mut prefix, r, Reader::opt_str),
            _ => r.skip(),
        })?;
        Ok(Ok(StatsRequest {
            prefix: prefix.flatten().unwrap_or_default().into_owned(),
        }))
    }
}

/// The `trace` request: fetch one assembled trace tree by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceQuery {
    /// The trace id the client sent in its original request's `trace`
    /// field.
    pub id: u64,
}

impl TraceQuery {
    /// Write the canonical `req` object.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"id\":");
        write_num(out, self.id as f64);
        out.push('}');
    }

    /// Decode a `req` object.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<TraceQuery> {
        let mut id = None;
        r.object(|r, key| match &*key {
            "id" => first(&mut id, r, Reader::opt_num),
            _ => r.skip(),
        })?;
        Ok(match id.flatten() {
            Some(id) => Ok(TraceQuery { id: id as u64 }),
            None => Err("trace: missing numeric field 'id'".into()),
        })
    }
}

/// Render the `stats` payload: the registry snapshot (exact-integer JSON
/// from [`gp_telemetry::Snapshot::to_json`]) plus derived percentiles for
/// every non-empty histogram:
/// `{"enabled":bool,"sampling":N,"metrics":{...},"percentiles":
/// {"<hist>":{"p50":N,"p95":N,"p99":N},..}}`.
pub fn stats_payload(prefix: &str) -> String {
    let snap = gp_telemetry::snapshot();
    let snap = if prefix.is_empty() {
        snap
    } else {
        snap.filter(prefix)
    };
    let mut out = format!(
        "{{\"enabled\":{},\"sampling\":{},\"metrics\":{},\"percentiles\":{{",
        gp_telemetry::enabled(),
        gp_telemetry::trace::sampling(),
        snap.to_json()
    );
    let mut first = true;
    for (name, hist) in &snap.histograms {
        if hist.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        // Metric names are registry-controlled identifiers (no quotes or
        // control characters), so they embed directly.
        out.push_str(&format!(
            "\"{}\":{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
            name,
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99)
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_str;
    use gp_core::json::Json;

    #[test]
    fn stats_request_round_trips_and_defaults_prefix() {
        let r = StatsRequest {
            prefix: "service.".into(),
        };
        let mut text = String::new();
        r.write_json(&mut text);
        assert_eq!(text, r#"{"prefix":"service."}"#);
        let back = decode_str(&text, StatsRequest::decode).unwrap();
        assert_eq!(back, r);
        let empty = decode_str("{}", StatsRequest::decode).unwrap();
        assert_eq!(empty.prefix, "");
    }

    #[test]
    fn trace_query_round_trips_and_requires_id() {
        let q = TraceQuery { id: 42 };
        let mut text = String::new();
        q.write_json(&mut text);
        assert_eq!(decode_str(&text, TraceQuery::decode).unwrap(), q);
        assert!(decode_str("{}", TraceQuery::decode).is_err());
        assert!(decode_str(r#"{"id":"42"}"#, TraceQuery::decode).is_err());
    }

    #[test]
    fn stats_payload_is_valid_json_with_percentiles() {
        gp_telemetry::histogram("introspect.test.lat.ns").record(1000);
        gp_telemetry::histogram("introspect.test.lat.ns").record(2000);
        let payload = stats_payload("introspect.test.");
        let parsed = Json::parse(&payload).expect("stats payload parses");
        let p50 = parsed
            .get("percentiles")
            .and_then(|p| p.get("introspect.test.lat.ns"))
            .and_then(|h| h.get("p50"))
            .and_then(Json::as_f64)
            .expect("p50 present");
        assert!((500.0..=4000.0).contains(&p50), "p50 {p50} within 2x");
        assert!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("histograms"))
                .is_some(),
            "snapshot spliced under 'metrics'"
        );
        // Prefix filtering drops unrelated metrics.
        assert!(payload.contains("introspect.test.lat.ns"));
        assert!(!payload.contains("\"pool."));
    }
}
