//! Request/response envelopes and the canonical form that keys the
//! response cache.
//!
//! A request frame is `{"id": N, "kind": "...", "req": {...}}`; a
//! response frame is `{"id": N, "status": "ok", "resp": {...}}`,
//! `{"id": N, "status": "error", "error": "..."}`, or
//! `{"id": N, "status": "overloaded"}`. The `id` is a client-chosen
//! correlation number echoed verbatim; it is *excluded* from the
//! canonical form, so two clients asking the same question share a cache
//! entry.
//!
//! Every request kind decodes straight from the frame's bytes into its
//! struct and writes its canonical form straight into one `String`
//! (no `Json` tree on the way). Writers emit fields in a fixed order and
//! decoders re-canonicalize on entry, so `canonical()` is a stable cache
//! key for semantically equal requests however the client ordered its
//! fields. [`Request::key`] computes that form, its hash and the
//! `Simplify` environment fingerprint once; the serving core passes the
//! [`Keyed`] result along instead of recomputing any of them.

use crate::codec::{first, Decoded};
use crate::{introspect, lint, optimize, prove, select, simplify};
use gp_core::json::{write_num, write_str, Json, Reader};
use std::ops::Range;

/// One query against the library stack.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Lint a program (`gp-checker`).
    Lint(lint::LintRequest),
    /// Simplify an expression under a concept environment (`gp-rewrite`,
    /// directed engine — the fast path).
    Simplify(simplify::SimplifyRequest),
    /// Superoptimize an expression by equality saturation and cost-based
    /// extraction (`gp-rewrite` e-graph mode).
    Optimize(optimize::OptimizeRequest),
    /// Check an instantiated theory (`gp-proofs`).
    Prove(prove::ProveRequest),
    /// Select a distributed algorithm (`gp-taxonomy`).
    Select(select::SelectRequest),
    /// Export the telemetry registry with derived percentiles
    /// (introspection; answered at admission, never queued or cached).
    Stats(introspect::StatsRequest),
    /// Fetch an assembled trace tree by id (introspection; answered at
    /// admission from the shard trace stores).
    Trace(introspect::TraceQuery),
}

/// The server's answer to one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Success; `payload` is the rendered JSON payload, bit-stable so
    /// cached and fresh responses are byte-identical.
    Ok {
        /// Rendered payload JSON.
        payload: String,
    },
    /// The handler rejected the request (bad program, unknown theory …).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Admission control shed the request; retry later. The server did
    /// *not* do the work.
    Overloaded,
}

impl Request {
    /// Every request kind's wire name, in [`Request::kind_index`] order.
    pub const KINDS: [&'static str; 7] = [
        "lint", "simplify", "optimize", "prove", "select", "stats", "trace",
    ];

    /// The wire name of this request's kind (also its telemetry label).
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// This request's kind as an index into [`Request::KINDS`], for
    /// per-kind tables resolved once.
    pub fn kind_index(&self) -> usize {
        match self {
            Request::Lint(_) => 0,
            Request::Simplify(_) => 1,
            Request::Optimize(_) => 2,
            Request::Prove(_) => 3,
            Request::Select(_) => 4,
            Request::Stats(_) => 5,
            Request::Trace(_) => 6,
        }
    }

    /// Write the `req` object in canonical field order. For `Simplify`,
    /// returns where the environment landed in `out`.
    pub(crate) fn write_json(&self, out: &mut String) -> Option<Range<usize>> {
        match self {
            Request::Lint(r) => r.write_json(out),
            Request::Simplify(r) => return Some(r.write_json(out)),
            Request::Optimize(r) => r.write_json(out),
            Request::Prove(r) => r.write_json(out),
            Request::Select(r) => r.write_json(out),
            Request::Stats(r) => r.write_json(out),
            Request::Trace(r) => r.write_json(out),
        }
        None
    }

    /// The `req` object in canonical field order (pre-rendered).
    pub fn to_json(&self) -> Json {
        let mut out = String::new();
        self.write_json(&mut out);
        Json::Raw(out)
    }

    /// Canonical form: kind + canonical payload rendering. Equal for
    /// semantically equal requests; the cache key is its hash (with the
    /// full string kept for collision checks).
    pub fn canonical(&self) -> String {
        self.write_canonical().0
    }

    fn write_canonical(&self) -> (String, Option<Range<usize>>) {
        let mut out = String::with_capacity(256);
        out.push_str(self.kind());
        out.push(':');
        let env = self.write_json(&mut out);
        (out, env)
    }

    /// The canonical form with its hash and, for `Simplify`, the
    /// environment fingerprint — everything the cache, the batcher and
    /// the router key on, computed in one pass.
    pub fn key(&self) -> RequestKey {
        let (canonical, env) = self.write_canonical();
        RequestKey {
            hash: fnv1a(&canonical),
            batch: env.map(|env| fnv1a(&canonical[env])),
            canonical,
        }
    }

    /// [`RequestKey::route`] without the rest of the key: `Simplify`
    /// writes only its environment. For callers holding a bare request;
    /// the serving path routes on the key it already has.
    pub fn route_key(&self) -> u64 {
        match self {
            Request::Simplify(r) => r.env.fingerprint(),
            other => fnv1a(&other.canonical()),
        }
    }

    /// Dispatch to the backing handler (a batch of one for `Simplify`;
    /// the serving core batches when it can).
    pub fn handle(&self) -> Result<Json, String> {
        match self {
            Request::Lint(r) => lint::handle(r),
            Request::Simplify(r) => simplify::handle(r),
            Request::Optimize(r) => optimize::handle(r),
            Request::Prove(r) => prove::handle(r),
            Request::Select(r) => select::handle(r),
            Request::Stats(r) => Ok(Json::Raw(introspect::stats_payload(&r.prefix))),
            // Trace lookups need a serving shard's store; the serving
            // core answers them at admission, so reaching this handler
            // means the request was dispatched outside a service.
            Request::Trace(_) => Err("trace lookup requires a running service".into()),
        }
    }
}

/// What the serving core keys a request on: its canonical form, that
/// form's hash, and `Simplify`'s environment fingerprint. Computed once
/// per request ([`Request::key`]); the router, the cache and the
/// micro-batcher all read the same copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestKey {
    /// `kind:` followed by the canonical `req` JSON.
    pub canonical: String,
    /// FNV-1a of `canonical`: the cache key.
    pub hash: u64,
    /// `Simplify` only: FNV-1a of the canonical environment JSON (equal
    /// to [`EnvSpec::fingerprint`](crate::simplify::EnvSpec::fingerprint)),
    /// the micro-batching key.
    pub batch: Option<u64>,
}

impl RequestKey {
    /// The routing key: the environment fingerprint for `Simplify`
    /// (batch density), the canonical hash otherwise. Both are functions
    /// of the canonical form, so the cache partition is deterministic.
    pub fn route(&self) -> u64 {
        self.batch.unwrap_or(self.hash)
    }
}

/// A request together with its [`RequestKey`].
#[derive(Clone, Debug)]
pub struct Keyed {
    /// The request.
    pub request: Request,
    /// Its key, computed once.
    pub key: RequestKey,
}

impl From<Request> for Keyed {
    fn from(request: Request) -> Keyed {
        Keyed {
            key: request.key(),
            request,
        }
    }
}

/// FNV-1a — the cache's request hash. Small, dependency-free, and good
/// enough given the canonical string rides along to catch collisions.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode a request frame.
pub fn encode_request(id: u64, req: &Request) -> String {
    encode_request_traced(id, req, None)
}

/// Encode a request frame, optionally carrying a trace context: the
/// envelope grows an extra `"trace": N` field naming the client-chosen
/// trace id. Decoders that predate tracing ignore unknown envelope
/// fields, and the field is excluded from the canonical form (which is
/// built from `kind` + `req` only), so a traced request shares cache
/// entries — and response bytes — with its untraced twin.
pub fn encode_request_traced(id: u64, req: &Request, trace: Option<u64>) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":");
    write_num(&mut out, id as f64);
    out.push_str(",\"kind\":");
    write_str(&mut out, req.kind());
    out.push_str(",\"req\":");
    req.write_json(&mut out);
    if let Some(t) = trace {
        out.push_str(",\"trace\":");
        write_num(&mut out, t as f64);
    }
    out.push('}');
    out
}

/// Decode a request frame into `(id, request)`, dropping any trace field.
pub fn decode_request(frame: &str) -> Result<(u64, Request), String> {
    decode_request_traced(frame).map(|(id, req, _)| (id, req))
}

/// Decode a request frame into `(id, request, trace)`, where `trace` is
/// the optional wire trace id. Tracing is strictly opt-in: a frame
/// without the field yields `None` and is processed identically to one
/// decoded before tracing existed.
///
/// The request decodes straight from the frame's bytes into its struct.
/// The first occurrence of an envelope field wins; unknown fields are
/// validated and ignored; a malformed document (including one nested
/// deeper than [`gp_core::json::MAX_JSON_DEPTH`]) is a `bad frame`
/// error.
pub fn decode_request_traced(frame: &str) -> Result<(u64, Request, Option<u64>), String> {
    let mut r = Reader::new(frame);
    let decoded = decode_envelope(&mut r).and_then(|d| r.finish().map(|()| d));
    decoded.map_err(|e| format!("bad frame: {e}"))?
}

fn decode_envelope(r: &mut Reader<'_>) -> Decoded<(u64, Request, Option<u64>)> {
    /// The `req` field: decoded in place when the kind came first (the
    /// order every encoder writes), else remembered by offset.
    enum Req {
        Decoded(Result<Request, String>),
        At(usize),
    }
    let (mut id, mut kind, mut trace, mut req) = (None, None, None, None);
    r.object(|r, key| match &*key {
        "id" => first(&mut id, r, Reader::opt_num),
        "kind" => first(&mut kind, r, Reader::opt_str),
        "trace" => first(&mut trace, r, Reader::opt_num),
        "req" => first(&mut req, r, |r| match &kind {
            Some(Some(kind)) => decode_kind(kind, r).map(Req::Decoded),
            _ => {
                r.skip_ws();
                let at = r.pos();
                r.skip().map(|()| Req::At(at))
            }
        }),
        _ => r.skip(),
    })?;
    let id = id.flatten().map_or(0, |x| x as u64);
    let trace = trace.flatten().map(|t| t as u64);
    let Some(kind) = kind.flatten() else {
        return Ok(Err("bad frame: missing string field 'kind'".into()));
    };
    let request = match req {
        None => return Ok(Err("bad frame: missing field 'req'".into())),
        Some(Req::Decoded(request)) => request,
        // Already validated by the skip, so this pass cannot fail on
        // syntax.
        Some(Req::At(at)) => decode_kind(&kind, &mut Reader::new(&r.src()[at..]))?,
    };
    Ok(request.map(|request| (id, request, trace)))
}

/// Decode the `req` value of a `kind` request.
fn decode_kind(kind: &str, r: &mut Reader<'_>) -> Decoded<Request> {
    fn wrap<T>(d: Decoded<T>, f: impl FnOnce(T) -> Request) -> Decoded<Request> {
        d.map(|d| d.map(f))
    }
    match kind {
        "lint" => wrap(lint::LintRequest::decode(r), Request::Lint),
        "simplify" => wrap(simplify::SimplifyRequest::decode(r), Request::Simplify),
        "optimize" => wrap(optimize::OptimizeRequest::decode(r), Request::Optimize),
        "prove" => wrap(prove::ProveRequest::decode(r), Request::Prove),
        "select" => wrap(select::SelectRequest::decode(r), Request::Select),
        "stats" => wrap(introspect::StatsRequest::decode(r), Request::Stats),
        "trace" => wrap(introspect::TraceQuery::decode(r), Request::Trace),
        other => r
            .skip()
            .map(|()| Err(format!("unknown request kind {other:?}"))),
    }
}

/// Encode a response frame. An `Ok` payload is already rendered JSON and
/// is spliced verbatim, so the bytes a cache hit returns are identical
/// to the fresh ones.
pub fn encode_response(id: u64, resp: &Response) -> String {
    let payload_len = match resp {
        Response::Ok { payload } => payload.len(),
        Response::Error { message } => message.len(),
        Response::Overloaded => 0,
    };
    let mut out = String::with_capacity(payload_len + 48);
    out.push_str("{\"id\":");
    write_num(&mut out, id as f64);
    match resp {
        Response::Ok { payload } => {
            out.push_str(",\"status\":\"ok\",\"resp\":");
            out.push_str(payload);
        }
        Response::Error { message } => {
            out.push_str(",\"status\":\"error\",\"error\":");
            write_str(&mut out, message);
        }
        Response::Overloaded => out.push_str(",\"status\":\"overloaded\""),
    }
    out.push('}');
    out
}

/// Decode a response frame into `(id, response)`. The payload is
/// re-rendered from the parse — safe because rendering is canonical
/// (`parse(r).render() == r`, proptested in `gp-bench`).
pub fn decode_response(frame: &str) -> Result<(u64, Response), String> {
    let j = Json::parse(frame).map_err(|e| format!("bad frame: {e}"))?;
    let id = j.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let status = j
        .get("status")
        .and_then(Json::as_str)
        .ok_or("bad frame: missing string field 'status'")?;
    Ok((
        id,
        match status {
            "ok" => Response::Ok {
                payload: j
                    .get("resp")
                    .ok_or("bad frame: ok without 'resp'")?
                    .render(),
            },
            "error" => Response::Error {
                message: j
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("bad frame: error without 'error'")?
                    .to_string(),
            },
            "overloaded" => Response::Overloaded,
            other => return Err(format!("unknown status {other:?}")),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::EnvSpec;
    use gp_rewrite::{BinOp, Expr, Type};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Lint(lint::LintRequest {
                name: "p".into(),
                program: "container xs vector\n".into(),
            }),
            Request::Simplify(simplify::SimplifyRequest {
                expr: Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(0)),
                env: EnvSpec::Standard,
            }),
            Request::Optimize(optimize::OptimizeRequest {
                expr: Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(0)),
                env: EnvSpec::Standard,
                cost: optimize::CostSpec::Annotation,
                max_nodes: Some(4096),
                max_iters: Some(8),
            }),
            Request::Prove(prove::ProveRequest {
                theory: "monoid".into(),
                instance: "i".into(),
                model: vec![("op".into(), "add".into())],
            }),
            Request::Select(
                select::SelectRequest::from_json(
                    &Json::parse(
                        r#"{"problem":"broadcast","topology":"tree","timing":"asynchronous"}"#,
                    )
                    .unwrap(),
                )
                .unwrap(),
            ),
            Request::Stats(introspect::StatsRequest {
                prefix: "service.".into(),
            }),
            Request::Trace(introspect::TraceQuery { id: 42 }),
        ]
    }

    #[test]
    fn request_frames_round_trip_for_every_kind() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let frame = encode_request(i as u64 + 7, &req);
            let (id, back) = decode_request(&frame).unwrap();
            assert_eq!(id, i as u64 + 7);
            assert_eq!(back, req, "round-trip for kind {}", req.kind());
            assert_eq!(back.canonical(), req.canonical());
        }
    }

    #[test]
    fn trace_field_is_optional_invisible_to_canonical_and_ignored_by_old_decoders() {
        for req in sample_requests() {
            let plain = encode_request(5, &req);
            let traced = encode_request_traced(5, &req, Some(777));
            // Match the *field* form `"trace":` — the `trace` request
            // kind legitimately puts the word in `"kind":"trace"`.
            assert!(!plain.contains("\"trace\":"), "untraced stays untraced");
            assert!(traced.contains("\"trace\":777"));
            // The traced-aware decoder sees the id; the legacy decoder
            // (and thus everything downstream of it) sees the identical
            // request.
            let (_, r1, t1) = decode_request_traced(&traced).unwrap();
            assert_eq!(t1, Some(777));
            let (_, r2) = decode_request(&traced).unwrap();
            assert_eq!(r1, req);
            assert_eq!(r2, req);
            let (_, _, t0) = decode_request_traced(&plain).unwrap();
            assert_eq!(t0, None, "tracing is strictly opt-in");
            assert_eq!(
                r1.canonical(),
                req.canonical(),
                "trace id never keys the cache"
            );
        }
    }

    #[test]
    fn canonical_form_ignores_client_field_order_and_id() {
        let a = decode_request(
            r#"{"id":1,"kind":"lint","req":{"name":"p","program":"container xs vector\n"}}"#,
        )
        .unwrap()
        .1;
        let b = decode_request(
            r#"{"kind":"lint","id":99,"req":{"program":"container xs vector\n","name":"p"}}"#,
        )
        .unwrap()
        .1;
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn response_frames_round_trip_and_ok_payload_is_spliced_verbatim() {
        let payload = Request::Select(
            select::SelectRequest::from_json(
                &Json::parse(
                    r#"{"problem":"broadcast","topology":"tree","timing":"asynchronous"}"#,
                )
                .unwrap(),
            )
            .unwrap(),
        )
        .handle()
        .unwrap()
        .render();
        let resp = Response::Ok {
            payload: payload.clone(),
        };
        let frame = encode_response(3, &resp);
        assert!(
            frame.contains(&payload),
            "payload bytes verbatim in {frame}"
        );
        let (id, back) = decode_response(&frame).unwrap();
        assert_eq!(id, 3);
        assert_eq!(back, resp);

        for r in [
            Response::Error {
                message: "bad \"input\"".into(),
            },
            Response::Overloaded,
        ] {
            let (_, back) = decode_response(&encode_response(0, &r)).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn malformed_frames_are_rejected_with_context() {
        for frame in [
            "",
            "not json",
            r#"{"id":1}"#,
            r#"{"id":1,"kind":"frobnicate","req":{}}"#,
            r#"{"id":1,"kind":"lint","req":{}}"#,
        ] {
            assert!(decode_request(frame).is_err(), "accepted {frame:?}");
        }
    }

    #[test]
    fn one_key_serves_cache_batcher_and_router() {
        for req in sample_requests() {
            let key = req.key();
            assert_eq!(key.canonical, req.canonical());
            assert_eq!(key.hash, fnv1a(&key.canonical));
            assert_eq!(key.route(), req.route_key(), "kind {}", req.kind());
            assert_eq!(req.kind(), Request::KINDS[req.kind_index()]);
            match &req {
                Request::Simplify(r) => assert_eq!(key.batch, Some(r.env.fingerprint())),
                _ => assert_eq!(key.batch, None),
            }
            // The canonical form's payload is the `req` object a frame
            // carries, byte for byte.
            let payload = &key.canonical[req.kind().len() + 1..];
            assert_eq!(payload, req.to_json().render());
            assert!(encode_request(1, &req).contains(payload));
        }
    }

    #[test]
    fn envelope_fields_keep_first_occurrence_and_any_order() {
        let req = r#"{"name":"p","program":"container xs vector\n"}"#;
        let frames = [
            format!(r#"{{"id":3,"kind":"lint","req":{req}}}"#),
            format!(r#"{{"req":{req},"kind":"lint","id":3}}"#),
            format!(r#"{{"id":3,"id":"x","kind":"lint","kind":7,"req":{req},"req":5}}"#),
            format!(r#" {{ "trace" : null , "kind" : "lint" , "req" : {req} , "id" : 3 }} "#),
        ];
        let want = decode_request(&frames[0]).unwrap();
        for f in &frames {
            assert_eq!(decode_request(f).unwrap(), want, "{f}");
        }
        // A non-string first `kind` is missing even if a later one is fine.
        let e = decode_request(&format!(r#"{{"kind":1,"kind":"lint","req":{req}}}"#));
        assert_eq!(e.unwrap_err(), "bad frame: missing string field 'kind'");
        // Syntax errors anywhere win over request errors.
        let e = decode_request(r#"{"kind":"nope","req":{},"x":[1,]}"#).unwrap_err();
        assert!(e.starts_with("bad frame: json parse error"), "{e}");
        let e = decode_request(r#"{"kind":"nope","req":{}}"#).unwrap_err();
        assert_eq!(e, "unknown request kind \"nope\"");
    }

    #[test]
    fn fnv1a_distinguishes_close_strings() {
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_ne!(fnv1a("lint:{}"), fnv1a("lint:{} "));
        assert_eq!(fnv1a("same"), fnv1a("same"));
    }
}
