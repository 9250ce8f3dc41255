//! The answer check. Every `Ok` response passes two independent tests:
//!
//! - (a) its frame is byte-identical to the backing handler's answer
//!   (`Request::handle`, called directly on the same request after the
//!   timed window), which catches cache, batching, routing and
//!   reordering faults;
//! - (b) the handler's payload satisfies an answer known from how the
//!   request was built ([`Expect`]), which catches engine faults that
//!   (a) alone would reproduce.

use crate::gen::{Bug, Expect};
use gp_core::json::Json;
use gp_rewrite::{Expr, Value};
use gp_service::simplify::expr_from_json;
use gp_service::{decode_request, encode_response, Response};
use std::collections::BTreeMap;

/// FNV-1a over bytes. A response is recorded as this hash: two frames
/// that differ in one byte always hash differently (each step of the
/// hash is a bijection of its state).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How the server answered one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// `"status":"ok"`.
    Ok,
    /// `"status":"error"`.
    Error,
    /// `"status":"overloaded"` (shed).
    Overloaded,
    /// No answer: timeout, closed connection or unreadable frame.
    Transport,
}

/// Classify a response frame by its status field.
pub fn status_of(frame: &str) -> Status {
    match frame.find("\"status\":\"").map(|i| &frame[i + 10..]) {
        Some(s) if s.starts_with("ok\"") => Status::Ok,
        Some(s) if s.starts_with("error\"") => Status::Error,
        Some(s) if s.starts_with("overloaded\"") => Status::Overloaded,
        _ => Status::Transport,
    }
}

/// The frame a correct server sends for `frame`, from the backing
/// handler: `Ok(frame)` or the handler's error.
pub fn expected_response(frame: &str) -> Result<(u64, String), String> {
    let (id, req) = decode_request(frame)?;
    let payload = req.handle()?.render();
    Ok((id, payload))
}

/// The full response frame for `id` answering with `payload`.
pub fn ok_frame(id: u64, payload: &str) -> String {
    encode_response(
        id,
        &Response::Ok {
            payload: payload.to_string(),
        },
    )
}

/// Check a payload against its known answer.
pub fn check_known(expect: &Expect, payload: &str, key: u64) -> Result<(), String> {
    let j = Json::parse(payload).map_err(|e| format!("payload is not JSON: {e}"))?;
    match expect {
        Expect::Lint { bugs } => check_lint(bugs, &j),
        Expect::Rewrite { optimize, .. } => {
            let input = expect.rewrite_input().expect("a rewrite expectation");
            check_rewrite(&input, *optimize, &j, key)
        }
        Expect::Prove { ok } => match j.get("ok").and_then(Json::as_bool) {
            Some(got) if got == *ok => Ok(()),
            got => Err(format!("prove verdict {got:?}, expected {ok}")),
        },
        Expect::Select { selected } => {
            let got = match j.get("selected") {
                Some(Json::Null) => None,
                Some(s) => Some(
                    s.get("name")
                        .and_then(Json::as_str)
                        .ok_or("select: selection without a name")?,
                ),
                None => return Err("select: no 'selected' field".into()),
            };
            if got == *selected {
                Ok(())
            } else {
                Err(format!("selected {got:?}, expected {selected:?}"))
            }
        }
    }
}

/// Severity of each planted bug's diagnostic: everything but the
/// linear-search suggestion is an error.
fn is_error_code(code: &str) -> bool {
    code != "sorted-linear-search"
}

fn check_lint(bugs: &[Bug], j: &Json) -> Result<(), String> {
    let diags = j
        .get("diagnostics")
        .and_then(Json::as_arr)
        .ok_or("lint: no diagnostics array")?;
    let field = |d: &Json, k: &str| d.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    for bug in bugs {
        let found = diags
            .iter()
            .any(|d| field(d, "code") == bug.code && field(d, "subject") == bug.subject);
        if !found {
            return Err(format!(
                "lint: planted {} on {} not reported",
                bug.code, bug.subject
            ));
        }
    }
    // No error beyond the planted ones: a clean-only program reports no
    // error-severity diagnostic at all.
    for d in diags {
        if field(d, "severity") == "error" {
            let (code, subject) = (field(d, "code"), field(d, "subject"));
            let planted = bugs
                .iter()
                .any(|b| is_error_code(b.code) && b.code == code && b.subject == subject);
            if !planted {
                return Err(format!("lint: unexpected error {code} on {subject}"));
            }
        }
    }
    Ok(())
}

/// Seeded integer bindings for the rewrite check.
fn bindings(key: u64) -> Vec<BTreeMap<String, Value>> {
    let mut rng = crate::rng::Rng::derive(key, 0xb1d);
    (0..4)
        .map(|_| {
            ["a", "b", "c", "d"]
                .iter()
                .map(|v| (v.to_string(), Value::Int(rng.range(-50, 51))))
                .collect()
        })
        .collect()
}

fn check_rewrite(input: &Expr, optimize: bool, j: &Json, key: u64) -> Result<(), String> {
    let out = expr_from_json(j.get("expr").ok_or("rewrite: no 'expr'")?)?;
    for env in bindings(key) {
        let (want, got) = (input.eval(&env), out.eval(&env));
        match (&want, &got) {
            (Some(Value::Int(a)), Some(Value::Int(b))) if a == b => {}
            _ => {
                return Err(format!(
                    "rewrite: output {out} evaluates to {got:?}, input to {want:?}"
                ))
            }
        }
    }
    if optimize {
        let stats = j.get("stats").ok_or("optimize: no stats")?;
        let cost = |k: &str| stats.get(k).and_then(Json::as_f64);
        match (cost("cost-before"), cost("cost-after")) {
            (Some(before), Some(after)) if after <= before => {}
            (before, after) => {
                return Err(format!("optimize: cost rose from {before:?} to {after:?}"))
            }
        }
    }
    Ok(())
}

/// Check (a): the received frame (by its hash) is byte-identical to the
/// frame carrying the backing handler's payload for request `id`.
pub fn matches_handler(id: u64, payload: &str, received_hash: u64) -> bool {
    fnv1a(ok_frame(id, payload).as_bytes()) == received_hash
}
