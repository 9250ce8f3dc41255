//! The streaming request codec against the tree-based codec it replaced.
//!
//! `oracle` holds the old implementation: a `char`-based parser into a
//! `Json` tree, tree-walking decoders, and tree-built renderings. Every
//! property here feeds the same bytes to both and requires the same
//! outcome:
//!
//! - the same accept/reject decision, and equal decoded requests;
//! - byte-identical canonical strings, request frames, response frames
//!   and `simplify`/`optimize` payloads;
//! - the same error message for a request that is well-formed JSON but
//!   not a valid request, and for malformed JSON the same error at the
//!   same position (positions are bytes now and were characters, so the
//!   positions are compared on ASCII input).
//!
//! Inputs start from random requests of all seven kinds and are then
//! re-rendered with reordered, unknown and duplicate fields, random
//! whitespace, escaped characters and surrogate pairs, alternative
//! spellings of numbers (`-0`, `1e300`, `2^53`, `5.0`, `5e0`), fields of
//! the wrong type, and finally byte-level mutations.

mod oracle;

use gp_core::json::{Json, MAX_JSON_DEPTH};
use gp_core::numeric::Rational;
use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, Expr, Type, UnOp, Value};
use gp_service::introspect::{StatsRequest, TraceQuery};
use gp_service::lint::LintRequest;
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::{EnvDecl, EnvSpec, SimplifyRequest};
use gp_service::{
    decode_request_traced, encode_request_traced, encode_response, Request, Response,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Frames checked per proptest case.
const FRAMES_PER_CASE: usize = 48;

// --- random requests ----------------------------------------------------

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Text with the characters that stress a codec: quotes, backslashes,
/// control characters, non-ASCII and astral (surrogate-pair) characters.
fn arb_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..8);
    (0..len)
        .map(|_| match rng.gen_range(0..12) {
            0 => '"',
            1 => '\\',
            2 => char::from_u32(rng.gen_range(0..0x20)).unwrap(),
            3 => 'é',
            4 => '🚀',
            5 => '\u{7f}',
            6 => '/',
            _ => rng.gen_range(b'a'..=b'z') as char,
        })
        .collect()
}

fn arb_name(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.8) {
        pick(rng, &["a", "b", "x", "y", "long_name_7"]).to_string()
    } else {
        arb_text(rng)
    }
}

fn arb_type(rng: &mut StdRng) -> Type {
    *pick(
        rng,
        &[
            Type::Int,
            Type::UInt,
            Type::Float,
            Type::Bool,
            Type::Str,
            Type::Rational,
            Type::Matrix,
            Type::BigFloat,
        ],
    )
}

/// Numbers whose renderings exercise every branch of the writer.
fn arb_f64(rng: &mut StdRng) -> f64 {
    *pick(
        rng,
        &[
            0.0,
            -0.0,
            1.5,
            -2.25,
            1e300,
            -1e300,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            1e15,
            999_999_999_999_999.0,
            0.1,
            42.0,
        ],
    )
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..7) {
        0 => Value::Int(*pick(
            rng,
            &[
                0,
                -1,
                7,
                i64::from(i32::MAX),
                1 << 53,
                (1 << 53) + 1,
                -(1 << 60),
            ],
        )),
        1 => Value::UInt(*pick(rng, &[0, 1, 0xF0, 1 << 53, u64::MAX])),
        2 => Value::Float(arb_f64(rng)),
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => Value::Str(arb_text(rng)),
        5 => Value::Rational(Rational::new(rng.gen_range(-9..10), rng.gen_range(1..10))),
        _ => Value::BigFloat(arb_f64(rng)),
    }
}

fn arb_expr(rng: &mut StdRng, depth: usize) -> Expr {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    match if leaf {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(2..5)
    } {
        0 => Expr::Lit(arb_value(rng)),
        1 => Expr::Var(arb_name(rng), arb_type(rng)),
        2 => Expr::Unary(
            *pick(rng, &[UnOp::Neg, UnOp::Recip, UnOp::Not]),
            Box::new(arb_expr(rng, depth - 1)),
        ),
        3 => Expr::Binary(
            *pick(
                rng,
                &[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::BitAnd,
                    BinOp::Concat,
                ],
            ),
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
        _ => Expr::Call(
            arb_name(rng),
            arb_type(rng),
            (0..rng.gen_range(0..3))
                .map(|_| arb_expr(rng, depth - 1))
                .collect(),
        ),
    }
}

fn arb_env(rng: &mut StdRng) -> EnvSpec {
    if rng.gen_bool(0.5) {
        return EnvSpec::Standard;
    }
    let concepts = [
        AlgConcept::Semigroup,
        AlgConcept::Monoid,
        AlgConcept::Group,
        AlgConcept::Commutative,
        AlgConcept::Idempotent,
    ];
    EnvSpec::Custom(
        (0..rng.gen_range(0..3))
            .map(|_| EnvDecl {
                ty: arb_type(rng),
                op: *pick(rng, &[BinOp::Add, BinOp::Mul, BinOp::Concat]),
                concepts: (0..rng.gen_range(0..3))
                    .map(|_| *pick(rng, &concepts))
                    .collect(),
                identity: rng.gen_bool(0.5).then(|| arb_value(rng)),
                annihilator: rng.gen_bool(0.3).then(|| arb_value(rng)),
                inverse: rng
                    .gen_bool(0.3)
                    .then(|| *pick(rng, &[UnOp::Neg, UnOp::Recip, UnOp::Not])),
            })
            .collect(),
    )
}

fn arb_select(rng: &mut StdRng) -> SelectRequest {
    let text = format!(
        r#"{{"problem":"{}","topology":"{}","timing":"{}","fault":"{}","sharing":"{}","process-mgmt":"{}"}}"#,
        pick(
            rng,
            &[
                "leader-election",
                "broadcast",
                "spanning-tree",
                "consensus",
                "mutual-exclusion",
                "failure-detection"
            ]
        ),
        pick(
            rng,
            &[
                "arbitrary",
                "ring",
                "uni-ring",
                "bi-ring",
                "complete",
                "tree",
                "star",
                "grid"
            ]
        ),
        pick(
            rng,
            &["asynchronous", "partially-synchronous", "synchronous"]
        ),
        pick(rng, &["none", "crash", "omission", "byzantine"]),
        pick(rng, &["message-passing", "shared-memory"]),
        pick(rng, &["static", "dynamic"]),
    );
    SelectRequest::from_json(&Json::parse(&text).unwrap()).unwrap()
}

fn arb_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..7) {
        0 => Request::Lint(LintRequest {
            name: arb_name(rng),
            program: format!("container xs vector\n{}", arb_text(rng)),
        }),
        1 => Request::Simplify(SimplifyRequest {
            expr: arb_expr(rng, 4),
            env: arb_env(rng),
        }),
        2 => Request::Optimize(OptimizeRequest {
            expr: arb_expr(rng, 3),
            env: arb_env(rng),
            cost: *pick(rng, &[CostSpec::Annotation, CostSpec::Measured]),
            max_nodes: rng.gen_bool(0.5).then(|| rng.gen_range(1..5000)),
            max_iters: rng.gen_bool(0.5).then(|| rng.gen_range(1..8)),
        }),
        3 => Request::Prove(ProveRequest {
            theory: pick(rng, &["monoid", "group", "ring", "order", "field"]).to_string(),
            instance: arb_name(rng),
            model: (0..rng.gen_range(0..3))
                .map(|_| (arb_name(rng), arb_name(rng)))
                .collect(),
        }),
        4 => Request::Select(arb_select(rng)),
        5 => Request::Stats(StatsRequest {
            prefix: arb_text(rng),
        }),
        _ => Request::Trace(TraceQuery {
            id: *pick(rng, &[0, 42, 1 << 53, (1 << 53) + 1, u64::MAX]),
        }),
    }
}

// --- perturbing a request tree -----------------------------------------

/// A small random JSON value: the junk that unknown, duplicate and
/// retyped fields carry.
fn arb_junk(rng: &mut StdRng, depth: usize) -> Json {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(arb_f64(rng)),
        3 => Json::Str(pick(rng, &["standard", "int", "+", "neg", "monoid", ""]).to_string()),
        4 => Json::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| arb_junk(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let keys = ["lit", "var", "bin", "int", "str", "declare", "expr", "x"];
            Json::Obj(
                (0..rng.gen_range(0..3))
                    .map(|_| (pick(rng, &keys).to_string(), arb_junk(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Randomly reorder, drop, duplicate, retype and add fields, anywhere in
/// the tree.
fn perturb(j: &mut Json, rng: &mut StdRng, rate: f64) {
    match j {
        Json::Obj(fields) => {
            for (_, v) in fields.iter_mut() {
                perturb(v, rng, rate);
            }
            if rng.gen_bool(rate) {
                // Shuffle.
                for i in (1..fields.len()).rev() {
                    fields.swap(i, rng.gen_range(0..=i));
                }
            }
            if rng.gen_bool(rate) && !fields.is_empty() {
                // A duplicate key: the first occurrence must win.
                let k = fields[rng.gen_range(0..fields.len())].0.clone();
                let at = rng.gen_range(0..=fields.len());
                fields.insert(at, (k, arb_junk(rng, 2)));
            }
            if rng.gen_bool(rate) {
                let k = pick(rng, &["zz", "unknown", "id", "trace", "lit", "env", "é"]).to_string();
                let at = rng.gen_range(0..=fields.len());
                fields.insert(at, (k, arb_junk(rng, 2)));
            }
            if rng.gen_bool(rate / 2.0) && !fields.is_empty() {
                fields.remove(rng.gen_range(0..fields.len()));
            }
        }
        Json::Arr(items) => {
            for v in items.iter_mut() {
                perturb(v, rng, rate);
            }
            if rng.gen_bool(rate / 2.0) {
                items.push(arb_junk(rng, 1));
            }
        }
        _ => {
            if rng.gen_bool(rate / 2.0) {
                *j = arb_junk(rng, 2);
            }
        }
    }
}

// --- rendering with every legal spelling -------------------------------

fn ws(rng: &mut StdRng, out: &mut String) {
    while rng.gen_bool(0.2) {
        out.push(*pick(rng, &[' ', '\t', '\n', '\r']));
    }
}

fn noisy_str(rng: &mut StdRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let escape = rng.gen_bool(0.2);
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' if !escape => out.push_str("\\n"),
            '\t' if !escape => out.push_str("\\t"),
            '\r' if !escape => out.push_str("\\r"),
            '\u{8}' if !escape => out.push_str("\\b"),
            '\u{c}' if !escape => out.push_str("\\f"),
            '/' if escape => out.push_str("\\/"),
            c if (c as u32) < 0x20 || escape => {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    if rng.gen_bool(0.5) {
                        out.push_str(&format!("\\u{u:04x}"));
                    } else {
                        out.push_str(&format!("\\u{u:04X}"));
                    }
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn noisy_num(rng: &mut StdRng, x: f64, out: &mut String) {
    let canonical = Json::Num(x).render();
    if x.fract() == 0.0 && x.abs() < 1e15 && rng.gen_bool(0.3) {
        let spelled = match rng.gen_range(0..4) {
            0 => format!("{canonical}.0"),
            1 => format!("{canonical}e0"),
            2 => format!("{canonical}E+00"),
            _ if x == 0.0 && x.is_sign_negative() => "-0".to_string(),
            _ => format!("{x:e}"),
        };
        out.push_str(&spelled);
    } else {
        out.push_str(&canonical);
    }
}

fn noisy(rng: &mut StdRng, j: &Json, out: &mut String) {
    ws(rng, out);
    match j {
        Json::Null | Json::Bool(_) | Json::Raw(_) => out.push_str(&j.render()),
        Json::Num(x) => noisy_num(rng, *x, out),
        Json::Str(s) => noisy_str(rng, s, out),
        Json::Arr(items) => {
            out.push('[');
            ws(rng, out);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                noisy(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            ws(rng, out);
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                noisy_str(rng, k, out);
                ws(rng, out);
                out.push(':');
                noisy(rng, v, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// A request frame for `req`, perturbed at `rate` and re-spelled.
fn frame_for(rng: &mut StdRng, req: &Request, rate: f64) -> String {
    let mut envelope = Json::obj()
        .field("id", rng.gen_range(0..1u64 << 20) as f64)
        .field("kind", req.kind())
        .field(
            "req",
            oracle::parse(&oracle::render(&oracle::to_json(req))).unwrap(),
        );
    if rng.gen_bool(0.3) {
        envelope = envelope.field("trace", *pick(rng, &[7.0, -1.0, 1e20, 2.5]));
    }
    perturb(&mut envelope, rng, rate);
    let mut out = String::new();
    noisy(rng, &envelope, &mut out);
    out
}

/// Insert, delete or replace a few characters.
fn mutate(rng: &mut StdRng, frame: &str) -> String {
    let mut chars: Vec<char> = frame.chars().collect();
    let alphabet = [
        '{', '}', '[', ']', '"', ',', ':', '\\', ' ', '0', '9', '-', '+', '.', 'e', 'u', 'n', 't',
        'é', '\u{1}',
    ];
    for _ in 0..rng.gen_range(1..4) {
        let at = rng.gen_range(0..=chars.len());
        match rng.gen_range(0..3) {
            0 => chars.insert(at, *pick(rng, &alphabet)),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = *pick(rng, &alphabet),
            _ => {}
        }
    }
    chars.into_iter().collect()
}

// --- the comparison ------------------------------------------------------

/// Both codecs on one frame; panics on any disagreement. Returns whether
/// the frame was accepted.
fn agree(frame: &str) -> bool {
    let old = oracle::decode_request_traced(frame);
    let new = decode_request_traced(frame);
    match (&old, &new) {
        (Ok((id1, r1, t1)), Ok((id2, r2, t2))) => {
            assert_eq!((id1, t1), (id2, t2), "envelope of {frame:?}");
            assert_eq!(r1, r2, "request of {frame:?}");
            assert_eq!(
                oracle::canonical(r1),
                r2.canonical(),
                "canonical of {frame:?}"
            );
            assert_eq!(
                oracle::encode_request_traced(*id1, r1, *t1),
                encode_request_traced(*id2, r2, *t2),
                "re-encoded {frame:?}"
            );
            true
        }
        (Err(e1), Err(e2)) => {
            const OLD: &str = "bad frame: json parse error at char ";
            const NEW: &str = "bad frame: json parse error at byte ";
            if let Some(rest) = e1.strip_prefix(OLD) {
                assert!(e2.starts_with(NEW), "{frame:?}: {e1} vs {e2}");
                if frame.is_ascii() {
                    assert_eq!(&e2[NEW.len()..], rest, "{frame:?}");
                }
            } else {
                assert_eq!(e1, e2, "error for {frame:?}");
            }
            false
        }
        _ => panic!("codecs disagree on {frame:?}: old {old:?}, new {new:?}"),
    }
}

proptest! {
    #[test]
    fn clean_frames_decode_identically_and_re_encode_byte_for_byte(seed in 0u64..u64::MAX) {
        let rng = &mut <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..FRAMES_PER_CASE {
            let req = arb_request(rng);
            let frame = frame_for(rng, &req, 0.0);
            // Unperturbed, every generated request is valid and survives.
            prop_assert!(agree(&frame), "rejected {frame}");
            let (_, back, _) = decode_request_traced(&frame).unwrap();
            prop_assert_eq!(back.canonical(), oracle::canonical(&req));
        }
    }

    #[test]
    fn perturbed_frames_get_the_same_decision_and_the_same_answer(seed in 0u64..u64::MAX) {
        let rng = &mut <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..FRAMES_PER_CASE {
            let req = arb_request(rng);
            let frame = frame_for(rng, &req, 0.25);
            agree(&frame);
        }
    }

    #[test]
    fn byte_mutated_frames_get_the_same_decision(seed in 0u64..u64::MAX) {
        let rng = &mut <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..FRAMES_PER_CASE {
            let req = arb_request(rng);
            let frame = frame_for(rng, &req, 0.1);
            agree(&mutate(rng, &frame));
        }
    }

    #[test]
    fn the_tree_parser_and_renderer_match_the_old_ones(seed in 0u64..u64::MAX) {
        let rng = &mut <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..FRAMES_PER_CASE {
            let mut doc = arb_junk(rng, 4);
            perturb(&mut doc, rng, 0.3);
            prop_assert_eq!(oracle::render(&doc), doc.render());
            let mut text = String::new();
            noisy(rng, &doc, &mut text);
            let text = if rng.gen_bool(0.5) { mutate(rng, &text) } else { text };
            match (oracle::parse(&text), Json::parse(&text)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(&a.message, &b.message, "{:?}", text);
                    if text.is_ascii() {
                        prop_assert_eq!(a.pos, b.pos, "{:?}", text);
                    }
                }
                (a, b) => panic!("parsers disagree on {text:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn response_frames_are_byte_identical(seed in 0u64..u64::MAX) {
        let rng = &mut <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..FRAMES_PER_CASE {
            let id = *pick(rng, &[0, 3, 999_999_999_999_999, 1_000_000_000_000_000, 1 << 53, u64::MAX]);
            let resp = match rng.gen_range(0..3) {
                0 => Response::Ok { payload: arb_junk(rng, 3).render() },
                1 => Response::Error { message: arb_text(rng) },
                _ => Response::Overloaded,
            };
            prop_assert_eq!(oracle::encode_response(id, &resp), encode_response(id, &resp));
        }
    }
}

#[test]
fn rewrite_payloads_are_byte_identical_to_the_tree_built_ones() {
    let rng = &mut <StdRng as rand::SeedableRng>::seed_from_u64(0x5eed);
    let mut checked = (0, 0);
    while checked.0 < 200 || checked.1 < 40 {
        match arb_request(rng) {
            Request::Simplify(r) if checked.0 < 200 => {
                let simplifier = gp_rewrite::Simplifier::with_env(r.env.build());
                let (out, stats) = simplifier
                    .simplify_batch(std::slice::from_ref(&r.expr))
                    .remove(0);
                let got = gp_service::simplify::handle(&r).unwrap().render();
                assert_eq!(got, oracle::simplify_payload(&out, &stats), "{r:?}");
                checked.0 += 1;
            }
            Request::Optimize(r) if checked.1 < 40 => {
                let got = gp_service::optimize::handle(&r).unwrap().render();
                assert_eq!(got, oracle::optimize_payload(&r), "{r:?}");
                checked.1 += 1;
            }
            _ => {}
        }
    }
}

#[test]
fn nesting_past_the_limit_is_a_bad_frame_not_a_crash() {
    // The old parser recursed once per level and overflowed the stack on
    // inputs like these; the reader stops at the limit.
    let deep_array = "[".repeat(200_000) + &"]".repeat(200_000);
    let neg = |n: usize| {
        format!(
            r#"{{"id":1,"kind":"simplify","req":{{"expr":{}{{"var":["x","int"]}}{}}}}}"#,
            r#"{"un":["neg","#.repeat(n),
            "]}".repeat(n)
        )
    };
    for frame in [deep_array, neg(20_000)] {
        let e = decode_request_traced(&frame).unwrap_err();
        assert!(
            e.starts_with("bad frame:") && e.contains("nesting deeper than"),
            "{e}"
        );
    }
    // Just inside the limit, the same shape decodes (each `un` level is
    // an object and an array; the envelope and `req` add two levels).
    let fits = (MAX_JSON_DEPTH - 3) / 2;
    assert!(decode_request_traced(&neg(fits)).is_ok());
    assert!(decode_request_traced(&neg(fits + 1)).is_err());
}
