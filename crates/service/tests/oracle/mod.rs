//! The request codec as it was before requests decoded straight from
//! frame bytes: a `char`-based recursive-descent parser into a `Json`
//! tree, tree-walking decoders for every request kind, and tree-built
//! renderings of requests, responses and rewrite payloads. Kept only as
//! the specification the streaming codec is checked against
//! (`codec_equivalence.rs`).

#![allow(dead_code)]

use gp_core::json::Json;
use gp_core::numeric::Rational;
use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, Expr, Type, UnOp, Value};
use gp_service::introspect::{StatsRequest, TraceQuery};
use gp_service::lint::LintRequest;
use gp_service::optimize::{CostSpec, OptimizeRequest, MAX_ITER_BUDGET, MAX_NODE_BUDGET};
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::{EnvDecl, EnvSpec, SimplifyRequest};
use gp_service::{Request, Response};
use gp_taxonomy::{Fault, Problem, ProcessMgmt, Requirement, Sharing, Timing, Topology};
use std::fmt;

/// A parse failure: character position plus what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 0-based character offset of the failure.
    pub pos: usize,
    /// Description of the malformed construct.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at char {}: {}", self.pos, self.message)
    }
}

/// Parse a complete JSON document (no depth limit: recursion follows the
/// input).
pub fn parse(s: &str) -> Result<Json, ParseError> {
    let b: Vec<char> = s.chars().collect();
    let mut pos = 0usize;
    skip_ws(&b, &mut pos);
    let v = parse_value(&b, &mut pos)?;
    skip_ws(&b, &mut pos);
    if pos != b.len() {
        return Err(err(pos, "trailing garbage after value"));
    }
    Ok(v)
}

/// Render a tree compactly.
pub fn render(j: &Json) -> String {
    let mut out = String::new();
    write(j, &mut out);
    out
}

fn write(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if x.is_finite() {
                // Integral values render without a trailing ".0".
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Raw(s) => out.push_str(s),
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(&Json::Str(k.clone()), out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

fn err(pos: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        pos,
        message: message.into(),
    }
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while matches!(b.get(*pos), Some(' ' | '\t' | '\n' | '\r')) {
        *pos += 1;
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('n') => expect(b, pos, "null").map(|()| Json::Null),
        Some('t') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some('f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some('"') => parse_string(b, pos).map(Json::Str),
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let k = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&':') {
                    return Err(err(*pos, format!("expected ':' after key {k:?}")));
                }
                *pos += 1;
                fields.push((k, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while let Some(c) = b.get(*pos) {
                if c.is_ascii_digit() || "+-.eE".contains(*c) {
                    *pos += 1;
                } else {
                    break;
                }
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse()
                .map(Json::Num)
                .map_err(|_| err(start, format!("bad number {text:?}")))
        }
        Some(c) => Err(err(*pos, format!("unexpected character {c:?}"))),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, ParseError> {
    if b.get(*pos) != Some(&'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let cp = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: a low surrogate escape must
                            // follow, and the pair combines.
                            if b.get(*pos + 1) != Some(&'\\') || b.get(*pos + 2) != Some(&'u') {
                                return Err(err(*pos, "lone high surrogate in \\u escape"));
                            }
                            let lo = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err(*pos, "invalid low surrogate in \\u escape"));
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            out.push(char::from_u32(combined).expect("valid surrogate pair"));
                        } else {
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| err(*pos, "lone surrogate in \\u escape"))?,
                            );
                        }
                    }
                    other => return Err(err(*pos, format!("invalid escape \\{other:?}"))),
                }
                *pos += 1;
            }
            Some(c) if (*c as u32) < 0x20 => {
                return Err(err(*pos, format!("bare control character {c:?} in string")));
            }
            Some(c) => {
                out.push(*c);
                *pos += 1;
            }
            None => return Err(err(*pos, "unterminated string")),
        }
    }
}

fn parse_hex4(b: &[char], at: usize) -> Result<u32, ParseError> {
    if at + 4 > b.len() {
        return Err(err(at, "truncated \\u escape"));
    }
    let hex: String = b[at..at + 4].iter().collect();
    u32::from_str_radix(&hex, 16).map_err(|_| err(at, format!("bad \\u escape {hex:?}")))
}

fn expect(b: &[char], pos: &mut usize, word: &str) -> Result<(), ParseError> {
    let end = *pos + word.chars().count();
    let got: String = b[*pos..end.min(b.len())].iter().collect();
    if got != word {
        return Err(err(*pos, format!("expected literal {word}")));
    }
    *pos = end;
    Ok(())
}

// --- the request grammar as it was decoded from a tree -----------------

fn type_name(t: Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::UInt => "uint",
        Type::Float => "float",
        Type::Bool => "bool",
        Type::Str => "str",
        Type::Rational => "rational",
        Type::Matrix => "matrix",
        Type::BigFloat => "bigfloat",
    }
}

fn type_from(s: &str) -> Result<Type, String> {
    Ok(match s {
        "int" => Type::Int,
        "uint" => Type::UInt,
        "float" => Type::Float,
        "bool" => Type::Bool,
        "str" => Type::Str,
        "rational" => Type::Rational,
        "matrix" => Type::Matrix,
        "bigfloat" => Type::BigFloat,
        other => return Err(format!("unknown type {other:?}")),
    })
}

fn binop_from(s: &str) -> Result<BinOp, String> {
    Ok(match s {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "&&" => BinOp::And,
        "||" => BinOp::Or,
        "&" => BinOp::BitAnd,
        "++" => BinOp::Concat,
        other => return Err(format!("unknown binary operator {other:?}")),
    })
}

fn unop_name(u: UnOp) -> &'static str {
    match u {
        UnOp::Neg => "neg",
        UnOp::Recip => "recip",
        UnOp::Not => "not",
    }
}

fn unop_from(s: &str) -> Result<UnOp, String> {
    Ok(match s {
        "neg" => UnOp::Neg,
        "recip" => UnOp::Recip,
        "not" => UnOp::Not,
        other => return Err(format!("unknown unary operator {other:?}")),
    })
}

fn concept_name(c: AlgConcept) -> &'static str {
    match c {
        AlgConcept::Semigroup => "semigroup",
        AlgConcept::Monoid => "monoid",
        AlgConcept::Group => "group",
        AlgConcept::Commutative => "commutative",
        AlgConcept::Idempotent => "idempotent",
    }
}

fn concept_from(s: &str) -> Result<AlgConcept, String> {
    Ok(match s {
        "semigroup" => AlgConcept::Semigroup,
        "monoid" => AlgConcept::Monoid,
        "group" => AlgConcept::Group,
        "commutative" => AlgConcept::Commutative,
        "idempotent" => AlgConcept::Idempotent,
        other => return Err(format!("unknown concept {other:?}")),
    })
}

pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(x) => Json::obj().field("int", *x),
        Value::UInt(x) => Json::obj().field("uint", *x),
        Value::Float(x) => Json::obj().field("float", *x),
        Value::Bool(b) => Json::obj().field("bool", *b),
        Value::Str(s) => Json::obj().field("str", s.as_str()),
        Value::Rational(r) => Json::obj().field(
            "rational",
            Json::Arr(vec![
                Json::Num(r.numerator() as f64),
                Json::Num(r.denominator() as f64),
            ]),
        ),
        Value::BigFloat(x) => Json::obj().field("bigfloat", *x),
    }
}

pub fn value_from_json(j: &Json) -> Result<Value, String> {
    let num = |key: &str| j.get(key).and_then(Json::as_f64);
    if let Some(x) = num("int") {
        return Ok(Value::Int(x as i64));
    }
    if let Some(x) = num("uint") {
        return Ok(Value::UInt(x as u64));
    }
    if let Some(x) = num("float") {
        return Ok(Value::Float(x));
    }
    if let Some(b) = j.get("bool").and_then(Json::as_bool) {
        return Ok(Value::Bool(b));
    }
    if let Some(s) = j.get("str").and_then(Json::as_str) {
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(x) = num("bigfloat") {
        return Ok(Value::BigFloat(x));
    }
    if let Some(parts) = j.get("rational").and_then(Json::as_arr) {
        if let [Json::Num(n), Json::Num(d)] = parts {
            if *d == 0.0 {
                return Err("rational with zero denominator".into());
            }
            return Ok(Value::Rational(Rational::new(*n as i64, *d as i64)));
        }
        return Err("rational expects [num, den]".into());
    }
    Err(format!("unrecognized value {:?}", render(j)))
}

pub fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Lit(v) => Json::obj().field("lit", value_to_json(v)),
        Expr::Var(name, ty) => Json::obj().field(
            "var",
            Json::Arr(vec![Json::Str(name.clone()), Json::from(type_name(*ty))]),
        ),
        Expr::Unary(op, x) => Json::obj().field(
            "un",
            Json::Arr(vec![Json::from(unop_name(*op)), expr_to_json(x)]),
        ),
        Expr::Binary(op, l, r) => Json::obj().field(
            "bin",
            Json::Arr(vec![
                Json::from(op.symbol()),
                expr_to_json(l),
                expr_to_json(r),
            ]),
        ),
        Expr::Call(name, ty, args) => Json::obj().field(
            "call",
            Json::Arr(vec![
                Json::Str(name.clone()),
                Json::from(type_name(*ty)),
                Json::Arr(args.iter().map(expr_to_json).collect()),
            ]),
        ),
    }
}

pub fn expr_from_json(j: &Json) -> Result<Expr, String> {
    if let Some(v) = j.get("lit") {
        return Ok(Expr::Lit(value_from_json(v)?));
    }
    if let Some(parts) = j.get("var").and_then(Json::as_arr) {
        if let [Json::Str(name), Json::Str(ty)] = parts {
            return Ok(Expr::Var(name.clone(), type_from(ty)?));
        }
        return Err("var expects [name, type]".into());
    }
    if let Some(parts) = j.get("un").and_then(Json::as_arr) {
        if let [Json::Str(op), x] = parts {
            return Ok(Expr::Unary(unop_from(op)?, Box::new(expr_from_json(x)?)));
        }
        return Err("un expects [op, expr]".into());
    }
    if let Some(parts) = j.get("bin").and_then(Json::as_arr) {
        if let [Json::Str(op), l, r] = parts {
            return Ok(Expr::Binary(
                binop_from(op)?,
                Box::new(expr_from_json(l)?),
                Box::new(expr_from_json(r)?),
            ));
        }
        return Err("bin expects [op, lhs, rhs]".into());
    }
    if let Some(parts) = j.get("call").and_then(Json::as_arr) {
        if let [Json::Str(name), Json::Str(ty), Json::Arr(args)] = parts {
            let args = args
                .iter()
                .map(expr_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Expr::Call(name.clone(), type_from(ty)?, args));
        }
        return Err("call expects [name, type, [args]]".into());
    }
    Err(format!("unrecognized expression {:?}", render(j)))
}

fn env_decl_to_json(d: &EnvDecl) -> Json {
    let mut j = Json::obj()
        .field("ty", type_name(d.ty))
        .field("op", d.op.symbol())
        .field(
            "concepts",
            Json::Arr(
                d.concepts
                    .iter()
                    .map(|c| Json::from(concept_name(*c)))
                    .collect(),
            ),
        );
    if let Some(v) = &d.identity {
        j = j.field("identity", value_to_json(v));
    }
    if let Some(v) = &d.annihilator {
        j = j.field("annihilator", value_to_json(v));
    }
    if let Some(u) = d.inverse {
        j = j.field("inverse", unop_name(u));
    }
    j
}

fn env_decl_from_json(j: &Json) -> Result<EnvDecl, String> {
    let ty = type_from(
        j.get("ty")
            .and_then(Json::as_str)
            .ok_or("declaration missing 'ty'")?,
    )?;
    let op = binop_from(
        j.get("op")
            .and_then(Json::as_str)
            .ok_or("declaration missing 'op'")?,
    )?;
    let concepts = j
        .get("concepts")
        .and_then(Json::as_arr)
        .ok_or("declaration missing 'concepts' array")?
        .iter()
        .map(|c| concept_from(c.as_str().ok_or("concept must be a string")?))
        .collect::<Result<Vec<_>, String>>()?;
    let identity = j.get("identity").map(value_from_json).transpose()?;
    let annihilator = j.get("annihilator").map(value_from_json).transpose()?;
    let inverse = j
        .get("inverse")
        .map(|u| unop_from(u.as_str().ok_or("inverse must be a string")?))
        .transpose()?;
    Ok(EnvDecl {
        ty,
        op,
        concepts,
        identity,
        annihilator,
        inverse,
    })
}

pub fn env_to_json(env: &EnvSpec) -> Json {
    match env {
        EnvSpec::Standard => Json::from("standard"),
        EnvSpec::Custom(decls) => Json::obj().field(
            "declare",
            Json::Arr(decls.iter().map(env_decl_to_json).collect()),
        ),
    }
}

fn env_from_json(j: &Json) -> Result<EnvSpec, String> {
    if let Some("standard") = j.as_str() {
        return Ok(EnvSpec::Standard);
    }
    if let Some(decls) = j.get("declare").and_then(Json::as_arr) {
        return Ok(EnvSpec::Custom(
            decls
                .iter()
                .map(env_decl_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        ));
    }
    Err("env must be \"standard\" or {\"declare\": [...]}".into())
}

fn simplify_from_json(j: &Json) -> Result<SimplifyRequest, String> {
    let expr = expr_from_json(j.get("expr").ok_or("simplify: missing 'expr'")?)?;
    let env = match j.get("env") {
        None => EnvSpec::Standard,
        Some(e) => env_from_json(e)?,
    };
    Ok(SimplifyRequest { expr, env })
}

fn cost_name(c: CostSpec) -> &'static str {
    match c {
        CostSpec::Annotation => "annotation",
        CostSpec::Measured => "measured",
    }
}

fn cost_from_name(s: &str) -> Result<CostSpec, String> {
    Ok(match s {
        "annotation" => CostSpec::Annotation,
        "measured" => CostSpec::Measured,
        other => return Err(format!("unknown cost model {other:?}")),
    })
}

fn budget_field(j: &Json, name: &str, ceiling: u64) -> Result<Option<u64>, String> {
    let Some(v) = j.get(name) else {
        return Ok(None);
    };
    let f = v
        .as_f64()
        .ok_or_else(|| format!("optimize: '{name}' must be a number"))?;
    if f.fract() != 0.0 || f < 1.0 || f > ceiling as f64 {
        return Err(format!(
            "optimize: '{name}' must be an integer in 1..={ceiling}"
        ));
    }
    Ok(Some(f as u64))
}

fn optimize_from_json(j: &Json) -> Result<OptimizeRequest, String> {
    let expr = expr_from_json(j.get("expr").ok_or("optimize: missing 'expr'")?)?;
    let env = match j.get("env") {
        None => EnvSpec::Standard,
        Some(e) => env_from_json(e)?,
    };
    let cost = match j.get("cost-model") {
        None => CostSpec::Annotation,
        Some(c) => cost_from_name(
            c.as_str()
                .ok_or("optimize: 'cost-model' must be a string")?,
        )?,
    };
    let max_nodes = budget_field(j, "max-nodes", MAX_NODE_BUDGET)?;
    let max_iters = budget_field(j, "max-iters", MAX_ITER_BUDGET)?;
    Ok(OptimizeRequest {
        expr,
        env,
        cost,
        max_nodes,
        max_iters,
    })
}

fn lint_from_json(j: &Json) -> Result<LintRequest, String> {
    let program = j
        .get("program")
        .and_then(Json::as_str)
        .ok_or("lint: missing string field 'program'")?
        .to_string();
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("request")
        .to_string();
    Ok(LintRequest { name, program })
}

fn prove_to_json(r: &ProveRequest) -> Json {
    let mut model = r.model.clone();
    model.sort();
    let mut m = Json::obj();
    for (from, to) in &model {
        m = m.field(from, to.as_str());
    }
    Json::obj()
        .field("theory", r.theory.as_str())
        .field("instance", r.instance.as_str())
        .field("model", m)
}

fn prove_from_json(j: &Json) -> Result<ProveRequest, String> {
    let theory = j
        .get("theory")
        .and_then(Json::as_str)
        .ok_or("prove: missing string field 'theory'")?
        .to_string();
    let instance = j
        .get("instance")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let mut model = Vec::new();
    if let Some(Json::Obj(fields)) = j.get("model") {
        for (from, to) in fields {
            let to = to
                .as_str()
                .ok_or_else(|| format!("prove: model entry {from:?} must map to a string"))?;
            model.push((from.clone(), to.to_string()));
        }
    }
    model.sort();
    Ok(ProveRequest {
        theory,
        instance,
        model,
    })
}

// --- dimension name tables (kebab-case, both directions) ----------------

fn problem_name(p: Problem) -> &'static str {
    match p {
        Problem::LeaderElection => "leader-election",
        Problem::Broadcast => "broadcast",
        Problem::SpanningTree => "spanning-tree",
        Problem::Consensus => "consensus",
        Problem::MutualExclusion => "mutual-exclusion",
        Problem::FailureDetection => "failure-detection",
    }
}

fn problem_from(s: &str) -> Result<Problem, String> {
    Ok(match s {
        "leader-election" => Problem::LeaderElection,
        "broadcast" => Problem::Broadcast,
        "spanning-tree" => Problem::SpanningTree,
        "consensus" => Problem::Consensus,
        "mutual-exclusion" => Problem::MutualExclusion,
        "failure-detection" => Problem::FailureDetection,
        other => return Err(format!("unknown problem {other:?}")),
    })
}

fn topology_name(t: Topology) -> &'static str {
    match t {
        Topology::Arbitrary => "arbitrary",
        Topology::Ring => "ring",
        Topology::UniRing => "uni-ring",
        Topology::BiRing => "bi-ring",
        Topology::Complete => "complete",
        Topology::Tree => "tree",
        Topology::Star => "star",
        Topology::Grid => "grid",
    }
}

fn topology_from(s: &str) -> Result<Topology, String> {
    Ok(match s {
        "arbitrary" => Topology::Arbitrary,
        "ring" => Topology::Ring,
        "uni-ring" => Topology::UniRing,
        "bi-ring" => Topology::BiRing,
        "complete" => Topology::Complete,
        "tree" => Topology::Tree,
        "star" => Topology::Star,
        "grid" => Topology::Grid,
        other => return Err(format!("unknown topology {other:?}")),
    })
}

fn timing_name(t: Timing) -> &'static str {
    match t {
        Timing::Asynchronous => "asynchronous",
        Timing::PartiallySynchronous => "partially-synchronous",
        Timing::Synchronous => "synchronous",
    }
}

fn timing_from(s: &str) -> Result<Timing, String> {
    Ok(match s {
        "asynchronous" => Timing::Asynchronous,
        "partially-synchronous" => Timing::PartiallySynchronous,
        "synchronous" => Timing::Synchronous,
        other => return Err(format!("unknown timing {other:?}")),
    })
}

fn fault_name(f: Fault) -> &'static str {
    match f {
        Fault::None => "none",
        Fault::Crash => "crash",
        Fault::Omission => "omission",
        Fault::Byzantine => "byzantine",
    }
}

fn fault_from(s: &str) -> Result<Fault, String> {
    Ok(match s {
        "none" => Fault::None,
        "crash" => Fault::Crash,
        "omission" => Fault::Omission,
        "byzantine" => Fault::Byzantine,
        other => return Err(format!("unknown fault class {other:?}")),
    })
}

fn sharing_name(s: Sharing) -> &'static str {
    match s {
        Sharing::MessagePassing => "message-passing",
        Sharing::SharedMemory => "shared-memory",
    }
}

fn sharing_from(s: &str) -> Result<Sharing, String> {
    Ok(match s {
        "message-passing" => Sharing::MessagePassing,
        "shared-memory" => Sharing::SharedMemory,
        other => return Err(format!("unknown sharing {other:?}")),
    })
}

fn process_mgmt_name(p: ProcessMgmt) -> &'static str {
    match p {
        ProcessMgmt::Static => "static",
        ProcessMgmt::Dynamic => "dynamic",
    }
}

fn process_mgmt_from(s: &str) -> Result<ProcessMgmt, String> {
    Ok(match s {
        "static" => ProcessMgmt::Static,
        "dynamic" => ProcessMgmt::Dynamic,
        other => return Err(format!("unknown process management {other:?}")),
    })
}

pub fn select_to_json(req: &SelectRequest) -> Json {
    let r = &req.requirement;
    Json::obj()
        .field("problem", problem_name(r.problem))
        .field("topology", topology_name(r.topology))
        .field("timing", timing_name(r.network_timing))
        .field("fault", fault_name(r.fault_needed))
        .field("sharing", sharing_name(r.sharing))
        .field("process-mgmt", process_mgmt_name(r.process_mgmt))
}

fn select_from_json(j: &Json) -> Result<SelectRequest, String> {
    let required = |key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("select: missing string field '{key}'"))
    };
    let mut req = Requirement::basic(
        problem_from(required("problem")?)?,
        topology_from(required("topology")?)?,
        timing_from(required("timing")?)?,
    );
    if let Some(s) = j.get("fault").and_then(Json::as_str) {
        req.fault_needed = fault_from(s)?;
    }
    if let Some(s) = j.get("sharing").and_then(Json::as_str) {
        req.sharing = sharing_from(s)?;
    }
    if let Some(s) = j.get("process-mgmt").and_then(Json::as_str) {
        req.process_mgmt = process_mgmt_from(s)?;
    }
    Ok(SelectRequest { requirement: req })
}

/// The `req` object in canonical field order.
pub fn to_json(req: &Request) -> Json {
    match req {
        Request::Lint(r) => Json::obj()
            .field("name", r.name.as_str())
            .field("program", r.program.as_str()),
        Request::Simplify(r) => Json::obj()
            .field("expr", expr_to_json(&r.expr))
            .field("env", env_to_json(&r.env)),
        Request::Optimize(r) => {
            let j = Json::obj()
                .field("expr", expr_to_json(&r.expr))
                .field("env", env_to_json(&r.env))
                .field("cost-model", cost_name(r.cost));
            let j = match r.max_nodes {
                Some(n) => j.field("max-nodes", n),
                None => j,
            };
            match r.max_iters {
                Some(n) => j.field("max-iters", n),
                None => j,
            }
        }
        Request::Prove(r) => prove_to_json(r),
        Request::Select(r) => select_to_json(r),
        Request::Stats(r) => Json::obj().field("prefix", r.prefix.as_str()),
        Request::Trace(r) => Json::obj().field("id", r.id),
    }
}

fn from_kind_json(kind: &str, req: &Json) -> Result<Request, String> {
    Ok(match kind {
        "lint" => Request::Lint(lint_from_json(req)?),
        "simplify" => Request::Simplify(simplify_from_json(req)?),
        "optimize" => Request::Optimize(optimize_from_json(req)?),
        "prove" => Request::Prove(prove_from_json(req)?),
        "select" => Request::Select(select_from_json(req)?),
        "stats" => Request::Stats(StatsRequest {
            prefix: req
                .get("prefix")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        }),
        "trace" => Request::Trace(TraceQuery {
            id: req
                .get("id")
                .and_then(Json::as_f64)
                .ok_or("trace: missing numeric field 'id'")? as u64,
        }),
        other => return Err(format!("unknown request kind {other:?}")),
    })
}

/// Canonical form: kind + canonical payload rendering.
pub fn canonical(req: &Request) -> String {
    format!("{}:{}", req.kind(), render(&to_json(req)))
}

pub fn encode_request_traced(id: u64, req: &Request, trace: Option<u64>) -> String {
    let j = Json::obj()
        .field("id", id)
        .field("kind", req.kind())
        .field("req", to_json(req));
    render(&match trace {
        Some(t) => j.field("trace", t),
        None => j,
    })
}

pub fn decode_request_traced(frame: &str) -> Result<(u64, Request, Option<u64>), String> {
    let j = parse(frame).map_err(|e| format!("bad frame: {e}"))?;
    let id = j.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("bad frame: missing string field 'kind'")?;
    let req = j.get("req").ok_or("bad frame: missing field 'req'")?;
    let trace = j.get("trace").and_then(Json::as_f64).map(|t| t as u64);
    Ok((id, from_kind_json(kind, req)?, trace))
}

pub fn encode_response(id: u64, resp: &Response) -> String {
    let j = Json::obj().field("id", id);
    render(&match resp {
        Response::Ok { payload } => j
            .field("status", "ok")
            .field("resp", Json::Raw(payload.clone())),
        Response::Error { message } => j.field("status", "error").field("error", message.as_str()),
        Response::Overloaded => j.field("status", "overloaded"),
    })
}

/// The `simplify` payload, built as a tree.
pub fn simplify_payload(out: &Expr, stats: &gp_rewrite::SimplifyStats) -> String {
    let mut apps = Json::obj();
    for (rule, count) in &stats.applications {
        apps = apps.field(rule, *count);
    }
    render(
        &Json::obj()
            .field("expr", expr_to_json(out))
            .field("display", out.to_string())
            .field(
                "stats",
                Json::obj()
                    .field("iterations", stats.iterations)
                    .field("size_before", stats.size_before)
                    .field("size_after", stats.size_after)
                    .field("total", stats.total())
                    .field("applications", apps),
            ),
    )
}

/// The `optimize` handler with its payload built as a tree.
pub fn optimize_payload(req: &OptimizeRequest) -> String {
    let simplifier = gp_rewrite::Simplifier::superopt(req.env.build());
    let cost = req.cost.build();
    let mut session = simplifier.session();
    let (out, stats) = session.optimize(&req.expr, &req.config(), cost.as_ref());
    let mut apps = Json::obj();
    for (rule, count) in &stats.applications {
        apps = apps.field(rule, *count);
    }
    render(
        &Json::obj()
            .field("expr", expr_to_json(&out))
            .field("display", out.to_string())
            .field(
                "stats",
                Json::obj()
                    .field("classes", stats.classes)
                    .field("nodes", stats.nodes)
                    .field("unions", stats.unions)
                    .field("iters", stats.iters)
                    .field("saturated", stats.saturated)
                    .field("budget-hit", stats.budget_hit)
                    .field("cost-before", stats.cost_before)
                    .field("cost-after", stats.cost_after)
                    .field("extracted-size", stats.extracted_size)
                    .field("applications", apps),
            ),
    )
}
