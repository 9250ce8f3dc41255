//! The `Simplify` request: Simplicissimus as a service (`gp-rewrite`
//! backing), plus the environment fingerprint that drives micro-batching.
//!
//! The expression travels as a JSON AST (`{"bin":["+",l,r]}` …) and the
//! concept environment as either the string `"standard"` or an explicit
//! declaration list. Requests whose environments render to the same
//! canonical JSON share a **fingerprint**; the serving core groups queued
//! requests by fingerprint and builds the `Simplifier` (environment +
//! rule set) once per batch instead of once per request — the
//! amortization the `ConceptEnv::standard_ref` cache starts and batching
//! finishes.
//!
//! Wire caveat: numeric literals ride in JSON numbers (f64), so `Int`/
//! `UInt` literals are exact only up to 2^53 — plenty for rewrite
//! workloads, and the same bound every JSON consumer of the bench
//! artifacts already lives with.

use crate::codec::{canonical, decode_tree, first, first_shape, Decoded, Shaped};
use crate::request::fnv1a;
use gp_core::json::{write_num, write_str, Json, Reader};
use gp_core::numeric::Rational;
use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, ConceptEnv, Expr, Simplifier, Type, UnOp, Value};
use std::collections::BTreeMap;
use std::ops::Range;

/// Simplify `expr` under a concept environment.
#[derive(Clone, Debug, PartialEq)]
pub struct SimplifyRequest {
    /// The expression to rewrite.
    pub expr: Expr,
    /// The concept environment the rules consult.
    pub env: EnvSpec,
}

/// A serializable concept environment.
#[derive(Clone, Debug, PartialEq)]
pub enum EnvSpec {
    /// The Fig. 5 standard environment (shared `&'static`, never rebuilt).
    Standard,
    /// An explicit declaration list over an empty environment.
    Custom(Vec<EnvDecl>),
}

/// One `(type, op)` declaration of a custom environment.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvDecl {
    /// The modeling type.
    pub ty: Type,
    /// The operation.
    pub op: BinOp,
    /// Declared concepts (Monoid/Group imply the weaker ones).
    pub concepts: Vec<AlgConcept>,
    /// Identity element, if declared.
    pub identity: Option<Value>,
    /// Annihilator element, if declared.
    pub annihilator: Option<Value>,
    /// Inverse-building unary operator, if declared.
    pub inverse: Option<UnOp>,
}

// --- name tables -------------------------------------------------------

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

// --- value / expression codec ------------------------------------------

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(x) => {
            out.push_str("{\"int\":");
            write_num(out, *x as f64);
        }
        Value::UInt(x) => {
            out.push_str("{\"uint\":");
            write_num(out, *x as f64);
        }
        Value::Float(x) => {
            out.push_str("{\"float\":");
            write_num(out, *x);
        }
        Value::Bool(b) => {
            out.push_str(if *b {
                "{\"bool\":true"
            } else {
                "{\"bool\":false"
            });
        }
        Value::Str(s) => {
            out.push_str("{\"str\":");
            write_str(out, s);
        }
        Value::Rational(r) => {
            out.push_str("{\"rational\":[");
            write_num(out, r.numerator() as f64);
            out.push(',');
            write_num(out, r.denominator() as f64);
            out.push(']');
        }
        Value::BigFloat(x) => {
            out.push_str("{\"bigfloat\":");
            write_num(out, *x);
        }
    }
    out.push('}');
}

/// Decode a literal value: the first of `int`, `uint`, `float`, `bool`,
/// `str`, `bigfloat`, `rational` present with the right JSON type.
fn decode_value(r: &mut Reader<'_>) -> Decoded<Value> {
    let rank = |key: &str| match key {
        "int" => Some(0),
        "uint" => Some(1),
        "float" => Some(2),
        "bool" => Some(3),
        "str" => Some(4),
        "bigfloat" => Some(5),
        "rational" => Some(6),
        _ => None,
    };
    let (value, text) = first_shape(r, rank, |r, rank| {
        Ok(match rank {
            0 => r.opt_num()?.map(|x| Ok(Value::Int(x as i64))),
            1 => r.opt_num()?.map(|x| Ok(Value::UInt(x as u64))),
            2 => r.opt_num()?.map(|x| Ok(Value::Float(x))),
            3 => r.opt_bool()?.map(|b| Ok(Value::Bool(b))),
            4 => r.opt_str()?.map(|s| Ok(Value::Str(s.into_owned()))),
            5 => r.opt_num()?.map(|x| Ok(Value::BigFloat(x))),
            _ => decode_rational(r)?,
        })
    })?;
    Ok(value.unwrap_or_else(|| Err(format!("unrecognized value {:?}", canonical(text)))))
}

/// A `rational` field: `None` if it is not an array.
fn decode_rational(r: &mut Reader<'_>) -> Shaped<Value> {
    let (mut nums, mut len) = ([None, None], 0);
    let is_array = r.array(|r, i| {
        len = i + 1;
        match nums.get_mut(i) {
            Some(slot) => *slot = r.opt_num()?,
            None => r.skip()?,
        }
        Ok(())
    })?;
    Ok(is_array.then(|| match (len, nums) {
        // Checked here, not left to `Rational::new`: its assertion (a
        // denominator like 0.5 truncates to 0) and its `i64::MIN`
        // overflow would panic the thread decoding the frame.
        (2, [Some(n), Some(d)]) => match (n as i64, d as i64) {
            (_, 0) => Err("rational with zero denominator".into()),
            (i64::MIN, _) | (_, i64::MIN) => Err("rational out of range".into()),
            (n, d) => Ok(Value::Rational(Rational::new(n, d))),
        },
        _ => Err("rational expects [num, den]".into()),
    }))
}

/// Write an expression as its JSON AST (`{"bin":["+",l,r]}` …).
pub(crate) fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Lit(v) => {
            out.push_str("{\"lit\":");
            write_value(out, v);
        }
        Expr::Var(name, ty) => {
            out.push_str("{\"var\":[");
            write_str(out, name);
            out.push(',');
            write_str(out, type_name(*ty));
            out.push(']');
        }
        Expr::Unary(op, x) => {
            out.push_str("{\"un\":[");
            write_str(out, unop_name(*op));
            out.push(',');
            write_expr(out, x);
            out.push(']');
        }
        Expr::Binary(op, l, r) => {
            out.push_str("{\"bin\":[");
            write_str(out, op.symbol());
            out.push(',');
            write_expr(out, l);
            out.push(',');
            write_expr(out, r);
            out.push(']');
        }
        Expr::Call(name, ty, args) => {
            out.push_str("{\"call\":[");
            write_str(out, name);
            out.push(',');
            write_str(out, type_name(*ty));
            out.push_str(",[");
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_expr(out, arg);
            }
            out.push_str("]]");
        }
    }
    out.push('}');
}

/// Encode an expression as a JSON AST (pre-rendered: a [`Json::Raw`]).
pub fn expr_to_json(e: &Expr) -> Json {
    let mut out = String::new();
    write_expr(&mut out, e);
    Json::Raw(out)
}

/// Decode a JSON AST back into an expression (through the same
/// streaming decoder the wire uses).
pub fn expr_from_json(j: &Json) -> Result<Expr, String> {
    decode_tree(j, decode_expr)
}

/// Decode an expression (see [`decode_boxed`]).
pub(crate) fn decode_expr(r: &mut Reader<'_>) -> Decoded<Expr> {
    decode_boxed(r).map(|e| e.map(|e| *e))
}

/// Decode an expression: the first of `lit`, `var`, `un`, `bin`, `call`
/// present (the last four only as arrays) decides its shape. Each node
/// is boxed where it is built, so only pointers move up the recursion.
fn decode_boxed(r: &mut Reader<'_>) -> Decoded<Box<Expr>> {
    let rank = |key: &str| match key {
        "lit" => Some(0),
        "var" => Some(1),
        "un" => Some(2),
        "bin" => Some(3),
        "call" => Some(4),
        _ => None,
    };
    let (expr, text) = first_shape(r, rank, |r, rank| match rank {
        0 => Ok(Some(decode_value(r)?.map(|v| Box::new(Expr::Lit(v))))),
        1 => decode_var(r),
        2 => decode_un(r),
        3 => decode_bin(r),
        _ => decode_call(r),
    })?;
    Ok(expr.unwrap_or_else(|| Err(format!("unrecognized expression {:?}", canonical(text)))))
}

fn decode_var(r: &mut Reader<'_>) -> Shaped<Box<Expr>> {
    let (mut name, mut ty, mut len) = (None, None, 0);
    let is_array = r.array(|r, i| {
        len = i + 1;
        match i {
            0 => name = r.opt_str()?,
            1 => ty = r.opt_str()?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(is_array.then(|| match (len, name, ty) {
        (2, Some(name), Some(ty)) => Ok(Box::new(Expr::Var(name.into_owned(), type_from(&ty)?))),
        _ => Err("var expects [name, type]".into()),
    }))
}

fn decode_un(r: &mut Reader<'_>) -> Shaped<Box<Expr>> {
    let (mut op, mut x, mut len) = (None, None, 0);
    let is_array = r.array(|r, i| {
        len = i + 1;
        match i {
            0 => op = r.opt_str()?,
            1 => x = Some(decode_boxed(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(is_array.then(|| match (len, op, x) {
        (2, Some(op), Some(x)) => Ok(Box::new(Expr::Unary(unop_from(&op)?, x?))),
        _ => Err("un expects [op, expr]".into()),
    }))
}

fn decode_bin(r: &mut Reader<'_>) -> Shaped<Box<Expr>> {
    let (mut op, mut lhs, mut rhs, mut len) = (None, None, None, 0);
    let is_array = r.array(|r, i| {
        len = i + 1;
        match i {
            0 => op = r.opt_str()?,
            1 => lhs = Some(decode_boxed(r)?),
            2 => rhs = Some(decode_boxed(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(is_array.then(|| match (len, op, lhs, rhs) {
        (3, Some(op), Some(l), Some(r)) => Ok(Box::new(Expr::Binary(binop_from(&op)?, l?, r?))),
        _ => Err("bin expects [op, lhs, rhs]".into()),
    }))
}

fn decode_call(r: &mut Reader<'_>) -> Shaped<Box<Expr>> {
    let (mut name, mut ty, mut args, mut len) = (None, None, None, 0);
    let is_array = r.array(|r, i| {
        len = i + 1;
        match i {
            0 => name = r.opt_str()?,
            1 => ty = r.opt_str()?,
            2 => args = decode_list(r, decode_expr)?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(is_array.then(|| match (len, name, ty, args) {
        (3, Some(name), Some(ty), Some(args)) => {
            let args = args?;
            Ok(Box::new(Expr::Call(
                name.into_owned(),
                type_from(&ty)?,
                args,
            )))
        }
        _ => Err("call expects [name, type, [args]]".into()),
    }))
}

/// An array of items: `None` if the value is not an array, otherwise
/// every item or the first item's error.
fn decode_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Shaped<Vec<T>> {
    let mut items = Ok(Vec::new());
    let is_array = r.array(|r, _| {
        let decoded = item(r)?;
        if let Ok(list) = &mut items {
            match decoded {
                Ok(x) => list.push(x),
                Err(e) => items = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(is_array.then_some(items))
}

// --- environment codec --------------------------------------------------

impl EnvDecl {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"ty\":");
        write_str(out, type_name(self.ty));
        out.push_str(",\"op\":");
        write_str(out, self.op.symbol());
        out.push_str(",\"concepts\":[");
        for (i, c) in self.concepts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, concept_name(*c));
        }
        out.push(']');
        if let Some(v) = &self.identity {
            out.push_str(",\"identity\":");
            write_value(out, v);
        }
        if let Some(v) = &self.annihilator {
            out.push_str(",\"annihilator\":");
            write_value(out, v);
        }
        if let Some(u) = self.inverse {
            out.push_str(",\"inverse\":");
            write_str(out, unop_name(u));
        }
        out.push('}');
    }

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let (mut ty, mut op, mut concepts) = (None, None, None);
        let (mut identity, mut annihilator, mut inverse) = (None, None, None);
        r.object(|r, key| match &*key {
            "ty" => first(&mut ty, r, Reader::opt_str),
            "op" => first(&mut op, r, Reader::opt_str),
            "concepts" => first(&mut concepts, r, |r| {
                decode_list(r, |r| {
                    Ok(match r.opt_str()? {
                        Some(c) => concept_from(&c),
                        None => Err("concept must be a string".into()),
                    })
                })
            }),
            "identity" => first(&mut identity, r, decode_value),
            "annihilator" => first(&mut annihilator, r, decode_value),
            "inverse" => first(&mut inverse, r, Reader::opt_str),
            _ => r.skip(),
        })?;
        Ok((|| {
            let ty = type_from(&ty.flatten().ok_or("declaration missing 'ty'")?)?;
            let op = binop_from(&op.flatten().ok_or("declaration missing 'op'")?)?;
            let concepts = concepts
                .flatten()
                .ok_or("declaration missing 'concepts' array")??;
            let identity = identity.transpose()?;
            let annihilator = annihilator.transpose()?;
            let inverse = inverse
                .map(|u| unop_from(&u.ok_or("inverse must be a string")?))
                .transpose()?;
            Ok(EnvDecl {
                ty,
                op,
                concepts,
                identity,
                annihilator,
                inverse,
            })
        })())
    }
}

impl EnvSpec {
    /// Write the canonical JSON form: `"standard"` or `{"declare":[...]}`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            EnvSpec::Standard => out.push_str("\"standard\""),
            EnvSpec::Custom(decls) => {
                out.push_str("{\"declare\":[");
                for (i, d) in decls.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    d.write_json(out);
                }
                out.push_str("]}");
            }
        }
    }

    /// Decode; the string `"standard"` or `{"declare": [...]}`.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        const SHAPE: &str = "env must be \"standard\" or {\"declare\": [...]}";
        if r.peek() == Some(b'"') {
            return Ok(if r.str()? == "standard" {
                Ok(EnvSpec::Standard)
            } else {
                Err(SHAPE.into())
            });
        }
        let mut declare = None;
        r.object(|r, key| match &*key {
            "declare" => first(&mut declare, r, |r| decode_list(r, EnvDecl::decode)),
            _ => r.skip(),
        })?;
        Ok(match declare.flatten() {
            Some(decls) => decls.map(EnvSpec::Custom),
            None => Err(SHAPE.into()),
        })
    }

    /// Materialize the concept environment this spec describes.
    pub fn build(&self) -> ConceptEnv {
        match self {
            // One clone of the process-wide cached build; see
            // `ConceptEnv::standard_ref`.
            EnvSpec::Standard => ConceptEnv::standard(),
            EnvSpec::Custom(decls) => {
                let mut env = ConceptEnv::empty();
                for d in decls {
                    for c in &d.concepts {
                        env.declare(d.ty, d.op, *c);
                    }
                    if let Some(v) = &d.identity {
                        env.set_identity(d.ty, d.op, v.clone());
                    }
                    if let Some(v) = &d.annihilator {
                        env.set_annihilator(d.ty, d.op, v.clone());
                    }
                    if let Some(u) = d.inverse {
                        env.set_inverse_op(d.ty, d.op, u);
                    }
                }
                env
            }
        }
    }

    /// The batching key: hash of the canonical environment JSON. Requests
    /// with equal fingerprints can share one `Simplifier`. A served
    /// request takes it from its canonical form instead
    /// ([`crate::request::RequestKey`]), which contains the same bytes.
    pub fn fingerprint(&self) -> u64 {
        let mut out = String::new();
        self.write_json(&mut out);
        fnv1a(&out)
    }
}

impl SimplifyRequest {
    /// Write the canonical JSON form (field order fixed — cache keys
    /// depend on it); returns where the environment landed in `out`.
    pub(crate) fn write_json(&self, out: &mut String) -> Range<usize> {
        out.push_str("{\"expr\":");
        write_expr(out, &self.expr);
        out.push_str(",\"env\":");
        let env_start = out.len();
        self.env.write_json(out);
        let env = env_start..out.len();
        out.push('}');
        env
    }

    /// Decode the `req` object of a request envelope. A missing `env`
    /// defaults to the standard environment.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let (mut expr, mut env) = (None, None);
        r.object(|r, key| match &*key {
            "expr" => first(&mut expr, r, decode_expr),
            "env" => first(&mut env, r, EnvSpec::decode),
            _ => r.skip(),
        })?;
        Ok((|| {
            Ok(SimplifyRequest {
                expr: expr.ok_or("simplify: missing 'expr'")??,
                env: env.unwrap_or(Ok(EnvSpec::Standard))?,
            })
        })())
    }
}

/// Simplify one request (a batch of one).
pub fn handle(req: &SimplifyRequest) -> Result<Json, String> {
    handle_batch(std::slice::from_ref(req)).pop().unwrap()
}

/// Batch size at which simplification fans out to the `gp-parallel`
/// pool. Below it, the shared-interner sequential path wins (common
/// subterms across the batch intern once, and no spawn overhead).
const PARALLEL_BATCH_THRESHOLD: usize = 8;

/// Simplify a batch of requests sharing an environment fingerprint: the
/// `Simplifier` (environment + rule set + resolved fire counters + rule
/// dispatch index) is built **once** and reused for every expression —
/// the amortization the serving core's micro-batching exists to exploit.
///
/// Small batches run sequentially on one rewriting session, so common
/// subterms across entries are interned once (the normal-form memo is
/// reset per entry, keeping each result and its stats byte-identical to a
/// solo call — the response cache depends on that). Large batches fan out
/// to the `gp-parallel` pool, one independent session per entry.
pub fn handle_batch(reqs: &[SimplifyRequest]) -> Vec<Result<Json, String>> {
    let Some(first) = reqs.first() else {
        return Vec::new();
    };
    debug_assert!(
        reqs.iter()
            .all(|r| r.env.fingerprint() == first.env.fingerprint()),
        "batched simplify requests must share an environment fingerprint"
    );
    let simplifier = Simplifier::with_env(first.env.build());
    let exprs: Vec<Expr> = reqs.iter().map(|r| r.expr.clone()).collect();
    let results = if reqs.len() >= PARALLEL_BATCH_THRESHOLD {
        simplifier.simplify_batch_parallel(&exprs)
    } else {
        simplifier.simplify_batch(&exprs)
    };
    results
        .into_iter()
        .map(|(out, stats)| Ok(render_result(&out, &stats)))
        .collect()
}

/// The payload for one simplified expression, written directly.
fn render_result(out: &Expr, stats: &gp_rewrite::SimplifyStats) -> Json {
    let mut s = String::new();
    write_rewrite_head(&mut s, out);
    s.push_str("{\"iterations\":");
    write_num(&mut s, stats.iterations as f64);
    s.push_str(",\"size_before\":");
    write_num(&mut s, stats.size_before as f64);
    s.push_str(",\"size_after\":");
    write_num(&mut s, stats.size_after as f64);
    s.push_str(",\"total\":");
    write_num(&mut s, stats.total() as f64);
    s.push_str(",\"applications\":");
    write_counts(&mut s, &stats.applications);
    s.push_str("}}");
    Json::Raw(s)
}

/// The start every rewrite payload shares, up to the `stats` object:
/// `{"expr":...,"display":"...","stats":`.
pub(crate) fn write_rewrite_head(s: &mut String, out: &Expr) {
    s.push_str("{\"expr\":");
    write_expr(s, out);
    s.push_str(",\"display\":");
    write_str(s, &out.to_string());
    s.push_str(",\"stats\":");
}

/// A rule → count map as a JSON object, in the map's order.
pub(crate) fn write_counts(s: &mut String, counts: &BTreeMap<String, usize>) {
    s.push('{');
    for (i, (rule, count)) in counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_str(s, rule);
        s.push(':');
        write_num(s, *count as f64);
    }
    s.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_times_one_plus_y_minus_y() -> Expr {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, x, Expr::int(1)),
            Expr::bin(BinOp::Add, y.clone(), Expr::un(UnOp::Neg, y)),
        )
    }

    #[test]
    fn expressions_round_trip_through_the_codec() {
        let exprs = [
            x_times_one_plus_y_minus_y(),
            Expr::Lit(Value::Rational(Rational::new(2, 3))),
            Expr::Call(
                "Inverse".into(),
                Type::BigFloat,
                vec![Expr::var("f", Type::BigFloat)],
            ),
            Expr::bin(BinOp::Concat, Expr::string("a\"b\n"), Expr::string("")),
            Expr::un(UnOp::Not, Expr::boolean(false)),
            Expr::bin(BinOp::BitAnd, Expr::uint(0xF0), Expr::var("m", Type::UInt)),
        ];
        for e in exprs {
            let j = expr_to_json(&e);
            let back = expr_from_json(&Json::parse(&j.render()).unwrap()).unwrap();
            assert_eq!(back, e, "codec round-trip for {e}");
        }
    }

    #[test]
    fn standard_env_simplifies_to_x() {
        let req = SimplifyRequest {
            expr: x_times_one_plus_y_minus_y(),
            env: EnvSpec::Standard,
        };
        let payload = Json::parse(&handle(&req).unwrap().render()).unwrap();
        assert_eq!(payload.get("display").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn custom_env_declaration_enables_rules_for_free() {
        // Declaring a Monoid for (BigFloat, +) makes right-identity fire
        // with no rule changes — Fig. 5's "for free" advantage, over the
        // wire.
        let env = EnvSpec::Custom(vec![EnvDecl {
            ty: Type::BigFloat,
            op: BinOp::Add,
            concepts: vec![AlgConcept::Monoid],
            identity: Some(Value::BigFloat(0.0)),
            annihilator: None,
            inverse: None,
        }]);
        let req = SimplifyRequest {
            expr: Expr::bin(
                BinOp::Add,
                Expr::var("m", Type::BigFloat),
                Expr::bigfloat(0.0),
            ),
            env: env.clone(),
        };
        let text = crate::codec::written(|out| {
            req.write_json(out);
        });
        let decoded = crate::codec::decode_str(&text, SimplifyRequest::decode).unwrap();
        assert_eq!(decoded, req);
        let payload = Json::parse(&handle(&req).unwrap().render()).unwrap();
        assert_eq!(payload.get("display").and_then(Json::as_str), Some("m"));
    }

    #[test]
    fn fingerprints_separate_environments_not_expressions() {
        let a = SimplifyRequest {
            expr: Expr::int(1),
            env: EnvSpec::Standard,
        };
        let b = SimplifyRequest {
            expr: x_times_one_plus_y_minus_y(),
            env: EnvSpec::Standard,
        };
        let c = SimplifyRequest {
            expr: Expr::int(1),
            env: EnvSpec::Custom(vec![]),
        };
        assert_eq!(a.env.fingerprint(), b.env.fingerprint());
        assert_ne!(a.env.fingerprint(), c.env.fingerprint());
    }

    #[test]
    fn batch_results_match_individual_handling() {
        let reqs: Vec<SimplifyRequest> = (0..4)
            .map(|i| SimplifyRequest {
                expr: Expr::bin(
                    BinOp::Mul,
                    Expr::var(format!("v{i}"), Type::Int),
                    Expr::int(1),
                ),
                env: EnvSpec::Standard,
            })
            .collect();
        let batched = handle_batch(&reqs);
        for (req, b) in reqs.iter().zip(&batched) {
            let solo = handle(req).unwrap();
            assert_eq!(b.as_ref().unwrap().render(), solo.render());
        }
    }

    #[test]
    fn large_batch_takes_the_parallel_path_and_still_matches_solo() {
        // 3× the fan-out threshold, with shared structure between entries.
        let shared = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1)),
            Expr::int(0),
        );
        let reqs: Vec<SimplifyRequest> = (0..24)
            .map(|i| SimplifyRequest {
                expr: Expr::bin(
                    BinOp::Add,
                    shared.clone(),
                    Expr::var(format!("v{i}"), Type::Int),
                ),
                env: EnvSpec::Standard,
            })
            .collect();
        let batched = handle_batch(&reqs);
        assert_eq!(batched.len(), reqs.len());
        for (req, b) in reqs.iter().zip(&batched) {
            let solo = handle(req).unwrap();
            assert_eq!(b.as_ref().unwrap().render(), solo.render());
        }
    }
}
