//! Random Int expressions with identity and cancellation sites, the
//! hole a request's unique literal fills, and the environments rewrite
//! requests declare.

use crate::rng::Rng;
use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, Expr, Type, UnOp, Value};
use gp_service::simplify::{EnvDecl, EnvSpec};

/// Deepest expression tree any generator emits (its JSON nests about
/// twice as deep, still under 32 levels).
pub const MAX_EXPR_DEPTH: usize = 12;

/// The placeholder literal a rewrite template carries where each request
/// puts its own unique value.
pub const HOLE: i64 = 7_777_777_777;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn leaf(rng: &mut Rng) -> Expr {
    if rng.chance(0.75) {
        Expr::var(VARS[rng.below(VARS.len())], Type::Int)
    } else {
        Expr::int(rng.range(2, 10))
    }
}

/// A random Int expression of about `size` nodes, no deeper than
/// `depth`, seeded with identity and cancellation sites. Only `+`, `-`,
/// `*` and negation: exact under wrapping arithmetic, so every rewrite
/// the declared (true) models allow preserves the value.
pub fn int_expr(rng: &mut Rng, size: usize, depth: usize) -> Expr {
    if size <= 1 || depth <= 1 {
        return leaf(rng);
    }
    let sub = |rng: &mut Rng, n: usize| int_expr(rng, n, depth - 1);
    match rng.below(10) {
        // Identity sites: e + 0, 0 + e, e * 1, 1 * e.
        0 | 1 if size >= 3 => {
            let e = sub(rng, size - 2);
            match rng.below(4) {
                0 => Expr::bin(BinOp::Add, e, Expr::int(0)),
                1 => Expr::bin(BinOp::Add, Expr::int(0), e),
                2 => Expr::bin(BinOp::Mul, e, Expr::int(1)),
                _ => Expr::bin(BinOp::Mul, Expr::int(1), e),
            }
        }
        // Cancellation sites: e + (t + -t) (directed engine reduces it)
        // and (e + t) + -t (needs re-association).
        2 | 3 if size >= 7 && depth >= 4 => {
            let tsize = 1 + rng.below(3.min(size / 4));
            let t = int_expr(rng, tsize, depth - 3);
            let e = int_expr(rng, size - 2 * tsize - 3, depth - 2);
            if rng.chance(0.5) {
                Expr::bin(
                    BinOp::Add,
                    e,
                    Expr::bin(BinOp::Add, t.clone(), Expr::un(UnOp::Neg, t)),
                )
            } else {
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Add, e, t.clone()),
                    Expr::un(UnOp::Neg, t),
                )
            }
        }
        _ if size == 2 => Expr::un(UnOp::Neg, leaf(rng)),
        4 => Expr::un(UnOp::Neg, sub(rng, size - 1)),
        _ => {
            let rest = size - 1;
            let half = rest / 2;
            let jitter = rng.below(half / 2 + 1);
            let left = (half - jitter / 2 + rng.below(jitter + 1)).clamp(1, rest - 1);
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.below(3)];
            let l = sub(rng, left);
            let r = sub(rng, rest - left);
            Expr::bin(op, l, r)
        }
    }
}

/// Replace one leaf (chosen by `rng`) with the [`HOLE`] literal.
pub(crate) fn punch_hole(rng: &mut Rng, e: Expr) -> Expr {
    fn leaves(e: &Expr) -> usize {
        match e {
            Expr::Lit(_) | Expr::Var(..) => 1,
            Expr::Unary(_, x) => leaves(x),
            Expr::Binary(_, l, r) => leaves(l) + leaves(r),
            Expr::Call(_, _, args) => args.iter().map(leaves).sum(),
        }
    }
    fn go(e: Expr, k: &mut usize) -> Expr {
        match e {
            Expr::Lit(_) | Expr::Var(..) => {
                let hit = *k == 0;
                *k = k.wrapping_sub(1);
                if hit {
                    Expr::int(HOLE)
                } else {
                    e
                }
            }
            Expr::Unary(op, x) => Expr::Unary(op, Box::new(go(*x, k))),
            Expr::Binary(op, l, r) => {
                let l = go(*l, k);
                Expr::Binary(op, Box::new(l), Box::new(go(*r, k)))
            }
            call => call,
        }
    }
    let mut k = rng.below(leaves(&e));
    go(e, &mut k)
}

/// The template with its [`HOLE`] replaced by `value`.
pub fn fill_hole(template: &Expr, value: i64) -> Expr {
    match template {
        Expr::Lit(Value::Int(HOLE)) => Expr::int(value),
        Expr::Lit(_) | Expr::Var(..) => template.clone(),
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(fill_hole(x, value))),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(fill_hole(l, value)),
            Box::new(fill_hole(r, value)),
        ),
        Expr::Call(n, t, args) => Expr::Call(
            n.clone(),
            *t,
            args.iter().map(|a| fill_hole(a, value)).collect(),
        ),
    }
}

/// The four environments rewrite requests draw from. Each declares only
/// laws that wrapping `i64` arithmetic really satisfies.
pub fn environments() -> [EnvSpec; 4] {
    let add_group = EnvDecl {
        ty: Type::Int,
        op: BinOp::Add,
        concepts: vec![AlgConcept::Group, AlgConcept::Commutative],
        identity: Some(Value::Int(0)),
        annihilator: None,
        inverse: Some(UnOp::Neg),
    };
    let add_monoid = EnvDecl {
        concepts: vec![AlgConcept::Monoid],
        inverse: None,
        ..add_group.clone()
    };
    let mul_monoid = EnvDecl {
        ty: Type::Int,
        op: BinOp::Mul,
        concepts: vec![AlgConcept::Monoid, AlgConcept::Commutative],
        identity: Some(Value::Int(1)),
        annihilator: Some(Value::Int(0)),
        inverse: None,
    };
    let mul_plain = EnvDecl {
        concepts: vec![AlgConcept::Monoid],
        annihilator: None,
        ..mul_monoid.clone()
    };
    [
        EnvSpec::Standard,
        EnvSpec::Custom(vec![add_group.clone()]),
        EnvSpec::Custom(vec![add_monoid, mul_plain]),
        EnvSpec::Custom(vec![add_group, mul_monoid]),
    ]
}
