//! The `optimize` request: the concept superoptimizer as a service
//! (`gp-rewrite`'s equality-saturation mode backing).
//!
//! Where `simplify` runs the directed engine — the fast path, one
//! normal form — `optimize` saturates an e-graph under the same
//! concept-gated rules *plus* the exploration equalities (commutativity,
//! associativity) and extracts the cheapest equivalent under a named
//! cost model. The server escalates to the e-graph only for this kind;
//! `simplify` never pays for class machinery.
//!
//! Wire shape (kebab-case, canonical field order):
//!
//! ```json
//! {"expr": {...}, "env": "standard", "cost-model": "annotation",
//!  "max-nodes": 20000, "max-iters": 16}
//! ```
//!
//! `cost-model` picks between the taxonomy's asymptotic annotations
//! (`"annotation"`, evaluated at the nominal size) and the E9-style
//! measured operation counts (`"measured"`). The budgets are optional
//! and clamped by validation; hitting one is reported as the non-error
//! `budget-hit` flag in the response stats, mirroring
//! `gp_rewrite::egraph::OptimizeStats`.

use crate::codec::{first, Decoded};
use crate::simplify::{decode_expr, write_counts, write_expr, write_rewrite_head, EnvSpec};
use gp_core::json::{write_num, write_str, Json, Reader};
use gp_rewrite::egraph::{ComplexityCost, CostModel, EGraphConfig, MeasuredCost};
use gp_rewrite::{Expr, Simplifier};

/// Ceiling on the requestable node/class budget: keeps one `optimize`
/// request's memory bounded however generous the client feels.
pub const MAX_NODE_BUDGET: u64 = 1_000_000;

/// Ceiling on the requestable iteration budget.
pub const MAX_ITER_BUDGET: u64 = 64;

/// Which cost model extraction minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostSpec {
    /// Taxonomy complexity annotations evaluated at the nominal size.
    Annotation,
    /// E9-style measured operation counts.
    Measured,
}

impl CostSpec {
    fn name(self) -> &'static str {
        match self {
            CostSpec::Annotation => "annotation",
            CostSpec::Measured => "measured",
        }
    }

    fn from_name(s: &str) -> Result<Self, String> {
        Ok(match s {
            "annotation" => CostSpec::Annotation,
            "measured" => CostSpec::Measured,
            other => return Err(format!("unknown cost model {other:?}")),
        })
    }

    /// Build the model from the taxonomy's surfaced tables.
    pub fn build(self) -> Box<dyn CostModel + Send + Sync> {
        match self {
            CostSpec::Annotation => {
                let catalog = gp_taxonomy::op_cost_catalog();
                Box::new(ComplexityCost::from_annotations(
                    catalog.iter().map(|a| (a.key, &a.cost)),
                    gp_taxonomy::costs::NOMINAL_SIZE,
                ))
            }
            CostSpec::Measured => {
                Box::new(MeasuredCost::from_counts(gp_taxonomy::measured_op_counts()))
            }
        }
    }
}

/// Optimize `expr` under a concept environment and cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizeRequest {
    /// The expression to superoptimize.
    pub expr: Expr,
    /// The concept environment the rules consult.
    pub env: EnvSpec,
    /// The cost model extraction minimizes.
    pub cost: CostSpec,
    /// Node/class budget override (validated against [`MAX_NODE_BUDGET`]).
    pub max_nodes: Option<u64>,
    /// Iteration budget override (validated against [`MAX_ITER_BUDGET`]).
    pub max_iters: Option<u64>,
}

impl OptimizeRequest {
    /// Write the canonical JSON form (field order fixed — cache keys
    /// depend on it; unset budgets are omitted, not rendered as null).
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"expr\":");
        write_expr(out, &self.expr);
        out.push_str(",\"env\":");
        self.env.write_json(out);
        out.push_str(",\"cost-model\":");
        write_str(out, self.cost.name());
        if let Some(n) = self.max_nodes {
            out.push_str(",\"max-nodes\":");
            write_num(out, n as f64);
        }
        if let Some(n) = self.max_iters {
            out.push_str(",\"max-iters\":");
            write_num(out, n as f64);
        }
        out.push('}');
    }

    /// Decode and validate the `req` object. Missing `env` defaults to
    /// standard, missing `cost-model` to `"annotation"`; budgets must be
    /// positive integers within the service ceilings.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let (mut expr, mut env, mut cost) = (None, None, None);
        let (mut max_nodes, mut max_iters) = (None, None);
        r.object(|r, key| match &*key {
            "expr" => first(&mut expr, r, decode_expr),
            "env" => first(&mut env, r, EnvSpec::decode),
            "cost-model" => first(&mut cost, r, Reader::opt_str),
            "max-nodes" => first(&mut max_nodes, r, Reader::opt_num),
            "max-iters" => first(&mut max_iters, r, Reader::opt_num),
            _ => r.skip(),
        })?;
        Ok((|| {
            let expr = expr.ok_or("optimize: missing 'expr'")??;
            let env = env.unwrap_or(Ok(EnvSpec::Standard))?;
            let cost = match cost {
                None => CostSpec::Annotation,
                Some(c) => {
                    CostSpec::from_name(&c.ok_or("optimize: 'cost-model' must be a string")?)?
                }
            };
            Ok(OptimizeRequest {
                expr,
                env,
                cost,
                max_nodes: budget(max_nodes, "max-nodes", MAX_NODE_BUDGET)?,
                max_iters: budget(max_iters, "max-iters", MAX_ITER_BUDGET)?,
            })
        })())
    }

    /// The saturation budgets this request asks for.
    pub fn config(&self) -> EGraphConfig {
        let defaults = EGraphConfig::default();
        EGraphConfig {
            max_nodes: self.max_nodes.map_or(defaults.max_nodes, |n| n as usize),
            max_classes: self.max_nodes.map_or(defaults.max_classes, |n| n as usize),
            max_iters: self.max_iters.map_or(defaults.max_iters, |n| n as usize),
        }
    }
}

/// Validate one optional budget field (`Some(None)`: present but not a
/// number): a positive integer `<= ceiling`.
fn budget(field: Option<Option<f64>>, name: &str, ceiling: u64) -> Result<Option<u64>, String> {
    let Some(v) = field else {
        return Ok(None);
    };
    let f = v.ok_or_else(|| format!("optimize: '{name}' must be a number"))?;
    if f.fract() != 0.0 || f < 1.0 || f > ceiling as f64 {
        return Err(format!(
            "optimize: '{name}' must be an integer in 1..={ceiling}"
        ));
    }
    Ok(Some(f as u64))
}

/// Run one optimize request: superoptimizer rule set (standard plus
/// exploration equalities) over the requested environment, bounded
/// saturation, cost-based extraction. The payload is written directly.
pub fn handle(req: &OptimizeRequest) -> Result<Json, String> {
    let simplifier = Simplifier::superopt(req.env.build());
    let cost = req.cost.build();
    let mut session = simplifier.session();
    let (out, stats) = session.optimize(&req.expr, &req.config(), cost.as_ref());
    let mut s = String::new();
    write_rewrite_head(&mut s, &out);
    for (i, (name, n)) in [
        ("classes", stats.classes),
        ("nodes", stats.nodes),
        ("unions", stats.unions),
        ("iters", stats.iters),
    ]
    .into_iter()
    .enumerate()
    {
        s.push_str(if i == 0 { "{\"" } else { ",\"" });
        s.push_str(name);
        s.push_str("\":");
        write_num(&mut s, n as f64);
    }
    s.push_str(",\"saturated\":");
    s.push_str(if stats.saturated { "true" } else { "false" });
    s.push_str(",\"budget-hit\":");
    s.push_str(if stats.budget_hit { "true" } else { "false" });
    s.push_str(",\"cost-before\":");
    write_num(&mut s, stats.cost_before as f64);
    s.push_str(",\"cost-after\":");
    write_num(&mut s, stats.cost_after as f64);
    s.push_str(",\"extracted-size\":");
    write_num(&mut s, stats.extracted_size as f64);
    s.push_str(",\"applications\":");
    write_counts(&mut s, &stats.applications);
    s.push_str("}}");
    Ok(Json::Raw(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_str, written};
    use gp_rewrite::{BinOp, Type, UnOp};

    fn cancellation() -> Expr {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, x, y.clone()),
            Expr::un(UnOp::Neg, y),
        )
    }

    fn sample() -> OptimizeRequest {
        OptimizeRequest {
            expr: cancellation(),
            env: EnvSpec::Standard,
            cost: CostSpec::Measured,
            max_nodes: Some(5000),
            max_iters: None,
        }
    }

    #[test]
    fn json_round_trips_canonically() {
        let req = sample();
        let rendered = written(|out| req.write_json(out));
        let back = decode_str(&rendered, OptimizeRequest::decode).unwrap();
        assert_eq!(back, req);
        assert_eq!(written(|out| back.write_json(out)), rendered);
        // Kebab-case on the wire, and unset budgets stay off it.
        assert!(rendered.contains("\"cost-model\":\"measured\""));
        assert!(rendered.contains("\"max-nodes\":5000"));
        assert!(!rendered.contains("max-iters"));
    }

    #[test]
    fn defaults_fill_missing_optional_fields() {
        let req = decode_str(r#"{"expr":{"var":["x","int"]}}"#, OptimizeRequest::decode).unwrap();
        assert_eq!(req.env, EnvSpec::Standard);
        assert_eq!(req.cost, CostSpec::Annotation);
        assert_eq!(req.config().max_iters, EGraphConfig::default().max_iters);
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        for bad in [
            r#"{}"#,
            r#"{"expr":{"var":["x","int"]},"cost-model":"frobnicate"}"#,
            r#"{"expr":{"var":["x","int"]},"cost-model":7}"#,
            r#"{"expr":{"var":["x","int"]},"max-nodes":0}"#,
            r#"{"expr":{"var":["x","int"]},"max-nodes":2.5}"#,
            r#"{"expr":{"var":["x","int"]},"max-nodes":10000000}"#,
            r#"{"expr":{"var":["x","int"]},"max-iters":-3}"#,
            r#"{"expr":{"var":["x","int"]},"max-iters":"lots"}"#,
            r#"{"expr":{"var":["x","wibble"]}}"#,
        ] {
            assert!(
                decode_str(bad, OptimizeRequest::decode).is_err(),
                "accepted malformed optimize request {bad}"
            );
        }
    }

    #[test]
    fn handler_finds_the_cancellation_the_directed_engine_cannot() {
        let payload = handle(&sample()).unwrap().render();
        assert!(payload.contains("\"display\":\"x\""), "payload: {payload}");
        assert!(payload.contains("\"budget-hit\":false"));
        assert!(payload.contains("\"saturated\":true"));
    }

    #[test]
    fn both_cost_models_are_buildable_and_rank_div_over_inverse() {
        let mut store = gp_rewrite::TermStore::new();
        let f = store.var("f", Type::BigFloat);
        let one = store.lit(&gp_rewrite::Value::BigFloat(1.0));
        let div = store.binary(BinOp::Div, one, f);
        let call = store.call("Inverse", Type::BigFloat, &[f]);
        for spec in [CostSpec::Annotation, CostSpec::Measured] {
            let model = spec.build();
            assert!(
                model.node_cost(&store, div) > model.node_cost(&store, call),
                "{:?} must make the LiDIA rewrite a cost win",
                spec
            );
        }
    }
}
