//! `rewrite_mix`: distinct `simplify` and `optimize` requests, each a
//! template with its own literal in the hole.

use super::expr::{environments, int_expr, punch_hole, HOLE, MAX_EXPR_DEPTH};
use super::{split_frame, Expect, Item, CONNECTIONS};
use crate::rng::Rng;
use gp_rewrite::Expr;
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::simplify::SimplifyRequest;
use gp_service::Request;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A request frame split around its hole, so a request is two copies
/// and an integer format.
#[derive(Clone, Debug)]
struct HoleFrame {
    /// Text after the id, up to the hole.
    head: String,
    /// Text after the hole.
    tail: String,
    template: Arc<Expr>,
    kind: &'static str,
    optimize: bool,
}

impl HoleFrame {
    fn new(req: &Request, template: Expr) -> HoleFrame {
        let (head, tail) = split_frame(req, &HOLE.to_string());
        HoleFrame {
            head,
            tail,
            template: Arc::new(template),
            kind: req.kind(),
            optimize: matches!(req, Request::Optimize(_)),
        }
    }

    fn frame(&self, id: u64, value: i64) -> String {
        format!("{{\"id\":{id}{}{value}{}", self.head, self.tail)
    }
}

/// Share of `rewrite_mix` requests that are `simplify`.
const SIMPLIFY_SHARE: f64 = 0.8;
/// Templates per kind. A few templates carry most of the engines' cost
/// (the top 1% of requests take about a third of the handler time), so
/// the count is large enough that every seed draws about as many of
/// them: with a few hundred, the seed alone moved throughput by 10%.
const SIMPLIFY_TEMPLATES: usize = 4096;
const OPTIMIZE_TEMPLATES: usize = 4096;

/// A seed's `simplify` and `optimize` templates.
struct Templates {
    simplify: Vec<HoleFrame>,
    optimize: Vec<HoleFrame>,
}

pub(super) struct RewriteStream {
    rng: Rng,
    templates: Arc<Templates>,
    optimize_sent: u64,
    sent: i64,
}

/// Templates shared by both connections of a seed, built once per
/// process (the load, the echo floor and the check all replay them).
fn rewrite_templates(seed: u64) -> Arc<Templates> {
    static BUILT: OnceLock<Mutex<HashMap<u64, Arc<Templates>>>> = OnceLock::new();
    let mut built = BUILT
        .get_or_init(Default::default)
        .lock()
        .expect("template cache lock");
    Arc::clone(
        built
            .entry(seed)
            .or_insert_with(|| Arc::new(build_templates(seed))),
    )
}

fn build_templates(seed: u64) -> Templates {
    let envs = environments();
    let mut rng = Rng::derive(seed, 0x5157);
    let simplify = (0..SIMPLIFY_TEMPLATES)
        .map(|i| {
            let size = 20 + rng.below(181);
            let expr = int_expr(&mut rng, size, MAX_EXPR_DEPTH);
            let expr = punch_hole(&mut rng, expr);
            let req = Request::Simplify(SimplifyRequest {
                expr: expr.clone(),
                env: envs[i % envs.len()].clone(),
            });
            HoleFrame::new(&req, expr)
        })
        .collect();
    let optimize = (0..OPTIMIZE_TEMPLATES)
        .map(|i| {
            let size = 6 + rng.below(9);
            let expr = int_expr(&mut rng, size, MAX_EXPR_DEPTH);
            let expr = punch_hole(&mut rng, expr);
            let cost = if i % 2 == 0 {
                CostSpec::Annotation
            } else {
                CostSpec::Measured
            };
            let req = Request::Optimize(OptimizeRequest {
                expr: expr.clone(),
                env: envs[(i / 2) % envs.len()].clone(),
                cost,
                max_nodes: None,
                max_iters: None,
            });
            HoleFrame::new(&req, expr)
        })
        .collect();
    Templates { simplify, optimize }
}

impl RewriteStream {
    pub(super) fn new(seed: u64, conn: usize) -> RewriteStream {
        RewriteStream {
            rng: Rng::derive(seed, 0x5200 + conn as u64),
            templates: rewrite_templates(seed),
            optimize_sent: 0,
            sent: 0,
        }
    }

    pub(super) fn next(&mut self, id: u64, conn: usize) -> Item {
        // Unique per request across both connections, and never 0 or 1
        // (which would add identity or annihilator sites).
        let value = 2 + self.sent * CONNECTIONS as i64 + conn as i64;
        self.sent += 1;
        let Templates { simplify, optimize } = &*self.templates;
        let hf = if self.rng.chance(SIMPLIFY_SHARE) {
            &simplify[self.rng.below(simplify.len())]
        } else {
            // Alternate cost models: even templates use annotations,
            // odd ones measured counts.
            let n = optimize.len() / 2;
            let pick = 2 * self.rng.below(n) + (self.optimize_sent % 2) as usize;
            self.optimize_sent += 1;
            &optimize[pick]
        };
        Item {
            key: (conn as u64) << 40 | id,
            kind: hf.kind,
            frame: hf.frame(id, value),
            expect: Arc::new(Expect::Rewrite {
                template: Arc::clone(&hf.template),
                hole: value,
                optimize: hf.optimize,
            }),
            edit: 0,
        }
    }
}
