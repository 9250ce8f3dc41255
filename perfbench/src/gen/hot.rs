//! `hot_small`: small frames of all five kinds, keys drawn Zipf(1) from
//! a population four times the deployment's cache capacity.

use super::expr::{environments, fill_hole, int_expr, punch_hole};
use super::{frame_tail, Bug, Expect, Item, HOT_POPULATION, HOT_ZIPF_S};
use crate::rng::{Rng, Zipf};
use gp_service::lint::LintRequest;
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::SimplifyRequest;
use gp_service::Request;
use std::sync::Arc;

/// A `hot_small` key: its frame minus the id, and its known answer.
#[derive(Clone, Debug)]
pub struct HotKey {
    /// Request kind.
    pub kind: &'static str,
    /// Frame text after the id.
    pub tail: String,
    /// Known answer.
    pub expect: Arc<Expect>,
}

/// The theories `prove` keys draw from; every one checks under any
/// instance name (the hand-written verdict table).
const PROVE_TABLE: [(&str, bool); 5] = [
    ("monoid", true),
    ("monoid-identity-uniqueness", true),
    ("group", true),
    ("ring", true),
    ("order", true),
];

/// Hand-written selections: `(problem, topology, timing, fault,
/// expected algorithm)`, message passing and static processes. The
/// catalog offers nothing for shared memory, so every shared-memory
/// requirement expects no selection.
#[rustfmt::skip]
const SELECT_TABLE: [(&str, &str, &str, &str, Option<&str>); 16] = [
    ("leader-election", "uni-ring", "asynchronous", "none", Some("LCR")),
    ("leader-election", "bi-ring", "asynchronous", "none", Some("Hirschberg-Sinclair")),
    ("leader-election", "bi-ring", "asynchronous", "omission", Some("RetransLCR")),
    ("leader-election", "arbitrary", "synchronous", "none", Some("FloodMax")),
    ("leader-election", "arbitrary", "asynchronous", "none", Some("AsyncMax")),
    ("leader-election", "complete", "asynchronous", "none", Some("AsyncMax")),
    ("broadcast", "arbitrary", "asynchronous", "none", Some("Echo")),
    ("broadcast", "tree", "asynchronous", "none", Some("Echo")),
    ("broadcast", "arbitrary", "asynchronous", "omission", Some("ReliableEcho")),
    ("failure-detection", "arbitrary", "synchronous", "crash", Some("Heartbeat")),
    ("consensus", "complete", "partially-synchronous", "crash", Some("FT-FloodMax")),
    ("spanning-tree", "arbitrary", "synchronous", "none", Some("SyncBFS")),
    ("spanning-tree", "grid", "synchronous", "none", Some("SyncBFS")),
    ("leader-election", "arbitrary", "asynchronous", "byzantine", None),
    ("consensus", "ring", "asynchronous", "crash", None),
    ("mutual-exclusion", "arbitrary", "asynchronous", "none", None),
];

const PROBLEMS: [&str; 6] = [
    "leader-election",
    "broadcast",
    "spanning-tree",
    "consensus",
    "mutual-exclusion",
    "failure-detection",
];
const TOPOLOGIES: [&str; 8] = [
    "arbitrary",
    "ring",
    "uni-ring",
    "bi-ring",
    "complete",
    "tree",
    "star",
    "grid",
];
const TIMINGS: [&str; 3] = ["asynchronous", "partially-synchronous", "synchronous"];
const FAULTS: [&str; 4] = ["none", "crash", "omission", "byzantine"];

fn select_request(
    problem: &str,
    topology: &str,
    timing: &str,
    fault: &str,
    shared: Option<&str>,
) -> Request {
    // `shared` carries the process management of a shared-memory
    // requirement; `None` asks for message passing, static processes.
    let (sharing, mgmt) = match shared {
        Some(mgmt) => ("shared-memory", mgmt),
        None => ("message-passing", "static"),
    };
    let json = format!(
        "{{\"problem\":\"{problem}\",\"topology\":\"{topology}\",\"timing\":\"{timing}\",\
         \"fault\":\"{fault}\",\"sharing\":\"{sharing}\",\"process-mgmt\":\"{mgmt}\"}}"
    );
    let j = gp_core::json::Json::parse(&json).expect("generated select JSON parses");
    Request::Select(SelectRequest::from_json(&j).expect("generated select request is valid"))
}

/// Small checker programs after the bug corpus, on names ending in `t`:
/// source text and planted bugs.
fn small_program(variant: usize, t: &str) -> (String, Vec<Bug>) {
    let bug = |code, subject: String| vec![Bug { code, subject }];
    match variant % 8 {
        0 => (
            format!(
                "container s{t} list\ncontainer f{t} list\niter i{t} = begin s{t}\n\
                 while i{t} != end {{\n    deref i{t}\n    if {{\n        deref i{t}\n        \
                 push_back f{t}\n        erase s{t} i{t}\n    }} else {{\n        advance i{t}\n    }}\n}}\n"
            ),
            bug("deref-singular", format!("i{t}")),
        ),
        1 => (
            format!(
                "container s{t} list\niter i{t} = begin s{t}\nwhile i{t} != end {{\n    \
                 deref i{t}\n    if {{\n        erase s{t} i{t} -> i{t}\n    }} else {{\n        \
                 advance i{t}\n    }}\n}}\n"
            ),
            Vec::new(),
        ),
        2 => (
            format!("container c{t} vector\niter e{t} = end c{t}\nderef e{t}\n"),
            bug("deref-past-end", format!("e{t}")),
        ),
        3 => (
            format!(
                "container v{t} vector\niter i{t} = begin v{t}\npush_back v{t}\nderef i{t}\n"
            ),
            bug("deref-singular", format!("i{t}")),
        ),
        4 => (
            format!(
                "container l{t} list\niter i{t} = begin l{t}\npush_back l{t}\n\
                 while i{t} != end {{\n    deref i{t}\n    advance i{t}\n}}\n"
            ),
            Vec::new(),
        ),
        5 => (
            format!("container v{t} vector\ncall sort v{t}\ncall find v{t} -> i{t}\n"),
            bug("sorted-linear-search", format!("find(v{t})")),
        ),
        6 => (
            format!(
                "container v{t} vector\ncall sort v{t}\npush_back v{t}\ncall binary_search v{t}\n"
            ),
            bug("requires-sorted", format!("binary_search(v{t})")),
        ),
        _ => (
            format!(
                "fn g{t}(C) {{\n    push_back C\n}}\ncontainer v{t} vector\n\
                 call sort v{t}\ncall binary_search v{t}\ninvoke g{t}(v{t})\n"
            ),
            Vec::new(),
        ),
    }
}

/// The `hot_small` key population for `seed`, in popularity order (rank
/// 0 first). Kinds rotate with rank — lint, simplify, optimize, prove,
/// select — so every popularity band has the same kind mix whatever the
/// seed; the seed picks which key of each kind sits at each rank.
pub fn hot_population(seed: u64) -> Vec<HotKey> {
    let per_kind = HOT_POPULATION.div_ceil(5);
    let mut rng = Rng::derive(seed, 0x4070);
    let envs = environments();
    let mut lint: Vec<HotKey> = (0..per_kind)
        .map(|k| {
            let (program, bugs) = small_program(k, &format!("{k}"));
            let req = Request::Lint(LintRequest {
                name: format!("h{k}"),
                program,
            });
            hot_key(&req, Expect::Lint { bugs })
        })
        .collect();
    let rewrite = |optimize: bool, rng: &mut Rng| -> Vec<HotKey> {
        (0..per_kind)
            .map(|k| {
                let size = if optimize {
                    5 + rng.below(4)
                } else {
                    5 + rng.below(10)
                };
                let template = int_expr(rng, size, 6);
                let template = punch_hole(rng, template);
                // Distinct keys: each carries its own hole value.
                let hole = 2 + k as i64;
                let expr = fill_hole(&template, hole);
                let env = envs[rng.below(envs.len())].clone();
                let req = if optimize {
                    Request::Optimize(OptimizeRequest {
                        expr,
                        env,
                        cost: if k % 2 == 0 {
                            CostSpec::Annotation
                        } else {
                            CostSpec::Measured
                        },
                        max_nodes: None,
                        max_iters: None,
                    })
                } else {
                    Request::Simplify(SimplifyRequest { expr, env })
                };
                hot_key(
                    &req,
                    Expect::Rewrite {
                        template: Arc::new(template),
                        hole,
                        optimize,
                    },
                )
            })
            .collect()
    };
    let mut simplify = rewrite(false, &mut rng);
    let mut optimize = rewrite(true, &mut rng);
    let mut prove: Vec<HotKey> = (0..per_kind)
        .map(|k| {
            let (theory, ok) = PROVE_TABLE[k % PROVE_TABLE.len()];
            let req = Request::Prove(ProveRequest {
                theory: theory.to_string(),
                instance: format!("inst{k}"),
                model: Vec::new(),
            });
            hot_key(&req, Expect::Prove { ok })
        })
        .collect();
    let mut select: Vec<HotKey> = SELECT_TABLE
        .iter()
        .map(|&(p, t, tm, f, selected)| {
            hot_key(
                &select_request(p, t, tm, f, None),
                Expect::Select { selected },
            )
        })
        .collect();
    let mut shared: Vec<HotKey> = Vec::new();
    for p in PROBLEMS {
        for t in TOPOLOGIES {
            for tm in TIMINGS {
                for f in FAULTS {
                    for mgmt in ["static", "dynamic"] {
                        shared.push(hot_key(
                            &select_request(p, t, tm, f, Some(mgmt)),
                            Expect::Select { selected: None },
                        ));
                    }
                }
            }
        }
    }
    rng.shuffle(&mut shared);
    select.extend(shared.into_iter().take(per_kind - SELECT_TABLE.len()));
    for list in [
        &mut lint,
        &mut simplify,
        &mut optimize,
        &mut prove,
        &mut select,
    ] {
        rng.shuffle(list);
    }
    let mut lists = [lint, simplify, optimize, prove, select].map(|l| l.into_iter());
    (0..HOT_POPULATION)
        .map(|r| lists[r % 5].next().expect("each kind has enough keys"))
        .collect()
}

fn hot_key(req: &Request, expect: Expect) -> HotKey {
    HotKey {
        kind: req.kind(),
        tail: frame_tail(req),
        expect: Arc::new(expect),
    }
}

pub(super) struct HotStream {
    population: Arc<Vec<HotKey>>,
    zipf: Arc<Zipf>,
    rng: Rng,
}

impl HotStream {
    pub(super) fn new(seed: u64, conn: usize) -> HotStream {
        HotStream {
            population: Arc::new(hot_population(seed)),
            zipf: Arc::new(Zipf::new(HOT_POPULATION, HOT_ZIPF_S)),
            rng: Rng::derive(seed, 0x4300 + conn as u64),
        }
    }

    pub(super) fn next(&mut self, id: u64) -> Item {
        let r = self.zipf.sample(&mut self.rng);
        let key = &self.population[r];
        Item {
            key: r as u64,
            kind: key.kind,
            frame: format!("{{\"id\":{id}{}", key.tail),
            expect: Arc::clone(&key.expect),
            edit: 0,
        }
    }
}
