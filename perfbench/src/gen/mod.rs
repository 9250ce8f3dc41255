//! Seeded request streams for the three workloads, each request paired
//! with an answer known without asking the engine.
//!
//! Every stream is a pure function of `(workload, seed, connection)`:
//! the load generator and the answer check after the timed window
//! regenerate the same frames by replaying the stream from its start.
//! Expression trees stay within depth 12 and checker programs nest
//! blocks at most six deep, so no input nests deeper than 32 levels and
//! none comes near the deep-nesting limits of the server's recursive
//! parsers: the benchmark measures the serving path, not those limits.

mod expr;
mod hot;
mod lint;
mod rewrite;

pub use hot::{hot_population, HotKey};

use expr::fill_hole;
use gp_rewrite::Expr;
use gp_service::{encode_request, Request};
use hot::HotStream;
use lint::LintStream;
use rewrite::RewriteStream;
use std::sync::Arc;

/// Connections the load generator opens on every workload.
pub const CONNECTIONS: usize = 2;

/// Distinct keys in the `hot_small` population: four times the
/// deployment's combined response-cache capacity (2 shards × 512).
pub const HOT_POPULATION: usize = 4096;

/// Zipf exponent of `hot_small` key popularity.
pub const HOT_ZIPF_S: f64 = 1.0;

/// Combined response-cache capacity of the default deployment.
pub const CACHE_CAPACITY: usize = 2 * 512;

/// Largest `hot_small` frame, in bytes.
pub const HOT_FRAME_MAX: usize = 1024;

/// The traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Editor sessions: a cold interprocedural program, then one-function
    /// edits of it, one request in flight per connection.
    LintEdit,
    /// Distinct `simplify` (about 80%) and `optimize` requests over four
    /// environments, eight in flight per connection.
    RewriteMix,
    /// Small frames of all five kinds, Zipf-popular keys, sixteen in
    /// flight per connection.
    HotSmall,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::LintEdit, Workload::RewriteMix, Workload::HotSmall];

    /// The workloads `BENCHMARK.json` lists. `lint_edit` stays out
    /// until the checker's process-wide summary cache stops serving one
    /// function version's summary for another: on it, a third to a half
    /// of 10 s runs get wrong diagnostics and exit non-zero (the ignored
    /// self-test `lint_edit_answers_survive_the_summary_cache`
    /// reproduces it). It still runs by name and under `all`.
    pub const BENCHMARKED: [Workload; 2] = [Workload::RewriteMix, Workload::HotSmall];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LintEdit => "lint_edit",
            Workload::RewriteMix => "rewrite_mix",
            Workload::HotSmall => "hot_small",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Requests kept in flight per connection (the closed loop's window).
    pub fn window(self) -> usize {
        match self {
            Workload::LintEdit => 1,
            Workload::RewriteMix => 8,
            Workload::HotSmall => 16,
        }
    }
}

/// A diagnostic a generated program must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bug {
    /// Wire code, e.g. `deref-singular`.
    pub code: &'static str,
    /// The iterator or container the diagnostic names.
    pub subject: String,
}

/// What a correct answer satisfies, derived from how the request was
/// built and never from the engine.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Every planted bug is reported; with no planted error-severity
    /// bug, no error-severity diagnostic may appear.
    Lint {
        /// Planted bugs.
        bugs: Vec<Bug>,
    },
    /// The output evaluates equal to the input under seeded bindings;
    /// `optimize` also never raises the cost.
    Rewrite {
        /// The input with the hole literal (`expr::HOLE`) where `hole` goes.
        template: Arc<Expr>,
        /// The literal substituted for the hole.
        hole: i64,
        /// Whether this is an `optimize` request.
        optimize: bool,
    },
    /// The theory's proofs check (`ok`) or not.
    Prove {
        /// Expected verdict.
        ok: bool,
    },
    /// The selected algorithm's name (`None` = nothing applies).
    Select {
        /// Expected selection.
        selected: Option<&'static str>,
    },
}

impl Expect {
    /// The rewrite input with its hole filled (rewrite requests only).
    pub fn rewrite_input(&self) -> Option<Expr> {
        match self {
            Expect::Rewrite { template, hole, .. } => Some(fill_hole(template, *hole)),
            _ => None,
        }
    }
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Item {
    /// Identity for deduplicating answer checks: equal keys within one
    /// stream set mean equal requests.
    pub key: u64,
    /// Request kind.
    pub kind: &'static str,
    /// The full request frame, correlation id included.
    pub frame: String,
    /// The known answer.
    pub expect: Arc<Expect>,
    /// For `lint_edit`: 0 for a session's cold program, `k` for its
    /// `k`-th edit. 0 elsewhere.
    pub edit: u32,
}

/// A connection's request stream.
pub struct Stream {
    next_id: u64,
    conn: usize,
    inner: StreamKind,
}

enum StreamKind {
    Lint(LintStream),
    Rewrite(RewriteStream),
    Hot(HotStream),
}

impl Stream {
    /// The stream connection `conn` sends on `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Stream {
        let inner = match workload {
            Workload::LintEdit => StreamKind::Lint(LintStream::new(seed, conn)),
            Workload::RewriteMix => StreamKind::Rewrite(RewriteStream::new(seed, conn)),
            Workload::HotSmall => StreamKind::Hot(HotStream::new(seed, conn)),
        };
        Stream {
            next_id: 1,
            conn,
            inner,
        }
    }

    /// The next request.
    pub fn next_item(&mut self) -> Item {
        let id = self.next_id;
        self.next_id += 1;
        match &mut self.inner {
            StreamKind::Lint(s) => s.next(id, self.conn),
            StreamKind::Rewrite(s) => s.next(id, self.conn),
            StreamKind::Hot(s) => s.next(id),
        }
    }
}

/// Render `req` with id 0 and cut it after the id and around the one
/// occurrence of `needle`.
pub(crate) fn split_frame(req: &Request, needle: &str) -> (String, String) {
    let full = encode_request(0, req);
    let rest = full
        .strip_prefix("{\"id\":0")
        .expect("encode_request renders the id first");
    let at = rest.find(needle).expect("the hole literal is rendered");
    debug_assert_eq!(rest.matches(needle).count(), 1, "exactly one hole");
    (
        rest[..at].to_string(),
        rest[at + needle.len()..].to_string(),
    )
}

/// A pre-rendered frame minus its id.
pub(crate) fn frame_tail(req: &Request) -> String {
    encode_request(0, req)
        .strip_prefix("{\"id\":0")
        .expect("encode_request renders the id first")
        .to_string()
}
