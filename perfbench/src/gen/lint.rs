//! `lint_edit`: editor sessions — a cold interprocedural program, then
//! one-function edits of it, each resent whole.

use super::{Bug, Expect, Item};
use crate::rng::Rng;
use gp_service::lint::LintRequest;
use gp_service::{encode_request, Request};
use std::sync::Arc;

/// Functions in a session program's fan-out.
const FANOUT: usize = 48;
/// Nested-scan blocks per fan-out function.
const SCANS: usize = 2;
/// Loop nesting depth of each scan.
const NEST: usize = 4;
/// Extra iterators live across every scan of a fan-out function.
const LIVE: usize = 12;
/// Depth of a session program's call chain.
const CHAIN: usize = 8;

/// The helper library every session program of both connections links:
/// identical text, so its summaries are shared across requests.
const HELPERS: &str = "\
fn lib_fill(C) {
    push_back C
}
fn lib_scan(C) {
    iter i = begin C
    while i != end {
        deref i
        advance i
    }
}
fn lib_sorted(C) {
    call sort C
    call binary_search C
}
fn lib_copy(C) {
    container tmp vector
    push_back tmp
    invoke lib_scan(tmp)
    invoke lib_fill(C)
}
";

/// The planted-bug patterns, after the checker's bug corpus.
#[derive(Clone, Copy, Debug)]
enum BugKind {
    /// vector `push_back` invalidates an iterator, which is then used.
    Invalidated,
    /// Dereference of `end`.
    PastEnd,
    /// `binary_search` after the sort was undone.
    Unsorted,
    /// `find` over a sorted vector (a suggestion, not an error).
    LinearSearch,
}

impl BugKind {
    const ALL: [BugKind; 4] = [
        BugKind::Invalidated,
        BugKind::PastEnd,
        BugKind::Unsorted,
        BugKind::LinearSearch,
    ];

    /// Statement lines planting the bug in function `func` on fresh
    /// names ending in `tag`, and the diagnostic it must raise.
    fn plant(self, func: &str, tag: &str) -> (Vec<String>, Bug) {
        let c = format!("p{tag}");
        let it = format!("q{tag}");
        let (lines, code, subject) = match self {
            BugKind::Invalidated => (
                vec![
                    format!("container {c} vector"),
                    format!("push_back {c}"),
                    format!("iter {it} = begin {c}"),
                    format!("push_back {c}"),
                    format!("deref {it}"),
                ],
                "deref-singular",
                format!("{func}::{it}"),
            ),
            BugKind::PastEnd => (
                vec![
                    format!("container {c} list"),
                    format!("iter {it} = end {c}"),
                    format!("deref {it}"),
                ],
                "deref-past-end",
                format!("{func}::{it}"),
            ),
            BugKind::Unsorted => (
                vec![
                    format!("container {c} vector"),
                    format!("call sort {c}"),
                    format!("push_back {c}"),
                    format!("call binary_search {c}"),
                ],
                "requires-sorted",
                format!("{func}::binary_search({c})"),
            ),
            BugKind::LinearSearch => (
                vec![
                    format!("container {c} vector"),
                    format!("call sort {c}"),
                    format!("call find {c} -> {it}"),
                ],
                "sorted-linear-search",
                format!("{func}::find({c})"),
            ),
        };
        (lines, Bug { code, subject })
    }
}

/// A function of a generated program: its body lines and the bugs
/// planted in them (one block of lines per bug, removable as a unit).
#[derive(Clone, Debug)]
struct LintFn {
    name: String,
    body: Vec<String>,
    planted: Vec<(Vec<String>, Bug)>,
}

/// A generated interprocedural program.
#[derive(Clone, Debug)]
struct LintProgram {
    fns: Vec<LintFn>,
    main: Vec<String>,
}

impl LintProgram {
    fn render(&self) -> String {
        let mut out = String::with_capacity(64 << 10);
        out.push_str(HELPERS);
        for f in &self.fns {
            out.push_str("fn ");
            out.push_str(&f.name);
            out.push_str("(C) {\n");
            for line in f.body.iter().chain(f.planted.iter().flat_map(|(l, _)| l)) {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            out.push_str("}\n");
        }
        for line in &self.main {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    fn bugs(&self) -> Vec<Bug> {
        self.fns
            .iter()
            .flat_map(|f| f.planted.iter().map(|(_, b)| b.clone()))
            .collect()
    }
}

/// A fan-out function body: nested scans that drive the fixpoint
/// through its widening passes without raising a diagnostic.
fn scan_body(t: &str) -> Vec<String> {
    let u = format!("u{t}");
    let mut body = vec![format!("container {u} vector"), format!("push_back {u}")];
    body.extend((0..LIVE).map(|k| format!("iter l{t}k{k} = begin {u}")));
    for r in 0..SCANS {
        let its: Vec<String> = (0..NEST).map(|d| format!("i{t}r{r}d{d}")).collect();
        body.extend(its.iter().map(|it| format!("iter {it} = begin {u}")));
        for (d, it) in its.iter().enumerate() {
            let pad = "    ".repeat(d);
            body.push(format!("{pad}while {it} != end {{"));
            body.push(format!("{pad}    deref {it}"));
        }
        let pad = "    ".repeat(NEST);
        body.extend([
            format!("{pad}if {{"),
            format!("{pad}    deref {}", its[0]),
            format!("{pad}}} else {{"),
            format!("{pad}    deref {}", its[NEST - 1]),
            format!("{pad}}}"),
        ]);
        for (d, it) in its.iter().enumerate().rev() {
            let pad = "    ".repeat(d);
            body.push(format!("{pad}    advance {it}"));
            body.push(format!("{pad}}}"));
        }
    }
    body.extend([
        format!("call sort {u}"),
        format!("call binary_search {u}"),
        "push_back C".to_string(),
    ]);
    body
}

/// A session's cold program: helpers, a call chain, a fan-out and one
/// recursive SCC group, all names unique to the session tag `s` so its
/// summaries are cold on arrival.
fn session_program(rng: &mut Rng, s: &str, buggy: bool) -> LintProgram {
    let mut fns = Vec::new();
    for i in 0..CHAIN {
        let callee = if i == 0 {
            "lib_fill".to_string()
        } else {
            format!("x{s}_c{}", i - 1)
        };
        fns.push(LintFn {
            name: format!("x{s}_c{i}"),
            body: vec![
                format!("container u{s}c{i} vector"),
                format!("invoke {callee}(C)"),
            ],
            planted: Vec::new(),
        });
    }
    for i in 0..FANOUT {
        let mut body = scan_body(&format!("{s}f{i}"));
        if i % 4 == 0 {
            body.push("invoke lib_scan(C)".to_string());
        }
        fns.push(LintFn {
            name: format!("x{s}_f{i}"),
            body,
            planted: Vec::new(),
        });
    }
    fns.push(LintFn {
        name: format!("x{s}_a"),
        body: vec![
            format!("container u{s}a vector"),
            "push_back C".to_string(),
            format!("invoke x{s}_b(C)"),
        ],
        planted: Vec::new(),
    });
    fns.push(LintFn {
        name: format!("x{s}_b"),
        body: vec![
            format!("container u{s}b vector"),
            format!("invoke x{s}_a(C)"),
        ],
        planted: Vec::new(),
    });
    fns.push(LintFn {
        name: format!("x{s}_s"),
        body: vec![
            format!("container u{s}s vector"),
            "push_back C".to_string(),
            format!("invoke x{s}_s(C)"),
        ],
        planted: Vec::new(),
    });
    let mut main = vec![
        "container V vector".to_string(),
        format!("invoke x{s}_c{}(V)", CHAIN - 1),
    ];
    main.extend((0..FANOUT).map(|i| format!("invoke x{s}_f{i}(V)")));
    main.extend([
        format!("invoke x{s}_a(V)"),
        format!("invoke x{s}_s(V)"),
        "invoke lib_copy(V)".to_string(),
        "invoke lib_sorted(V)".to_string(),
    ]);
    let mut prog = LintProgram { fns, main };
    if buggy {
        for (n, kind) in BugKind::ALL.into_iter().enumerate() {
            let f = CHAIN + rng.below(FANOUT);
            let planted = kind.plant(&prog.fns[f].name, &format!("{s}b{n}"));
            prog.fns[f].planted.push(planted);
        }
    }
    prog
}

/// One editor session on one connection.
struct Session {
    tag: String,
    prog: LintProgram,
    buggy: bool,
    edits_left: u32,
    edits_done: u32,
}

/// Edits per session: about twenty.
const EDITS_MIN: u32 = 18;
const EDITS_MAX: u32 = 22;

pub(super) struct LintStream {
    rng: Rng,
    sessions: u64,
    current: Option<Session>,
}

impl LintStream {
    pub(super) fn new(seed: u64, conn: usize) -> LintStream {
        LintStream {
            rng: Rng::derive(seed, 0x1100 + conn as u64),
            sessions: 0,
            current: None,
        }
    }

    fn start_session(&mut self, conn: usize) -> Session {
        let tag = format!("k{conn}s{}", self.sessions);
        self.sessions += 1;
        // One session in three is clean-only.
        let buggy = self.rng.below(3) != 0;
        let prog = session_program(&mut self.rng, &tag, buggy);
        Session {
            tag,
            prog,
            buggy,
            edits_left: EDITS_MIN + self.rng.below((EDITS_MAX - EDITS_MIN + 1) as usize) as u32,
            edits_done: 0,
        }
    }

    /// Edit one fan-out function of the session: touch it (a new local),
    /// plant a bug, or fix one. Clean-only sessions only touch.
    fn edit(&mut self, s: &mut Session) {
        let f = CHAIN + self.rng.below(FANOUT);
        let n = s.edits_done;
        let roll = self.rng.below(10);
        let func = &mut s.prog.fns[f];
        if s.buggy && roll < 2 && !func.planted.is_empty() {
            let i = self.rng.below(func.planted.len());
            func.planted.remove(i);
        } else if s.buggy && roll < 4 {
            let kind = BugKind::ALL[self.rng.below(BugKind::ALL.len())];
            let planted = kind.plant(&func.name, &format!("{}e{n}", s.tag));
            func.planted.push(planted);
        } else {
            let c = format!("e{}n{n}", s.tag);
            func.body
                .extend([format!("container {c} list"), format!("push_back {c}")]);
        }
        s.edits_done += 1;
    }

    pub(super) fn next(&mut self, id: u64, conn: usize) -> Item {
        let session = match self.current.take() {
            Some(mut s) if s.edits_left > 0 => {
                s.edits_left -= 1;
                self.edit(&mut s);
                s
            }
            _ => self.start_session(conn),
        };
        let req = Request::Lint(LintRequest {
            name: session.tag.clone(),
            program: session.prog.render(),
        });
        let item = Item {
            key: (conn as u64) << 40 | id,
            kind: "lint",
            frame: encode_request(id, &req),
            expect: Arc::new(Expect::Lint {
                bugs: session.prog.bugs(),
            }),
            edit: session.edits_done,
        };
        self.current = Some(session);
        item
    }
}
