//! Equivalence properties for the interprocedural checker.
//!
//! Three oracles pin the three ways the engine is allowed to be fast:
//!
//! 1. **Incremental = cold.** Analyzing an edited program against a
//!    cache warmed by the pre-edit program must produce byte-identical
//!    diagnostics to a cold, cacheless analysis of the edited program.
//!    Summaries are keyed by transitive content hash, so a stale hit
//!    here would be a key-collision bug, not a tuning artifact.
//! 2. **Parallel = sequential.** SCC batches at equal condensation
//!    height run on the global pool; scheduling must be invisible.
//! 3. **Flat = golden.** Programs with no `fn`/`invoke` must produce
//!    exactly the diagnostics frozen in `flat_golden.tsv` (the output of
//!    the intraprocedural analyzer this engine replaced), cold, through a
//!    cache, and fully warm.
//!
//! The generator deliberately produces messy programs — use-before-decl,
//! invokes with iterator/container arguments crossed, recursion — since
//! diagnostics on junk must be just as deterministic as on clean code.
//! Some names are 16 characters long and edits redraw their 8th, 12th
//! or 16th character: the top bytes of the words the content hash reads
//! and the middle byte of the second word, differences a word-wise hash
//! with weak mixing cancels against each other.

use gp_checker::analyze::{analyze, Diagnostic, Severity};
use gp_checker::corpus::{corpus, random_program};
use gp_checker::ir::{build, AlgorithmName as A, ContainerKind as K, FunctionDef, Program, Stmt};
use gp_checker::{analyze_program, analyze_program_with_cache, CheckConfig, SummaryCache};
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Characters a long name's 8th, 12th and 16th positions are drawn from.
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";

fn name_char(rng: &mut StdRng) -> char {
    NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())] as char
}

/// A fresh short name `x<n>`, or (one time in three) a 16-character
/// `sorted_<a>pen<c>ing<b>`.
fn fresh_name(rng: &mut StdRng, fresh: &mut usize) -> String {
    if rng.gen_bool(1.0 / 3.0) {
        let (a, c, b) = (name_char(rng), name_char(rng), name_char(rng));
        format!("sorted_{a}pen{c}ing{b}")
    } else {
        *fresh += 1;
        format!("x{}", *fresh - 1)
    }
}

/// Names in scope while generating a body.
struct Scope {
    containers: Vec<String>,
    iters: Vec<String>,
}

fn arb_stmts(
    rng: &mut StdRng,
    scope: &mut Scope,
    fns: &[FunctionDef],
    self_info: Option<(usize, usize)>,
    budget: usize,
    fresh: &mut usize,
) -> Vec<Stmt> {
    let kinds = [K::Vector, K::List, K::Deque];
    let algs = [A::Sort, A::Find, A::BinarySearch, A::MaxElement];
    let mut stmts = Vec::new();
    for _ in 0..budget {
        match rng.gen_range(0u32..12) {
            0 => {
                let name = fresh_name(rng, fresh);
                stmts.push(build::container(&name, kinds[rng.gen_range(0..3usize)]));
                scope.containers.push(name);
            }
            1 | 2 if !scope.containers.is_empty() => {
                let name = fresh_name(rng, fresh);
                let c = scope.containers[rng.gen_range(0..scope.containers.len())].clone();
                stmts.push(build::begin(&name, &c));
                scope.iters.push(name);
            }
            3 | 4 if !scope.iters.is_empty() => {
                let it = &scope.iters[rng.gen_range(0..scope.iters.len())];
                stmts.push(if rng.gen_bool(0.5) {
                    build::deref(it)
                } else {
                    build::advance(it)
                });
            }
            5 if !scope.containers.is_empty() => {
                let c = &scope.containers[rng.gen_range(0..scope.containers.len())];
                stmts.push(if rng.gen_bool(0.7) {
                    build::push_back(c)
                } else {
                    build::clear(c)
                });
            }
            6 if !scope.containers.is_empty() => {
                let c = &scope.containers[rng.gen_range(0..scope.containers.len())];
                stmts.push(build::call(algs[rng.gen_range(0..algs.len())], c));
            }
            7 if !scope.containers.is_empty() && !scope.iters.is_empty() => {
                let c = scope.containers[rng.gen_range(0..scope.containers.len())].clone();
                let it = scope.iters[rng.gen_range(0..scope.iters.len())].clone();
                stmts.push(build::erase(&c, &it));
            }
            8 if !scope.iters.is_empty() => {
                let it = scope.iters[rng.gen_range(0..scope.iters.len())].clone();
                stmts.push(build::while_not_end(
                    &it,
                    vec![build::deref(&it), build::advance(&it)],
                ));
            }
            9 if !scope.containers.is_empty() && !scope.iters.is_empty() => {
                let c = scope.containers[rng.gen_range(0..scope.containers.len())].clone();
                let it = scope.iters[rng.gen_range(0..scope.iters.len())].clone();
                stmts.push(build::branch(
                    vec![build::push_back(&c)],
                    vec![build::advance(&it)],
                ));
            }
            10 | 11 => {
                // Invoke: an earlier function, or self (bounded recursion
                // through widening). Arguments are drawn from whatever is
                // in scope — containers and iterators mixed freely, no
                // duplicates (aliased arguments are rejected by design).
                let n_candidates = fns.len() + usize::from(self_info.is_some());
                if n_candidates == 0 {
                    continue;
                }
                let pick = rng.gen_range(0..n_candidates);
                let (callee_name, arity) = if pick < fns.len() {
                    (fns[pick].name.clone(), fns[pick].params.len())
                } else {
                    let (i, arity) = self_info.unwrap();
                    (format!("f{i}"), arity)
                };
                let mut pool: Vec<String> = scope
                    .containers
                    .iter()
                    .chain(scope.iters.iter())
                    .cloned()
                    .collect();
                if pool.len() < arity {
                    continue;
                }
                let mut args = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let j = rng.gen_range(0..pool.len());
                    args.push(pool.swap_remove(j));
                }
                let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
                stmts.push(build::invoke(&callee_name, &arg_refs));
            }
            _ => {}
        }
    }
    stmts
}

/// A random interprocedural program: up to 4 functions (later ones may
/// call earlier ones, any may call itself), plus a main that declares
/// state and invokes them.
fn arb_ip_program(rng: &mut StdRng) -> Program {
    let nf = rng.gen_range(0usize..=4);
    let mut fns: Vec<FunctionDef> = Vec::new();
    let mut fresh = 0usize;
    for i in 0..nf {
        let np = rng.gen_range(1usize..=2);
        let params: Vec<String> = (0..np).map(|j| format!("p{j}")).collect();
        // Parameters enter scope as containers or iterators at random —
        // the *call site* decides the actual binding, so bodies that
        // guess wrong simply exercise the mixed-role diagnostics.
        let mut scope = Scope {
            containers: Vec::new(),
            iters: Vec::new(),
        };
        for p in &params {
            if rng.gen_bool(0.7) {
                scope.containers.push(p.clone());
            } else {
                scope.iters.push(p.clone());
            }
        }
        let budget = rng.gen_range(2usize..=6);
        let self_info = if rng.gen_bool(0.25) {
            Some((i, np))
        } else {
            None
        };
        let body = arb_stmts(rng, &mut scope, &fns, self_info, budget, &mut fresh);
        let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
        fns.push(build::func(&format!("f{i}"), &param_refs, body));
    }
    let mut scope = Scope {
        containers: Vec::new(),
        iters: Vec::new(),
    };
    let mut main = Vec::new();
    let kinds = [K::Vector, K::List, K::Deque];
    for i in 0..rng.gen_range(1usize..=3) {
        let name = format!("c{i}");
        main.push(build::container(&name, kinds[rng.gen_range(0..3usize)]));
        scope.containers.push(name);
    }
    let main_budget = rng.gen_range(3usize..=8);
    main.extend(arb_stmts(
        rng,
        &mut scope,
        &fns,
        None,
        main_budget,
        &mut fresh,
    ));
    Program::with_functions("prop", main, fns)
}

struct IpPrograms;

impl Strategy for IpPrograms {
    type Value = Program;

    fn sample(&self, rng: &mut StdRng) -> Program {
        arb_ip_program(rng)
    }
}

/// The one name a simple top-level statement refers to.
fn leaf_name(s: &mut Stmt) -> Option<&mut String> {
    match s {
        Stmt::PushBack { container } | Stmt::Clear { container } | Stmt::Call { container, .. } => {
            Some(container)
        }
        Stmt::Advance { iter } | Stmt::Deref { iter } => Some(iter),
        _ => None,
    }
}

/// Apply one random edit to one function body (or to main when there are
/// no functions): retarget a reference to a long name by redrawing some
/// of its 8th, 12th and 16th characters, or append a statement.
fn edit_one_function(rng: &mut StdRng, p: &Program) -> Program {
    let mut fns = p.functions.clone();
    let mut main = p.stmts.clone();
    let body = if fns.is_empty() {
        &mut main
    } else {
        let i = rng.gen_range(0..fns.len());
        &mut fns[i].body
    };
    let mut long_refs: Vec<&mut String> = body
        .iter_mut()
        .filter_map(leaf_name)
        .filter(|n| n.len() == 16)
        .collect();
    if !long_refs.is_empty() && rng.gen_bool(0.5) {
        let j = rng.gen_range(0..long_refs.len());
        let mut chars: Vec<char> = long_refs[j].chars().collect();
        // A non-empty subset of the three positions.
        let mask = rng.gen_range(1u32..8);
        for (bit, pos) in [7, 11, 15].into_iter().enumerate() {
            if mask & (1 << bit) != 0 {
                chars[pos] = name_char(rng);
            }
        }
        *long_refs[j] = chars.into_iter().collect();
    } else if rng.gen_bool(0.5) {
        body.push(build::push_back("zedit")); // undeclared: adds an UnknownName diag
    } else {
        body.push(build::container("zedit", K::List)); // silent decl: behavior-neutral
    }
    Program::with_functions(p.name.clone(), main, fns)
}

fn run(p: &Program, cfg: &CheckConfig) -> Vec<Diagnostic> {
    analyze_program(p, cfg).expect("default config converges")
}

proptest! {
    #[test]
    fn incremental_reanalysis_is_byte_identical_to_cold(
        (p, edit_seed) in (IpPrograms, 0u64..u64::MAX)
    ) {
        use rand::SeedableRng;
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(4096);
        // Warm the cache on the pre-edit program.
        let pre = analyze_program_with_cache(&p, &cfg, &cache).expect("pre-edit");
        prop_assert_eq!(&pre, &run(&p, &cfg));
        // Edit one function, re-analyze warm, compare against cold.
        let mut erng = StdRng::seed_from_u64(edit_seed);
        let edited = edit_one_function(&mut erng, &p);
        let warm = analyze_program_with_cache(&edited, &cfg, &cache).expect("warm");
        let cold = run(&edited, &cfg);
        prop_assert_eq!(warm, cold);
    }

    #[test]
    fn parallel_analysis_is_bit_equal_to_sequential(p in IpPrograms) {
        let seq = run(&p, &CheckConfig::default());
        let par = run(&p, &CheckConfig { parallel: true, ..CheckConfig::default() });
        prop_assert_eq!(seq, par);
    }
}

/// The golden corpus: every bug-corpus program, then the seeded random
/// flat programs.
fn golden_cases() -> Vec<Program> {
    corpus()
        .into_iter()
        .map(|c| c.program)
        .chain((0..512u64).map(|seed| random_program(seed, 4 + (seed % 36) as usize)))
        .collect()
}

fn golden_line(case: &str, d: &Diagnostic) -> String {
    let severity = match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Suggestion => "suggestion",
    };
    format!(
        "{case}\t{severity}\t{}\t{}\t{}",
        d.code.as_str(),
        d.subject,
        d.message
    )
}

#[test]
fn flat_programs_match_the_golden_corpus() {
    let mut want: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for line in include_str!("flat_golden.tsv").lines() {
        if !line.starts_with('#') {
            let case = line.split('\t').next().expect("case field");
            want.entry(case).or_default().push(line);
        }
    }
    let cases = golden_cases();
    for case in want.keys() {
        assert!(
            cases.iter().any(|p| p.name == *case),
            "golden case {case} is not generated"
        );
    }
    // One cache across the whole corpus, so a summary-key collision
    // between two cases would surface as a wrong answer.
    let cfg = CheckConfig::default();
    let cache = SummaryCache::new(1 << 12);
    for run in ["cold", "cached", "warm"] {
        for p in &cases {
            let diags = match run {
                "cold" => analyze(p),
                _ => analyze_program_with_cache(p, &cfg, &cache).expect("flat programs converge"),
            };
            let got: Vec<String> = diags.iter().map(|d| golden_line(&p.name, d)).collect();
            let expected = want.get(p.name.as_str()).cloned().unwrap_or_default();
            assert_eq!(got, expected, "{run} run of {}", p.name);
        }
    }
}
