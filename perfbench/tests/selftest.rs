//! Self-tests of the benchmark: deterministic inputs, an answer check
//! that rejects wrong answers, the Zipf draw, input depth bounds, and a
//! tiny end-to-end run of every workload.

use gp_service::{decode_request, encode_request};
use perfbench::check::{check_known, expected_response, fnv1a, matches_handler, ok_frame};
use perfbench::gen::{
    hot_population, Expect, Item, Stream, Workload, CACHE_CAPACITY, CONNECTIONS, HOT_FRAME_MAX,
    HOT_POPULATION, HOT_ZIPF_S,
};
use perfbench::rng::{Rng, Zipf};

fn frames(workload: Workload, seed: u64, conn: usize, n: usize) -> Vec<String> {
    let mut s = Stream::new(workload, seed, conn);
    (0..n).map(|_| s.next_item().frame).collect()
}

fn items(workload: Workload, seed: u64, n: usize) -> Vec<Item> {
    let mut s = Stream::new(workload, seed, 0);
    (0..n).map(|_| s.next_item()).collect()
}

#[test]
fn same_seed_same_bytes_and_another_seed_other_bytes() {
    for w in Workload::ALL {
        let n = if w == Workload::LintEdit { 30 } else { 200 };
        for conn in 0..CONNECTIONS {
            assert_eq!(frames(w, 7, conn, n), frames(w, 7, conn, n), "{}", w.name());
            assert_ne!(frames(w, 7, conn, n), frames(w, 8, conn, n), "{}", w.name());
        }
        assert_ne!(frames(w, 7, 0, n), frames(w, 7, 1, n), "connections differ");
    }
}

#[test]
fn generated_frames_are_the_service_encoding_of_their_request() {
    for w in Workload::ALL {
        for item in items(w, 3, 40) {
            let (id, req) = decode_request(&item.frame).expect("generated frames decode");
            assert_eq!(encode_request(id, &req), item.frame, "{}", w.name());
        }
    }
}

/// Maximum nesting of JSON arrays and objects, skipping string contents.
fn json_depth(s: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for c in s.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => {
                depth += 1;
                max = max.max(depth);
            }
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    max
}

#[test]
fn inputs_stay_within_nesting_depth_32() {
    for w in Workload::ALL {
        for item in items(w, 11, if w == Workload::LintEdit { 25 } else { 2000 }) {
            assert!(
                json_depth(&item.frame) <= 32,
                "{}: {}",
                w.name(),
                item.frame
            );
            let (_, req) = decode_request(&item.frame).expect("decodes");
            if let gp_service::Request::Lint(l) = req {
                let mut depth = 0usize;
                for line in l.program.lines() {
                    depth += line.matches('{').count();
                    assert!(depth <= 32, "block nesting in {}", w.name());
                    depth -= line.matches('}').count();
                }
            }
        }
    }
}

#[test]
fn hot_small_frames_are_under_1_kb_and_distinct() {
    let pop = hot_population(5);
    assert_eq!(pop.len(), HOT_POPULATION);
    let mut tails: Vec<&str> = pop.iter().map(|k| k.tail.as_str()).collect();
    for k in &pop {
        assert!(k.tail.len() + 24 < HOT_FRAME_MAX, "{}", k.tail);
    }
    tails.sort_unstable();
    tails.dedup();
    assert_eq!(
        tails.len(),
        HOT_POPULATION,
        "every key is a distinct request"
    );
}

#[test]
fn zipf_draw_hits_the_cache_resident_share() {
    let zipf = Zipf::new(HOT_POPULATION, HOT_ZIPF_S);
    // Zipf(1): the head of `CACHE_CAPACITY` ranks holds H(1024)/H(4096)
    // of the mass.
    let h = |n: usize| (1..=n).map(|r| 1.0 / r as f64).sum::<f64>();
    let want = h(CACHE_CAPACITY) / h(HOT_POPULATION);
    assert!((zipf.head_mass(CACHE_CAPACITY) - want).abs() < 1e-9);
    let mut rng = Rng::new(42);
    let draws = 200_000;
    let resident = (0..draws)
        .filter(|_| zipf.sample(&mut rng) < CACHE_CAPACITY)
        .count();
    let got = resident as f64 / draws as f64;
    assert!((got - want).abs() < 0.005, "drew {got:.4}, want {want:.4}");
}

/// The payload the backing handler gives for the first item of `kind`.
fn first_of(workload: Workload, kind: &str, planted: bool) -> (Item, u64, String) {
    let mut s = Stream::new(workload, 9, 0);
    loop {
        let item = s.next_item();
        let has_bug = matches!(&*item.expect, Expect::Lint { bugs } if !bugs.is_empty());
        if item.kind == kind && (kind != "lint" || has_bug == planted) {
            let (id, payload) = expected_response(&item.frame).expect("handler answers");
            return (item, id, payload);
        }
    }
}

#[test]
fn check_accepts_the_handler_answer_and_rejects_one_flipped_byte() {
    for (w, kind) in [
        (Workload::HotSmall, "select"),
        (Workload::HotSmall, "prove"),
        (Workload::RewriteMix, "simplify"),
        (Workload::RewriteMix, "optimize"),
        (Workload::LintEdit, "lint"),
    ] {
        let (item, id, payload) = first_of(w, kind, true);
        let frame = ok_frame(id, &payload);
        assert!(matches_handler(id, &payload, fnv1a(frame.as_bytes())));
        check_known(&item.expect, &payload, item.key)
            .unwrap_or_else(|e| panic!("{kind}: correct answer rejected: {e}"));
        // Flip one byte inside the payload, anywhere.
        let start = frame.find("\"resp\":").expect("ok frame") + 7;
        for at in [start, (start + frame.len()) / 2, frame.len() - 2] {
            let mut bytes = frame.clone().into_bytes();
            bytes[at] ^= 0x01;
            assert!(
                !matches_handler(id, &payload, fnv1a(&bytes)),
                "{kind}: flipped byte {at} accepted"
            );
        }
    }
}

#[test]
fn check_rejects_wrong_lint_diagnostics() {
    let (item, _, payload) = first_of(Workload::LintEdit, "lint", true);
    let Expect::Lint { bugs } = &*item.expect else {
        unreachable!()
    };
    // A planted bug reported on the wrong subject.
    let wrong_subject = payload.replacen(&bugs[0].subject, "main::elsewhere", 1);
    assert!(check_known(&item.expect, &wrong_subject, item.key).is_err());
    // A planted bug reported under another code.
    let wrong_code = payload.replacen(bugs[0].code, "advance-singular", 1);
    assert!(check_known(&item.expect, &wrong_code, item.key).is_err());
    // An error diagnostic in a clean-only program.
    let (clean, _, clean_payload) = first_of(Workload::LintEdit, "lint", false);
    check_known(&clean.expect, &clean_payload, clean.key).expect("clean program passes");
    let row = r#"{"severity":"error","code":"deref-singular","subject":"x","message":"m"}"#;
    let injected = if clean_payload.contains("\"diagnostics\":[]") {
        clean_payload.replace("\"diagnostics\":[]", &format!("\"diagnostics\":[{row}]"))
    } else {
        clean_payload.replacen("\"diagnostics\":[", &format!("\"diagnostics\":[{row},"), 1)
    };
    let err = check_known(&clean.expect, &injected, clean.key).expect_err("injected error");
    assert!(err.contains("unexpected error"), "{err}");
}

#[test]
fn check_rejects_a_rewrite_that_changes_the_value() {
    let (item, _, payload) = first_of(Workload::RewriteMix, "simplify", true);
    check_known(&item.expect, &payload, item.key).expect("handler answer passes");
    let input = item.expect.rewrite_input().expect("rewrite item");
    let wrong = gp_rewrite::Expr::bin(gp_rewrite::BinOp::Add, input, gp_rewrite::Expr::int(1));
    let forged = format!(
        "{{\"expr\":{},\"display\":\"\",\"stats\":{{}}}}",
        gp_service::simplify::expr_to_json(&wrong).render()
    );
    assert!(check_known(&item.expect, &forged, item.key).is_err());
}

/// Run the benchmark binary briefly and return its result line.
fn tiny_run(workload: &str, trace: &str) -> gp_core::json::Json {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    gp_core::json::Json::parse(last).expect("the result line is JSON")
}

#[test]
fn a_tiny_run_of_each_workload_answers_everything_correctly() {
    for w in Workload::ALL {
        let r = tiny_run(w.name(), "0");
        assert_eq!(r.get("correct").and_then(|c| c.as_bool()), Some(true));
        let attempted = r.get("attempted").and_then(|a| a.as_f64()).unwrap_or(0.0);
        assert!(attempted >= 1.0, "{}: nothing attempted", w.name());
        assert_eq!(
            r.get("failed").and_then(|f| f.as_f64()),
            Some(0.0),
            "{}: failed_ratio must be 0",
            w.name()
        );
    }
}

/// `BENCHMARK.json` names exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_matches_the_metrics_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = gp_core::json::Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(|a| a.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let per_layer: Vec<String> = perfbench::replay::PER_LAYER
        .iter()
        .map(|(n, _, _)| n.to_string())
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    let printed = tiny_run("hot_small", "0");
    let metrics = match printed.get("metrics") {
        Some(gp_core::json::Json::Obj(fields)) => {
            fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
        }
        _ => panic!("metrics object"),
    };
    assert_eq!(names("end_to_end"), metrics);
    let workloads = names("workloads");
    let ours: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
}

/// Reproduces a defect the answer check found in the checker: a
/// `lint_edit` session linted through the process-wide summary cache
/// reports another function's local names, or misses a planted bug,
/// once edits make two function versions' summary keys collide (the
/// word-folded FNV-1a key keeps differences in a word's top byte in the
/// key's top byte). A cold analysis of the same programs passes.
#[test]
#[ignore = "fails until the checker's summary keys stop colliding (see CHANGES.md)"]
fn lint_edit_answers_survive_the_summary_cache() {
    let mut s = Stream::new(Workload::LintEdit, 6, 0);
    for seq in 0..300 {
        let item = s.next_item();
        let (_, payload) = expected_response(&item.frame).expect("handler answers");
        if let Err(e) = check_known(&item.expect, &payload, item.key) {
            panic!("lint_edit seed 6 conn 0 request {seq}: {e}");
        }
    }
}
