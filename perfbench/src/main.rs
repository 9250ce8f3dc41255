//! `perfbench`: what a client of the concept-query server sees.
//!
//! ```text
//! perfbench --workload <lint_edit|rewrite_mix|hot_small|all> --seed N --seconds N --trace <0|1>
//! ```
//!
//! The server runs in a child process (this executable in the `serve`
//! role), in its production deployment: the default shard router behind
//! the default reactor, on loopback. One client process drives it with
//! two connections on two threads as a closed loop with a fixed window
//! per connection, checks every answer after the timed window, and
//! prints every metric by name with its unit, then one JSON line.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs an
//! untraced quarter, a traced half and an untraced quarter of the
//! window, reads the server's counters as `stats` deltas over the traced
//! half, and replays its requests through each layer's public functions
//! (see `replay.rs`).

use gp_service::{ReactorConfig, ShardRouter, ShardRouterConfig};
use perfbench::check::Status;
use perfbench::client::{
    cpu_seconds, host_ticks, peak_rss_mb, phase_stats, spawn_child, Conn, Load, PhaseStats, Served,
};
use perfbench::gen::{Workload, CONNECTIONS};
use perfbench::replay::{self, layer_metrics, percentile, snapshot_from_stats, TracedRun};
use perfbench::verify::{verify, Keep};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Server start-ups timed per run, half before and half after the load;
/// `setup_s` is their median. Spreading them over the run keeps one
/// moment's host noise from setting the figure.
const SETUP_REPS: usize = 32;

/// The timed window runs as back-to-back slices of this length, and
/// each load figure is the median of its per-slice values: the host's
/// stalls and slow spells, which last from milliseconds to seconds,
/// then move a minority of slices and not the figure. Half a second
/// still leaves every slice over ten samples beyond its p99.
const SLICE: Duration = Duration::from_millis(500);

/// The production deployment, built in this one place: the server child
/// serves it, and the layer replay routes with an idle copy of it.
fn deployment() -> ShardRouter {
    ShardRouter::start(ShardRouterConfig::default())
}

/// The `serve` role: the deployment behind the default reactor.
fn serve() -> std::io::Result<()> {
    let mut router = deployment();
    let addr = router.listen_reactor("127.0.0.1:0", ReactorConfig::default())?;
    perfbench::client::announce_and_wait(addr.port())?;
    router.shutdown();
    Ok(())
}

/// The first request of every server start: a `prove` key outside every
/// workload's population, so it warms no cache entry the load uses.
const PROBE: &str =
    r#"{"id":0,"kind":"prove","req":{"theory":"monoid","instance":"setup-probe","model":{}}}"#;

/// Start the server and time spawn to its first answered round trip.
fn start_server() -> Result<(Served, Conn, u64), String> {
    let t0 = Instant::now();
    let served = spawn_child("serve").map_err(|e| format!("starting the server: {e}"))?;
    let mut conn = Conn::open(served.addr).map_err(|e| format!("connecting: {e}"))?;
    let answer = conn
        .round_trip(PROBE)
        .map_err(|e| format!("set-up probe: {e}"))?;
    let elapsed = t0.elapsed().as_nanos() as u64;
    if perfbench::check::status_of(&answer) != Status::Ok {
        return Err(format!("set-up probe answered {answer}"));
    }
    Ok((served, conn, elapsed))
}

/// Time `n` server start-ups, stopping each server again.
fn time_setups(n: usize) -> Result<Vec<u64>, String> {
    (0..n)
        .map(|_| {
            let (served, conn, elapsed) = start_server()?;
            drop(conn);
            served
                .stop()
                .map_err(|e| format!("stopping the server: {e}"))?;
            Ok(elapsed)
        })
        .collect()
}

/// The loopback floor: the same closed loop and the workload's own
/// request frames, against the echo child. Returns latencies (ns).
fn echo_floor(workload: Workload, seed: u64, length: Duration) -> Result<Vec<u64>, String> {
    let echo = spawn_child("echo").map_err(|e| format!("starting the echo server: {e}"))?;
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::open(echo.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connecting to the echo server: {e}"))?;
    let mut load = Load::new(conns, workload, seed);
    load.phase(length, false);
    let loads = load.finish();
    echo.stop()
        .map_err(|e| format!("stopping the echo server: {e}"))?;
    if let Some(e) = loads.iter().find_map(|l| l.error.clone()) {
        return Err(format!("echo floor: {e}"));
    }
    Ok(loads
        .iter()
        .flat_map(|l| &l.records)
        .map(|r| r.recv_ns - r.send_ns)
        .collect())
}

/// The server's registry, read with a `stats` request on `conn`.
fn fetch_stats(conn: &mut Conn) -> Result<gp_telemetry::Snapshot, String> {
    let frame = conn
        .round_trip(r#"{"id":0,"kind":"stats","req":{"prefix":""}}"#)
        .map_err(|e| format!("stats request: {e}"))?;
    match gp_service::decode_response(&frame) {
        Ok((_, gp_service::Response::Ok { payload })) => snapshot_from_stats(&payload),
        _ => Err(format!("stats answered {frame}")),
    }
}

/// One metric as reported.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

/// A slice counts toward the load figures when the hypervisor took at
/// most this share of the machine's CPU time during it (`steal` in
/// `/proc/stat`). On a shared host, steal comes in spells of seconds to
/// minutes that slow every figure by up to 3x; they are the host's doing,
/// not the program's, and the same rule applies to every version of it.
const STEAL_MAX: f64 = 0.01;

/// The slices whose figures count: those with at most [`STEAL_MAX`]
/// steal, or, when fewer than a quarter of them qualify, the quarter
/// with the least.
fn steady_slices(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = steal.iter().filter(|&&s| s <= STEAL_MAX).count();
    order.truncate(clean.max(steal.len().div_ceil(4)));
    order
}

/// A finished run of one workload.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut setups = if trace {
        Vec::new()
    } else {
        time_setups(SETUP_REPS / 2 - 1)?
    };
    let (server, conn0, first_setup) = start_server()?;
    setups.push(first_setup);
    let pid = server.pid();
    let mut conns = vec![conn0];
    for _ in 1..CONNECTIONS {
        conns.push(Conn::open(server.addr).map_err(|e| format!("connecting: {e}"))?);
    }
    // Set-up was timed above; generating the inputs is not part of it.
    let mut load = Load::new(conns, workload, seed);
    let total = Duration::from_secs(seconds);
    // Let the caches fill and the pools start before anything is timed.
    load.phase((total / 4).min(Duration::from_secs(1)), false);

    let mut metrics = Vec::new();
    let mut traced_window = None;
    if !trace {
        // Per slice: throughput, p50, p99, server CPU per response.
        let mut slices: [Vec<f64>; 4] = Default::default();
        let mut steal = Vec::new();
        let mut samples = 0;
        let n_slices = (total.as_millis() / SLICE.as_millis()).max(1) as u32;
        for _ in 0..n_slices {
            let host0 = host_ticks().map_err(|e| format!("reading host CPU: {e}"))?;
            let cpu0 = cpu_seconds(pid).map_err(|e| format!("reading server CPU: {e}"))?;
            let span = load.phase(total / n_slices, false);
            let cpu1 = cpu_seconds(pid).map_err(|e| format!("reading server CPU: {e}"))?;
            let host1 = host_ticks().map_err(|e| format!("reading host CPU: {e}"))?;
            steal.push((host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64);
            let PhaseStats {
                rps,
                mut latencies,
                answered,
                ..
            } = phase_stats(&load.loads, &span);
            samples += latencies.len();
            let p50 = ms(percentile(&mut latencies, 0.5));
            let p99 = ms(percentile(&mut latencies, 0.99));
            let cpu = (cpu1 - cpu0) * 1e3 / answered.max(1) as f64;
            for (v, x) in slices.iter_mut().zip([rps, p50, p99, cpu]) {
                v.push(x);
            }
        }
        let rss = peak_rss_mb(pid).map_err(|e| format!("reading server memory: {e}"))?;
        let kept = steady_slices(&steal);
        let [rps, p50, p99, cpu] = slices.map(|v| {
            let mut v: Vec<f64> = kept.iter().map(|&i| v[i]).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        let per = samples / n_slices as usize;
        let note = format!(
            "median of the {} of {n_slices} slices of {} s with least steal \
             (run mean {:.2}%)",
            kept.len(),
            seconds as f64 / f64::from(n_slices),
            100.0 * steal.iter().sum::<f64>() / steal.len() as f64
        );
        metrics = vec![
            metric(
                "throughput_rps",
                rps,
                "1/s",
                format!("{note}; {samples} correct responses"),
            ),
            metric(
                "latency_p50_ms",
                p50,
                "ms",
                format!("{note}; n={per} per slice"),
            ),
            metric(
                "latency_p99_ms",
                p99,
                "ms",
                format!(
                    "{note}; n={per}, {} beyond, per slice",
                    per - per * 99 / 100
                ),
            ),
            metric(
                "cpu_ms_per_req",
                cpu,
                "ms",
                format!("{note}; server user+sys per response"),
            ),
            metric("peak_rss_mb", rss, "MB", "server VmHWM".to_string()),
        ];
    } else {
        // Untraced, traced, untraced (a quarter, a half, a quarter of the
        // window), so a steady drift of the host's speed cancels out of
        // the traced/untraced throughput ratio.
        let first = load.phase(total / 4, false);
        let before = fetch_stats(load.first_conn())?;
        let traced = load.phase(total / 2, true);
        let after = fetch_stats(load.first_conn())?;
        let last = load.phase(total / 4, false);
        traced_window = Some(([first, last], traced, after.delta(&before)));
    }
    let loads = load.finish();
    server
        .stop()
        .map_err(|e| format!("stopping the server: {e}"))?;
    if !trace {
        setups.extend(time_setups(SETUP_REPS / 2)?);
        metrics.insert(
            0,
            metric(
                "setup_s",
                replay::median(&mut setups) as f64 / 1e9,
                "s",
                format!("median of {SETUP_REPS} starts, spawn to first answer"),
            ),
        );
    }

    let echo_len = if trace {
        Duration::from_secs(1)
    } else {
        Duration::from_millis(500)
    };
    let mut echo = echo_floor(workload, seed, echo_len)?;
    let (echo_p50, echo_p99) = (percentile(&mut echo, 0.5), percentile(&mut echo, 0.99));
    for m in &mut metrics {
        if m.name.starts_with("latency_") {
            m.note += &format!(
                "; echo floor p50 {:.4} ms, p99 {:.4} ms",
                ms(echo_p50),
                ms(echo_p99)
            );
        }
    }

    // The answer check, after the timed windows. The traced run keeps
    // its traced window's requests for the replay.
    let keep = traced_window.as_ref().map(|(_, traced, _)| Keep {
        ranges: traced
            .ranges
            .iter()
            .map(|r| r.start as u32..r.end as u32)
            .collect(),
        max: 20_000,
        max_bytes: 48 << 20,
    });
    let records: Vec<&[_]> = loads.iter().map(|l| l.records.as_slice()).collect();
    let checked = verify(workload, seed, &records, keep.as_ref());
    let attempted: u64 = records.iter().map(|r| r.len() as u64).sum();

    if let Some((untraced, traced, delta)) = traced_window {
        let a: Vec<PhaseStats> = untraced.iter().map(|u| phase_stats(&loads, u)).collect();
        let b = phase_stats(&loads, &traced);
        let per_layer = layer_metrics(
            TracedRun {
                samples: &checked.samples,
                delta: &delta,
                requests: traced.ranges.iter().map(|r| r.len() as u64).sum(),
                latencies_ns: b.latencies,
                req_bytes_mean: b.req_bytes_mean,
                resp_bytes_mean: b.resp_bytes_mean,
                echo_p50_ns: echo_p50,
                traced_rps: b.rps,
                untraced_rps: a.iter().map(|s| s.rps).sum::<f64>() / a.len() as f64,
                budget: total.min(Duration::from_secs(20)),
            },
            &deployment(),
        );
        for (name, unit, _) in replay::PER_LAYER {
            let value = per_layer.get(name).copied().unwrap_or(0.0);
            metrics.push(metric(name, value, unit, String::new()));
        }
    }
    let failed = checked.failed();
    println!(
        "# {} failed_ratio {:.6} ({failed} of {attempted}: {} errors, {} shed, {} unanswered){}",
        workload.name(),
        failed as f64 / attempted.max(1) as f64,
        checked.errors,
        checked.shed,
        checked.transport,
        loads
            .iter()
            .find_map(|l| l.error.as_ref())
            .map(|e| format!("; transport: {e}"))
            .unwrap_or_default()
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        wrong: checked.wrong,
    })
}

fn git_revision() -> String {
    // Read the checkout's own `.git` only: the benchmark never looks
    // outside its working directory.
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(v).ok_or(format!("unknown workload {v}"))?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return exit_io(serve()),
        Some("echo") => return exit_io(perfbench::client::run_echo()),
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lint_edit|rewrite_mix|hot_small|all> \
                 --seed N --seconds N --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# host hardware_threads={} rustc=\"{}\" git={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let single = args.workloads.len() == 1;
    let (mut all_metrics, mut attempted, mut failed, mut wrong) = (Vec::new(), 0, 0, Vec::new());
    for w in &args.workloads {
        println!(
            "# workload {} connections={} window={} closed loop",
            w.name(),
            CONNECTIONS,
            w.window()
        );
        let outcome = match run_workload(*w, args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for m in outcome.metrics {
            println!(
                "{:<12} {:<32} {:>14.6} {:<6} {}",
                w.name(),
                m.name,
                m.value,
                m.unit,
                m.note
            );
            let name = if single {
                m.name
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            all_metrics.push((name, m.value, m.unit));
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        wrong.extend(outcome.wrong);
    }
    for w in wrong.iter().take(20) {
        eprintln!("perfbench: wrong answer: {w}");
    }
    if wrong.len() > 20 {
        eprintln!("perfbench: … {} wrong answers in all", wrong.len());
    }
    let metrics = all_metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        wrong.is_empty()
    );
    if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn exit_io(r: std::io::Result<()>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
