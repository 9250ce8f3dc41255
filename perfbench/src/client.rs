//! Processes and load: the server and echo children, the closed-loop
//! load generator, and `/proc` readings of the server process.

use crate::check::{fnv1a, status_of, Status};
use crate::gen::{Stream, Workload};
use gp_core::frame::{encode_frame, read_frame, write_frame};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a client waits for any one answer before counting the
/// request as a transport failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A child process of this benchmark serving on loopback. Closing its
/// stdin asks it to shut down.
pub struct Served {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Served {
    /// The child's pid (for `/proc` readings).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the child to drain and exit, and wait for it.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("child exited with {status}")))
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // Reached only on an error path: make sure no child outlives us.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Start this executable as a child in `role` (`serve` or `echo`) and
/// read the port it announces on its stdout.
pub fn spawn_child(role: &str) -> io::Result<Served> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .arg(role)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    let port = BufReader::new(stdout)
        .read_line(&mut line)
        .ok()
        .and_then(|_| line.trim().parse::<u16>().ok());
    let Some(port) = port else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::other(format!(
            "{role} child announced {line:?} instead of a port"
        )));
    };
    Ok(Served {
        child,
        stdin,
        addr: SocketAddr::from(([127, 0, 0, 1], port)),
    })
}

/// Announce `port` to the parent, then block until the parent closes
/// our stdin.
pub fn announce_and_wait(port: u16) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(out, "{port}")?;
    out.flush()?;
    drop(out);
    io::copy(&mut io::stdin().lock(), &mut io::sink())?;
    Ok(())
}

/// The echo child's body: a minimal length-prefixed echo server, one
/// thread per connection — the loopback floor served latencies are
/// judged against.
pub fn run_echo() -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let port = listener.local_addr()?.port();
    // Detached: these threads end with the process, which exits once the
    // parent closes our stdin.
    std::thread::spawn(move || {
        for conn in listener.incoming().flatten() {
            std::thread::spawn(move || echo_conn(conn));
        }
    });
    announce_and_wait(port)
}

fn echo_conn(conn: TcpStream) -> io::Result<()> {
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    let mut buf = Vec::new();
    while let Some(frame) = read_frame(&mut reader)? {
        buf.clear();
        encode_frame(&mut buf, &frame);
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// One request as the client saw it. A connection's records are in
/// stream order: record `i` is its stream's request `i`.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Send time, ns since the run's origin.
    pub send_ns: u64,
    /// Receive time, ns since the run's origin.
    pub recv_ns: u64,
    /// FNV-1a of the response frame.
    pub hash: u64,
    /// Response status.
    pub status: Status,
    /// Request frame bytes.
    pub req_bytes: u32,
    /// Response frame bytes.
    pub resp_bytes: u32,
}

/// What one connection did during a load phase.
#[derive(Debug, Default)]
pub struct ConnLoad {
    /// Every request sent, in send order.
    pub records: Vec<Record>,
    /// First transport error, if the connection failed.
    pub error: Option<String>,
}

/// A load phase's parameters.
#[derive(Clone, Copy, Debug)]
struct Phase {
    /// Requests in flight per connection.
    window: usize,
    /// No request is sent after this instant (ns since `origin`).
    deadline_ns: u64,
    /// Attach a wire trace id to every request.
    traced: bool,
}

/// One client connection: the socket and a buffered reader over it.
pub struct Conn {
    tcp: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with the benchmark's timeouts.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let tcp = TcpStream::connect(addr)?;
        tcp.set_nodelay(true)?;
        tcp.set_read_timeout(Some(IO_TIMEOUT))?;
        tcp.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::with_capacity(256 << 10, tcp.try_clone()?);
        Ok(Conn { tcp, reader })
    }

    /// Send one frame and wait for its answer (set-up probes, `stats`).
    pub fn round_trip(&mut self, frame: &str) -> io::Result<String> {
        write_frame(&mut self.tcp, frame)?;
        self.recv()
    }

    /// Whether a whole frame is already buffered, so reading it will
    /// not block.
    fn frame_buffered(&self) -> bool {
        match self.reader.buffer() {
            [a, b, c, d, rest @ ..] => rest.len() >= u32::from_be_bytes([*a, *b, *c, *d]) as usize,
            _ => false,
        }
    }

    fn recv(&mut self) -> io::Result<String> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::other("server closed the connection"))
    }
}

/// Where one phase's requests sit in each connection's records.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Per connection, the record indices (stream positions) it added.
    pub ranges: Vec<std::ops::Range<usize>>,
    /// Phase start, ns since the load's origin.
    pub start_ns: u64,
    /// No request was sent after this (ns since the origin).
    pub deadline_ns: u64,
}

/// Closed-loop load over a set of connections, one thread and one
/// stream per connection. Streams continue across phases, so a request
/// is identified by its connection and its position in the stream.
pub struct Load {
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    /// What each connection sent and received so far.
    pub loads: Vec<ConnLoad>,
    window: usize,
    origin: Instant,
}

impl Load {
    /// Load `conns` with `workload`'s streams under `seed`.
    pub fn new(conns: Vec<Conn>, workload: Workload, seed: u64) -> Load {
        let streams = (0..conns.len())
            .map(|c| Stream::new(workload, seed, c))
            .collect();
        let loads = (0..conns.len()).map(|_| ConnLoad::default()).collect();
        Load {
            conns,
            streams,
            loads,
            window: workload.window(),
            origin: Instant::now(),
        }
    }

    /// Connection 0, for requests outside the load (`stats`).
    pub fn first_conn(&mut self) -> &mut Conn {
        &mut self.conns[0]
    }

    /// Keep `window` requests in flight on every connection for
    /// `length`, then stop sending and drain what is in flight.
    pub fn phase(&mut self, length: Duration, traced: bool) -> PhaseSpan {
        let before: Vec<usize> = self.loads.iter().map(|l| l.records.len()).collect();
        let start_ns = now_ns(self.origin);
        let phase = Phase {
            window: self.window,
            deadline_ns: start_ns + length.as_nanos() as u64,
            traced,
        };
        let origin = self.origin;
        std::thread::scope(|scope| {
            for (c, ((conn, stream), load)) in self
                .conns
                .iter_mut()
                .zip(self.streams.iter_mut())
                .zip(self.loads.iter_mut())
                .enumerate()
            {
                scope.spawn(move || {
                    if load.error.is_none() {
                        if let Err(e) = drive(conn, stream, c, phase, origin, load) {
                            load.error = Some(e.to_string());
                        }
                    }
                });
            }
        });
        PhaseSpan {
            ranges: before
                .into_iter()
                .zip(&self.loads)
                .map(|(b, l)| b..l.records.len())
                .collect(),
            start_ns,
            deadline_ns: phase.deadline_ns,
        }
    }

    /// Close the connections and keep the records.
    pub fn finish(self) -> Vec<ConnLoad> {
        self.loads
    }
}

/// Client-side figures of one phase.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Ok responses received before the deadline, per second.
    pub rps: f64,
    /// Latencies (ns) of those responses.
    pub latencies: Vec<u64>,
    /// Every response of the phase, drained ones included.
    pub answered: u64,
    /// Mean request frame size (bytes).
    pub req_bytes_mean: f64,
    /// Mean response frame size (bytes).
    pub resp_bytes_mean: f64,
}

/// Summarize one phase of `loads`.
pub fn phase_stats(loads: &[ConnLoad], span: &PhaseSpan) -> PhaseStats {
    let mut latencies = Vec::new();
    let (mut answered, mut req_bytes, mut resp_bytes, mut n) = (0u64, 0u64, 0u64, 0u64);
    for (load, range) in loads.iter().zip(&span.ranges) {
        for r in &load.records[range.clone()] {
            n += 1;
            req_bytes += u64::from(r.req_bytes);
            if r.status == Status::Transport {
                continue;
            }
            answered += 1;
            resp_bytes += u64::from(r.resp_bytes);
            if r.status == Status::Ok && r.recv_ns <= span.deadline_ns {
                latencies.push(r.recv_ns - r.send_ns);
            }
        }
    }
    let secs = (span.deadline_ns - span.start_ns) as f64 / 1e9;
    PhaseStats {
        rps: latencies.len() as f64 / secs,
        latencies,
        answered,
        req_bytes_mean: req_bytes as f64 / n.max(1) as f64,
        resp_bytes_mean: resp_bytes as f64 / answered.max(1) as f64,
    }
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn drive(
    conn: &mut Conn,
    stream: &mut Stream,
    c: usize,
    phase: Phase,
    origin: Instant,
    load: &mut ConnLoad,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(64 << 10);
    let mut inflight = std::collections::VecDeque::with_capacity(phase.window);
    loop {
        if now_ns(origin) < phase.deadline_ns && inflight.len() < phase.window {
            out.clear();
            let send_ns = now_ns(origin);
            while inflight.len() < phase.window {
                let item = stream.next_item();
                let seq = load.records.len() as u32;
                let frame = if phase.traced {
                    let trace_id = (c as u64) << 32 | u64::from(seq);
                    format!(
                        "{},\"trace\":{trace_id}}}",
                        &item.frame[..item.frame.len() - 1]
                    )
                } else {
                    item.frame
                };
                encode_frame(&mut out, &frame);
                inflight.push_back(load.records.len());
                load.records.push(Record {
                    send_ns,
                    recv_ns: 0,
                    hash: 0,
                    status: Status::Transport,
                    req_bytes: frame.len() as u32,
                    resp_bytes: 0,
                });
            }
            conn.tcp.write_all(&out)?;
        }
        // Take one answer, and every further one already buffered, before
        // refilling the window with one write.
        while let Some(slot) = inflight.pop_front() {
            let frame = conn.recv()?;
            let r = &mut load.records[slot];
            r.recv_ns = now_ns(origin);
            r.hash = fnv1a(frame.as_bytes());
            r.status = status_of(&frame);
            r.resp_bytes = frame.len() as u32;
            if !conn.frame_buffered() {
                break;
            }
        }
        if inflight.is_empty() && now_ns(origin) >= phase.deadline_ns {
            return Ok(());
        }
    }
}

/// User + system CPU time of process `pid`, in seconds.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 2)..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((ticks(11)? + ticks(12)?) / clock_ticks_per_second())
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Ticks the hypervisor ran something else while this machine's CPUs
/// wanted to run (steal), and all ticks, both summed over the CPUs since
/// boot, from `/proc/stat`. Steal reads 0 where the kernel has no such
/// column.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or_else(|| io::Error::other("no cpu line in /proc/stat"))?
        .split_whitespace()
        .map(|f| f.parse::<u64>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| io::Error::other("malformed /proc/stat"))?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let steal = fields.get(7).copied().unwrap_or(0);
    Ok((steal, fields.iter().take(8).sum()))
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
