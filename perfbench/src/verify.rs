//! After the timed window: regenerate every connection's stream from the
//! seed, recompute each answer with the backing handler, and check every
//! `Ok` response (see [`crate::check`]).

use crate::check::{check_known, expected_response, matches_handler, Status};
use crate::client::Record;
use crate::gen::{Item, Stream, Workload};
use gp_core::json::Json;
use std::collections::HashMap;

/// A request kept for the layer replay, with its client timings.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The request.
    pub item: Item,
    /// Client send time (ns since the run's origin).
    pub send_ns: u64,
    /// Client-observed latency (ns).
    pub latency_ns: u64,
    /// The handler's payload.
    pub payload: String,
}

/// The check's findings.
#[derive(Debug, Default)]
pub struct Verified {
    /// `Ok` responses that passed both checks.
    pub ok: u64,
    /// `Error` responses.
    pub errors: u64,
    /// `Overloaded` responses.
    pub shed: u64,
    /// Requests with no answer.
    pub transport: u64,
    /// Wrong answers, each naming its request.
    pub wrong: Vec<String>,
    /// Requests kept for the replay.
    pub samples: Vec<Sample>,
}

impl Verified {
    /// Requests that failed without being wrong: shed, errors, no answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.transport
    }
}

/// Which recorded requests to keep for the replay: per connection `c`,
/// those whose stream position is in `ranges[c]`, at most `max` of them and
/// `max_bytes` of frames.
#[derive(Clone, Debug)]
pub struct Keep {
    /// Stream positions kept, per connection.
    pub ranges: Vec<std::ops::Range<u32>>,
    /// Most requests kept per connection.
    pub max: usize,
    /// Most frame bytes kept per connection.
    pub max_bytes: usize,
}

/// Check every record of every connection; `records[c]` holds
/// connection `c`'s requests in stream order, from position 0.
pub fn verify(
    workload: Workload,
    seed: u64,
    records: &[&[Record]],
    keep: Option<&Keep>,
) -> Verified {
    let parts: Vec<Verified> = std::thread::scope(|scope| {
        let handles: Vec<_> = records
            .iter()
            .enumerate()
            .map(|(conn, recs)| {
                let keep = keep.map(|k| (k.ranges[conn].clone(), k.max, k.max_bytes));
                scope.spawn(move || verify_conn(workload, seed, conn, recs, keep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    let mut all = Verified::default();
    for p in parts {
        all.ok += p.ok;
        all.errors += p.errors;
        all.shed += p.shed;
        all.transport += p.transport;
        all.wrong.extend(p.wrong);
        all.samples.extend(p.samples);
    }
    all.samples.sort_by_key(|s| s.send_ns);
    all
}

fn verify_conn(
    workload: Workload,
    seed: u64,
    conn: usize,
    recs: &[Record],
    keep: Option<(std::ops::Range<u32>, usize, usize)>,
) -> Verified {
    let mut v = Verified::default();
    let mut stream = Stream::new(workload, seed, conn);
    // The handler's payload for an item, checked against its known
    // answer. `hot_small` keys repeat, so their payloads are kept by key
    // and each key is checked once; elsewhere every request is distinct.
    let answer = |item: &Item| -> Result<String, String> {
        let (_, payload) = expected_response(&item.frame)?;
        check_known(&item.expect, &payload, item.key)?;
        Ok(payload)
    };
    let mut payloads: HashMap<u64, Result<String, String>> = HashMap::new();
    let (mut kept, mut kept_bytes) = (0usize, 0usize);
    for (pos, r) in recs.iter().enumerate() {
        let item = stream.next_item();
        let seq = pos as u32;
        let name = || {
            format!(
                "{} conn {conn} request {seq} ({}, key {})",
                workload.name(),
                item.kind,
                item.key
            )
        };
        let failures = match r.status {
            Status::Ok => None,
            Status::Error => Some(&mut v.errors),
            Status::Overloaded => Some(&mut v.shed),
            Status::Transport => Some(&mut v.transport),
        };
        if let Some(count) = failures {
            *count += 1;
            continue;
        }
        let payload = if workload == Workload::HotSmall {
            payloads
                .entry(item.key)
                .or_insert_with(|| answer(&item))
                .clone()
        } else {
            answer(&item)
        };
        let payload = match payload {
            Ok(p) if matches_handler(u64::from(seq) + 1, &p, r.hash) => p,
            Ok(_) => {
                v.wrong.push(format!(
                    "{}: response bytes differ from the backing handler's answer",
                    name()
                ));
                continue;
            }
            Err(e) => {
                v.wrong.push(format!("{}: {e}", name()));
                continue;
            }
        };
        v.ok += 1;
        let keep_this = keep.as_ref().is_some_and(|(range, max, max_bytes)| {
            range.contains(&seq) && kept < *max && kept_bytes + item.frame.len() <= *max_bytes
        });
        if keep_this {
            kept += 1;
            kept_bytes += item.frame.len();
            v.samples.push(Sample {
                send_ns: r.send_ns,
                latency_ns: r.recv_ns - r.send_ns,
                payload,
                item,
            });
        }
    }
    v
}

/// Pull `stats.<key>` style numbers out of an `optimize` payload.
pub fn optimize_stat(payload: &str, key: &str) -> Option<f64> {
    let j = Json::parse(payload).ok()?;
    let v = j.get("stats")?.get(key)?;
    v.as_f64()
        .or_else(|| v.as_bool().map(|b| f64::from(u8::from(b))))
}
