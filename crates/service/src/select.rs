//! The `Select` request: algorithm selection as a service (`gp-taxonomy`
//! backing).
//!
//! A client states deployment requirements along the taxonomy's
//! dimensions (all kebab-case strings on the wire); the handler filters
//! the published catalog for applicability and returns the best choice by
//! asymptotic message complexity, plus every applicable alternative so
//! the client can second-guess the tie-break.

use crate::codec::{decode_tree, first, Decoded};
use gp_core::json::{write_str, Json, Reader};
use gp_taxonomy::records::applicable;
use gp_taxonomy::{
    catalog, select_best, Fault, Problem, ProcessMgmt, Requirement, Sharing, Timing, Topology,
};
use std::borrow::Cow;

/// Select the best distributed algorithm for a deployment.
#[derive(Clone, Debug)]
pub struct SelectRequest {
    /// The deployment requirements.
    pub requirement: Requirement,
}

// `Requirement` derives no `PartialEq`; equality is canonical-JSON
// equality, which is also what the response cache keys on.
impl PartialEq for SelectRequest {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

// --- dimension name tables (kebab-case, both directions) ----------------

fn problem_name(p: Problem) -> &'static str {
    match p {
        Problem::LeaderElection => "leader-election",
        Problem::Broadcast => "broadcast",
        Problem::SpanningTree => "spanning-tree",
        Problem::Consensus => "consensus",
        Problem::MutualExclusion => "mutual-exclusion",
        Problem::FailureDetection => "failure-detection",
    }
}

fn problem_from(s: &str) -> Result<Problem, String> {
    Ok(match s {
        "leader-election" => Problem::LeaderElection,
        "broadcast" => Problem::Broadcast,
        "spanning-tree" => Problem::SpanningTree,
        "consensus" => Problem::Consensus,
        "mutual-exclusion" => Problem::MutualExclusion,
        "failure-detection" => Problem::FailureDetection,
        other => return Err(format!("unknown problem {other:?}")),
    })
}

fn topology_name(t: Topology) -> &'static str {
    match t {
        Topology::Arbitrary => "arbitrary",
        Topology::Ring => "ring",
        Topology::UniRing => "uni-ring",
        Topology::BiRing => "bi-ring",
        Topology::Complete => "complete",
        Topology::Tree => "tree",
        Topology::Star => "star",
        Topology::Grid => "grid",
    }
}

fn topology_from(s: &str) -> Result<Topology, String> {
    Ok(match s {
        "arbitrary" => Topology::Arbitrary,
        "ring" => Topology::Ring,
        "uni-ring" => Topology::UniRing,
        "bi-ring" => Topology::BiRing,
        "complete" => Topology::Complete,
        "tree" => Topology::Tree,
        "star" => Topology::Star,
        "grid" => Topology::Grid,
        other => return Err(format!("unknown topology {other:?}")),
    })
}

fn timing_name(t: Timing) -> &'static str {
    match t {
        Timing::Asynchronous => "asynchronous",
        Timing::PartiallySynchronous => "partially-synchronous",
        Timing::Synchronous => "synchronous",
    }
}

fn timing_from(s: &str) -> Result<Timing, String> {
    Ok(match s {
        "asynchronous" => Timing::Asynchronous,
        "partially-synchronous" => Timing::PartiallySynchronous,
        "synchronous" => Timing::Synchronous,
        other => return Err(format!("unknown timing {other:?}")),
    })
}

fn fault_name(f: Fault) -> &'static str {
    match f {
        Fault::None => "none",
        Fault::Crash => "crash",
        Fault::Omission => "omission",
        Fault::Byzantine => "byzantine",
    }
}

fn fault_from(s: &str) -> Result<Fault, String> {
    Ok(match s {
        "none" => Fault::None,
        "crash" => Fault::Crash,
        "omission" => Fault::Omission,
        "byzantine" => Fault::Byzantine,
        other => return Err(format!("unknown fault class {other:?}")),
    })
}

fn sharing_name(s: Sharing) -> &'static str {
    match s {
        Sharing::MessagePassing => "message-passing",
        Sharing::SharedMemory => "shared-memory",
    }
}

fn sharing_from(s: &str) -> Result<Sharing, String> {
    Ok(match s {
        "message-passing" => Sharing::MessagePassing,
        "shared-memory" => Sharing::SharedMemory,
        other => return Err(format!("unknown sharing {other:?}")),
    })
}

fn process_mgmt_name(p: ProcessMgmt) -> &'static str {
    match p {
        ProcessMgmt::Static => "static",
        ProcessMgmt::Dynamic => "dynamic",
    }
}

fn process_mgmt_from(s: &str) -> Result<ProcessMgmt, String> {
    Ok(match s {
        "static" => ProcessMgmt::Static,
        "dynamic" => ProcessMgmt::Dynamic,
        other => return Err(format!("unknown process management {other:?}")),
    })
}

impl SelectRequest {
    /// Write the canonical JSON form (field order fixed — cache keys
    /// depend on it).
    pub(crate) fn write_json(&self, out: &mut String) {
        let r = &self.requirement;
        for (i, (key, value)) in [
            ("problem", problem_name(r.problem)),
            ("topology", topology_name(r.topology)),
            ("timing", timing_name(r.network_timing)),
            ("fault", fault_name(r.fault_needed)),
            ("sharing", sharing_name(r.sharing)),
            ("process-mgmt", process_mgmt_name(r.process_mgmt)),
        ]
        .into_iter()
        .enumerate()
        {
            out.push(if i == 0 { '{' } else { ',' });
            write_str(out, key);
            out.push(':');
            write_str(out, value);
        }
        out.push('}');
    }

    /// Decode from a `req` tree (through the same streaming decoder the
    /// wire uses). `problem`, `topology`, and `timing` are required; the
    /// remaining dimensions default as in [`Requirement::basic`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        decode_tree(j, Self::decode)
    }

    /// Decode the `req` object of a request envelope.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let (mut problem, mut topology, mut timing) = (None, None, None);
        let (mut fault, mut sharing, mut mgmt) = (None, None, None);
        r.object(|r, key| match &*key {
            "problem" => first(&mut problem, r, Reader::opt_str),
            "topology" => first(&mut topology, r, Reader::opt_str),
            "timing" => first(&mut timing, r, Reader::opt_str),
            "fault" => first(&mut fault, r, Reader::opt_str),
            "sharing" => first(&mut sharing, r, Reader::opt_str),
            "process-mgmt" => first(&mut mgmt, r, Reader::opt_str),
            _ => r.skip(),
        })?;
        fn required<'a>(
            field: Option<Option<Cow<'a, str>>>,
            key: &str,
        ) -> Result<Cow<'a, str>, String> {
            field
                .flatten()
                .ok_or(format!("select: missing string field '{key}'"))
        }
        Ok((|| {
            let mut req = Requirement::basic(
                problem_from(&required(problem, "problem")?)?,
                topology_from(&required(topology, "topology")?)?,
                timing_from(&required(timing, "timing")?)?,
            );
            if let Some(s) = fault.flatten() {
                req.fault_needed = fault_from(&s)?;
            }
            if let Some(s) = sharing.flatten() {
                req.sharing = sharing_from(&s)?;
            }
            if let Some(s) = mgmt.flatten() {
                req.process_mgmt = process_mgmt_from(&s)?;
            }
            Ok(SelectRequest { requirement: req })
        })())
    }

    fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

fn algorithm_json(alg: &gp_taxonomy::DistAlgorithm) -> Json {
    Json::obj()
        .field("name", alg.name)
        .field("impl", alg.impl_id)
        .field("messages", alg.messages.to_string())
        .field("time", alg.time.to_string())
        .field("local_computation", alg.local_computation.to_string())
}

/// Filter the catalog and pick the best applicable algorithm.
pub fn handle(req: &SelectRequest) -> Result<Json, String> {
    let algorithms = catalog();
    let applicable_names: Vec<Json> = algorithms
        .iter()
        .filter(|a| applicable(a, &req.requirement))
        .map(|a| Json::from(a.name))
        .collect();
    let selected = match select_best(&algorithms, &req.requirement) {
        Some(alg) => algorithm_json(alg),
        None => Json::Null,
    };
    Ok(Json::obj()
        .field("selected", selected)
        .field("applicable", applicable_names))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_election_selects_an_algorithm() {
        let req = SelectRequest {
            requirement: Requirement::basic(
                Problem::LeaderElection,
                Topology::BiRing,
                Timing::Asynchronous,
            ),
        };
        let payload = handle(&req).unwrap();
        let selected = payload.get("selected").unwrap();
        assert_ne!(
            selected,
            &Json::Null,
            "catalog has ring election: {payload:?}"
        );
        assert!(selected.get("name").and_then(Json::as_str).is_some());
        assert!(selected.get("messages").and_then(Json::as_str).is_some());
    }

    #[test]
    fn impossible_requirements_yield_null_not_error() {
        // Byzantine fault tolerance is outside the catalog.
        let mut requirement = Requirement::basic(
            Problem::LeaderElection,
            Topology::Ring,
            Timing::Asynchronous,
        );
        requirement.fault_needed = Fault::Byzantine;
        let payload = handle(&SelectRequest { requirement }).unwrap();
        assert_eq!(payload.get("selected"), Some(&Json::Null));
        assert_eq!(
            payload
                .get("applicable")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn wire_names_round_trip_for_every_dimension_value() {
        for p in [
            Problem::LeaderElection,
            Problem::Broadcast,
            Problem::SpanningTree,
            Problem::Consensus,
            Problem::MutualExclusion,
            Problem::FailureDetection,
        ] {
            assert_eq!(problem_from(problem_name(p)).unwrap(), p);
        }
        for t in [
            Topology::Arbitrary,
            Topology::Ring,
            Topology::UniRing,
            Topology::BiRing,
            Topology::Complete,
            Topology::Tree,
            Topology::Star,
            Topology::Grid,
        ] {
            assert_eq!(topology_from(topology_name(t)).unwrap(), t);
        }
        for t in [
            Timing::Asynchronous,
            Timing::PartiallySynchronous,
            Timing::Synchronous,
        ] {
            assert_eq!(timing_from(timing_name(t)).unwrap(), t);
        }
        for f in [Fault::None, Fault::Crash, Fault::Omission, Fault::Byzantine] {
            assert_eq!(fault_from(fault_name(f)).unwrap(), f);
        }
        for s in [Sharing::MessagePassing, Sharing::SharedMemory] {
            assert_eq!(sharing_from(sharing_name(s)).unwrap(), s);
        }
        for p in [ProcessMgmt::Static, ProcessMgmt::Dynamic] {
            assert_eq!(process_mgmt_from(process_mgmt_name(p)).unwrap(), p);
        }
    }

    #[test]
    fn request_json_round_trips_with_defaults() {
        let j = Json::parse(
            r#"{"problem":"spanning-tree","topology":"arbitrary","timing":"asynchronous"}"#,
        )
        .unwrap();
        let req = SelectRequest::from_json(&j).unwrap();
        let text = req.canonical();
        let back = crate::codec::decode_str(&text, SelectRequest::decode).unwrap();
        assert_eq!(back, req);
        let canonical = Json::parse(&text).unwrap();
        assert_eq!(canonical.get("fault").and_then(Json::as_str), Some("none"));
    }
}
