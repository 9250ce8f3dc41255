//! The `Prove` request: theory instantiation as a service (`gp-proofs`
//! backing).
//!
//! A client names a packaged theory, an instance name, and a symbol map
//! (abstract symbol → model symbol); the handler renames the axioms *and*
//! proofs onto the model and re-checks every theorem. A failed proof is a
//! **verdict**, not a transport error: the payload carries `ok: false`
//! plus which theorem broke and why, so a client probing a bogus model
//! still gets a cacheable, well-formed answer.

use crate::codec::{first, Decoded};
use gp_core::json::{write_str, Json, Reader};
use gp_proofs::logic::SymbolMap;
use gp_proofs::theories::{group, monoid, order, ring, Theory};

/// Check a named theory, optionally instantiated onto a model.
#[derive(Clone, Debug, PartialEq)]
pub struct ProveRequest {
    /// Theory name (see [`lookup_theory`] for the registry).
    pub theory: String,
    /// Instance name used when renaming (empty = check the base theory).
    pub instance: String,
    /// Symbol map, abstract → concrete, sorted by key for canonical form.
    pub model: Vec<(String, String)>,
}

/// Resolve a theory name to its packaged theory.
pub fn lookup_theory(name: &str) -> Result<Theory, String> {
    Ok(match name {
        "monoid" => monoid::theory(),
        "monoid-identity-uniqueness" => monoid::identity_uniqueness_theory(),
        "group" => group::theory(),
        "ring" => ring::theory(),
        "order" | "strict-weak-order" => order::theory(),
        other => {
            return Err(format!(
                "unknown theory {other:?} (known: monoid, monoid-identity-uniqueness, \
                 group, ring, order)"
            ))
        }
    })
}

impl ProveRequest {
    /// Write the canonical JSON form (field order fixed, model sorted —
    /// cache keys depend on it).
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"theory\":");
        write_str(out, &self.theory);
        out.push_str(",\"instance\":");
        write_str(out, &self.instance);
        out.push_str(",\"model\":{");
        let mut model: Vec<&(String, String)> = self.model.iter().collect();
        model.sort();
        for (i, (from, to)) in model.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, from);
            out.push(':');
            write_str(out, to);
        }
        out.push_str("}}");
    }

    /// Decode the `req` object of a request envelope. A `model` that is
    /// not an object reads as empty.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let (mut theory, mut instance, mut model) = (None, None, None);
        r.object(|r, key| match &*key {
            "theory" => first(&mut theory, r, Reader::opt_str),
            "instance" => first(&mut instance, r, Reader::opt_str),
            "model" => first(&mut model, r, |r| {
                let mut entries = Ok(Vec::new());
                r.object(|r, from| {
                    let to = r.opt_str()?;
                    if let Ok(list) = &mut entries {
                        match to {
                            Some(to) => list.push((from.into_owned(), to.into_owned())),
                            None => {
                                entries =
                                    Err(format!("prove: model entry {from:?} must map to a string"))
                            }
                        }
                    }
                    Ok(())
                })?;
                Ok(entries)
            }),
            _ => r.skip(),
        })?;
        Ok((|| {
            let theory = theory
                .flatten()
                .ok_or("prove: missing string field 'theory'")?
                .into_owned();
            let instance = instance.flatten().unwrap_or_default().into_owned();
            let mut model = model.unwrap_or(Ok(Vec::new()))?;
            model.sort();
            Ok(ProveRequest {
                theory,
                instance,
                model,
            })
        })())
    }
}

/// Look up, optionally instantiate, and check. The payload reports the
/// verdict plus the proved theorems (success) or the failing theorem and
/// its error (failure).
pub fn handle(req: &ProveRequest) -> Result<Json, String> {
    let base = lookup_theory(&req.theory)?;
    let theory = if req.instance.is_empty() && req.model.is_empty() {
        base
    } else {
        let map = SymbolMap::new(req.model.iter().map(|(a, b)| (a.clone(), b.clone())));
        base.instantiate(&req.instance, &map)
    };
    let payload = Json::obj()
        .field("theory", theory.name.as_str())
        .field("axioms", theory.axioms.len())
        .field("proof_size", theory.proof_size());
    Ok(match theory.check() {
        Ok(props) => payload.field("ok", true).field(
            "theorems",
            Json::Arr(
                theory
                    .theorems
                    .iter()
                    .zip(&props)
                    .map(|(t, p)| {
                        Json::obj()
                            .field("name", t.name.as_str())
                            .field("statement", p.to_string())
                    })
                    .collect(),
            ),
        ),
        Err(e) => payload
            .field("ok", false)
            .field("failed_theorem", e.theorem.as_str())
            .field("error", format!("{:?}", e.error)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_theories_check_clean() {
        for name in [
            "monoid",
            "monoid-identity-uniqueness",
            "group",
            "ring",
            "order",
        ] {
            let payload = handle(&ProveRequest {
                theory: name.into(),
                instance: String::new(),
                model: Vec::new(),
            })
            .unwrap();
            assert_eq!(
                payload.get("ok").and_then(Json::as_bool),
                Some(true),
                "theory {name} should verify"
            );
        }
    }

    #[test]
    fn instantiated_monoid_reports_renamed_theorems() {
        let req = ProveRequest {
            theory: "monoid".into(),
            instance: "int-add".into(),
            model: vec![
                ("op".into(), "add".into()),
                ("e".into(), "zero".into()),
                ("M".into(), "Int".into()),
            ],
        };
        let payload = handle(&req).unwrap();
        assert_eq!(payload.get("ok").and_then(Json::as_bool), Some(true));
        let theorems = payload.get("theorems").and_then(Json::as_arr).unwrap();
        assert!(!theorems.is_empty());
        let all = payload.render();
        assert!(all.contains("add"), "instantiated symbols in {all}");
    }

    #[test]
    fn unknown_theory_is_a_handler_error() {
        let err = handle(&ProveRequest {
            theory: "field".into(),
            instance: String::new(),
            model: Vec::new(),
        })
        .unwrap_err();
        assert!(err.contains("unknown theory"), "got {err}");
    }

    #[test]
    fn request_json_is_canonical_under_model_reordering() {
        let a = ProveRequest {
            theory: "monoid".into(),
            instance: "i".into(),
            model: vec![("op".into(), "add".into()), ("e".into(), "zero".into())],
        };
        let b = ProveRequest {
            theory: "monoid".into(),
            instance: "i".into(),
            model: vec![("e".into(), "zero".into()), ("op".into(), "add".into())],
        };
        let text = |r: &ProveRequest| crate::codec::written(|out| r.write_json(out));
        assert_eq!(text(&a), text(&b));
        let back = crate::codec::decode_str(&text(&a), ProveRequest::decode).unwrap();
        assert_eq!(text(&back), text(&a));
        assert_eq!(back.model, b.model, "decoding sorts the model");
    }
}
