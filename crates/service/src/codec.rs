//! What every typed request codec shares.
//!
//! Each request kind decodes straight from a [`Reader`] into its struct
//! and writes its canonical JSON straight into a `String`; no `Json` tree
//! is built on the serving path. Decoders keep the semantics the
//! request grammar has always had:
//!
//! - the first occurrence of a key wins and later duplicates are
//!   validated and skipped ([`first`]);
//! - a field of the wrong JSON type reads as absent where the grammar
//!   has a default, and as a named error otherwise;
//! - a decoder always consumes its whole value, so a malformed byte
//!   anywhere in the document is reported as the JSON error it is, and
//!   a well-formed document with a bad request reports the first
//!   semantic error in the grammar's order, not in document order.
//!
//! That last point is why a decoder returns [`Decoded`]: the outer
//! `Result` is the document's syntax, the inner one the request's
//! meaning.

use gp_core::json::{Json, JsonParseError, Reader};

/// A decoder's outcome: a JSON syntax error, or the request (or the
/// reason it is not one).
pub(crate) type Decoded<T> = Result<Result<T, String>, JsonParseError>;

/// A field that may have the wrong JSON shape: `None` if it does (it
/// reads as absent), otherwise what it decodes to or why it does not.
pub(crate) type Shaped<T> = Result<Option<Result<T, String>>, JsonParseError>;

/// Read the value of a key into `slot` unless an earlier occurrence of
/// the key already filled it, in which case the value is skipped.
pub(crate) fn first<'a, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonParseError>,
) -> Result<(), JsonParseError> {
    if slot.is_some() {
        return r.skip();
    }
    *slot = Some(read(r)?);
    Ok(())
}

/// Decode one complete document with `decode`; JSON errors become
/// messages.
pub(crate) fn decode_str<T>(
    src: &str,
    decode: impl FnOnce(&mut Reader<'_>) -> Decoded<T>,
) -> Result<T, String> {
    let mut r = Reader::new(src);
    let decoded = decode(&mut r).map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    decoded
}

/// Decode a tree with the streaming decoder by rendering it first: the
/// adapter that keeps one grammar per type for callers holding a `Json`.
pub(crate) fn decode_tree<T>(
    j: &Json,
    decode: impl FnOnce(&mut Reader<'_>) -> Decoded<T>,
) -> Result<T, String> {
    decode_str(&j.render(), decode)
}

/// Decode a value whose shape is named by a key, where several keys may
/// be present: `rank` orders the keys that name a shape, and the
/// lowest-ranked one whose value `read` accepts (`Some`) wins, as if the
/// keys were tried one after another with [`Json::get`]. Only a key's
/// first occurrence counts, and a key that can no longer win is skipped
/// unread. A value that is not an object has no shape.
///
/// Returns the winning shape, if any, and the value's source text.
#[allow(clippy::type_complexity)]
pub(crate) fn first_shape<'a, T>(
    r: &mut Reader<'a>,
    rank: impl Fn(&str) -> Option<usize>,
    mut read: impl FnMut(&mut Reader<'a>, usize) -> Shaped<T>,
) -> Result<(Option<Result<T, String>>, &'a str), JsonParseError> {
    r.skip_ws();
    let start = r.pos();
    let mut best: Option<(usize, Result<T, String>)> = None;
    let mut seen = 0u64;
    r.object(|r, key| {
        let Some(rank) = rank(&key) else {
            return r.skip();
        };
        let repeated = seen & (1 << rank) != 0;
        seen |= 1 << rank;
        if repeated || best.as_ref().is_some_and(|(b, _)| *b < rank) {
            return r.skip();
        }
        if let Some(shape) = read(r, rank)? {
            best = Some((rank, shape));
        }
        Ok(())
    })?;
    Ok((best.map(|(_, shape)| shape), &r.src()[start..r.pos()]))
}

/// The canonical rendering of a well-formed value's source text, for an
/// error message that quotes the value.
pub(crate) fn canonical(text: &str) -> String {
    Json::parse(text).map(|j| j.render()).unwrap_or_default()
}

/// What a writer writes into a fresh string (unit tests).
#[cfg(test)]
pub(crate) fn written(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}
