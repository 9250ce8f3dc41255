//! RAII span timers with per-thread scoping.
//!
//! A span measures one region of work: created at region entry, it
//! records the elapsed wall time (nanoseconds) into the histogram
//! `span.<name>.ns` and bumps the counter `span.<name>.calls` when it
//! drops. Spans nest: each thread keeps a stack of active span names, so
//! [`current_span_path`] can attribute low-level work ("who called this
//! reduce?") without threading labels through every API.
//!
//! When telemetry is disabled ([`crate::set_enabled`]`(false)`) a span is
//! constructed as a no-op: no clock read, no registry access, no
//! thread-local push — the documented way to make instrumented hot paths
//! indistinguishable from uninstrumented ones.

use crate::metric::{Counter, Histogram};
use crate::registry::global;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The active span scope of the calling thread, rendered as
/// `outer/inner/innermost` (empty string when no span is open).
pub fn current_span_path() -> String {
    SPAN_STACK.with(|s| s.borrow().join("/"))
}

/// Depth of the calling thread's span stack.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Truncate the calling thread's span stack to `depth` entries. Exposed
/// for executors that run untrusted jobs behind `catch_unwind`: a job
/// that leaks an open [`SpanTimer`] (or carries one into a panic payload
/// that is caught and discarded) leaves entries on the worker's stack
/// with no drop left to remove them, permanently corrupting every later
/// job's [`current_span_path`]. The pool snapshots [`span_depth`] before
/// the catch boundary and restores it here after.
pub fn truncate_span_stack(depth: usize) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.len() > depth {
            stack.truncate(depth);
        }
    });
}

/// An RAII timer for one named region; see the module docs. Obtain via
/// [`span`].
pub struct SpanTimer {
    /// `None` when telemetry was disabled at construction: drop is a no-op.
    /// The `usize` is the stack depth *before* this span pushed — drop
    /// truncates back to it rather than blind-popping, so out-of-LIFO
    /// drops (possible when caught panics reorder destruction) cannot pop
    /// someone else's entry.
    armed: Option<(Instant, &'static Histogram, usize)>,
}

/// Open a span named `name`. The name must be `'static` because it lives
/// on the thread's scope stack; metric names derive from it
/// (`span.<name>.ns`, `span.<name>.calls`). Resolution formats both names
/// and looks them up in the registry on every call, so spans belong on
/// coarse boundaries (an entire `par_sort` call, one simplifier run), and
/// a per-request call site should use a [`SpanSite`] instead.
pub fn span(name: &'static str) -> SpanTimer {
    if !crate::enabled() {
        return SpanTimer { armed: None };
    }
    let (hist, calls) = resolve(name);
    arm(name, hist, calls)
}

/// A span name whose instruments are resolved on its first open and
/// reused after, so opening one skips the name formatting and registry
/// lookups of [`span`]. Declare it `static` next to the call site, or in
/// a per-kind table.
pub struct SpanSite {
    name: &'static str,
    instruments: OnceLock<(&'static Histogram, &'static Counter)>,
}

impl SpanSite {
    /// A site for spans named `name` (see [`span`] for the metric names).
    pub const fn new(name: &'static str) -> SpanSite {
        SpanSite {
            name,
            instruments: OnceLock::new(),
        }
    }

    /// Open a span at this site; the same as [`span`] with its name.
    pub fn open(&self) -> SpanTimer {
        if !crate::enabled() {
            return SpanTimer { armed: None };
        }
        let &(hist, calls) = self.instruments.get_or_init(|| resolve(self.name));
        arm(self.name, hist, calls)
    }
}

fn resolve(name: &str) -> (&'static Histogram, &'static Counter) {
    (
        global().histogram(&format!("span.{name}.ns")),
        global().counter(&format!("span.{name}.calls")),
    )
}

fn arm(name: &'static str, hist: &'static Histogram, calls: &'static Counter) -> SpanTimer {
    calls.incr();
    let depth = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let depth = stack.len();
        stack.push(name);
        depth
    });
    SpanTimer {
        armed: Some((Instant::now(), hist, depth)),
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((start, hist, depth)) = self.armed.take() {
            hist.record(start.elapsed().as_nanos() as u64);
            // Truncate to the depth this span pushed at, not pop: if an
            // inner span leaked (caught panic discarded its timer without
            // running drop) the stale entries above us go too, and if
            // drops run out of LIFO order we never pop an outer entry.
            truncate_span_stack(depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot;

    #[test]
    fn span_records_duration_and_call_count() {
        let _guard = crate::test_flag_lock();
        let before = snapshot();
        {
            let _s = span("span_unit_test");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("span.span_unit_test.calls"), 1);
        let h = d.histogram("span.span_unit_test.ns").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 1_000_000, "slept 2ms, recorded {}ns", h.sum);
    }

    #[test]
    fn span_sites_record_like_named_spans() {
        let _guard = crate::test_flag_lock();
        static SITE: SpanSite = SpanSite::new("span_site_unit_test");
        let before = snapshot();
        for _ in 0..3 {
            let _s = SITE.open();
            assert_eq!(current_span_path(), "span_site_unit_test");
        }
        assert_eq!(current_span_path(), "");
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("span.span_site_unit_test.calls"), 3);
        assert_eq!(d.histogram("span.span_site_unit_test.ns").unwrap().count, 3);
    }

    #[test]
    fn spans_nest_and_unwind_per_thread() {
        assert_eq!(current_span_path(), "");
        {
            let _a = span("outer_scope");
            assert_eq!(current_span_path(), "outer_scope");
            {
                let _b = span("inner_scope");
                assert_eq!(current_span_path(), "outer_scope/inner_scope");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(current_span_path(), "outer_scope");
        }
        assert_eq!(span_depth(), 0);
        // Another thread's stack is independent.
        let _a = span("outer_scope");
        std::thread::spawn(|| assert_eq!(current_span_path(), ""))
            .join()
            .unwrap();
    }

    #[test]
    fn out_of_order_drops_cannot_corrupt_the_stack() {
        // Caught panics can reorder destruction (a payload carrying a
        // timer drops after the catch). Dropping the OUTER span first
        // must clear its whole scope, and the late inner drop must not
        // pop anything beneath it.
        let outer = span("ooo_outer");
        let inner = span("ooo_inner");
        assert_eq!(current_span_path(), "ooo_outer/ooo_inner");
        drop(outer);
        assert_eq!(
            current_span_path(),
            "",
            "closing the outer scope closes everything nested in it"
        );
        let bystander = span("ooo_bystander");
        drop(inner); // recorded at depth 1: must not touch the bystander
        assert_eq!(current_span_path(), "ooo_bystander");
        drop(bystander);
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn leaked_span_is_cleaned_by_depth_truncation() {
        // A leaked timer (e.g. mem::forget inside a pooled job that then
        // panics) leaves entries with no drop to remove them; the
        // executor restores the stack via truncate_span_stack.
        let depth_before = span_depth();
        let leaked = span("leaked_span_test");
        std::mem::forget(leaked);
        assert_eq!(current_span_path(), "leaked_span_test");
        truncate_span_stack(depth_before);
        assert_eq!(current_span_path(), "", "stack restored after leak");
        // Truncating deeper than the stack is a no-op, not a panic.
        truncate_span_stack(100);
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn disabled_spans_are_no_ops() {
        let _guard = crate::test_flag_lock();
        crate::set_enabled(false);
        let before = snapshot();
        {
            let _s = span("disabled_span_test");
            assert_eq!(span_depth(), 0, "disabled span must not push scope");
        }
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("span.disabled_span_test.calls"), 0);
        assert!(d.histogram("span.disabled_span_test.ns").is_none());
        crate::set_enabled(true);
    }
}
