//! In-memory span recorder for the traced run.
//!
//! Every timed call goes through [`timed`]: it always measures wall time
//! (the end-to-end figures need it), and when tracing is on it also
//! records a span — layer, call, start, end, parent — on the calling
//! thread. Spans stay in memory and are written out once, when the run
//! ends; a layer's self time is its span's duration minus the part its
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call enters, e.g. `cdn_trace::stream`.
    pub layer: &'static str,
    /// The call itself, e.g. `StreamingTrace::next`.
    pub call: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f`, returning its result and its wall time in seconds. With
/// tracing on, the call is also recorded as a span nested under the
/// innermost open one; the bookkeeping happens outside the timed interval.
pub fn timed<T>(layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            layer,
            call,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        r.open.push(idx);
        Some(idx)
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let t0 = r.t0;
            let span = &mut r.spans[idx];
            span.start_ns = start.duration_since(t0).as_nanos() as u64;
            span.end_ns = end.duration_since(t0).as_nanos() as u64;
            r.open.pop();
        });
    }
    (out, end.duration_since(start).as_secs_f64())
}

/// Run `f` with span recording off: the untraced side of the tracing
/// overhead comparison.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = enabled();
    set_enabled(false);
    let out = f();
    set_enabled(was);
    out
}

/// Take every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per `layer/call`: span count, total time and self time (total minus
/// the time covered by direct children), in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(format!("{}/{}", s.layer, s.call)).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Spans plus their per-layer self-time summary as one JSON document.
pub fn to_json(spans: &[Span], header: &str) -> String {
    let mut s = String::with_capacity(64 * spans.len() + 1024);
    let _ = write!(s, "{{{header},\"self_times\":{{");
    for (i, (name, (count, total, own))) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    s.push_str("},\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}{{\"id\":{i},\"layer\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            sp.layer, sp.call, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        let _ = take();
        timed("outer", "a", || {
            timed("inner", "b", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(&spans);
        let (_, outer_total, outer_self) = st["outer/a"];
        let (_, inner_total, _) = st["inner/b"];
        assert_eq!(outer_self, outer_total - inner_total);
        set_enabled(false);
    }
}
