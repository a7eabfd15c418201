//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded only from the benchmark's side of each public call
//! (the program itself is not instrumented further). A span has a name,
//! start and end in nanoseconds since the recorder's origin, its parent
//! span and the operation it belongs to. Spans stay in memory until the run
//! ends and are then written out as one JSON file.
//!
//! A layer's *self time* is its span's duration minus the durations of its
//! direct children; children of one span never overlap because the client
//! is a single thread. Program stages timed by `taamr-obs` arrive as
//! aggregates without timestamps; they are recorded as children laid end to
//! end from their parent's start ([`Tracer::child_from_obs`]).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// True for spans taken from `taamr-obs` aggregates.
    pub from_obs: bool,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
///
/// An alternating tracer records every other operation only, and turns
/// `taamr-obs` on for exactly those, so the traced and the untraced
/// operations of one loop run on the same machine state: their time ratio
/// is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    alternate: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            alternate: false,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// An enabled tracer that records every other operation.
    pub fn alternating() -> Self {
        Tracer {
            alternate: true,
            ..Tracer::new(true)
        }
    }

    /// Whether this is a traced pass (its probes run, its spans are kept).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the current operation is being recorded.
    pub fn recording(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Records every operation from now on (ends the alternation).
    pub fn record_all(&mut self) {
        if self.alternate {
            self.alternate = false;
            self.paused = false;
            taamr_obs::set_enabled(self.enabled);
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
        if self.alternate {
            self.paused = self.op.is_multiple_of(2);
            taamr_obs::set_enabled(!self.paused);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording() {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            from_obs: false,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a child of the innermost open span with a duration taken
    /// from a `taamr-obs` span aggregate, placed right after the previous
    /// obs child of the same parent.
    pub fn child_from_obs(&mut self, name: &'static str, duration_ns: u64) {
        let Some(&parent) = self.stack.last().filter(|_| self.recording()) else {
            return;
        };
        let start_ns = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.parent == Some(parent) && s.from_obs)
            .map(|s| s.end_ns)
            .next()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            op: self.op,
            from_obs: true,
        });
    }

    /// Every span with the given name, as durations in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per span name, in milliseconds, summed over all spans.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Span count and summed self time (ms) per span name, as a JSON
    /// object.
    pub fn self_time_json(&self) -> String {
        let rows: Vec<String> = self
            .self_time_ms()
            .iter()
            .map(|(name, ms)| {
                let count = self.spans.iter().filter(|s| s.name == *name).count();
                format!(r#""{name}":{{"count":{count},"self_ms":{ms}}}"#)
            })
            .collect();
        format!("{{{}}}", rows.join(","))
    }

    /// The recorded spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{},"from_obs":{}}}"#,
                    s.name, s.start_ns, s.end_ns, s.op, s.from_obs
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |t| {
                t.child_from_obs("leaf", 1_000_000);
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
        });
        let self_ms = t.self_time_ms();
        let root = t.durations_ms("root")[0];
        let child = t.durations_ms("child")[0];
        assert!((self_ms["root"] - (root - child)).abs() < 1e-9);
        assert!((self_ms["child"] - (child - 1.0)).abs() < 1e-9);
        assert_eq!(self_ms["leaf"], 1.0);
        let total: f64 = self_ms.values().sum();
        assert!((total - root).abs() < 1e-9, "self times partition the root");
    }

    #[test]
    fn alternating_tracer_records_every_other_operation() {
        let mut t = Tracer::alternating();
        for _ in 0..4 {
            t.next_op();
            t.span("op", |_| ());
        }
        assert_eq!(t.durations_ms("op").len(), 2);
        t.record_all();
        t.next_op();
        t.next_op();
        t.span("op", |_| ());
        assert_eq!(t.durations_ms("op").len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(t.self_time_ms().is_empty());
    }
}
