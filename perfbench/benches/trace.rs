//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer's public functions; nothing inside the program under test is
//! instrumented. A disabled tracer records nothing and costs one branch
//! per call, so the untraced end-to-end runs share the same code path.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer was made.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The client op this span belongs to (set-up and replays use their
    /// own ids, see the workload modules).
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when the tracer is off.
#[must_use = "close the span with Tracer::end"]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (and any span left open
    /// inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span: its duration minus the part of its interval that its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() as i64 - covered as i64
            })
            .collect()
    }

    /// The spans as JSON lines: name, start, end, parent, op and self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "op".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "a".into(),
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "b".into(),
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                op: 0,
            },
        ];
        assert_eq!(t.self_ns(), vec![50, 30, 30]);

        let mut off = Tracer::new(false);
        let id = off.begin("op", 1);
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 7);
        t.span("child", 7, || ());
        t.end(op);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
