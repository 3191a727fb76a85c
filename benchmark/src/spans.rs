//! The benchmark's own spans: one per call into a layer, kept in memory and
//! written out as Chrome `trace_event` JSON next to the runtime's event
//! rings when the run ends. Spans inside the program are a later issue;
//! these are taken from outside, around the public calls.

use nabbitc_runtime::RuntimeTrace;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Numbers attached to the span (e.g. the kernel / idle / overhead
    /// split of an execution).
    pub args: Vec<(&'static str, f64)>,
}

pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Time since this recorder was created.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Records a span measured elsewhere (a duration the program reported),
    /// placed at `start` under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Duration, length: Duration) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start + length,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        id
    }

    pub fn arg(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].args.push((key, value));
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        (span.end - span.start).saturating_sub(children)
    }

    /// Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto):
    /// `runtime`'s worker events as `RuntimeTrace::chrome_trace_json` writes
    /// them, shifted by `runtime_origin` (when the traced pool was created,
    /// on this recorder's clock) so both share one time axis, plus one
    /// complete event per span under a process of its own.
    pub fn chrome_trace_json(&self, runtime: &RuntimeTrace, runtime_origin: Duration) -> String {
        let mut shifted = runtime.clone();
        let shift = runtime_origin.as_nanos() as u64;
        for worker in &mut shifted.workers {
            for event in &mut worker.events {
                event.ts_ns += shift;
            }
        }
        let runtime_json = shifted.chrome_trace_json();
        const HEAD: &str = "{\"traceEvents\":[";
        let rest = runtime_json
            .strip_prefix(HEAD)
            .expect("RuntimeTrace::chrome_trace_json starts with the traceEvents array");

        let mut out = String::from(HEAD);
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1000,\"tid\":0,\
             \"args\":{\"name\":\"benchmark spans\"}}",
        );
        for (id, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1000,\"tid\":0,\
                 \"args\":{{\"self_us\":{:.3}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                self.self_time(id).as_secs_f64() * 1e6,
            );
            for (key, value) in &span.args {
                if value.is_finite() {
                    let _ = write!(out, ",\"{key}\":{value}");
                }
            }
            out.push_str("}}");
        }
        if !rest.starts_with(']') {
            out.push(',');
        }
        out.push_str(rest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn nesting_parents_and_self_time() {
        let mut s = Spans::default();
        let outer = s.enter("setup");
        let (_, inner) = s.time("workloads.build", || std::hint::black_box(3 + 4));
        let total = s.exit(outer);
        assert_eq!(s.spans[1].parent, Some(outer));
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.self_time(outer), total - inner);
        assert!(total >= inner);
    }

    #[test]
    fn chrome_json_parses_with_and_without_runtime_events() {
        let mut s = Spans::default();
        let op = s.enter("op");
        let start = s.now();
        let id = s.record("core.execute", start, Duration::from_micros(5));
        s.arg(id, "kernel_s", 0.25);
        s.exit(op);
        let doc = parse(&s.chrome_trace_json(&RuntimeTrace::default(), Duration::ZERO))
            .expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 3, "process name + two spans");
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("core.execute")
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("kernel_s"))
                .and_then(Json::as_num),
            Some(0.25)
        );
    }
}
