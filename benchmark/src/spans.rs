//! Benchmark-side spans: named intervals around the calls into each layer,
//! kept in memory and written at exit as Chrome `trace_event` JSON.
//!
//! Spans exist only in traced runs. The recorder is driven from the
//! benchmark's main thread, so nesting is a plain stack: `enter` pushes,
//! `exit` pops, and a span's parent is whatever was open when it started.
//! A layer's *self time* is its span's duration minus the part covered by
//! its children.

use pgxd_runtime::telemetry::export::json::Value;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A disabled recorder makes every call a no-op, so untraced runs pay
    /// one branch per call site and record nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Records an already-measured interval as a child of the open span.
    /// Used where the measured code cannot take `&mut Spans` (it runs on
    /// another thread, or is timed inside a helper).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Total self time per span name, microseconds, largest first.
    pub fn self_times(&self) -> Vec<(String, f64, usize)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: Vec<(String, f64, usize)> = Vec::new();
        for s in &self.spans {
            let own = (s.end_us - s.start_us - child_us[s.id]).max(0.0);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(slot) => {
                    slot.1 += own;
                    slot.2 += 1;
                }
                None => by_name.push((s.name.clone(), own, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("span times are finite"));
        by_name
    }

    /// Chrome `trace_event` document: one complete ("X") event per span,
    /// with the span id and its parent's id in `args`.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", s.name.as_str().into()),
                    ("cat", "benchmark".into()),
                    ("ph", "X".into()),
                    ("pid", 1u32.into()),
                    ("tid", 1u32.into()),
                    ("ts", s.start_us.into()),
                    ("dur", (s.end_us - s.start_us).into()),
                    (
                        "args",
                        Value::obj(vec![
                            ("id", s.id.into()),
                            ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ]),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        Value::obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ])
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.scope("a", |s| s.scope("b", |_| ()));
        assert!(s.self_times().is_empty());
        assert_eq!(
            s.chrome_trace()
                .get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn parents_follow_nesting() {
        let mut s = Spans::new(true);
        s.scope("bench", |s| {
            s.scope("setup", |_| ());
            s.scope("rep:0", |s| s.scope("call:f", |_| ()));
        });
        let parents: Vec<Option<usize>> = s.spans.iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new(true);
        let t0 = s.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        s.enter("rep");
        s.record("call", at(10), at(40));
        s.record("call", at(50), at(70));
        s.exit();
        s.spans[0].start_us = 0.0;
        s.spans[0].end_us = 100_000.0;
        let times = s.self_times();
        let get = |n: &str| times.iter().find(|t| t.0 == n).unwrap().clone();
        assert!((get("call").1 - 50_000.0).abs() < 1.0);
        assert_eq!(get("call").2, 2);
        assert!((get("rep").1 - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let mut s = Spans::new(true);
        s.scope("bench", |s| s.scope("verify", |_| ()));
        let text = s.chrome_trace().to_pretty();
        let doc = Value::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("verify"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
