//! Structured export of a run: JSON metrics report and Chrome
//! `trace_event` output (load `trace.json` in Perfetto / `chrome://tracing`).
//!
//! The build environment is offline, so this module carries its own small
//! JSON value type, writer, and parser instead of depending on serde. The
//! parser exists so tests (and downstream tooling) can round-trip what the
//! exporters emit.

use std::sync::Arc;

use super::histogram::HistogramSnapshot;
use super::tracer::EventKind;
use super::Telemetry;
use crate::jobctx::JobExec;
use crate::stats::StatsSnapshot;

pub mod json {
    //! A minimal JSON document model: enough to build, print, and re-parse
    //! the reports this engine emits.

    use std::fmt::Write as _;

    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl From<bool> for Value {
        fn from(v: bool) -> Value {
            Value::Bool(v)
        }
    }
    impl From<f64> for Value {
        fn from(v: f64) -> Value {
            Value::Num(v)
        }
    }
    impl From<u64> for Value {
        fn from(v: u64) -> Value {
            Value::Num(v as f64)
        }
    }
    impl From<usize> for Value {
        fn from(v: usize) -> Value {
            Value::Num(v as f64)
        }
    }
    impl From<u32> for Value {
        fn from(v: u32) -> Value {
            Value::Num(v as f64)
        }
    }
    impl From<&str> for Value {
        fn from(v: &str) -> Value {
            Value::Str(v.to_string())
        }
    }
    impl From<String> for Value {
        fn from(v: String) -> Value {
            Value::Str(v)
        }
    }
    impl From<Vec<Value>> for Value {
        fn from(v: Vec<Value>) -> Value {
            Value::Arr(v)
        }
    }

    impl Value {
        pub fn obj(fields: Vec<(&str, Value)>) -> Value {
            Value::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// Object field lookup (None for non-objects / missing keys).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// Compact single-line rendering.
        pub fn to_compact(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, None, 0);
            out
        }

        /// Pretty rendering with two-space indentation.
        pub fn to_pretty(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, Some(2), 0);
            out
        }

        fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Num(n) => write_num(out, *n),
                Value::Str(s) => write_str(out, s),
                Value::Arr(items) => {
                    write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                        items[i].write(out, indent, d)
                    })
                }
                Value::Obj(fields) => {
                    write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                        let (k, v) = &fields[i];
                        write_str(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, d)
                    })
                }
            }
        }

        /// Parses a JSON document. Errors carry a byte offset.
        pub fn parse(text: &str) -> Result<Value, String> {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(format!("trailing input at byte {}", p.pos));
            }
            Ok(v)
        }
    }

    fn write_num(out: &mut String, n: f64) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    }

    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
        len: usize,
        mut item: impl FnMut(&mut String, usize, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
            }
            item(out, i, depth + 1);
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
        out.push(close);
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.pos)),
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut s = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(s);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input was a &str, so
                        // boundaries are valid).
                        let rest = &self.bytes[self.pos..];
                        let text = unsafe { std::str::from_utf8_unchecked(rest) };
                        let c = text.chars().next().unwrap();
                        s.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

use json::Value;

/// JSON form of one histogram snapshot.
pub fn histogram_json(s: &HistogramSnapshot) -> Value {
    Value::obj(vec![
        ("count", s.count().into()),
        ("mean", s.mean().into()),
        ("p50", s.quantile_lower_bound(0.50).into()),
        ("p90", s.quantile_lower_bound(0.90).into()),
        ("p99", s.quantile_lower_bound(0.99).into()),
        (
            "buckets",
            Value::Arr(
                s.nonzero_buckets()
                    .into_iter()
                    .map(|(lo, c)| Value::Arr(vec![lo.into(), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// JSON form of a [`StatsSnapshot`].
pub fn stats_json(s: &StatsSnapshot) -> Value {
    Value::obj(
        s.counters()
            .into_iter()
            .map(|(name, v)| (name, v.into()))
            .collect(),
    )
}

fn histograms_json(t: &Telemetry) -> Value {
    Value::obj(vec![
        ("read_rtt_ns", histogram_json(&t.read_rtt_snapshot())),
        (
            "copier_service_ns",
            histogram_json(&t.copier_service_snapshot()),
        ),
        ("flush_fill_pct", histogram_json(&t.flush_fill_snapshot())),
        (
            "side_occupancy",
            histogram_json(&t.side_occupancy_snapshot()),
        ),
        ("chunk_claims", histogram_json(&t.chunk_claims_snapshot())),
        (
            "checkpoint_bytes",
            histogram_json(&t.checkpoint_bytes_snapshot()),
        ),
        ("checkpoint_ns", histogram_json(&t.checkpoint_ns_snapshot())),
        ("queue_wait_ns", histogram_json(&t.queue_wait_snapshot())),
        (
            "term_release_wait_ns",
            histogram_json(&t.term_release_wait_snapshot()),
        ),
    ])
}

/// Per-phase wall time on one machine, from its trace: earliest
/// `PhaseStart` to latest `PhaseEnd` across workers. `null` where the ring
/// evicted the phase's events (or tracing was off).
fn phase_walls(t: &Telemetry, num_phases: usize) -> Value {
    let mut start: Vec<Option<u64>> = vec![None; num_phases];
    let mut end: Vec<Option<u64>> = vec![None; num_phases];
    for w in 0..t.workers() {
        for e in t.worker_events(w) {
            let idx = (e.arg as usize).wrapping_sub(1);
            if idx >= num_phases {
                continue;
            }
            match e.kind {
                EventKind::PhaseStart => {
                    start[idx] = Some(start[idx].map_or(e.ts_ns, |s| s.min(e.ts_ns)));
                }
                EventKind::PhaseEnd => {
                    end[idx] = Some(end[idx].map_or(e.ts_ns, |s| s.max(e.ts_ns)));
                }
                _ => {}
            }
        }
    }
    Value::Arr(
        (0..num_phases)
            .map(|i| match (start[i], end[i]) {
                (Some(s), Some(e)) if e >= s => Value::Num((e - s) as f64 * 1e-9),
                _ => Value::Null,
            })
            .collect(),
    )
}

/// Builds the metrics report for a cluster: per-machine stats, histograms,
/// per-destination traffic, and cluster-wide merged histograms. `extra`
/// fields (e.g. a phase breakdown supplied by the driver) are appended at
/// the top level.
pub fn metrics_report(
    telemetry: &[Arc<Telemetry>],
    phase_labels: &[String],
    extra: Vec<(String, Value)>,
) -> Value {
    let machines: Vec<Value> = telemetry
        .iter()
        .map(|t| {
            let (recorded, dropped) = t.trace_volume();
            Value::obj(vec![
                ("machine", u64::from(t.machine()).into()),
                ("stats", stats_json(&t.stats().snapshot())),
                ("histograms", histograms_json(t)),
                ("phase_wall_s", phase_walls(t, phase_labels.len())),
                (
                    "dest_bytes",
                    Value::Arr(
                        t.dest_bytes_snapshot()
                            .into_iter()
                            .map(Value::from)
                            .collect(),
                    ),
                ),
                (
                    "trace",
                    Value::obj(vec![
                        ("recorded", recorded.into()),
                        ("dropped", dropped.into()),
                        // Ring-buffer overflow per worker: nonzero means
                        // that worker's timeline is incomplete.
                        (
                            "trace_events_dropped",
                            Value::Arr(t.worker_dropped().into_iter().map(Value::from).collect()),
                        ),
                    ]),
                ),
            ])
        })
        .collect();

    let merged = |pick: fn(&Telemetry) -> HistogramSnapshot| -> HistogramSnapshot {
        telemetry.iter().map(|t| pick(t)).sum()
    };
    let cluster = Value::obj(vec![
        (
            "read_rtt_ns",
            histogram_json(&merged(|t| t.read_rtt_snapshot())),
        ),
        (
            "copier_service_ns",
            histogram_json(&merged(|t| t.copier_service_snapshot())),
        ),
        (
            "flush_fill_pct",
            histogram_json(&merged(|t| t.flush_fill_snapshot())),
        ),
        (
            "side_occupancy",
            histogram_json(&merged(|t| t.side_occupancy_snapshot())),
        ),
        (
            "chunk_claims",
            histogram_json(&merged(|t| t.chunk_claims_snapshot())),
        ),
    ]);

    let mut fields = vec![
        (
            "phases".to_string(),
            Value::Arr(
                phase_labels
                    .iter()
                    .map(|l| Value::from(l.clone()))
                    .collect(),
            ),
        ),
        ("machines".to_string(), Value::Arr(machines)),
        ("cluster_histograms".to_string(), cluster),
    ];
    fields.extend(extra);
    Value::Obj(fields)
}

fn phase_name(phase_labels: &[String], epoch: u64) -> String {
    phase_labels
        .get((epoch as usize).wrapping_sub(1))
        .cloned()
        .unwrap_or_else(|| format!("phase-{epoch}"))
}

/// Builds a Chrome `trace_event` document (the `{"traceEvents": [...]}`
/// object format). pid = machine, tid = worker, timestamps in microseconds
/// since the cluster epoch. Open the file in Perfetto or chrome://tracing.
pub fn chrome_trace(telemetry: &[Arc<Telemetry>], phase_labels: &[String]) -> Value {
    chrome_trace_with_jobs(telemetry, phase_labels, &[])
}

/// [`chrome_trace`] plus one synthetic "jobs" process holding a colored
/// lane per served job: a `queued` span (enqueue → dispatch), a run span
/// (dispatch → done) carrying the attribution summary in its args, nested
/// phase/barrier spans, and retry instants.
pub fn chrome_trace_with_jobs(
    telemetry: &[Arc<Telemetry>],
    phase_labels: &[String],
    jobs: &[JobExec],
) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for t in telemetry {
        let pid = u64::from(t.machine());
        events.push(Value::obj(vec![
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            (
                "args",
                Value::obj(vec![("name", format!("machine{pid}").into())]),
            ),
        ]));
        for w in 0..t.workers() {
            events.push(Value::obj(vec![
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", pid.into()),
                ("tid", w.into()),
                (
                    "args",
                    Value::obj(vec![("name", format!("worker{w}").into())]),
                ),
            ]));
            for e in t.worker_events(w) {
                let ts = e.ts_ns as f64 / 1000.0;
                let mut fields: Vec<(&str, Value)> = Vec::new();
                match e.kind {
                    EventKind::PhaseStart | EventKind::PhaseEnd => {
                        fields.push(("name", phase_name(phase_labels, e.arg).into()));
                        fields.push(("cat", "phase".into()));
                        fields.push((
                            "ph",
                            if e.kind == EventKind::PhaseStart {
                                "B"
                            } else {
                                "E"
                            }
                            .into(),
                        ));
                    }
                    EventKind::BarrierEnter | EventKind::BarrierExit => {
                        fields.push(("name", "barrier".into()));
                        fields.push(("cat", "barrier".into()));
                        fields.push((
                            "ph",
                            if e.kind == EventKind::BarrierEnter {
                                "B"
                            } else {
                                "E"
                            }
                            .into(),
                        ));
                    }
                    EventKind::BufferFlush | EventKind::PoolStall => {
                        fields.push(("name", e.kind.name().into()));
                        fields.push(("cat", "comm".into()));
                        fields.push(("ph", "i".into()));
                        fields.push(("s", "t".into()));
                    }
                    EventKind::GhostPush | EventKind::GhostReduce => {
                        fields.push(("name", e.kind.name().into()));
                        fields.push(("cat", "ghost".into()));
                        fields.push(("ph", "i".into()));
                        fields.push(("s", "t".into()));
                    }
                    EventKind::Retransmit | EventKind::DupDrop | EventKind::AbortSweep => {
                        fields.push(("name", e.kind.name().into()));
                        fields.push(("cat", "reliability".into()));
                        fields.push(("ph", "i".into()));
                        fields.push(("s", "t".into()));
                    }
                    EventKind::CheckpointTaken
                    | EventKind::RecoveryStart
                    | EventKind::RecoveryDone
                    | EventKind::CheckpointFallback
                    | EventKind::ColdRestart
                    | EventKind::Quarantine => {
                        fields.push(("name", e.kind.name().into()));
                        fields.push(("cat", "recovery".into()));
                        fields.push(("ph", "i".into()));
                        fields.push(("s", "t".into()));
                    }
                    EventKind::JobEnqueue
                    | EventKind::JobDispatch
                    | EventKind::JobCancel
                    | EventKind::JobDone
                    | EventKind::BrownoutShed
                    | EventKind::BrownoutReopen => {
                        fields.push(("name", e.kind.name().into()));
                        fields.push(("cat", "serve".into()));
                        fields.push(("ph", "i".into()));
                        fields.push(("s", "t".into()));
                    }
                }
                fields.push(("pid", pid.into()));
                fields.push(("tid", w.into()));
                fields.push(("ts", ts.into()));
                let arg_key = match e.kind {
                    EventKind::BufferFlush | EventKind::CheckpointTaken => Some("bytes"),
                    EventKind::PoolStall => Some("events"),
                    EventKind::GhostPush | EventKind::GhostReduce => Some("nodes"),
                    EventKind::Retransmit | EventKind::AbortSweep => Some("count"),
                    EventKind::DupDrop => Some("seq"),
                    EventKind::RecoveryStart => Some("attempt"),
                    EventKind::RecoveryDone => Some("iteration"),
                    EventKind::CheckpointFallback => Some("seq"),
                    EventKind::ColdRestart => Some("tried"),
                    EventKind::Quarantine => Some("machine"),
                    EventKind::BrownoutShed | EventKind::BrownoutReopen => Some("occupancy"),
                    EventKind::JobEnqueue
                    | EventKind::JobDispatch
                    | EventKind::JobCancel
                    | EventKind::JobDone => Some("job"),
                    _ => Some("epoch"),
                };
                if let Some(k) = arg_key {
                    fields.push(("args", Value::obj(vec![(k, e.arg.into())])));
                }
                events.push(Value::obj(fields));
            }
        }
    }

    // Per-job causal lanes: one synthetic process after the machines,
    // tid = job id, Perfetto reserved-color names cycled per job.
    if !jobs.is_empty() {
        let jobs_pid = telemetry.len() as u64;
        const PALETTE: [&str; 6] = [
            "thread_state_running",
            "rail_response",
            "rail_animation",
            "thread_state_iowait",
            "rail_load",
            "rail_idle",
        ];
        events.push(Value::obj(vec![
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", jobs_pid.into()),
            ("args", Value::obj(vec![("name", "jobs".into())])),
        ]));
        let us = |ns: u64| ns as f64 / 1000.0;
        for (i, j) in jobs.iter().enumerate() {
            let tid = j.ctx.job;
            let cname = PALETTE[i % PALETTE.len()];
            events.push(Value::obj(vec![
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", jobs_pid.into()),
                ("tid", tid.into()),
                (
                    "args",
                    Value::obj(vec![(
                        "name",
                        format!(
                            "job{} (session {}, {})",
                            j.ctx.job,
                            j.ctx.session,
                            j.ctx.lane_name()
                        )
                        .into(),
                    )]),
                ),
            ]));
            let span = |name: &str, ph: &str, ts_ns: u64, args: Option<Value>| {
                let mut f: Vec<(&str, Value)> = vec![
                    ("name", name.into()),
                    ("cat", "job".into()),
                    ("ph", ph.into()),
                    ("pid", jobs_pid.into()),
                    ("tid", tid.into()),
                    ("ts", us(ts_ns).into()),
                    ("cname", cname.into()),
                ];
                if let Some(a) = args {
                    f.push(("args", a));
                }
                Value::obj(f)
            };
            if j.dispatch_ns > j.enqueue_ns {
                events.push(span("queued", "B", j.enqueue_ns, None));
                events.push(span("queued", "E", j.dispatch_ns, None));
            }
            let run_args = Value::obj(vec![
                ("job", j.ctx.job.into()),
                ("session", j.ctx.session.into()),
                ("lane", j.ctx.lane_name().into()),
                ("outcome", j.outcome.name().into()),
                ("wire_msgs", j.traffic.msgs_sent.into()),
                ("wire_bytes", j.traffic.bytes_sent.into()),
                ("compute_s", j.compute_s.into()),
                ("comm_s", j.comm_s.into()),
                ("drain_s", j.drain_s.into()),
                ("checkpoint_s", j.checkpoint_s.into()),
                ("retries", j.retries.into()),
            ]);
            events.push(span(
                &format!("run job{}", j.ctx.job),
                "B",
                j.dispatch_ns,
                Some(run_args),
            ));
            for p in &j.phases {
                let phase_args = Value::obj(vec![("epoch", p.epoch.into())]);
                events.push(span(&p.label, "B", p.start_ns, Some(phase_args)));
                events.push(span(&p.label, "E", p.end_ns, None));
                if p.barrier_ns > 0 {
                    events.push(span("barrier", "B", p.end_ns, None));
                    events.push(span("barrier", "E", p.end_ns + p.barrier_ns, None));
                }
            }
            for &r in &j.retry_ns {
                let mut f = vec![
                    ("name", Value::from("retry")),
                    ("cat", "job".into()),
                    ("ph", "i".into()),
                    ("s", "t".into()),
                    ("pid", jobs_pid.into()),
                    ("tid", tid.into()),
                    ("ts", us(r).into()),
                ];
                f.push(("args", Value::obj(vec![("job", j.ctx.job.into())])));
                events.push(Value::obj(f));
            }
            events.push(span(&format!("run job{}", j.ctx.job), "E", j.done_ns, None));
        }
    }

    // Ring-overflow metadata: [machine][worker] dropped-event counts, so
    // a clean-looking timeline can be cross-checked for silent loss.
    let dropped_meta = Value::Arr(
        telemetry
            .iter()
            .map(|t| Value::Arr(t.worker_dropped().into_iter().map(Value::from).collect()))
            .collect(),
    );
    Value::obj(vec![
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Value::Arr(events)),
        (
            "metadata",
            Value::obj(vec![("trace_events_dropped", dropped_meta)]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::json::Value;

    #[test]
    fn json_roundtrip() {
        let v = Value::obj(vec![
            ("null", Value::Null),
            ("t", true.into()),
            ("n", 42u64.into()),
            ("f", 1.5f64.into()),
            ("neg", Value::Num(-7.0)),
            ("s", "he said \"hi\"\n\\".into()),
            ("arr", Value::Arr(vec![1u64.into(), Value::Null])),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::obj(vec![])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn pretty_format_shape() {
        let v = Value::obj(vec![("title", "J".into())]);
        assert_eq!(v.to_pretty(), "{\n  \"title\": \"J\"\n}");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(3.0).to_compact(), "3");
        assert_eq!(Value::Num(3.25).to_compact(), "3.25");
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("nope").is_err());
        assert!(Value::parse("{}extra").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = Value::parse("\"a\\u00e9b\"").unwrap();
        assert_eq!(v.as_str(), Some("aéb"));
    }

    #[test]
    fn accessors() {
        let v = Value::parse("{\"a\": [1, 2.5], \"b\": true}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_u64(), None);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("c").is_none());
    }
}
