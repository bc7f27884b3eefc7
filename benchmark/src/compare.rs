//! `compare A.json B.json`: judge a second set of results against a first
//! by each metric's direction and bound, one row per (workload, metric).
//!
//! * An end-to-end metric whose value worsened by more than its bound is
//!   a regression.
//! * Where either side's inter-quartile spread exceeds the bound, the pair
//!   is *unresolved*: the runs cannot tell a change of that size from
//!   noise, so it is reported as neither changed nor unchanged.
//! * Count metrics compare exactly on the workloads whose counters must
//!   repeat; the other per-layer metrics are listed for information.
//! * A workload present on one side only, or any increase in the share of
//!   failed operations, fails the comparison.

use crate::spec::{self, Kind};
use pgxd_runtime::telemetry::export::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regression,
    Unresolved,
    CountMismatch,
    Missing,
    MoreFailures,
    Info,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regression => "REGRESSION",
            Status::Unresolved => "unresolved",
            Status::CountMismatch => "COUNT MISMATCH",
            Status::Missing => "MISSING",
            Status::MoreFailures => "MORE FAILURES",
            Status::Info => "info",
        }
    }

    pub fn fails(self) -> bool {
        matches!(
            self,
            Status::Regression | Status::CountMismatch | Status::Missing | Status::MoreFailures
        )
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Signed worsening as a share of `a` (positive = worse).
    pub worse: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub status: Status,
}

/// A metric as a results document records it: its value and its samples'
/// inter-quartile spread as a share of that value.
pub struct Sample {
    pub value: f64,
    pub spread: f64,
    pub n: f64,
}

pub fn sample(metrics: Option<&Value>, name: &str) -> Option<Sample> {
    let m = metrics?.get(name)?;
    let value = m.get("value")?.as_f64()?;
    let q = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(value);
    let spread = if value == 0.0 {
        0.0
    } else {
        (q("q3") - q("q1")).abs() / value.abs()
    };
    Some(Sample {
        value,
        spread,
        n: m.get("n").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

fn fail_share(w: &Value) -> f64 {
    let get = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Compares results document `b` against baseline `a`.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let missing = |workload: &str, metric: &str| Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        a: f64::NAN,
        b: f64::NAN,
        worse: f64::NAN,
        spread_a: f64::NAN,
        spread_b: f64::NAN,
        status: Status::Missing,
    };
    for kind in Kind::ALL {
        let name = kind.name();
        let wa = a.get("workloads").and_then(|w| w.get(name));
        let wb = b.get("workloads").and_then(|w| w.get(name));
        let (wa, wb) = match (wa, wb) {
            (None, None) => continue,
            (Some(wa), Some(wb)) => (wa, wb),
            _ => {
                rows.push(missing(name, "*"));
                continue;
            }
        };

        let (fa, fb) = (fail_share(wa), fail_share(wb));
        rows.push(Row {
            workload: name.to_string(),
            metric: "fail_ratio".to_string(),
            a: fa,
            b: fb,
            worse: fb - fa,
            spread_a: 0.0,
            spread_b: 0.0,
            status: if fb > fa {
                Status::MoreFailures
            } else {
                Status::Ok
            },
        });

        for (section, metrics) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            let (ma, mb) = (wa.get(section), wb.get(section));
            for m in metrics {
                let (sa, sb) = match (sample(ma, m.name), sample(mb, m.name)) {
                    (None, None) => continue,
                    (Some(sa), Some(sb)) => (sa, sb),
                    _ => {
                        rows.push(missing(name, m.name));
                        continue;
                    }
                };
                let delta = if m.higher_is_better {
                    sa.value - sb.value
                } else {
                    sb.value - sa.value
                };
                let worse = if sa.value == 0.0 {
                    if delta == 0.0 {
                        0.0
                    } else {
                        delta.signum() * f64::INFINITY
                    }
                } else {
                    delta / sa.value.abs()
                };
                let status = match m.bound {
                    Some(bound) if sa.spread > bound || sb.spread > bound => Status::Unresolved,
                    Some(bound) if worse > bound => Status::Regression,
                    Some(_) => Status::Ok,
                    None if m.is_count && kind.counts_are_exact() => {
                        if sa.value == sb.value {
                            Status::Ok
                        } else {
                            Status::CountMismatch
                        }
                    }
                    None => Status::Info,
                };
                rows.push(Row {
                    workload: name.to_string(),
                    metric: m.name.to_string(),
                    a: sa.value,
                    b: sb.value,
                    worse,
                    spread_a: sa.spread,
                    spread_b: sb.spread,
                    status,
                });
            }
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<13} {:<36} {:>16} {:>16} {:>9} {:>9} {:>9}  status",
        "workload", "metric", "A", "B", "worse %", "iqr A %", "iqr B %"
    );
    for r in rows {
        println!(
            "{:<13} {:<36} {:>16.6} {:>16.6} {:>9.2} {:>9.2} {:>9.2}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.status.label()
        );
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} rows: {} regression(s), {} count mismatch(es), {} missing, {} with more failures, {} unresolved",
        rows.len(),
        count(Status::Regression),
        count(Status::CountMismatch),
        count(Status::Missing),
        count(Status::MoreFailures),
        count(Status::Unresolved),
    );
}

/// Reads the two documents, prints the rows, and says whether `b` holds.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| Value::parse(&t).map_err(|e| format!("parse {p}: {e}")))
    };
    let rows = compare(&read(a)?, &read(b)?);
    print_rows(&rows);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(!rows.iter().any(|r| r.status.fails()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, spread: f64) -> Value {
        Value::obj(vec![
            ("value", value.into()),
            ("q1", (value * (1.0 - spread / 2.0)).into()),
            ("q3", (value * (1.0 + spread / 2.0)).into()),
        ])
    }

    /// A results document with one or two workloads.
    fn doc(edges_per_s: f64, spread: f64, wire_msgs: f64, with_push: bool) -> Value {
        let workload = |edges: f64| {
            Value::obj(vec![
                ("attempted", 100u32.into()),
                ("failed", 0u32.into()),
                (
                    "end_to_end",
                    Value::obj(vec![
                        ("edges_per_s", metric(edges, spread)),
                        ("latency_p50_ms", metric(500.0, 0.01)),
                    ]),
                ),
                (
                    "per_layer",
                    Value::obj(vec![
                        ("wire.msgs", metric(wire_msgs, 0.0)),
                        ("engine.compute_s", metric(0.4, 0.02)),
                    ]),
                ),
            ])
        };
        let mut workloads = vec![("pull_skew", workload(edges_per_s))];
        if with_push {
            workloads.push(("push_uniform", workload(3.0e7)));
        }
        Value::obj(vec![("workloads", Value::obj(workloads))])
    }

    fn status(rows: &[Row], workload: &str, metric: &str) -> Status {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap_or_else(|| panic!("no row {workload}/{metric}"))
            .status
    }

    /// A drop ten points past the metric's bound (the issue's "20 % drop"
    /// when the bound was 10 %; the bounds have been widened since).
    #[test]
    fn a_drop_beyond_the_bound_fails() {
        let bound = spec::find("edges_per_s").unwrap().bound.unwrap();
        let dropped = 4.0e7 * (1.0 - bound - 0.10);
        let rows = compare(
            &doc(4.0e7, 0.02, 600.0, true),
            &doc(dropped, 0.02, 600.0, true),
        );
        assert_eq!(
            status(&rows, "pull_skew", "edges_per_s"),
            Status::Regression
        );
        assert!(rows.iter().any(|r| r.status.fails()));
        // The other metrics and the other workload are judged on their own.
        assert_eq!(status(&rows, "pull_skew", "latency_p50_ms"), Status::Ok);
        assert_eq!(status(&rows, "push_uniform", "edges_per_s"), Status::Ok);
    }

    #[test]
    fn a_three_percent_drop_passes() {
        let rows = compare(
            &doc(4.0e7, 0.02, 600.0, true),
            &doc(3.88e7, 0.02, 600.0, true),
        );
        assert_eq!(status(&rows, "pull_skew", "edges_per_s"), Status::Ok);
        assert!(!rows.iter().any(|r| r.status.fails()));
    }

    #[test]
    fn a_gain_is_never_a_regression() {
        let rows = compare(
            &doc(4.0e7, 0.02, 600.0, true),
            &doc(6.0e7, 0.02, 600.0, true),
        );
        assert_eq!(status(&rows, "pull_skew", "edges_per_s"), Status::Ok);
    }

    #[test]
    fn a_count_off_by_one_fails() {
        let rows = compare(
            &doc(4.0e7, 0.02, 600.0, true),
            &doc(4.0e7, 0.02, 601.0, true),
        );
        assert_eq!(
            status(&rows, "pull_skew", "wire.msgs"),
            Status::CountMismatch
        );
        assert!(rows.iter().any(|r| r.status.fails()));
        // Timings of a layer carry no verdict.
        assert_eq!(status(&rows, "pull_skew", "engine.compute_s"), Status::Info);
    }

    #[test]
    fn a_missing_workload_fails() {
        let rows = compare(
            &doc(4.0e7, 0.02, 600.0, true),
            &doc(4.0e7, 0.02, 600.0, false),
        );
        assert_eq!(status(&rows, "push_uniform", "*"), Status::Missing);
        assert!(rows.iter().any(|r| r.status.fails()));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // A large drop, but the baseline's own quartiles are further apart
        // than the bound.
        let bound = spec::find("edges_per_s").unwrap().bound.unwrap();
        let rows = compare(
            &doc(4.0e7, bound + 0.05, 600.0, true),
            &doc(2.0e7, 0.02, 600.0, true),
        );
        assert_eq!(
            status(&rows, "pull_skew", "edges_per_s"),
            Status::Unresolved
        );
        assert!(!status(&rows, "pull_skew", "edges_per_s").fails());
    }

    #[test]
    fn more_failed_operations_fail() {
        let a = doc(4.0e7, 0.02, 600.0, false);
        let mut b = doc(4.0e7, 0.02, 600.0, false);
        if let Value::Obj(top) = &mut b {
            if let Value::Obj(ws) = &mut top[0].1 {
                if let Value::Obj(w) = &mut ws[0].1 {
                    w[1].1 = 1u32.into();
                }
            }
        }
        let rows = compare(&a, &b);
        assert_eq!(
            status(&rows, "pull_skew", "fail_ratio"),
            Status::MoreFailures
        );
    }
}
