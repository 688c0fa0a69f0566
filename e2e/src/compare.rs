//! `aib-e2e compare <a.json> <b.json>`: one row per workload and end-to-end
//! metric, with both values, their ratio and its base, the bound and a
//! verdict.
//!
//! * `ok` — `b` is not worse than `a` by more than the metric's bound;
//! * `regressed` — it is (or an exact count got worse, or a must-be-zero
//!   metric is not zero);
//! * `unresolved` — a file's own run-to-run spread for the metric is wider
//!   than the bound, so a difference of that size cannot be told from noise:
//!   measure longer or repeat more, the bound stays;
//! * `missing` — a file lacks the metric.
//!
//! The exit code is zero only when every row is `ok`: a comparison that
//! cannot resolve a metric has not shown it unchanged.

use crate::json::Json;
use crate::metrics::{Better, Bound, END_TO_END};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Missing,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub bound: Bound,
    pub verdict: Verdict,
}

struct Measured {
    value: f64,
    /// Quartile distance over median of the file's repetitions, when it
    /// made more than one.
    spread: Option<f64>,
}

fn measured(file: &Json, workload: &str, metric: &str) -> Option<Measured> {
    let entry = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Measured {
        value: entry.get("value")?.as_f64()?,
        spread: entry.get("spread").and_then(Json::as_f64),
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

fn verdict(better: Better, bound: Bound, a: &Measured, b: &Measured) -> Verdict {
    match bound {
        Bound::Zero if a.value != 0.0 || b.value != 0.0 => Verdict::Regressed,
        Bound::Zero => Verdict::Ok,
        Bound::Exact if worse_by(better, a.value, b.value) > 0.0 => Verdict::Regressed,
        Bound::Exact => Verdict::Ok,
        Bound::Share(share) => {
            let noisy = |m: &Measured| m.spread.is_some_and(|s| s > share);
            if noisy(a) || noisy(b) {
                Verdict::Unresolved
            } else if worse_by(better, a.value, b.value) > share {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
    }
}

pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for workload in Workload::ALL {
        for metric in END_TO_END.iter().filter(|m| (m.on)(workload)) {
            let (va, vb) = (
                measured(a, workload.name(), metric.name),
                measured(b, workload.name(), metric.name),
            );
            let verdict = match (&va, &vb) {
                (Some(va), Some(vb)) => verdict(metric.better, metric.bound, va, vb),
                _ => Verdict::Missing,
            };
            out.push(Row {
                workload: workload.name(),
                metric: metric.name,
                unit: metric.unit,
                a: va.map(|m| m.value),
                b: vb.map(|m| m.value),
                bound: metric.bound,
                verdict,
            });
        }
    }
    out
}

pub fn render(rows: &[Row]) -> String {
    let number = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    let mut out = format!(
        "{:<14} {:<28} {:>14} {:>14} {:>18} {:>7}  {}\n",
        "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict"
    );
    for row in rows {
        let ratio = match (row.a, row.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.4} ({:.4})", b / a, a),
            (Some(a), Some(_)) => format!("- ({a:.4})"),
            _ => "-".to_string(),
        };
        let bound = match row.bound {
            Bound::Share(s) => format!("{:.0}%", s * 100.0),
            Bound::Exact => "exact".to_string(),
            Bound::Zero => "zero".to_string(),
        };
        out.push_str(&format!(
            "{:<14} {:<28} {:>14} {:>14} {:>18} {:>7}  {}\n",
            row.workload,
            format!("{} [{}]", row.metric, row.unit),
            number(row.a),
            number(row.b),
            ratio,
            bound,
            row.verdict.word()
        ));
    }
    out
}

/// Compares two results files; `Ok(true)` when every row is `ok`.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let quick = |file: &Json| file.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if quick(&a) != quick(&b) {
        return Err("one file is a --quick run and the other is not: their sizes differ".into());
    }
    let rows = rows(&a, &b);
    print!("{}", render(&rows));
    let counts = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} missing",
        counts(Verdict::Ok),
        counts(Verdict::Regressed),
        counts(Verdict::Unresolved),
        counts(Verdict::Missing)
    );
    Ok(rows.iter().all(|r| r.verdict == Verdict::Ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file with the same value for every metric of every
    /// workload, then the overrides.
    fn file(overrides: &[(&str, &str, Json)]) -> Json {
        let entry = |value: f64| Json::obj([("value", Json::Num(value)), ("unit", Json::str("x"))]);
        Json::obj([(
            "workloads",
            Json::obj(Workload::ALL.map(|w| {
                let metrics = END_TO_END.iter().filter(|m| (m.on)(w)).map(|m| {
                    let custom = overrides
                        .iter()
                        .find(|(ow, om, _)| *ow == w.name() && *om == m.name);
                    let value = match m.bound {
                        Bound::Zero => 0.0,
                        _ => 100.0,
                    };
                    (
                        m.name,
                        custom.map_or_else(|| entry(value), |(_, _, json)| json.clone()),
                    )
                });
                (w.name(), Json::obj([("end_to_end", Json::obj(metrics))]))
            })),
        )])
    }

    fn verdict_of(rows: &[Row], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .map(|r| r.verdict)
            .expect("row exists")
    }

    fn value(v: f64) -> Json {
        Json::obj([("value", Json::Num(v))])
    }

    #[test]
    fn identical_files_are_all_ok_and_cover_every_defined_pair() {
        let rows = rows(&file(&[]), &file(&[]));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        let expected: usize = Workload::ALL
            .iter()
            .map(|w| END_TO_END.iter().filter(|m| (m.on)(*w)).count())
            .sum();
        assert_eq!(rows.len(), expected);
        // `–` cells of the metric table have no row.
        assert!(!rows
            .iter()
            .any(|r| r.workload == "write_durable" && r.metric == "read_p50_us"));
        assert!(!rows
            .iter()
            .any(|r| r.workload == "read_mix" && r.metric == "shift_penalty_ms"));
    }

    #[test]
    fn worse_beyond_the_bound_regresses_in_the_metrics_own_direction() {
        let a = file(&[]);
        // Lower is better, bound 10 %.
        let b = file(&[("shift", "read_p50_us", value(111.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "shift", "read_p50_us"),
            Verdict::Regressed
        );
        let b = file(&[("shift", "read_p50_us", value(109.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "shift", "read_p50_us"),
            Verdict::Ok
        );
        let b = file(&[("shift", "read_p50_us", value(50.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "shift", "read_p50_us"),
            Verdict::Ok
        );
        // Higher is better.
        let b = file(&[("mixed", "throughput_ops_s", value(89.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "mixed", "throughput_ops_s"),
            Verdict::Regressed
        );
        let b = file(&[("mixed", "throughput_ops_s", value(150.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "mixed", "throughput_ops_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_whatever_the_values() {
        let noisy = Json::obj([("value", Json::Num(100.0)), ("spread", Json::Num(0.12))]);
        let a = file(&[("read_mix", "read_p95_us", noisy)]);
        let b = file(&[("read_mix", "read_p95_us", value(100.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "read_mix", "read_p95_us"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of(&rows(&b, &a), "read_mix", "read_p95_us"),
            Verdict::Unresolved
        );
        let calm = Json::obj([("value", Json::Num(100.0)), ("spread", Json::Num(0.03))]);
        let a = file(&[("read_mix", "read_p95_us", calm)]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "read_mix", "read_p95_us"),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_counts_may_improve_but_not_worsen_and_zero_means_zero() {
        let a = file(&[]);
        let b = file(&[("shift", "shift_recovery_queries", value(100.5))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "shift", "shift_recovery_queries"),
            Verdict::Regressed
        );
        let b = file(&[("shift", "shift_recovery_queries", value(90.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "shift", "shift_recovery_queries"),
            Verdict::Ok
        );
        let b = file(&[("mixed", "lost_acked_writes", value(1.0))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "mixed", "lost_acked_writes"),
            Verdict::Regressed
        );
        // Non-zero in the baseline is as bad as in the change.
        assert_eq!(
            verdict_of(&rows(&b, &a), "mixed", "lost_acked_writes"),
            Verdict::Regressed
        );
        let b = file(&[("read_mix", "failed_share", value(0.001))]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "read_mix", "failed_share"),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_metric_missing_from_either_file_is_reported() {
        let a = file(&[]);
        let b = file(&[("write_durable", "restart_s", Json::Null)]);
        assert_eq!(
            verdict_of(&rows(&a, &b), "write_durable", "restart_s"),
            Verdict::Missing
        );
        assert_eq!(
            verdict_of(&rows(&b, &a), "write_durable", "restart_s"),
            Verdict::Missing
        );
        let text = render(&rows(&a, &b));
        assert!(text.contains("missing") && text.contains("b/a (base a)"));
    }
}
