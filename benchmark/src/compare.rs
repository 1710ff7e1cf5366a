//! `compare <a.json>... [vs <b.json>...]`: result sets of `all`, metric by
//! metric, against the bounds `BENCHMARK.json` fixes. Each side is one or
//! more sets of one commit; the sides' medians are compared and `a` is the
//! base of every ratio.

use crate::json::Value;
use crate::measure::{median, quartile_spread};
use std::fmt::Write as _;

/// Simulated statistics: for one seed (and the fixed cycle counts of `all`)
/// they must repeat byte for byte, whatever the box's weather does to the
/// timings.
const EXACT: [&str; 6] = [
    "cycles",
    "exchanges",
    "ops_failed",
    "rel_error",
    "convergence_factor",
    "state_digest",
];

/// One workload × metric row. `worse`: side b's median is worse than side
/// a's by more than the bound. `unresolved`: a value is missing, or the
/// run-to-run spread of either side is wider than the bound, so the medians
/// cannot tell — unless every run of b reads at least as well as every run
/// of a, which is `ok` whatever the spread. One set a side has no spread to
/// show and gets `ok` or `worse` on its single values.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let usable = |side: &[f64]| !side.is_empty() && side.iter().all(|v| v.is_finite());
    if !usable(a) || !usable(b) || median(a) == 0.0 {
        return "unresolved";
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worst_of_b = b.iter().map(|v| v * sign).fold(f64::MIN, f64::max);
    let best_of_a = a.iter().map(|v| v * sign).fold(f64::MAX, f64::min);
    if worst_of_b <= best_of_a {
        return "ok";
    }
    if quartile_spread(a).max(quartile_spread(b)) > bound {
        return "unresolved";
    }
    let worse_by = sign * (median(b) - median(a)) / median(a);
    if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Renders the comparison table and counts the `worse` rows.
pub fn compare(a: &[Value], b: &[Value], spec: &Value) -> (String, usize) {
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<20} {:<20} {:>16} {:>7} {:>16} {:>7} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        format!("a (base, n={})", a.len()),
        "spread",
        format!("b (n={})", b.len()),
        "spread",
        "b/a",
        "bound"
    );
    let none = Value::Null;
    let of_workload = |sets: &[Value], workload: &str| -> Vec<Value> {
        sets.iter()
            .filter_map(|set| set.get("workloads")?.get(workload).cloned())
            .collect()
    };
    let workloads = a[0].get("workloads").unwrap_or(&none).fields();
    for (workload, _) in workloads {
        let (in_a, in_b) = (of_workload(a, workload), of_workload(b, workload));
        for metric in spec.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let name = metric.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Value::as_str) == Some("lower");
            let values = |side: &[Value]| -> Vec<f64> {
                side.iter()
                    .filter_map(|w| w.get("result")?.get("metrics")?.get(name)?.get("value"))
                    .map(|v| v.as_f64().unwrap_or(f64::NAN))
                    .collect()
            };
            let (va, vb) = (values(&in_a), values(&in_b));
            // A set that lacks the metric leaves its side short.
            let verdict = if va.len() < a.len() || vb.len() < b.len() {
                "unresolved"
            } else {
                verdict(&va, &vb, lower, bound)
            };
            worse += usize::from(verdict == "worse");
            let _ = writeln!(
                out,
                "{workload:<20} {name:<20} {:>16.6} {:>7.3} {:>16.6} {:>7.3} {:>9.4} {bound:>6.3}  {verdict}",
                median(&va),
                quartile_spread(&va),
                median(&vb),
                quartile_spread(&vb),
                median(&vb) / median(&va),
            );
        }

        let runs: Vec<&Value> = in_a.iter().chain(&in_b).collect();
        if runs.len() < a.len() + b.len()
            || runs
                .iter()
                .any(|w| w.get("result").and_then(|r| r.get("correct")) != Some(&Value::Bool(true)))
        {
            worse += 1;
            let _ = writeln!(
                out,
                "{workload:<20} missing from a set, or its correctness gate failed  worse"
            );
        }
        let info = |run: &Value, key: &str| run.get("info").and_then(|i| i.get(key)).cloned();
        for key in EXACT {
            let differs = runs.iter().find(|run| {
                info(run, "seed") == info(runs[0], "seed") && info(run, key) != info(runs[0], key)
            });
            if let Some(run) = differs {
                worse += 1;
                let _ = writeln!(
                    out,
                    "{workload:<20} {key:<20} {:?} != {:?} (same seed)  worse",
                    info(runs[0], key),
                    info(run, key)
                );
            }
        }
    }
    let _ = writeln!(out, "{worse} worse");
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "exchanges_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#;

    fn set(rate: f64, setup: Option<f64>, digest: &str) -> Value {
        let setup = setup.map_or(String::new(), |s| {
            format!(r#", "setup_s": {{"value": {s}, "unit": "s"}}"#)
        });
        parse(&format!(
            r#"{{"workloads": {{"epoch_1m": {{
                "result": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{
                    "exchanges_per_s": {{"value": {rate}, "unit": "1/s"}}{setup}}}}},
                "info": {{"seed": "7", "cycles": 180, "exchanges": 10,
                    "ops_failed": 0, "rel_error": 1e-9, "convergence_factor": 0.3,
                    "state_digest": "{digest}"}}}}}}}}"#
        ))
        .unwrap()
    }

    fn rows(table: &str, verdict: &str) -> usize {
        table
            .lines()
            .filter(|line| line.ends_with(&format!("  {verdict}")))
            .count()
    }

    #[test]
    fn within_bound_is_ok_beyond_is_worse_missing_is_unresolved() {
        let spec = parse(SPEC).unwrap();
        let base = [set(100.0, Some(1.0), "ab")];

        let (table, worse) = compare(&base, &[set(95.0, Some(1.1), "ab")], &spec);
        assert_eq!(worse, 0, "{table}");
        assert_eq!(rows(&table, "ok"), 2, "{table}");

        // 15 % fewer exchanges per second against a 10 % bound; set-up got
        // faster, which is never worse.
        let (table, worse) = compare(&base, &[set(85.0, Some(0.5), "ab")], &spec);
        assert_eq!(worse, 1, "{table}");
        assert!(table.contains("0.8500"), "ratio with base a: {table}");

        let (table, worse) = compare(&base, &[set(100.0, None, "ab")], &spec);
        assert_eq!(worse, 0, "{table}");
        assert_eq!(rows(&table, "unresolved"), 1, "{table}");
    }

    #[test]
    fn medians_decide_and_a_spread_beyond_the_bound_is_unresolved() {
        let spec = parse(SPEC).unwrap();
        let sets = |rates: &[f64]| -> Vec<Value> {
            rates.iter().map(|&r| set(r, Some(1.0), "ab")).collect()
        };
        // One slow run in three: b's median holds, but its own spread says
        // the side is too noisy to call.
        let steady = sets(&[100.0, 101.0, 99.0]);
        let (table, worse) = compare(&steady, &sets(&[100.0, 70.0, 98.0]), &spec);
        assert_eq!((worse, rows(&table, "unresolved")), (0, 1), "{table}");
        let (table, worse) = compare(&steady, &sets(&[84.0, 85.0, 86.0]), &spec);
        assert_eq!(worse, 1, "{table}");

        // The base itself spreads by more than the 10 % bound: a median 15 %
        // lower proves nothing, unless every run of b beats every run of a.
        let weather = sets(&[80.0, 100.0, 120.0]);
        let (table, worse) = compare(&weather, &sets(&[84.0, 85.0, 86.0]), &spec);
        assert_eq!((worse, rows(&table, "unresolved")), (0, 1), "{table}");
        let (table, worse) = compare(&weather, &sets(&[121.0, 150.0, 180.0]), &spec);
        assert_eq!((worse, rows(&table, "ok")), (0, 2), "{table}");
    }

    #[test]
    fn same_seed_must_repeat_the_digest_exactly() {
        let spec = parse(SPEC).unwrap();
        let (table, worse) = compare(
            &[set(100.0, Some(1.0), "ab"), set(100.0, Some(1.0), "ab")],
            &[set(100.0, Some(1.0), "cd")],
            &spec,
        );
        assert_eq!(worse, 1, "{table}");
        assert!(table.contains("state_digest"), "{table}");
    }
}
