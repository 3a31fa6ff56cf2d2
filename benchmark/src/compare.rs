//! `compare A.jsonl B.jsonl`: one row per workload × metric with both
//! sides' medians and quartiles, their ratio, the metric's bound and a
//! verdict. Inputs are the files `run --append` writes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use si_obs::Json;

use crate::schema::{manifest, result_from_json};
use crate::stats::{median, quartiles};

/// `(workload, metric) → values`, in file order.
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Parses an `--append` file.
pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let err = |what: &str| format!("line {}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| err(&e))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| err("no workload"))?;
        let result = v.get("result").ok_or_else(|| err("no result"))?;
        let (_, _, _, metrics) = result_from_json(result).map_err(|e| err(&e))?;
        for (name, value, _) in metrics {
            set.entry((workload.to_owned(), name))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// How B's median stands against A's, given the metric's direction,
/// its regression bound and A's own run-to-run spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound both ways.
    Same,
    /// Worse than A by more than the bound.
    Worse,
    /// Better than A by more than the bound.
    Better,
    /// A's interquartile spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and relative interquartile spread of a sample.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(values);
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (med, med)
    };
    let spread = if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    };
    (med, q1, q3, spread)
}

/// The verdict for one metric.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (med_a, _, _, spread_a) = summary(a);
    let med_b = median(b);
    if spread_a > bound {
        return Verdict::Unresolved;
    }
    if med_a == 0.0 {
        return Verdict::Same;
    }
    // Positive = B is worse, as a share of A's median.
    let worse_by = if higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the comparison table; fails when any end-to-end metric is
/// `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_run_set(&t))
            .unwrap_or_else(|e| {
                eprintln!("{}: {e}", p.display());
                std::process::exit(2)
            })
    };
    let (a, b) = (load(a_path), load(b_path));
    println!(
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | B/A | A spread | B spread | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let def = manifest()
            .end_to_end
            .iter()
            .chain(&manifest().per_layer)
            .find(|d| d.name == *metric);
        let higher = def.is_some_and(|d| d.higher_is_better);
        // Per-layer metrics carry no bound; 0 prints as "-".
        let bound = def.and_then(|d| d.bound).unwrap_or(0.0);
        let (ma, a1, a3, sa) = summary(va);
        let (mb, b1, b3, sb) = summary(vb);
        let verdict = if bound > 0.0 {
            verdict(va, vb, higher, bound).name()
        } else {
            "-"
        };
        any_worse |= verdict == "worse";
        println!(
            "| {workload} | {metric} | {ma:.5} [{a1:.5}, {a3:.5}] ({}) | {mb:.5} [{b1:.5}, {b3:.5}] ({}) | {:.4} | {:.2}% | {:.2}% | {} | {verdict} |",
            va.len(),
            vb.len(),
            if ma == 0.0 { 1.0 } else { mb / ma },
            sa * 100.0,
            sb * 100.0,
            if bound > 0.0 { format!("{bound}") } else { "-".into() },
        );
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[112.0, 113.0, 111.0], false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[112.0, 113.0, 111.0], true, 0.10),
            Verdict::Better
        );
        assert_eq!(verdict(&a, &[88.0, 89.0, 87.0], true, 0.10), Verdict::Worse);
        let noisy = [100.0, 130.0, 80.0, 120.0, 70.0];
        assert_eq!(
            verdict(&noisy, &[150.0, 151.0], false, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn append_records_parse_into_per_metric_samples() {
        let text = "\
{\"workload\": \"query-scan\", \"seed\": 1, \"trace\": 0, \"result\": {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 10.5, \"unit\": \"1/s\"}}}}\n\
\n\
{\"workload\": \"query-scan\", \"seed\": 2, \"trace\": 0, \"result\": {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 11.5, \"unit\": \"1/s\"}}}}\n";
        let set = parse_run_set(text).unwrap();
        assert_eq!(
            set[&("query-scan".to_owned(), "ops_per_s".to_owned())],
            vec![10.5, 11.5]
        );
        assert!(parse_run_set("{\"workload\": 3}").is_err());
    }
}
