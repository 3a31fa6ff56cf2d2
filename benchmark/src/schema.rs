//! The names this benchmark fixes — workloads, end-to-end metrics with
//! their bounds, per-layer metrics — read from the committed
//! `BENCHMARK.json` (compiled in, so a run cannot disagree with it), and
//! the one-line result object of a run.

use std::fmt::Write as _;
use std::sync::OnceLock;

use si_obs::{json_escape, Json};

/// A metric of the manifest.
pub struct MetricDef {
    /// Stable name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Manifest {
    /// Seconds one run measures; `--seconds` defaults to it and the
    /// frozen operation counts are sized for it.
    pub run_seconds: u32,
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics an untraced run prints.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics a `--trace 1` run prints. A workload that does not
    /// exercise a layer reports 0 for it.
    pub per_layer: Vec<MetricDef>,
}

const MANIFEST_TEXT: &str = include_str!("../../BENCHMARK.json");

fn metric_defs(v: &Json, key: &str) -> Vec<MetricDef> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
        .iter()
        .map(|m| MetricDef {
            name: field(m, "name").expect("BENCHMARK.json: metric name"),
            unit: field(m, "unit").expect("BENCHMARK.json: metric unit"),
            higher_is_better: field(m, "better").as_deref() == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The committed manifest.
///
/// # Panics
/// Panics when `BENCHMARK.json` does not have the contract's shape.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let v = Json::parse(MANIFEST_TEXT).expect("BENCHMARK.json parses");
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).expect("workload field");
                (field("name").to_owned(), field("why").to_owned())
            })
            .collect();
        Manifest {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_u64)
                .and_then(|s| u32::try_from(s).ok())
                .expect("BENCHMARK.json: run_seconds"),
            workloads,
            end_to_end: metric_defs(&v, "end_to_end"),
            per_layer: metric_defs(&v, "per_layer"),
        }
    })
}

/// Values reported under metric names, in report order.
#[derive(Debug, Default)]
pub struct Ledger {
    values: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Adds every value of `other`.
    pub fn extend(&mut self, other: &Ledger) {
        for &(name, value) in &other.values {
            self.set(name, value);
        }
    }

    /// `(definition, value)` for every metric of `defs`, 0 where the
    /// run recorded none.
    ///
    /// # Panics
    /// Panics when the run recorded a name the manifest lists nowhere —
    /// a metric nobody would ever see.
    pub fn report<'d>(&self, defs: &'d [MetricDef]) -> Vec<(&'d MetricDef, f64)> {
        let m = manifest();
        for (name, _) in &self.values {
            assert!(
                m.end_to_end
                    .iter()
                    .chain(&m.per_layer)
                    .any(|d| d.name == *name),
                "metric {name} is not in the manifest"
            );
        }
        defs.iter()
            .map(|d| (d, self.get(&d.name).unwrap_or(0.0)))
            .collect()
    }
}

/// JSON number for `v`; non-finite values (a ratio over zero work)
/// become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object a run prints as its last line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(&def.name),
            num(*value),
            json_escape(&def.unit)
        );
    }
    out.push_str("}}");
    out
}

/// One parsed result line: `(correct, attempted, failed, metrics)`.
pub type ParsedResult = (bool, u64, u64, Vec<(String, f64, String)>);

/// Reads a parsed result object.
pub fn result_from_json(v: &Json) -> Result<ParsedResult, String> {
    let correct = matches!(v.get("correct"), Some(Json::Bool(true)));
    let attempted = v
        .get("attempted")
        .and_then(Json::as_u64)
        .ok_or("attempted is not a whole number")?;
    let failed = v
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("failed is not a whole number")?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or("value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("unit")?;
            Ok((name.clone(), value, unit.to_owned()))
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(|what| format!("metric without {what}"))?;
    Ok((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn layer_def(name: &str, unit: &str) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: unit.into(),
            higher_is_better: false,
            bound: None,
        }
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn manifest_round_trips_and_stays_inside_the_contract_limits() {
        let text = MANIFEST_TEXT;
        assert!(text.len() <= 64 * 1024);
        let v = Json::parse(text).expect("manifest parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let secs = v.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&secs));

        let mut names = HashSet::new();
        let workloads = v.get("workloads").and_then(Json::as_arr).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(name_ok(name) && names.insert(name.to_owned()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name} why");
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
        let e2e = v.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert!((1..=16).contains(&e2e.len()));
        for m in e2e {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            assert!(name_ok(name) && names.insert(name.to_owned()), "{name}");
            assert!(unit_ok(m.get("unit").and_then(Json::as_str).unwrap()));
            assert!(matches!(
                m.get("better").and_then(Json::as_str),
                Some("lower" | "higher")
            ));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            assert_eq!(m.as_obj().unwrap().len(), 4);
        }
        assert!(e2e.iter().any(|m| {
            m.get("name").and_then(Json::as_str) == Some("setup_s")
                && m.get("unit").and_then(Json::as_str) == Some("s")
                && m.get("better").and_then(Json::as_str) == Some("lower")
        }));
        let layers = v.get("per_layer").and_then(Json::as_arr).unwrap();
        assert!((1..=128).contains(&layers.len()));
        for m in layers {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            assert!(name_ok(name) && names.insert(name.to_owned()), "{name}");
            assert!(
                unit_ok(m.get("unit").and_then(Json::as_str).unwrap()),
                "{name}"
            );
            assert_eq!(m.as_obj().unwrap().len(), 3);
        }
    }

    #[test]
    fn manifest_lists_the_workloads_the_binary_runs() {
        let listed: Vec<&str> = manifest()
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(listed, crate::workload::NAMES);
        assert!(manifest().end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(manifest().per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let mut ledger = Ledger::default();
        ledger.set("ops_per_s", 1234.5678);
        ledger.set("setup_s", 3.25);
        ledger.set("setup_s", 3.5);
        ledger.set("op_p50_ms", f64::NAN);
        let defs = [
            layer_def("setup_s", "s"),
            layer_def("ops_per_s", "1/s"),
            layer_def("op_p50_ms", "ms"),
        ];
        let line = result_line(true, 1000, 0, &ledger.report(&defs));
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).expect("result parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (correct, attempted, failed, metrics) = result_from_json(&v).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(metrics.len(), defs.len());
        assert_eq!(metrics[0], ("setup_s".into(), 3.5, "s".into()));
        assert_eq!(metrics[1], ("ops_per_s".into(), 1234.5678, "1/s".into()));
        assert_eq!(metrics[2].1, 0.0, "non-finite values are written as 0");
    }

    #[test]
    #[should_panic(expected = "not in the manifest")]
    fn unlisted_metric_names_are_rejected() {
        let mut ledger = Ledger::default();
        ledger.set("made.up", 1.0);
        ledger.report(&manifest().per_layer);
    }
}
