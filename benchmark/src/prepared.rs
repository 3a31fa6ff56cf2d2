//! What a read workload's `prepare` child process hands to the measured
//! process besides the index on disk: the query pool with the digest
//! every execution must reproduce, and what the preparation cost.

use std::fmt::Write as _;
use std::path::Path;

use crate::pool::PoolQuery;

/// File the child writes into the workload's directory.
pub const FILE_NAME: &str = "prepared.tsv";

/// Product of a `prepare` child.
#[derive(Debug, Default, PartialEq)]
pub struct Prepared {
    /// Seconds generating the dataset.
    pub generate_s: f64,
    /// Seconds building the index.
    pub build_s: f64,
    /// Seconds generating the pool (candidates' first executions included).
    pub pool_s: f64,
    /// Seconds in the materializing oracle.
    pub oracle_s: f64,
    /// `fb_query_set` draws the pool took.
    pub draws: usize,
    /// Candidates dropped because the materializing oracle answered
    /// them differently than the streaming executor (see
    /// [`Prepared::keep_oracle_confirmed`]).
    pub excluded: Vec<String>,
    /// Workload-validity violations found while preparing.
    pub violations: Vec<String>,
    /// The pool, in admission order.
    pub pool: Vec<PoolQuery>,
}

/// Share of a pool the oracle may exclude before the run is invalid: a
/// handful of queries the two executors disagree on is an engine defect
/// to report, more than that is a workload nobody should time.
const MAX_EXCLUDED_SHARE: f64 = 0.01;

impl Prepared {
    /// Checks every pool query against `oracle` (the digest of the
    /// materializing executor's answer, `None` on error). A query whose
    /// pinned digest differs is moved to `excluded`: timing a query the
    /// engine answers wrongly would fail every run of the seed, and the
    /// defect is the engine's to fix — it is printed with every run. More
    /// than [`MAX_EXCLUDED_SHARE`] of the pool excluded is a violation.
    pub fn keep_oracle_confirmed(
        &mut self,
        workload: &str,
        mut oracle: impl FnMut(&str) -> Option<u64>,
    ) {
        let started = std::time::Instant::now();
        let before = self.pool.len();
        let (kept, dropped): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pool)
            .into_iter()
            .partition(|q| q.digest.is_some() && oracle(&q.text) == q.digest);
        self.pool = kept;
        self.excluded.extend(dropped.into_iter().map(|q| q.text));
        let allowed = (before as f64 * MAX_EXCLUDED_SHARE).ceil() as usize;
        if self.excluded.len() > allowed {
            self.violations.push(format!(
                "{workload}: the executors disagree on {} of {before} pool queries (at most {allowed} tolerated)",
                self.excluded.len()
            ));
        }
        self.oracle_s = started.elapsed().as_secs_f64();
    }

    /// The line a run prints when queries were excluded.
    pub fn excluded_note(&self) -> Option<String> {
        (!self.excluded.is_empty()).then(|| {
            format!(
                "ENGINE DEFECT: streaming and materializing executors disagree on {} candidate(s), excluded from the pool: {}",
                self.excluded.len(),
                self.excluded.join("  ")
            )
        })
    }

    /// Writes the tab-separated file [`Prepared::read`] parses.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cost\t{}\t{}\t{}\t{}\t{}",
            self.generate_s, self.build_s, self.pool_s, self.oracle_s, self.draws,
        );
        for text in &self.excluded {
            let _ = writeln!(out, "excluded\t{text}");
        }
        for v in &self.violations {
            let _ = writeln!(out, "violation\t{v}");
        }
        for q in &self.pool {
            let digest = q.digest.map_or("-".to_owned(), |d| format!("{d:016x}"));
            let _ = writeln!(
                out,
                "query\t{}\t{}\t{digest}\t{}\t{}\t{}",
                q.cost, q.answer, q.size, q.class, q.text
            );
        }
        out
    }

    /// Reads a file [`Prepared::write`] wrote.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).ok_or_else(|| format!("{}: malformed", path.display()))
    }

    fn parse(text: &str) -> Option<Self> {
        let mut p = Prepared::default();
        for line in text.lines() {
            let mut f = line.split('\t');
            match f.next()? {
                "cost" => {
                    p.generate_s = f.next()?.parse().ok()?;
                    p.build_s = f.next()?.parse().ok()?;
                    p.pool_s = f.next()?.parse().ok()?;
                    p.oracle_s = f.next()?.parse().ok()?;
                    p.draws = f.next()?.parse().ok()?;
                }
                "excluded" => p.excluded.push(f.next()?.to_owned()),
                "violation" => p.violations.push(f.next()?.to_owned()),
                "query" => {
                    let cost = f.next()?.parse().ok()?;
                    let answer = f.next()?.parse().ok()?;
                    let digest = match f.next()? {
                        "-" => None,
                        hex => Some(u64::from_str_radix(hex, 16).ok()?),
                    };
                    p.pool.push(PoolQuery {
                        cost,
                        answer,
                        digest,
                        size: f.next()?.parse().ok()?,
                        class: f.next()?.to_owned(),
                        text: f.next()?.to_owned(),
                    });
                }
                _ => return None,
            }
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_file_round_trips() {
        let p = Prepared {
            generate_s: 1.25,
            build_s: 6.5,
            pool_s: 0.75,
            oracle_s: 0.5,
            draws: 17,
            excluded: vec!["NP(NP(,)(CC(and))(NP(NNS)))".into()],
            violations: vec!["pool not filled: stratum 2 short 3".into()],
            pool: vec![
                PoolQuery {
                    text: "S(NP(DT)(NN))(VP(//NN))".into(),
                    class: "WH".into(),
                    size: 6,
                    cost: 123_456,
                    answer: 42,
                    digest: Some(0x00AB_CDEF_0123_4567),
                },
                PoolQuery {
                    text: "NP(NN(noun40))".into(),
                    class: "HL".into(),
                    size: 3,
                    cost: 7,
                    answer: 0,
                    digest: None,
                },
            ],
        };
        let text = p.to_text();
        assert_eq!(Prepared::parse(&text), Some(p));
        assert!(Prepared::parse(&text.replace("query\t7", "query\tseven")).is_none());
        assert!(Prepared::parse("unknown\t1\n").is_none());
    }

    #[test]
    fn oracle_disagreements_are_excluded_and_too_many_are_a_violation() {
        let query = |i: u64| PoolQuery {
            text: format!("Q{i}"),
            class: "L".into(),
            size: 1,
            cost: i,
            answer: i,
            digest: Some(i),
        };
        let mut p = Prepared {
            pool: (0..200).map(query).collect(),
            ..Prepared::default()
        };
        // The oracle disagrees on Q7 and errors on Q9.
        p.keep_oracle_confirmed("w", |text| match text {
            "Q7" => Some(1_000),
            "Q9" => None,
            _ => text[1..].parse().ok(),
        });
        assert_eq!(p.pool.len(), 198);
        assert_eq!(p.excluded, ["Q7", "Q9"]);
        assert!(p.violations.is_empty(), "2 of 200 is within one percent");
        p.keep_oracle_confirmed("w", |text| {
            (text != "Q11").then_some(0).filter(|_| text == "Q0")
        });
        assert_eq!(p.pool.len(), 1, "only Q0 has digest 0");
        assert_eq!(p.violations.len(), 1);
    }
}
