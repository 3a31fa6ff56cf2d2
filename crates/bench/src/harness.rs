//! Experiment drivers regenerating every table and figure of §6.
//!
//! Each `fig*`/`tab*` function prints the same rows/series the paper
//! reports. Dataset sizes come from [`Scale`]; the default (`small`)
//! keeps the full suite within minutes on a laptop, `SI_SCALE=paper`
//! unlocks the paper's 100k/1M-sentence points.

use std::path::PathBuf;
use std::time::Instant;

use si_baselines::{ATreeGrep, FreqIndex};
use si_core::cover::{minrc, optimal_cover};
use si_core::{Coding, IndexOptions, SubtreeIndex};
use si_corpus::{fb_query_set, wh_query_set, Corpus, FbClass, GeneratorConfig, WhGroup};
use si_query::Query;

/// Dataset scale selector (`SI_SCALE` environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop scale: trends visible, minutes of runtime.
    Small,
    /// The paper's scale (up to 10⁶ sentences); needs several GB of RAM
    /// and substantially more time.
    Paper,
}

impl Scale {
    /// Reads `SI_SCALE` (`small` default, `paper` opt-in).
    pub fn from_env() -> Self {
        match std::env::var("SI_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// Corpus sizes for the index-size grid (Figures 8–10, Table 1).
    pub fn grid_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![100, 1_000, 10_000],
            Scale::Paper => vec![100, 1_000, 10_000, 100_000],
        }
    }

    /// Corpus sizes for the key-growth curve (Figure 2).
    pub fn fig2_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1, 10, 100, 1_000, 10_000, 100_000],
            Scale::Paper => vec![1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
        }
    }

    /// Corpus size for the query-runtime experiments (Figures 11–12,
    /// Table 2).
    pub fn query_corpus(self) -> usize {
        match self {
            Scale::Small => 10_000,
            Scale::Paper => 100_000,
        }
    }

    /// Corpus sizes for the scalability curve (Figure 13).
    pub fn fig13_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1_000, 10_000, 100_000],
            Scale::Paper => vec![1_000, 10_000, 100_000, 1_000_000],
        }
    }

    /// Repetitions per query when timing.
    pub fn reps(self) -> usize {
        match self {
            Scale::Small => 3,
            Scale::Paper => 5,
        }
    }
}

/// Default seed of the indexed corpus; held-out trees use `seed + 1`,
/// FB query sampling `seed + 2`.
pub const CORPUS_SEED: u64 = 0x5EED_0001;

static SEED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(CORPUS_SEED);

/// Overrides the corpus RNG seed for this process (the `experiments
/// --seed N` flag).
pub fn set_corpus_seed(seed: u64) {
    SEED.store(seed, std::sync::atomic::Ordering::Relaxed);
}

/// The active corpus RNG seed ([`CORPUS_SEED`] unless overridden).
pub fn corpus_seed() -> u64 {
    SEED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Generates the standard corpus of `n` sentences.
pub fn corpus(n: usize) -> Corpus {
    GeneratorConfig::default()
        .with_seed(corpus_seed())
        .generate(n)
}

/// A scratch directory under the system temp dir, removed on drop.
pub struct Workdir(pub PathBuf);

impl Workdir {
    /// Creates `si-bench-<name>-<pid>`.
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("si-bench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create workdir");
        Workdir(dir)
    }

    /// Path of a child entry.
    pub fn path(&self, child: &str) -> PathBuf {
        self.0.join(child)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Times a closure in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Named WH queries.
pub type WhWorkload = Vec<(String, Query)>;
/// FB queries tagged with class and size.
pub type FbWorkload = Vec<(FbClass, usize, Query)>;

/// The standard query workload: 48 WH + 70 FB queries, parsed against
/// the corpus interner.
pub fn workload(corpus: &Corpus, heldout_n: usize) -> (WhWorkload, FbWorkload) {
    let mut interner = corpus.interner().clone();
    let wh = wh_query_set(&mut interner);
    let heldout = GeneratorConfig::default()
        .with_seed(corpus_seed() + 1)
        .generate_into(heldout_n, &mut interner);
    let fb = fb_query_set(corpus, &heldout, corpus_seed() + 2);
    (
        wh.into_iter().map(|q| (q.text, q.query)).collect(),
        fb.into_iter().map(|q| (q.class, q.size, q.query)).collect(),
    )
}

// --------------------------------------------------------------------
// Figure 2: number of index keys (unique subtrees) vs corpus size
// --------------------------------------------------------------------

/// Prints Figure 2: unique-subtree counts per `mss` and corpus size.
pub fn fig2(scale: Scale) {
    println!("# Figure 2: number of index keys (unique subtrees) vs input size");
    println!("sentences  mss=1  mss=2  mss=3  mss=4  mss=5");
    let sizes = scale.fig2_sizes();
    let max = *sizes.last().unwrap();
    let big = corpus(max);
    for &n in &sizes {
        let mut row = format!("{n:>9}");
        for mss in 1..=5 {
            let mut keys = std::collections::HashSet::new();
            for tree in &big.trees()[..n] {
                si_core::extract::for_each_subtree(tree, mss, |s| {
                    keys.insert(s.key.clone());
                });
            }
            row.push_str(&format!("  {:>8}", keys.len()));
        }
        println!("{row}");
    }
}

// --------------------------------------------------------------------
// Figure 3: avg subtrees per node vs branching factor
// --------------------------------------------------------------------

/// Prints Figure 3: average number of extracted subtrees by branching
/// factor of the subtree root, for sizes 2–5.
pub fn fig3(scale: Scale) {
    println!("# Figure 3: avg number of subtrees by root branching factor");
    println!("branching  count(nodes)  ss=2  ss=3  ss=4  ss=5");
    // ">50,000 nodes" in the paper; a few thousand sentences suffice.
    let n = match scale {
        Scale::Small => 2_000,
        Scale::Paper => 5_000,
    };
    let corpus = corpus(n);
    // sums[b][ss] and counts[b]
    let mut sums: Vec<[f64; 6]> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for tree in corpus.trees() {
        for v in tree.nodes() {
            let b = tree.branching(v);
            if sums.len() <= b {
                sums.resize(b + 1, [0.0; 6]);
                counts.resize(b + 1, 0);
            }
            counts[b] += 1;
            let by_size = si_core::extract::count_by_size(tree, v, 5);
            for ss in 2..=5 {
                sums[b][ss] += by_size[ss] as f64;
            }
        }
    }
    for b in 0..sums.len() {
        if counts[b] == 0 {
            continue;
        }
        let avg = |ss: usize| sums[b][ss] / counts[b] as f64;
        println!(
            "{b:>9}  {:>12}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7.2}",
            counts[b],
            avg(2),
            avg(3),
            avg(4),
            avg(5)
        );
    }
}

// --------------------------------------------------------------------
// Figures 8, 9, 10 and Table 1: the index construction grid
// --------------------------------------------------------------------

/// One cell of the build grid.
pub struct GridCell {
    /// Corpus size in sentences.
    pub sentences: usize,
    /// Maximum subtree size.
    pub mss: usize,
    /// Coding scheme.
    pub coding: Coding,
    /// Build statistics.
    pub stats: si_core::IndexStats,
}

/// Builds the (size × mss × coding) grid once; Figures 8–10 and Table 1
/// all read from it.
pub fn run_index_grid(scale: Scale) -> Vec<GridCell> {
    index_grid(&scale.grid_sizes())
}

fn index_grid(sizes: &[usize]) -> Vec<GridCell> {
    let work = Workdir::new("grid");
    let max = *sizes.last().unwrap();
    let big = corpus(max);
    let mut cells = Vec::new();
    for &n in sizes {
        let trees = &big.trees()[..n];
        for mss in 1..=5 {
            for coding in Coding::ALL {
                let dir = work.path(&format!("{n}-{mss}-{coding:?}"));
                let index = SubtreeIndex::build(
                    &dir,
                    trees,
                    big.interner(),
                    IndexOptions::new(mss, coding),
                )
                .expect("grid build");
                cells.push(GridCell {
                    sentences: n,
                    mss,
                    coding,
                    stats: index.stats(),
                });
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    cells
}

fn grid_table(cells: &[GridCell], what: &str, f: impl Fn(&GridCell) -> String) {
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.sentences).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for &n in &sizes {
        println!("\n## {n} sentences — {what}");
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "coding", "mss=1", "mss=2", "mss=3", "mss=4", "mss=5"
        );
        for coding in Coding::ALL {
            let mut row = format!("{:<18}", coding.name());
            for mss in 1..=5 {
                let cell = cells
                    .iter()
                    .find(|c| c.sentences == n && c.mss == mss && c.coding == coding)
                    .expect("grid cell");
                row.push_str(&format!(" {:>12}", f(cell)));
            }
            println!("{row}");
        }
    }
}

/// Prints Figure 8 (index size in bytes).
pub fn fig8(cells: &[GridCell]) {
    println!("# Figure 8: subtree index size (bytes)");
    grid_table(cells, "index size (bytes)", |c| {
        c.stats.index_bytes.to_string()
    });
}

/// Prints Figure 9 (total number of postings).
pub fn fig9(cells: &[GridCell]) {
    println!("# Figure 9: total number of postings");
    grid_table(cells, "postings", |c| c.stats.postings.to_string());
}

/// Prints Figure 10 (index construction time).
pub fn fig10(cells: &[GridCell]) {
    println!("# Figure 10: index construction time (seconds)");
    grid_table(cells, "build seconds", |c| {
        format!("{:.2}", c.stats.build_seconds)
    });
}

/// Prints Table 1 (size ratio mss=5 / mss=1 per coding).
pub fn tab1(cells: &[GridCell]) {
    println!("# Table 1: index size ratio, mss=5 over mss=1");
    println!(
        "{:<10} {:>14} {:>12} {:>18}",
        "sentences", "filter-based", "root-split", "subtree interval"
    );
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.sentences).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for &n in &sizes {
        let ratio = |coding: Coding| -> f64 {
            let at = |mss: usize| {
                cells
                    .iter()
                    .find(|c| c.sentences == n && c.mss == mss && c.coding == coding)
                    .map(|c| c.stats.index_bytes as f64)
                    .unwrap_or(f64::NAN)
            };
            at(5) / at(1)
        };
        println!(
            "{n:<10} {:>14.1} {:>12.1} {:>18.1}",
            ratio(Coding::FilterBased),
            ratio(Coding::RootSplit),
            ratio(Coding::SubtreeInterval)
        );
    }
}

// --------------------------------------------------------------------
// Figures 11 and 12: query runtime grids
// --------------------------------------------------------------------

/// One timed query evaluation.
pub struct QueryRun {
    /// Coding scheme used.
    pub coding: Coding,
    /// Index `mss`.
    pub mss: usize,
    /// Query size (nodes).
    pub query_size: usize,
    /// Matches found.
    pub matches: usize,
    /// Mean runtime in seconds.
    pub seconds: f64,
}

/// Runs the full WH + FB workload against every (coding, mss) index.
pub fn run_query_grid(scale: Scale) -> Vec<QueryRun> {
    let work = Workdir::new("qgrid");
    let n = scale.query_corpus();
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let queries: Vec<&Query> = wh
        .iter()
        .map(|(_, q)| q)
        .chain(fb.iter().map(|(_, _, q)| q))
        .collect();
    let mut runs = Vec::new();
    for mss in 1..=5 {
        for coding in Coding::ALL {
            let dir = work.path(&format!("{mss}-{coding:?}"));
            let index = SubtreeIndex::build(
                &dir,
                big.trees(),
                big.interner(),
                IndexOptions::new(mss, coding),
            )
            .expect("query grid build");
            for q in &queries {
                let reps = scale.reps();
                let mut total = 0.0;
                let mut matches = 0;
                for _ in 0..reps {
                    let (result, secs) = time(|| index.evaluate(q).expect("evaluate"));
                    matches = result.len();
                    total += secs;
                }
                runs.push(QueryRun {
                    coding,
                    mss,
                    query_size: q.len(),
                    matches,
                    seconds: total / reps as f64,
                });
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    runs
}

/// Prints Figure 11: average runtime binned by number of matches.
pub fn fig11(runs: &[QueryRun]) {
    println!("# Figure 11: avg query runtime (s) by number of matches");
    let bins: [(&str, usize, usize); 5] = [
        ("<10", 0, 10),
        ("10-100", 10, 100),
        ("100-1k", 100, 1_000),
        ("1k-10k", 1_000, 10_000),
        (">10k", 10_000, usize::MAX),
    ];
    for mss in 1..=5 {
        println!("\n## mss = {mss}");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "coding", "<10", "10-100", "100-1k", "1k-10k", ">10k"
        );
        for coding in Coding::ALL {
            let mut row = format!("{:<18}", coding.name());
            for (_, lo, hi) in bins {
                let sel: Vec<&QueryRun> = runs
                    .iter()
                    .filter(|r| {
                        r.coding == coding && r.mss == mss && r.matches >= lo && r.matches < hi
                    })
                    .collect();
                if sel.is_empty() {
                    row.push_str(&format!(" {:>10}", "-"));
                } else {
                    let avg = sel.iter().map(|r| r.seconds).sum::<f64>() / sel.len() as f64;
                    row.push_str(&format!(" {avg:>10.4}"));
                }
            }
            println!("{row}");
        }
    }
}

/// Prints Figure 12: average runtime by query size (queries with ≥ 100
/// matches, as in the paper).
pub fn fig12(runs: &[QueryRun]) {
    println!("# Figure 12: avg query runtime (s) by query size (queries with >=100 matches)");
    for mss in 1..=5 {
        println!("\n## mss = {mss}");
        print!("{:<18}", "coding");
        for size in 1..=12 {
            print!(" {size:>8}");
        }
        println!();
        for coding in Coding::ALL {
            print!("{:<18}", coding.name());
            for size in 1..=12 {
                let sel: Vec<&QueryRun> = runs
                    .iter()
                    .filter(|r| {
                        r.coding == coding
                            && r.mss == mss
                            && r.query_size == size
                            && r.matches >= 100
                    })
                    .collect();
                if sel.is_empty() {
                    print!(" {:>8}", "-");
                } else {
                    let avg = sel.iter().map(|r| r.seconds).sum::<f64>() / sel.len() as f64;
                    print!(" {avg:>8.4}");
                }
            }
            println!();
        }
    }
}

// --------------------------------------------------------------------
// Table 2: comparison with ATreeGrep and the frequency-based approach
// --------------------------------------------------------------------

/// Prints Table 2: average runtime of the FB query classes under
/// root-split SI (mss=3), ATreeGrep and FB(0.1%/1%/10%).
pub fn tab2(scale: Scale) {
    println!("# Table 2: avg runtime (s) per FB query class");
    let work = Workdir::new("tab2");
    let n = scale.query_corpus();
    let big = corpus(n);
    let (_, fb) = workload(&big, 200);

    let dir = work.path("rs3");
    let rs = SubtreeIndex::build(
        &dir,
        big.trees(),
        big.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .expect("rs build");
    let atg = ATreeGrep::build(big.trees());
    let fractions = [0.001, 0.01, 0.1];
    let freq_indexes: Vec<FreqIndex<'_>> = fractions
        .iter()
        .map(|&fraction| {
            FreqIndex::build(
                big.trees(),
                si_baselines::FreqIndexOptions { mss: 3, fraction },
            )
        })
        .collect();

    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "class", "RS", "ATG", "FB(0.1%)", "FB(1%)", "FB(10%)"
    );
    let reps = scale.reps();
    for class in FbClass::ALL {
        let queries: Vec<&Query> = fb
            .iter()
            .filter(|(c, _, _)| *c == class)
            .map(|(_, _, q)| q)
            .collect();
        let avg_of = |mut f: Box<dyn FnMut(&Query)>| -> f64 {
            let (_, secs) = time(|| {
                for _ in 0..reps {
                    for q in &queries {
                        f(q);
                    }
                }
            });
            secs / (reps * queries.len()) as f64
        };
        let rs_t = avg_of(Box::new(|q| {
            rs.evaluate(q).expect("rs evaluate");
        }));
        let atg_t = avg_of(Box::new(|q| {
            atg.evaluate(q);
        }));
        let fb_t: Vec<f64> = freq_indexes
            .iter()
            .map(|idx| {
                avg_of(Box::new(|q| {
                    idx.evaluate(q);
                }))
            })
            .collect();
        println!(
            "{:<6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            class.to_string(),
            rs_t,
            atg_t,
            fb_t[0],
            fb_t[1],
            fb_t[2]
        );
    }
}

// --------------------------------------------------------------------
// Figure 13: scalability with corpus size
// --------------------------------------------------------------------

/// Prints Figure 13: average FB-workload runtime vs corpus size,
/// `mss = 3`, all codings.
pub fn fig13(scale: Scale) {
    println!("# Figure 13: avg query runtime (s) vs corpus size, mss=3");
    println!(
        "{:<10} {:>14} {:>12} {:>18}",
        "sentences", "filter-based", "root-split", "subtree interval"
    );
    let work = Workdir::new("fig13");
    let sizes = scale.fig13_sizes();
    let max = *sizes.last().unwrap();
    let big = corpus(max);
    let (_, fb) = workload(&big, 200);
    let queries: Vec<&Query> = fb.iter().map(|(_, _, q)| q).collect();
    let reps = scale.reps();
    for &n in &sizes {
        let trees = &big.trees()[..n];
        let mut row = format!("{n:<10}");
        for coding in [
            Coding::FilterBased,
            Coding::RootSplit,
            Coding::SubtreeInterval,
        ] {
            let dir = work.path(&format!("{n}-{coding:?}"));
            let index =
                SubtreeIndex::build(&dir, trees, big.interner(), IndexOptions::new(3, coding))
                    .expect("fig13 build");
            let (_, secs) = time(|| {
                for _ in 0..reps {
                    for q in &queries {
                        index.evaluate(q).expect("evaluate");
                    }
                }
            });
            let avg = secs / (reps * queries.len()) as f64;
            let width = match coding {
                Coding::FilterBased => 14,
                Coding::RootSplit => 12,
                Coding::SubtreeInterval => 18,
            };
            row.push_str(&format!(" {avg:>width$.4}"));
            std::fs::remove_dir_all(&dir).ok();
        }
        println!("{row}");
    }
}

// --------------------------------------------------------------------
// Table 3: number of joins per WH group
// --------------------------------------------------------------------

/// Prints Table 3: average joins per WH query group for root-split
/// (`minRC`) vs subtree-interval (`optimalCover`) covers, mss 2–5.
pub fn tab3() {
    println!("# Table 3: avg number of joins over the WH query set");
    println!("(r = root-split / minRC, s = subtree interval / optimalCover)");
    let mut interner = si_parsetree::LabelInterner::new();
    let wh = wh_query_set(&mut interner);
    print!("{:<8}", "group");
    for mss in 2..=5 {
        print!("  r(mss={mss}) s(mss={mss})");
    }
    println!();
    for group in WhGroup::ALL {
        let queries: Vec<&Query> = wh
            .iter()
            .filter(|q| q.group == group)
            .map(|q| &q.query)
            .collect();
        print!("{:<8}", group.to_string());
        for mss in 2..=5 {
            let avg = |covers: &dyn Fn(&Query) -> usize| -> f64 {
                queries.iter().map(|q| covers(q) as f64).sum::<f64>() / queries.len() as f64
            };
            let r = avg(&|q| minrc(q, mss).num_joins());
            let s = avg(&|q| optimal_cover(q, mss).num_joins());
            print!("  {r:>9.2} {s:>9.2}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_reads_env() {
        // Default is Small (the test runner does not set SI_SCALE).
        assert_eq!(Scale::from_env(), Scale::Small);
        assert_eq!(Scale::Small.grid_sizes().last(), Some(&10_000));
        assert_eq!(Scale::Paper.fig13_sizes().last(), Some(&1_000_000));
        assert!(Scale::Paper.reps() >= Scale::Small.reps());
    }

    #[test]
    fn workdir_cleans_up_on_drop() {
        let path;
        {
            let w = Workdir::new("selftest");
            path = w.0.clone();
            std::fs::write(w.path("x"), b"y").unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn workload_has_paper_cardinalities() {
        let c = corpus(50);
        let (wh, fb) = workload(&c, 30);
        assert_eq!(wh.len(), 48);
        assert_eq!(fb.len(), 70);
    }

    /// What Figures 2, 8 and 9 show by construction, at one small point.
    #[test]
    fn grid_orders_codings_and_grows_with_mss() {
        let cells = index_grid(&[100]);
        assert_eq!(cells.len(), 5 * Coding::ALL.len());
        let stats = |mss: usize, coding: Coding| {
            &cells
                .iter()
                .find(|c| c.mss == mss && c.coding == coding)
                .expect("grid cell")
                .stats
        };
        for mss in 1..=5 {
            let (rs, iv) = (
                stats(mss, Coding::RootSplit),
                stats(mss, Coding::SubtreeInterval),
            );
            assert!(rs.postings <= iv.postings, "postings at mss={mss}");
            if mss >= 2 {
                assert!(rs.posting_bytes < iv.posting_bytes, "bytes at mss={mss}");
            }
        }
        for coding in Coding::ALL {
            for mss in 2..=5 {
                assert!(
                    stats(mss - 1, coding).keys <= stats(mss, coding).keys,
                    "{coding} keys at mss={mss}"
                );
            }
        }
    }

    #[test]
    fn tab3_runs_without_corpus() {
        // Pure decomposition: must not panic and must print all groups.
        tab3();
    }

    #[test]
    fn time_measures_something() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
