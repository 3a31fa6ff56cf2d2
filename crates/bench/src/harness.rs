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
use si_obs::{Histogram, HistogramSummary, Timings};
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
/// --seed N` flag) so `BENCH_*.json` runs are reproducible across
/// machines and re-runs.
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
    let work = Workdir::new("grid");
    let sizes = scale.grid_sizes();
    let max = *sizes.last().unwrap();
    let big = corpus(max);
    let mut cells = Vec::new();
    for &n in &sizes {
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

// --------------------------------------------------------------------
// Streaming-executor ablation: BENCH_streaming.json
// --------------------------------------------------------------------

/// One executor's measurement of one query.
#[derive(Debug, Clone, Copy)]
pub struct ExecMeasure {
    /// Mean wall-clock seconds over `Scale::reps()` runs.
    pub seconds: f64,
    /// Peak resident posting-derived bytes (`EvalStats::peak_posting_bytes`).
    pub peak_posting_bytes: usize,
    /// Postings decoded.
    pub postings_fetched: usize,
}

/// Streaming vs materialized on one query.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Query text.
    pub name: String,
    /// Coding scheme measured.
    pub coding: Coding,
    /// Match count (identical across executors by construction).
    pub matches: usize,
    /// Streaming pipeline measurement.
    pub streaming: ExecMeasure,
    /// Legacy materializing evaluator measurement.
    pub materialized: ExecMeasure,
}

fn measure(
    index: &SubtreeIndex,
    q: &Query,
    reps: usize,
) -> (Vec<(si_parsetree::TreeId, u32)>, ExecMeasure) {
    let mut seconds = 0.0;
    let mut last = None;
    for _ in 0..reps {
        let (result, secs) = time(|| index.evaluate(q).expect("evaluate"));
        seconds += secs;
        last = Some(result);
    }
    let result = last.expect("at least one rep");
    let measure = ExecMeasure {
        seconds: seconds / reps as f64,
        peak_posting_bytes: result.stats.peak_posting_bytes,
        postings_fetched: result.stats.postings_fetched,
    };
    (result.matches, measure)
}

/// Runs the executor ablation: every workload query under both
/// executors, asserting identical match sets (a live equivalence check)
/// and recording latency plus peak resident posting bytes.
pub fn run_streaming_ablation(scale: Scale) -> Vec<AblationRow> {
    let work = Workdir::new("streamabl");
    let n = match scale {
        Scale::Small => 5_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let queries: Vec<(String, &Query)> = wh
        .iter()
        .map(|(name, q)| (name.clone(), q))
        .chain(fb.iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    let reps = scale.reps();
    let mut rows = Vec::new();
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let dir = work.path(&format!("abl-{coding:?}"));
        let mut index = SubtreeIndex::build(
            &dir,
            big.trees(),
            big.interner(),
            IndexOptions::new(3, coding),
        )
        .expect("ablation build");
        for (name, q) in &queries {
            index.set_exec_mode(si_core::ExecMode::Streaming);
            let (m_s, streaming) = measure(&index, q, reps);
            index.set_exec_mode(si_core::ExecMode::Materialized);
            let (m_m, materialized) = measure(&index, q, reps);
            assert_eq!(
                m_s, m_m,
                "executor match-set mismatch on {name} under {coding}"
            );
            rows.push(AblationRow {
                name: name.clone(),
                coding,
                matches: m_s.len(),
                streaming,
                materialized,
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    rows
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Folds per-query seconds through the shared `si_obs` log-linear
/// histogram — the same readout the query service prints — so every
/// `BENCH_*.json` reports latency quantiles with identical bucket
/// semantics (~3% wide buckets; quantiles are bucket midpoints).
pub fn latency_quantiles(seconds: impl IntoIterator<Item = f64>) -> HistogramSummary {
    let h = Histogram::new();
    for s in seconds {
        h.record_secs(s);
    }
    h.summary()
}

/// Renders a latency summary as a JSON object fragment (milliseconds).
fn quantiles_json(s: &HistogramSummary) -> String {
    format!(
        "{{\"count\": {}, \"p50_ms\": {:.4}, \"p90_ms\": {:.4}, \"p99_ms\": {:.4}, \
         \"p999_ms\": {:.4}, \"max_ms\": {:.4}}}",
        s.count,
        s.p50 as f64 / 1e6,
        s.p90 as f64 / 1e6,
        s.p99 as f64 / 1e6,
        s.p999 as f64 / 1e6,
        s.max as f64 / 1e6,
    )
}

/// Prints one `label: p50 | p90 | p99 | p999` latency line.
fn print_quantiles(label: &str, s: &HistogramSummary) {
    println!(
        "{label}: p50 {:.3} ms | p90 {:.3} ms | p99 {:.3} ms | p999 {:.3} ms ({} samples)",
        s.p50 as f64 / 1e6,
        s.p90 as f64 / 1e6,
        s.p99 as f64 / 1e6,
        s.p999 as f64 / 1e6,
        s.count
    );
}

/// Prints the ablation summary and writes `BENCH_streaming.json` into
/// the current directory so future PRs have a perf trajectory to diff
/// against.
pub fn emit_streaming_ablation(scale: Scale, rows: &[AblationRow]) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"queries\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"coding\": \"{}\", \"matches\": {}, \
             \"streaming\": {{\"seconds\": {:.6}, \"peak_posting_bytes\": {}, \"postings_fetched\": {}}}, \
             \"materialized\": {{\"seconds\": {:.6}, \"peak_posting_bytes\": {}, \"postings_fetched\": {}}}}}{}\n",
            json_escape(&r.name),
            r.coding.name(),
            r.matches,
            r.streaming.seconds,
            r.streaming.peak_posting_bytes,
            r.streaming.postings_fetched,
            r.materialized.seconds,
            r.materialized.peak_posting_bytes,
            r.materialized.postings_fetched,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    // Summary per coding: mean latency and byte-footprint wins.
    println!("# Executor ablation: streaming vs materialized (peak resident posting bytes)");
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "coding", "queries", "str ms", "mat ms", "str KiB", "mat KiB", "<50% B"
    );
    let mut summaries = Vec::new();
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let sel: Vec<&AblationRow> = rows.iter().filter(|r| r.coding == coding).collect();
        if sel.is_empty() {
            continue;
        }
        let mean = |f: &dyn Fn(&AblationRow) -> f64| -> f64 {
            sel.iter().map(|r| f(r)).sum::<f64>() / sel.len() as f64
        };
        let s_ms = mean(&|r| r.streaming.seconds) * 1e3;
        let m_ms = mean(&|r| r.materialized.seconds) * 1e3;
        let s_kib = mean(&|r| r.streaming.peak_posting_bytes as f64) / 1024.0;
        let m_kib = mean(&|r| r.materialized.peak_posting_bytes as f64) / 1024.0;
        let below_half = sel
            .iter()
            .filter(|r| {
                r.materialized.peak_posting_bytes > 0
                    && (r.streaming.peak_posting_bytes as f64)
                        < 0.5 * r.materialized.peak_posting_bytes as f64
            })
            .count();
        println!(
            "{:<18} {:>8} {:>12.4} {:>12.4} {:>12.1} {:>12.1} {:>10}",
            coding.name(),
            sel.len(),
            s_ms,
            m_ms,
            s_kib,
            m_kib,
            below_half
        );
        summaries.push(format!(
            "    {{\"coding\": \"{}\", \"queries\": {}, \"streaming_mean_ms\": {:.4}, \
             \"materialized_mean_ms\": {:.4}, \"streaming_mean_peak_bytes\": {:.0}, \
             \"materialized_mean_peak_bytes\": {:.0}, \"queries_below_half_bytes\": {}}}",
            coding.name(),
            sel.len(),
            s_ms,
            m_ms,
            s_kib * 1024.0,
            m_kib * 1024.0,
            below_half
        ));
    }
    let stream_q = latency_quantiles(rows.iter().map(|r| r.streaming.seconds));
    let mat_q = latency_quantiles(rows.iter().map(|r| r.materialized.seconds));
    print_quantiles("streaming latency", &stream_q);
    print_quantiles("materialized latency", &mat_q);
    json.push_str(&format!(
        "  \"latency_quantiles\": {{\"streaming\": {}, \"materialized\": {}}},\n",
        quantiles_json(&stream_q),
        quantiles_json(&mat_q)
    ));
    json.push_str("  \"summary\": [\n");
    json.push_str(&summaries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_streaming.json", json)?;
    println!(
        "wrote BENCH_streaming.json ({} query measurements)",
        rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Query-service throughput: BENCH_service.json
// --------------------------------------------------------------------

/// One query's figures under both serving modes.
#[derive(Debug, Clone)]
pub struct ServiceBenchRow {
    /// Query text.
    pub name: String,
    /// Match count (asserted identical between modes).
    pub matches: usize,
    /// Mean seconds through the sequential streaming executor.
    pub sequential_seconds: f64,
    /// Mean in-worker latency through the batched service.
    pub service_seconds: f64,
}

/// Aggregate figures of [`run_service_bench`].
#[derive(Debug)]
pub struct ServiceBenchReport {
    /// Per-query rows.
    pub rows: Vec<ServiceBenchRow>,
    /// Worker threads used by the service.
    pub threads: usize,
    /// Repetitions of the full workload per mode.
    pub reps: usize,
    /// Queries per second issuing one at a time (PR 1 path).
    pub qps_sequential: f64,
    /// Queries per second through batched shared-scan execution.
    pub qps_service: f64,
    /// `qps_service / qps_sequential`.
    pub speedup: f64,
    /// Block-cache counters after the service runs.
    pub cache: si_core::BlockCacheStats,
    /// Cover keys shared per batch (from the final batch report).
    pub shared_keys: usize,
}

/// Benchmarks the concurrent query service against issuing the same
/// workload one query at a time through the PR 1 streaming executor,
/// asserting identical match sets per query (a live equivalence check).
pub fn run_service_bench(scale: Scale, threads: usize) -> ServiceBenchReport {
    use si_service::{QueryService, ServiceConfig};

    let work = Workdir::new("service");
    let n = match scale {
        Scale::Small => 5_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let queries: Vec<(String, Query)> = wh
        .into_iter()
        .chain(fb.into_iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    // Throughput is a steady-state figure; use more reps than the
    // latency experiments so scheduler noise averages out (both modes
    // get the same count).
    let reps = scale.reps().max(5);
    SubtreeIndex::build(
        &work.path("idx"),
        big.trees(),
        big.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .expect("service bench build");
    // Both arms read the directory the way a server does (the service
    // opens it itself), so they share one read path.
    let index = SubtreeIndex::open(&work.path("idx")).expect("service bench open");

    // Sequential baseline: the same queries, one at a time. One untimed
    // warmup pass per mode (standard steady-state methodology — both
    // modes get it; it warms the pager here and the block cache below).
    let mut seq_secs = vec![0.0f64; queries.len()];
    let mut seq_matches: Vec<Vec<(si_parsetree::TreeId, u32)>> = vec![Vec::new(); queries.len()];
    for (i, (_, q)) in queries.iter().enumerate() {
        seq_matches[i] = index.evaluate(q).expect("sequential warmup").matches;
    }
    let (_, seq_wall) = time(|| {
        for _ in 0..reps {
            for (i, (_, q)) in queries.iter().enumerate() {
                let (result, secs) = time(|| index.evaluate(q).expect("sequential evaluate"));
                seq_secs[i] += secs;
                assert_eq!(result.matches, seq_matches[i], "unstable sequential result");
            }
        }
    });

    // Batched service: same workload, same rep count, same warmup.
    let service = QueryService::open(
        &work.path("idx"),
        ServiceConfig {
            threads,
            ..ServiceConfig::default()
        },
    )
    .expect("service bench open");
    let query_refs: Vec<Query> = queries.iter().map(|(_, q)| q.clone()).collect();
    let mut svc_secs = vec![0.0f64; queries.len()];
    let mut shared_keys = 0usize;
    service.run_batch(&query_refs).expect("service warmup");
    let (_, svc_wall) = time(|| {
        for _ in 0..reps {
            let report = service.run_batch(&query_refs).expect("service batch");
            shared_keys = report.shared_keys;
            for (i, outcome) in report.outcomes.iter().enumerate() {
                svc_secs[i] += outcome.seconds;
                assert_eq!(
                    outcome.result.matches, seq_matches[i],
                    "service match-set mismatch on {}",
                    queries[i].0
                );
            }
        }
    });

    let total = (reps * queries.len()) as f64;
    let qps_sequential = total / seq_wall;
    let qps_service = total / svc_wall;
    let rows = queries
        .iter()
        .enumerate()
        .map(|(i, (name, _))| ServiceBenchRow {
            name: name.clone(),
            matches: seq_matches[i].len(),
            sequential_seconds: seq_secs[i] / reps as f64,
            service_seconds: svc_secs[i] / reps as f64,
        })
        .collect();
    ServiceBenchReport {
        rows,
        threads,
        reps,
        qps_sequential,
        qps_service,
        speedup: qps_service / qps_sequential,
        cache: service.cache_stats(),
        shared_keys,
    }
}

/// Prints the service throughput summary and writes `BENCH_service.json`
/// into the current directory.
pub fn emit_service_bench(scale: Scale, report: &ServiceBenchReport) -> std::io::Result<()> {
    println!("# Query service: batched shared-scan execution vs one-at-a-time");
    println!(
        "{} queries x {} reps, {} threads, seed {:#x}",
        report.rows.len(),
        report.reps,
        report.threads,
        corpus_seed()
    );
    println!(
        "sequential {:.0} QPS | service {:.0} QPS | speedup {:.2}x",
        report.qps_sequential, report.qps_service, report.speedup
    );
    println!(
        "block cache: {:.1}% hit rate ({} hits / {} misses, {} evictions, peak {} KiB), {} shared scans/batch",
        report.cache.hit_rate() * 100.0,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.peak_bytes / 1024,
        report.shared_keys
    );
    let seq_q = latency_quantiles(report.rows.iter().map(|r| r.sequential_seconds));
    let svc_q = latency_quantiles(report.rows.iter().map(|r| r.service_seconds));
    print_quantiles("sequential latency", &seq_q);
    print_quantiles("service latency", &svc_q);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"coding\": \"root-split\",\n  \
         \"seed\": {},\n  \"threads\": {},\n  \"reps\": {},\n  \
         \"qps_sequential\": {:.2},\n  \"qps_service\": {:.2},\n  \"speedup\": {:.3},\n  \
         \"cache_hit_rate\": {:.4},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"cache_evictions\": {},\n  \"cache_peak_bytes\": {},\n  \"shared_keys\": {},\n  \
         \"latency_quantiles\": {{\"sequential\": {}, \"service\": {}}},\n  \
         \"queries\": [\n",
        corpus_seed(),
        report.threads,
        report.reps,
        report.qps_sequential,
        report.qps_service,
        report.speedup,
        report.cache.hit_rate(),
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.peak_bytes,
        report.shared_keys,
        quantiles_json(&seq_q),
        quantiles_json(&svc_q),
    ));
    for (i, r) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"matches\": {}, \"sequential_ms\": {:.4}, \
             \"service_ms\": {:.4}}}{}\n",
            json_escape(&r.name),
            r.matches,
            r.sequential_seconds * 1e3,
            r.service_seconds * 1e3,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_service.json", json)?;
    println!(
        "wrote BENCH_service.json ({} query measurements)",
        report.rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Planner A/B: cost-based vs byte-ordered — BENCH_planner.json
// --------------------------------------------------------------------

/// One query's figures under both planner modes.
#[derive(Debug, Clone)]
pub struct PlannerBenchRow {
    /// Query text.
    pub name: String,
    /// Coding scheme measured.
    pub coding: Coding,
    /// Match count (asserted identical between modes).
    pub matches: usize,
    /// Mean seconds under PR 1's byte-length ordering.
    pub byte_seconds: f64,
    /// Mean seconds under the cost-based planner (stats segment).
    pub cost_seconds: f64,
    /// Whether the cost-based run proved the result empty from
    /// disjoint per-key tid ranges without opening a posting list.
    pub range_pruned: bool,
}

/// Aggregate figures of [`run_planner_bench`].
#[derive(Debug)]
pub struct PlannerBenchReport {
    /// Per-query rows across all codings.
    pub rows: Vec<PlannerBenchRow>,
    /// Timed repetitions per query per mode.
    pub reps: usize,
}

fn measure_planner(
    index: &SubtreeIndex,
    q: &Query,
    mode: si_core::PlannerMode,
) -> (si_core::eval::EvalResult, f64) {
    let ctx = si_core::ExecContext {
        planner: mode,
        ..Default::default()
    };
    let (result, secs) = time(|| index.evaluate_with(q, &ctx).expect("evaluate"));
    (result, secs)
}

/// Renders a canonical key back into query syntax (labels resolved
/// through the corpus interner).
fn render_canon(key: &[u8], interner: &si_parsetree::LabelInterner) -> Option<String> {
    fn go(
        t: &si_core::canonical::CanonTree,
        interner: &si_parsetree::LabelInterner,
        out: &mut String,
    ) {
        out.push_str(interner.resolve(si_parsetree::Label(t.label)));
        for c in &t.children {
            out.push('(');
            go(c, interner, out);
            out.push(')');
        }
    }
    let shape = si_core::canonical::decode_key(key)?;
    let mut out = String::new();
    go(&shape, interner, &mut out);
    Some(out)
}

/// The selective ("sel-") query class: conjunctions of two rare corpus
/// constructions — `S(//X)(//Y)` where `X` and `Y` are singleton index
/// keys (each occurs in exactly one tree) drawn from opposite ends of
/// the tid space. This is the regime §7's selectivity statistics are
/// for: each branch is a real construction of the corpus, but the
/// conjunction is almost always empty and the per-key tid ranges prove
/// it without opening a posting list. Byte ordering cannot see that.
/// Returns up to `n` queries; logs when fewer singleton keys exist.
fn selective_pair_queries(
    index: &SubtreeIndex,
    interner: &mut si_parsetree::LabelInterner,
    n: usize,
) -> Vec<(String, Query)> {
    // Singleton keys of 2–3 nodes, ordered by their single tid.
    let mut singles: Vec<(si_parsetree::TreeId, Vec<u8>)> = Vec::new();
    for entry in index.iter_keys().expect("iter keys") {
        let (key, _) = entry.expect("key entry");
        let size = si_core::canonical::key_size(&key).unwrap_or(0);
        if !(2..=3).contains(&size) {
            continue;
        }
        let stats = index
            .key_stats(&key)
            .expect("key stats")
            .expect("indexed key has stats");
        if stats.distinct_tids == 1 {
            singles.push((stats.first_tid, key));
        }
    }
    singles.sort();
    let mut queries = Vec::new();
    let (mut lo, mut hi) = (0usize, singles.len().saturating_sub(1));
    while queries.len() < n && lo < hi {
        let (tid_a, key_a) = &singles[lo];
        let (tid_b, key_b) = &singles[hi];
        lo += 1;
        hi -= 1;
        if tid_a == tid_b {
            continue; // same tree: ranges overlap, nothing to prove
        }
        let (Some(a), Some(b)) = (render_canon(key_a, interner), render_canon(key_b, interner))
        else {
            continue;
        };
        let text = format!("S(//{a})(//{b})");
        let Ok(q) = si_query::parse_query(&text, interner) else {
            continue;
        };
        queries.push((format!("sel-{}", queries.len()), q));
    }
    if queries.len() < n {
        eprintln!(
            "planner bench: only {} of {n} selective pairs available \
             ({} singleton keys in this corpus)",
            queries.len(),
            singles.len()
        );
    }
    queries
}

/// Runs the planner A/B comparison: every workload query — the
/// standard WH + FB sets plus the selective rare-pair class
/// (`selective_pair_queries`) — under the byte-ordered heuristic
/// (PR 1) and the cost-based planner (this PR's stats segment),
/// interleaved per repetition so cache drift hits both modes equally,
/// asserting identical match sets per query (join order and pruning
/// must never change results — a live equivalence check). Per-query
/// figures are the **minimum** over the timed repetitions, the
/// standard noise-robust estimator for sub-millisecond runs.
pub fn run_planner_bench(scale: Scale) -> PlannerBenchReport {
    use si_core::PlannerMode;

    let work = Workdir::new("planner");
    let n = match scale {
        Scale::Small => 5_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let mut queries: Vec<(String, Query)> = wh
        .into_iter()
        .chain(fb.into_iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    let reps = scale.reps().max(7);
    let mut rows = Vec::new();
    let mut sel_added = false;
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let dir = work.path(&format!("plan-{coding:?}"));
        let index = SubtreeIndex::build(
            &dir,
            big.trees(),
            big.interner(),
            IndexOptions::new(3, coding),
        )
        .expect("planner bench build");
        assert!(index.has_key_stats(), "build must write the stats segment");
        if !sel_added {
            // Canonical keys are coding-independent, so the pairs from
            // the first index serve all three codings.
            let mut interner = index.interner();
            queries.extend(selective_pair_queries(&index, &mut interner, 48));
            sel_added = true;
        }
        for (name, q) in &queries {
            // Warm both paths (pager + stats) before timing.
            let (warm_b, _) = measure_planner(&index, q, PlannerMode::ByteLen);
            let (warm_c, _) = measure_planner(&index, q, PlannerMode::CostBased);
            assert_eq!(
                warm_b.matches, warm_c.matches,
                "planner match-set mismatch on {name} under {coding}"
            );
            let range_pruned = warm_c.stats.range_pruned;
            let mut byte_seconds = f64::INFINITY;
            let mut cost_seconds = f64::INFINITY;
            for _ in 0..reps {
                let (rb, sb) = measure_planner(&index, q, PlannerMode::ByteLen);
                let (rc, sc) = measure_planner(&index, q, PlannerMode::CostBased);
                assert_eq!(rb.matches, rc.matches, "unstable match set on {name}");
                byte_seconds = byte_seconds.min(sb);
                cost_seconds = cost_seconds.min(sc);
            }
            rows.push(PlannerBenchRow {
                name: name.clone(),
                coding,
                matches: warm_c.matches.len(),
                byte_seconds,
                cost_seconds,
                range_pruned,
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    PlannerBenchReport { rows, reps }
}

/// Prints the planner A/B summary and writes `BENCH_planner.json` into
/// the current directory.
pub fn emit_planner_bench(scale: Scale, report: &PlannerBenchReport) -> std::io::Result<()> {
    println!("# Planner A/B: cost-based (stats segment) vs byte-length ordering");
    println!(
        "{} queries x {} reps, seed {:#x}",
        report.rows.len(),
        report.reps,
        corpus_seed()
    );
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8}",
        "coding", "queries", "byte ms", "cost ms", "speedup", "faster", "slower", "pruned"
    );
    // A query counts as faster/slower only beyond a 5% margin; the
    // rest are ties (sub-millisecond runs are noisy).
    let margin = 0.05;
    let mut summaries = Vec::new();
    let mut total_faster = 0usize;
    let mut total_byte = 0.0;
    let mut total_cost = 0.0;
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let sel: Vec<&PlannerBenchRow> =
            report.rows.iter().filter(|r| r.coding == coding).collect();
        if sel.is_empty() {
            continue;
        }
        let byte_ms: f64 = sel.iter().map(|r| r.byte_seconds).sum::<f64>() * 1e3;
        let cost_ms: f64 = sel.iter().map(|r| r.cost_seconds).sum::<f64>() * 1e3;
        let faster = sel
            .iter()
            .filter(|r| r.cost_seconds < r.byte_seconds * (1.0 - margin))
            .count();
        let slower = sel
            .iter()
            .filter(|r| r.cost_seconds > r.byte_seconds * (1.0 + margin))
            .count();
        let pruned = sel.iter().filter(|r| r.range_pruned).count();
        total_faster += faster;
        total_byte += byte_ms;
        total_cost += cost_ms;
        println!(
            "{:<18} {:>8} {:>12.3} {:>12.3} {:>8.2}x {:>8} {:>8} {:>8}",
            coding.name(),
            sel.len(),
            byte_ms,
            cost_ms,
            byte_ms / cost_ms.max(1e-9),
            faster,
            slower,
            pruned
        );
        summaries.push(format!(
            "    {{\"coding\": \"{}\", \"queries\": {}, \"byte_total_ms\": {:.4}, \
             \"cost_total_ms\": {:.4}, \"speedup\": {:.3}, \"faster\": {}, \
             \"slower\": {}, \"range_pruned\": {}}}",
            coding.name(),
            sel.len(),
            byte_ms,
            cost_ms,
            byte_ms / cost_ms.max(1e-9),
            faster,
            slower,
            pruned
        ));
    }
    let overall_speedup = total_byte / total_cost.max(1e-9);
    let faster_fraction = total_faster as f64 / report.rows.len().max(1) as f64;
    println!(
        "overall: {:.2}x total-time speedup, {}/{} queries ({:.0}%) faster by >{:.0}%",
        overall_speedup,
        total_faster,
        report.rows.len(),
        faster_fraction * 100.0,
        margin * 100.0
    );
    let byte_q = latency_quantiles(report.rows.iter().map(|r| r.byte_seconds));
    let cost_q = latency_quantiles(report.rows.iter().map(|r| r.cost_seconds));
    print_quantiles("byte-ordered latency", &byte_q);
    print_quantiles("cost-based latency", &cost_q);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"seed\": {},\n  \"reps\": {},\n  \
         \"match_sets_identical\": true,\n  \"overall_speedup\": {:.3},\n  \
         \"faster_fraction\": {:.4},\n  \"faster_margin\": {margin},\n  \
         \"latency_quantiles\": {{\"byte\": {}, \"cost\": {}}},\n  \"summary\": [\n",
        corpus_seed(),
        report.reps,
        overall_speedup,
        faster_fraction,
        quantiles_json(&byte_q),
        quantiles_json(&cost_q),
    ));
    json.push_str(&summaries.join(",\n"));
    json.push_str("\n  ],\n  \"queries\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"coding\": \"{}\", \"matches\": {}, \
             \"byte_ms\": {:.4}, \"cost_ms\": {:.4}, \"range_pruned\": {}}}{}\n",
            json_escape(&r.name),
            r.coding.name(),
            r.matches,
            r.byte_seconds * 1e3,
            r.cost_seconds * 1e3,
            r.range_pruned,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_planner.json", json)?;
    println!(
        "wrote BENCH_planner.json ({} query measurements)",
        report.rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Sharded index: parallel build + scatter-gather — BENCH_shard.json
// --------------------------------------------------------------------

/// Aggregate figures of [`run_shard_bench`].
#[derive(Debug)]
pub struct ShardBenchReport {
    /// Shard count of the sharded index.
    pub shards: usize,
    /// Worker threads used by both timed builds.
    pub workers: usize,
    /// Service worker threads.
    pub threads: usize,
    /// Repetitions of the query workload per mode.
    pub reps: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Wall seconds of `SubtreeIndex::build_parallel` (the single-file
    /// parallel build) with `workers` threads.
    pub build_mono_seconds: f64,
    /// Wall seconds of the sharded build (`workers` shard workers).
    pub build_sharded_seconds: f64,
    /// `build_mono_seconds / build_sharded_seconds`.
    pub build_speedup: f64,
    /// QPS issuing the workload one query at a time on the monolith.
    pub qps_sequential: f64,
    /// QPS through the sharded scatter-gather service.
    pub qps_sharded: f64,
    /// `qps_sharded / qps_sequential`.
    pub query_speedup: f64,
    /// Mean per-query worker latency, sequential monolith (ms).
    pub latency_ms_sequential: f64,
    /// Mean per-query worker latency, sharded service (ms).
    pub latency_ms_sharded: f64,
    /// Per-query latency quantiles, sequential monolith (every timed
    /// rep recorded into the shared `si_obs` histogram).
    pub latency_sequential: HistogramSummary,
    /// Per-query latency quantiles, sharded service workers.
    pub latency_sharded: HistogramSummary,
    /// Total shard skips across the workload (one service pass).
    pub shard_skips: u64,
    /// Queries that skipped at least one shard.
    pub queries_with_skips: usize,
    /// Summed per-shard block-cache counters after the service runs.
    pub cache: si_core::BlockCacheStats,
}

/// Benchmarks the sharded subsystem end to end: (1) wall-clock of the
/// tid-partitioned parallel shard build vs the single-file parallel
/// build over the same corpus, and (2) query throughput of the sharded
/// scatter-gather service vs one-at-a-time monolith execution —
/// asserting, per query, that the sharded index returns exactly the
/// monolith's match set (a live equivalence check; any divergence
/// panics the run).
pub fn run_shard_bench(scale: Scale, threads: usize) -> ShardBenchReport {
    use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
    use si_service::{QueryService, ServiceConfig};

    let work = Workdir::new("shard");
    // Sharding is a corpus-scale feature: below ~10k sentences the
    // monolithic build's aggregation map still fits in cache and the
    // build race is a coin flip; at this size the smaller per-shard
    // maps and sorts win even on one core (and shard workers scale on
    // real multicore).
    let n = match scale {
        Scale::Small => 30_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let queries: Vec<(String, Query)> = wh
        .into_iter()
        .chain(fb.into_iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    let reps = scale.reps().max(5);
    let shards = 4;
    let workers = threads.max(2);
    let options = IndexOptions::new(3, Coding::RootSplit);

    // ---- Build race: single-file parallel vs tid-partitioned shards,
    // same worker count, same corpus. Min-of-reps wall time (the same
    // methodology as the planner bench), with the two builds
    // *interleaved* per rep — and the order within each rep alternating
    // — so time-correlated machine noise and allocator warm-up land on
    // both sides equally; each rep builds into a fresh directory.
    let build_reps = scale.reps().max(7);
    let mut build_mono_seconds = f64::INFINITY;
    let mut build_sharded_seconds = f64::INFINITY;
    let mut mono = None;
    let mut sharded = None;
    let build_mono = |rep: usize| {
        time(|| {
            SubtreeIndex::build_parallel(
                &work.path(&format!("mono-{rep}")),
                big.trees(),
                big.interner(),
                options,
                workers,
            )
            .expect("monolithic parallel build")
        })
    };
    let build_sharded = |rep: usize| {
        time(|| {
            ShardedIndex::build(
                &work.path(&format!("sharded-{rep}")),
                big.trees(),
                big.interner(),
                options,
                ShardedBuildConfig {
                    shards,
                    workers,
                    mode: ShardBuildMode::InMemory,
                },
            )
            .expect("sharded build")
        })
    };
    for rep in 0..build_reps {
        if rep % 2 == 0 {
            let (index, secs) = build_mono(rep);
            build_mono_seconds = build_mono_seconds.min(secs);
            mono = Some(index);
            let (index, secs) = build_sharded(rep);
            build_sharded_seconds = build_sharded_seconds.min(secs);
            sharded = Some(index);
        } else {
            let (index, secs) = build_sharded(rep);
            build_sharded_seconds = build_sharded_seconds.min(secs);
            sharded = Some(index);
            let (index, secs) = build_mono(rep);
            build_mono_seconds = build_mono_seconds.min(secs);
            mono = Some(index);
        }
        // The previous rep's index copies are dead (both handles now
        // point at this rep's); delete them outside the timed closures
        // so disk residency stays at ~2 copies instead of 2×reps —
        // at Paper scale the difference is many GB.
        if rep > 0 {
            std::fs::remove_dir_all(work.path(&format!("mono-{}", rep - 1))).ok();
            std::fs::remove_dir_all(work.path(&format!("sharded-{}", rep - 1))).ok();
        }
    }
    let mono = mono.expect("at least one build rep");
    let sharded = sharded.expect("at least one build rep");
    assert_eq!(sharded.num_trees() as usize, big.trees().len());
    let sharded = std::sync::Arc::new(sharded);

    // ---- Sequential monolith baseline (also the expected answers). ----
    let mut seq_matches: Vec<Vec<(si_parsetree::TreeId, u32)>> = vec![Vec::new(); queries.len()];
    for (i, (_, q)) in queries.iter().enumerate() {
        seq_matches[i] = mono.evaluate(q).expect("sequential warmup").matches;
    }
    let mut seq_secs = 0.0f64;
    let seq_hist = Histogram::new();
    let (_, seq_wall) = time(|| {
        for _ in 0..reps {
            for (i, (_, q)) in queries.iter().enumerate() {
                let (result, secs) = time(|| mono.evaluate(q).expect("sequential evaluate"));
                seq_secs += secs;
                seq_hist.record_secs(secs);
                assert_eq!(result.matches, seq_matches[i], "unstable sequential result");
            }
        }
    });

    // ---- Sharded scatter-gather service, same workload and reps. ----
    let service = QueryService::new(
        sharded.clone(),
        ServiceConfig {
            threads,
            ..ServiceConfig::default()
        },
    );
    let query_refs: Vec<Query> = queries.iter().map(|(_, q)| q.clone()).collect();
    service.run_batch(&query_refs).expect("service warmup");
    let mut svc_secs = 0.0f64;
    let svc_hist = Histogram::new();
    let mut shard_skips = 0u64;
    let mut queries_with_skips = 0usize;
    let (_, svc_wall) = time(|| {
        for rep in 0..reps {
            let report = service.run_batch(&query_refs).expect("sharded batch");
            for (i, outcome) in report.outcomes.iter().enumerate() {
                svc_secs += outcome.seconds;
                svc_hist.record_secs(outcome.seconds);
                assert_eq!(
                    outcome.result.matches, seq_matches[i],
                    "sharded match-set mismatch on {}",
                    queries[i].0
                );
                if rep == 0 {
                    shard_skips += outcome.result.stats.shards_skipped as u64;
                    if outcome.result.stats.shards_skipped > 0 {
                        queries_with_skips += 1;
                    }
                }
            }
        }
    });

    let total = (reps * queries.len()) as f64;
    ShardBenchReport {
        shards,
        workers,
        threads,
        reps,
        queries: queries.len(),
        build_mono_seconds,
        build_sharded_seconds,
        build_speedup: build_mono_seconds / build_sharded_seconds.max(1e-9),
        qps_sequential: total / seq_wall,
        qps_sharded: total / svc_wall,
        query_speedup: seq_wall / svc_wall.max(1e-9),
        latency_ms_sequential: seq_secs * 1e3 / total,
        latency_ms_sharded: svc_secs * 1e3 / total,
        latency_sequential: seq_hist.summary(),
        latency_sharded: svc_hist.summary(),
        shard_skips,
        queries_with_skips,
        cache: service.cache_stats(),
    }
}

/// Prints the sharded-subsystem summary and writes `BENCH_shard.json`
/// into the current directory.
pub fn emit_shard_bench(scale: Scale, report: &ShardBenchReport) -> std::io::Result<()> {
    println!("# Sharded index: parallel build + scatter-gather service vs monolith");
    println!(
        "{} queries x {} reps, {} shards, {} build workers, {} service threads, seed {:#x}",
        report.queries,
        report.reps,
        report.shards,
        report.workers,
        report.threads,
        corpus_seed()
    );
    println!(
        "build: single-file parallel {:.2} s | {} shards {:.2} s | speedup {:.2}x",
        report.build_mono_seconds,
        report.shards,
        report.build_sharded_seconds,
        report.build_speedup
    );
    println!(
        "query: sequential {:.0} QPS | sharded service {:.0} QPS | speedup {:.2}x",
        report.qps_sequential, report.qps_sharded, report.query_speedup
    );
    println!(
        "shard skips: {} total across {} queries ({} queries skipped >= 1 shard)",
        report.shard_skips, report.queries, report.queries_with_skips
    );
    println!(
        "block caches: {:.1}% hit rate ({} hits / {} misses, {} evictions)",
        report.cache.hit_rate() * 100.0,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions
    );
    print_quantiles("sequential latency", &report.latency_sequential);
    print_quantiles("sharded latency", &report.latency_sharded);

    let json = format!(
        "{{\n  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"coding\": \"root-split\",\n  \
         \"seed\": {},\n  \"shards\": {},\n  \"build_workers\": {},\n  \"threads\": {},\n  \
         \"reps\": {},\n  \"queries\": {},\n  \"match_sets_identical\": true,\n  \
         \"build_mono_parallel_seconds\": {:.4},\n  \"build_sharded_seconds\": {:.4},\n  \
         \"build_speedup\": {:.3},\n  \"qps_sequential\": {:.2},\n  \"qps_sharded\": {:.2},\n  \
         \"query_speedup\": {:.3},\n  \"latency_ms_sequential\": {:.4},\n  \
         \"latency_ms_sharded\": {:.4},\n  \
         \"latency_quantiles\": {{\"sequential\": {}, \"sharded\": {}}},\n  \
         \"shard_skips\": {},\n  \
         \"queries_with_skips\": {},\n  \"cache_hit_rate\": {:.4},\n  \"cache_hits\": {},\n  \
         \"cache_misses\": {},\n  \"cache_evictions\": {}\n}}\n",
        corpus_seed(),
        report.shards,
        report.workers,
        report.threads,
        report.reps,
        report.queries,
        report.build_mono_seconds,
        report.build_sharded_seconds,
        report.build_speedup,
        report.qps_sequential,
        report.qps_sharded,
        report.query_speedup,
        report.latency_ms_sequential,
        report.latency_ms_sharded,
        quantiles_json(&report.latency_sequential),
        quantiles_json(&report.latency_sharded),
        report.shard_skips,
        report.queries_with_skips,
        report.cache.hit_rate(),
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
    );
    std::fs::write("BENCH_shard.json", json)?;
    println!("wrote BENCH_shard.json");
    Ok(())
}

// --------------------------------------------------------------------
// Zero-copy posting pipeline: BENCH_pipeline.json
// --------------------------------------------------------------------

/// One path's measurement of one query in the pipeline bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineMeasure {
    /// Minimum wall-clock seconds over the timed repetitions.
    pub seconds: f64,
    /// Peak resident posting-derived bytes.
    pub peak_posting_bytes: usize,
    /// Postings served as zero-copy borrows out of cached blocks.
    pub postings_borrowed: u64,
    /// Order enforcers avoided (plan preference + run detection).
    pub sort_exchanges_avoided: usize,
}

/// One query's figures across the three posting paths.
#[derive(Debug, Clone)]
pub struct PipelineBenchRow {
    /// Query text.
    pub name: String,
    /// Coding scheme measured.
    pub coding: Coding,
    /// Match count (asserted identical across every configuration).
    pub matches: usize,
    /// The owned pre-refactor baseline: the materializing evaluator
    /// (every posting decoded into an owned `Vec` before the joins).
    pub owned: PipelineMeasure,
    /// Borrow-based streaming without a cache (postings lent out of the
    /// cursor's reusable decode slot).
    pub streaming: PipelineMeasure,
    /// Borrow-based streaming over a pre-warmed block cache (postings
    /// lent straight out of pinned cached blocks — the zero-copy hit
    /// path).
    pub warm: PipelineMeasure,
}

/// Aggregate figures of [`run_pipeline_bench`].
#[derive(Debug)]
pub struct PipelineBenchReport {
    /// Per-query rows across all codings.
    pub rows: Vec<PipelineBenchRow>,
    /// Timed repetitions per query per path.
    pub reps: usize,
    /// Match-set equivalence checks performed (codings × executors ×
    /// planner modes × shard counts, per query).
    pub equivalence_checks: usize,
}

fn pipeline_measure(result: &si_core::eval::EvalResult, seconds: f64, acc: &mut PipelineMeasure) {
    if acc.seconds == 0.0 || seconds < acc.seconds {
        acc.seconds = seconds;
    }
    acc.peak_posting_bytes = acc.peak_posting_bytes.max(result.stats.peak_posting_bytes);
    acc.postings_borrowed = acc.postings_borrowed.max(result.stats.postings_borrowed);
    acc.sort_exchanges_avoided = acc
        .sort_exchanges_avoided
        .max(result.stats.sort_exchanges_avoided);
}

/// Runs the zero-copy pipeline bench: every workload query (WH + FB +
/// the selective rare-pair class) under the owned materializing path,
/// plain borrow-based streaming, and warm-cache zero-copy streaming,
/// with match sets asserted identical across **every** configuration —
/// 3 codings × {materialized, streaming} × {cost-based, byte-ordered}
/// × {monolith, 2-shard} — plus a live check that the sort-free plan
/// rule fires on the interval workload.
pub fn run_pipeline_bench(scale: Scale) -> PipelineBenchReport {
    use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
    use si_core::{BlockCache, BlockCacheConfig, ExecContext, PlannerMode};
    use std::sync::Arc;

    let work = Workdir::new("pipeline");
    let n = match scale {
        Scale::Small => 5_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let mut queries: Vec<(String, Query)> = wh
        .into_iter()
        .chain(fb.into_iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    let reps = scale.reps().max(5);
    let mut rows = Vec::new();
    let mut equivalence_checks = 0usize;
    let mut sel_added = false;
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let dir = work.path(&format!("pipe-{coding:?}"));
        let shard_dir = work.path(&format!("pipe-sh-{coding:?}"));
        let mut index = SubtreeIndex::build(
            &dir,
            big.trees(),
            big.interner(),
            IndexOptions::new(3, coding),
        )
        .expect("pipeline bench build");
        let sharded = ShardedIndex::build(
            &shard_dir,
            big.trees(),
            big.interner(),
            IndexOptions::new(3, coding),
            ShardedBuildConfig {
                shards: 2,
                workers: 2,
                mode: ShardBuildMode::InMemory,
            },
        )
        .expect("pipeline bench sharded build");
        if !sel_added {
            let mut interner = index.interner();
            queries.extend(selective_pair_queries(&index, &mut interner, 48));
            sel_added = true;
        }
        let cache = Arc::new(BlockCache::new(BlockCacheConfig::with_budget(128 << 20)));
        let warm_ctx = ExecContext {
            cache: Some(cache),
            ..Default::default()
        };
        for (name, q) in &queries {
            let mut owned = PipelineMeasure::default();
            let mut streaming = PipelineMeasure::default();
            let mut warm = PipelineMeasure::default();

            // Live equivalence matrix (executors × planners × shards),
            // which doubles as the warmup pass for the timed reps.
            index.set_exec_mode(si_core::ExecMode::Materialized);
            let oracle = index.evaluate(q).expect("owned evaluate").matches;
            index.set_exec_mode(si_core::ExecMode::Streaming);
            for planner in [PlannerMode::CostBased, PlannerMode::ByteLen] {
                let ctx = ExecContext {
                    planner,
                    ..Default::default()
                };
                let got = index.evaluate_with(q, &ctx).expect("streaming evaluate");
                assert_eq!(
                    got.matches, oracle,
                    "divergence: {name} {coding} streaming/{planner:?}"
                );
                equivalence_checks += 1;
                let sh = sharded
                    .evaluate_with_planner(q, planner)
                    .expect("sharded evaluate");
                assert_eq!(
                    sh.matches, oracle,
                    "divergence: {name} {coding} sharded/{planner:?}"
                );
                equivalence_checks += 1;
            }
            let warmed = index.evaluate_with(q, &warm_ctx).expect("cache warmup");
            assert_eq!(warmed.matches, oracle, "divergence: {name} {coding} cached");
            equivalence_checks += 1;

            // Timed repetitions, interleaved so drift hits all paths.
            for _ in 0..reps {
                index.set_exec_mode(si_core::ExecMode::Materialized);
                let (r, secs) = time(|| index.evaluate(q).expect("owned"));
                pipeline_measure(&r, secs, &mut owned);
                index.set_exec_mode(si_core::ExecMode::Streaming);
                let (r, secs) = time(|| index.evaluate(q).expect("streaming"));
                pipeline_measure(&r, secs, &mut streaming);
                let (r, secs) = time(|| index.evaluate_with(q, &warm_ctx).expect("warm"));
                assert_eq!(r.matches, oracle, "divergence: {name} {coding} warm rep");
                pipeline_measure(&r, secs, &mut warm);
            }
            rows.push(PipelineBenchRow {
                name: name.clone(),
                coding,
                matches: oracle.len(),
                owned,
                streaming,
                warm,
            });
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    // The sort-free plan rule must fire on the interval workload (the
    // CI smoke gate): multi-cover interval queries are root-slot
    // drivable, and a refactor that stopped avoiding their sorts would
    // zero this counter.
    let interval_avoided: usize = rows
        .iter()
        .filter(|r| r.coding == Coding::SubtreeInterval)
        .map(|r| r.warm.sort_exchanges_avoided)
        .sum();
    assert!(
        interval_avoided > 0,
        "no sort exchange avoided across the interval workload"
    );
    // Warm zero-copy scans must beat the owned path on peak resident
    // bytes for the interval coding — the refactor's headline claim.
    let (warm_peak, owned_peak) = rows
        .iter()
        .filter(|r| r.coding == Coding::SubtreeInterval)
        .fold((0usize, 0usize), |(w, o), r| {
            (
                w + r.warm.peak_posting_bytes,
                o + r.owned.peak_posting_bytes,
            )
        });
    assert!(
        (warm_peak as f64) < 0.5 * owned_peak as f64,
        "warm interval peak bytes {warm_peak} not below half of owned {owned_peak}"
    );

    PipelineBenchReport {
        rows,
        reps,
        equivalence_checks,
    }
}

/// Prints the pipeline summary and writes `BENCH_pipeline.json` into
/// the current directory.
pub fn emit_pipeline_bench(scale: Scale, report: &PipelineBenchReport) -> std::io::Result<()> {
    println!("# Zero-copy posting pipeline: owned vs borrowed vs warm-cache borrowed");
    println!(
        "{} queries x {} reps, {} equivalence checks, seed {:#x}",
        report.rows.len(),
        report.reps,
        report.equivalence_checks,
        corpus_seed()
    );
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "coding",
        "queries",
        "owned ms",
        "str ms",
        "warm ms",
        "owned KiB",
        "str KiB",
        "warm KiB",
        "borrowed",
        "avoided"
    );
    let mut summaries = Vec::new();
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let sel: Vec<&PipelineBenchRow> =
            report.rows.iter().filter(|r| r.coding == coding).collect();
        if sel.is_empty() {
            continue;
        }
        let sum = |f: &dyn Fn(&PipelineBenchRow) -> f64| -> f64 { sel.iter().map(|r| f(r)).sum() };
        let owned_ms = sum(&|r| r.owned.seconds) * 1e3;
        let str_ms = sum(&|r| r.streaming.seconds) * 1e3;
        let warm_ms = sum(&|r| r.warm.seconds) * 1e3;
        let owned_kib = sum(&|r| r.owned.peak_posting_bytes as f64) / sel.len() as f64 / 1024.0;
        let str_kib = sum(&|r| r.streaming.peak_posting_bytes as f64) / sel.len() as f64 / 1024.0;
        let warm_kib = sum(&|r| r.warm.peak_posting_bytes as f64) / sel.len() as f64 / 1024.0;
        let borrowed: u64 = sel.iter().map(|r| r.warm.postings_borrowed).sum();
        let avoided: usize = sel.iter().map(|r| r.warm.sort_exchanges_avoided).sum();
        println!(
            "{:<18} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.1} {:>10.1} {:>10.1} {:>9} {:>8}",
            coding.name(),
            sel.len(),
            owned_ms,
            str_ms,
            warm_ms,
            owned_kib,
            str_kib,
            warm_kib,
            borrowed,
            avoided
        );
        summaries.push(format!(
            "    {{\"coding\": \"{}\", \"queries\": {}, \"owned_total_ms\": {:.4}, \
             \"streaming_total_ms\": {:.4}, \"warm_total_ms\": {:.4}, \
             \"owned_mean_peak_bytes\": {:.0}, \"streaming_mean_peak_bytes\": {:.0}, \
             \"warm_mean_peak_bytes\": {:.0}, \"postings_borrowed\": {}, \
             \"sort_exchanges_avoided\": {}}}",
            coding.name(),
            sel.len(),
            owned_ms,
            str_ms,
            warm_ms,
            owned_kib * 1024.0,
            str_kib * 1024.0,
            warm_kib * 1024.0,
            borrowed,
            avoided
        ));
    }

    let owned_q = latency_quantiles(report.rows.iter().map(|r| r.owned.seconds));
    let stream_q = latency_quantiles(report.rows.iter().map(|r| r.streaming.seconds));
    let warm_q = latency_quantiles(report.rows.iter().map(|r| r.warm.seconds));
    print_quantiles("owned latency", &owned_q);
    print_quantiles("streaming latency", &stream_q);
    print_quantiles("warm latency", &warm_q);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"seed\": {},\n  \"reps\": {},\n  \
         \"match_sets_identical\": true,\n  \"equivalence_checks\": {},\n  \
         \"latency_quantiles\": {{\"owned\": {}, \"streaming\": {}, \"warm\": {}}},\n  \
         \"summary\": [\n",
        corpus_seed(),
        report.reps,
        report.equivalence_checks,
        quantiles_json(&owned_q),
        quantiles_json(&stream_q),
        quantiles_json(&warm_q),
    ));
    json.push_str(&summaries.join(",\n"));
    json.push_str("\n  ],\n  \"queries\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"coding\": \"{}\", \"matches\": {}, \
             \"owned\": {{\"ms\": {:.4}, \"peak_bytes\": {}}}, \
             \"streaming\": {{\"ms\": {:.4}, \"peak_bytes\": {}}}, \
             \"warm\": {{\"ms\": {:.4}, \"peak_bytes\": {}, \"borrowed\": {}, \"sorts_avoided\": {}}}}}{}\n",
            json_escape(&r.name),
            r.coding.name(),
            r.matches,
            r.owned.seconds * 1e3,
            r.owned.peak_posting_bytes,
            r.streaming.seconds * 1e3,
            r.streaming.peak_posting_bytes,
            r.warm.seconds * 1e3,
            r.warm.peak_posting_bytes,
            r.warm.postings_borrowed,
            r.warm.sort_exchanges_avoided,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_pipeline.json", json)?;
    println!(
        "wrote BENCH_pipeline.json ({} query measurements)",
        report.rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Seekable postings: seeking vs draining executor — BENCH_seek.json
// --------------------------------------------------------------------

/// One query's figures with restart-point seeking on vs off.
#[derive(Debug, Clone)]
pub struct SeekBenchRow {
    /// Query text id.
    pub name: String,
    /// Coding scheme measured.
    pub coding: Coding,
    /// Match count (asserted identical between modes, every rep).
    pub matches: usize,
    /// Mean seconds with seeking disabled (linear drains).
    pub drain_seconds: f64,
    /// Mean seconds with restart-point seeking enabled.
    pub seek_seconds: f64,
    /// Restart-point seeks the seeking run performed.
    pub seeks: u64,
    /// Postings the seeking run jumped without decoding.
    pub postings_skipped: u64,
}

/// Aggregate figures of [`run_seek_bench`].
#[derive(Debug)]
pub struct SeekBenchReport {
    /// Per-query rows across all codings.
    pub rows: Vec<SeekBenchRow>,
    /// Timed repetitions per query per mode.
    pub reps: usize,
}

fn measure_seek(index: &SubtreeIndex, q: &Query, seeks: bool) -> (si_core::eval::EvalResult, f64) {
    let ctx = si_core::ExecContext {
        seeks,
        ..Default::default()
    };
    let (result, secs) = time(|| index.evaluate_with(q, &ctx).expect("evaluate"));
    (result, secs)
}

/// The seek workload: `S(//X)` where `X` is a singleton index key (it
/// occurs in exactly one tree). The cover then mixes the
/// corpus-spanning `S` list with a one-tid key, so the common tid
/// range collapses to that single tree: a seeking executor jumps the
/// big list's restart blocks straight to it, while a draining executor
/// decodes every posting before it. Singletons are sampled evenly
/// across the tid space, so shallow and deep seeks both appear.
fn seek_probe_queries(
    index: &SubtreeIndex,
    interner: &mut si_parsetree::LabelInterner,
    n: usize,
) -> Vec<(String, Query)> {
    let mut singles: Vec<(si_parsetree::TreeId, Vec<u8>)> = Vec::new();
    for entry in index.iter_keys().expect("iter keys") {
        let (key, _) = entry.expect("key entry");
        let size = si_core::canonical::key_size(&key).unwrap_or(0);
        if !(2..=3).contains(&size) {
            continue;
        }
        let stats = index
            .key_stats(&key)
            .expect("key stats")
            .expect("indexed key has stats");
        if stats.distinct_tids == 1 {
            singles.push((stats.first_tid, key));
        }
    }
    singles.sort();
    singles.dedup_by_key(|(tid, _)| *tid);
    let stride = (singles.len() / n.max(1)).max(1);
    let mut queries = Vec::new();
    for (tid, key) in singles.iter().step_by(stride) {
        if queries.len() >= n {
            break;
        }
        let Some(rendered) = render_canon(key, interner) else {
            continue;
        };
        let text = format!("S(//{rendered})");
        let Ok(q) = si_query::parse_query(&text, interner) else {
            continue;
        };
        queries.push((format!("seek-{tid}"), q));
    }
    if queries.len() < n {
        eprintln!(
            "seek bench: only {} of {n} singleton probes available \
             ({} singleton keys in this corpus)",
            queries.len(),
            singles.len()
        );
    }
    queries
}

/// Runs the seek-vs-drain A/B: the selective singleton workload
/// (`seek_probe_queries`) under identical cost-based plans, with
/// restart-point seeking toggled through [`si_core::ExecContext::seeks`]
/// — same join orders, same range seeding decision, only jump-vs-drain
/// differs. Match sets are asserted identical per query on every
/// repetition (live equivalence). The run also asserts the workload
/// actually exercised the machinery: at least one seek happened and a
/// majority of probes skipped postings — the CI smoke job relies on
/// these panics to catch a silently degraded seek path.
pub fn run_seek_bench(scale: Scale) -> SeekBenchReport {
    let work = Workdir::new("seek");
    let n = match scale {
        Scale::Small => 5_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let reps = scale.reps().max(5);
    let mut rows = Vec::new();
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let dir = work.path(&format!("seek-{coding:?}"));
        let index = SubtreeIndex::build(
            &dir,
            big.trees(),
            big.interner(),
            IndexOptions::new(3, coding),
        )
        .expect("seek bench build");
        let mut interner = index.interner();
        let queries = seek_probe_queries(&index, &mut interner, 40);
        assert!(!queries.is_empty(), "seek bench needs singleton keys");
        for (name, q) in &queries {
            // Warm both paths (pager + stats caches) before timing.
            let (warm_d, _) = measure_seek(&index, q, false);
            let (warm_s, _) = measure_seek(&index, q, true);
            assert_eq!(
                warm_d.matches, warm_s.matches,
                "seek/drain match-set mismatch on {name} under {coding}"
            );
            assert_eq!(warm_d.stats.seeks, 0, "drain run must not seek ({name})");
            let mut drain_seconds = f64::INFINITY;
            let mut seek_seconds = f64::INFINITY;
            for _ in 0..reps {
                let (rd, sd) = measure_seek(&index, q, false);
                let (rs, ss) = measure_seek(&index, q, true);
                assert_eq!(rd.matches, rs.matches, "unstable match set on {name}");
                drain_seconds = drain_seconds.min(sd);
                seek_seconds = seek_seconds.min(ss);
            }
            rows.push(SeekBenchRow {
                name: name.clone(),
                coding,
                matches: warm_s.matches.len(),
                drain_seconds,
                seek_seconds,
                seeks: warm_s.stats.seeks,
                postings_skipped: warm_s.stats.postings_skipped,
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    let total_seeks: u64 = rows.iter().map(|r| r.seeks).sum();
    assert!(total_seeks > 0, "selective workload produced zero seeks");
    let with_skips = rows.iter().filter(|r| r.postings_skipped > 0).count();
    assert!(
        with_skips * 2 >= rows.len(),
        "only {with_skips}/{} probes skipped postings",
        rows.len()
    );
    SeekBenchReport { rows, reps }
}

/// Median over a slice (mean of the middle pair on even lengths).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Prints the seek A/B summary and writes `BENCH_seek.json` into the
/// current directory.
pub fn emit_seek_bench(scale: Scale, report: &SeekBenchReport) -> std::io::Result<()> {
    println!("# Seekable postings: restart-point seeks vs linear drains");
    println!(
        "{} probes x {} reps, seed {:#x}",
        report.rows.len(),
        report.reps,
        corpus_seed()
    );
    println!(
        "{:<18} {:>7} {:>12} {:>12} {:>9} {:>8} {:>12}",
        "coding", "probes", "drain ms", "seek ms", "median x", "seeks", "skipped"
    );
    let mut summaries = Vec::new();
    let mut all_speedups: Vec<f64> = Vec::new();
    for coding in [
        Coding::RootSplit,
        Coding::SubtreeInterval,
        Coding::FilterBased,
    ] {
        let sel: Vec<&SeekBenchRow> = report.rows.iter().filter(|r| r.coding == coding).collect();
        if sel.is_empty() {
            continue;
        }
        let drain_ms: f64 = sel.iter().map(|r| r.drain_seconds).sum::<f64>() * 1e3;
        let seek_ms: f64 = sel.iter().map(|r| r.seek_seconds).sum::<f64>() * 1e3;
        let mut speedups: Vec<f64> = sel
            .iter()
            .map(|r| r.drain_seconds / r.seek_seconds.max(1e-9))
            .collect();
        all_speedups.extend(speedups.iter().copied());
        let med = median(&mut speedups);
        let seeks: u64 = sel.iter().map(|r| r.seeks).sum();
        let skipped: u64 = sel.iter().map(|r| r.postings_skipped).sum();
        println!(
            "{:<18} {:>7} {:>12.3} {:>12.3} {:>8.2}x {:>8} {:>12}",
            coding.name(),
            sel.len(),
            drain_ms,
            seek_ms,
            med,
            seeks,
            skipped
        );
        summaries.push(format!(
            "    {{\"coding\": \"{}\", \"probes\": {}, \"drain_total_ms\": {:.4}, \
             \"seek_total_ms\": {:.4}, \"median_speedup\": {:.3}, \"seeks\": {}, \
             \"postings_skipped\": {}}}",
            coding.name(),
            sel.len(),
            drain_ms,
            seek_ms,
            med,
            seeks,
            skipped
        ));
    }
    let overall_median = median(&mut all_speedups);
    let with_skips = report
        .rows
        .iter()
        .filter(|r| r.postings_skipped > 0)
        .count();
    println!(
        "overall: {:.2}x median speedup, {}/{} probes skipped postings",
        overall_median,
        with_skips,
        report.rows.len()
    );

    let drain_q = latency_quantiles(report.rows.iter().map(|r| r.drain_seconds));
    let seek_q = latency_quantiles(report.rows.iter().map(|r| r.seek_seconds));
    print_quantiles("drain latency", &drain_q);
    print_quantiles("seek latency", &seek_q);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"seed\": {},\n  \"reps\": {},\n  \
         \"match_sets_identical\": true,\n  \"median_speedup\": {:.3},\n  \
         \"probes_with_skips\": {},\n  \"probes\": {},\n  \
         \"latency_quantiles\": {{\"drain\": {}, \"seek\": {}}},\n  \"summary\": [\n",
        corpus_seed(),
        report.reps,
        overall_median,
        with_skips,
        report.rows.len(),
        quantiles_json(&drain_q),
        quantiles_json(&seek_q),
    ));
    json.push_str(&summaries.join(",\n"));
    json.push_str("\n  ],\n  \"queries\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"coding\": \"{}\", \"matches\": {}, \
             \"drain_ms\": {:.4}, \"seek_ms\": {:.4}, \"seeks\": {}, \
             \"postings_skipped\": {}}}{}\n",
            json_escape(&r.name),
            r.coding.name(),
            r.matches,
            r.drain_seconds * 1e3,
            r.seek_seconds * 1e3,
            r.seeks,
            r.postings_skipped,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_seek.json", json)?;
    println!(
        "wrote BENCH_seek.json ({} query measurements)",
        report.rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Observability overhead: BENCH_obs.json
// --------------------------------------------------------------------

/// One query's figures across the three instrumentation states.
#[derive(Debug, Clone)]
pub struct ObsBenchRow {
    /// Query text id.
    pub name: String,
    /// Match count (asserted identical across every state, every rep).
    pub matches: usize,
    /// Min seconds with no `Timings` in the context at all.
    pub baseline_seconds: f64,
    /// Min seconds with a disabled `Timings` attached — the path every
    /// production query pays when tracing is compiled in but off (one
    /// branch per span site).
    pub disabled_seconds: f64,
    /// Min seconds with full span + operator collection.
    pub enabled_seconds: f64,
    /// `Σ stage_total / Σ wall` over the query's enabled reps: the
    /// fraction of measured wall time the stage partition attributes.
    pub stage_ratio: f64,
}

/// Aggregate figures of [`run_obs_bench`].
#[derive(Debug)]
pub struct ObsBenchReport {
    /// Per-query rows (interval coding).
    pub rows: Vec<ObsBenchRow>,
    /// Timed repetitions per query per state.
    pub reps: usize,
    /// `Σ disabled / Σ baseline − 1` over per-query minima.
    pub disabled_overhead: f64,
    /// `Σ enabled / Σ baseline − 1` over per-query minima.
    pub enabled_overhead: f64,
    /// `Σ stage_total / Σ wall` across every enabled rep.
    pub stage_ratio: f64,
    /// Min whole-workload batch seconds through a `QueryService` with
    /// the metrics registry off (`collect_metrics: false`).
    pub registry_off_seconds: f64,
    /// Min whole-workload batch seconds with the registry folding
    /// every query's counters in (the default).
    pub registry_on_seconds: f64,
    /// `registry_on / registry_off − 1`, gated at 2%.
    pub registry_overhead: f64,
}

/// Measures what the PR 7 instrumentation itself costs: every workload
/// query under (a) no `Timings` in the context, (b) a disabled
/// `Timings` attached, and (c) full span + operator collection —
/// interleaved per repetition so cache drift hits all three states
/// equally, with match sets asserted identical on every rep (a live
/// equivalence check). The run is also the CI overhead gate: it panics
/// if the disabled path costs more than 5% over baseline, if the
/// enabled path exceeds a 25% sanity cap, if the stage partition
/// attributes less than 90% (or more than 110%) of the enabled wall,
/// or if the PR 9 metrics registry costs the query service more than
/// 2% of batch throughput over a `collect_metrics: false` twin.
pub fn run_obs_bench(scale: Scale) -> ObsBenchReport {
    use si_core::ExecContext;

    let work = Workdir::new("obs");
    let n = match scale {
        Scale::Small => 5_000,
        Scale::Paper => 100_000,
    };
    let big = corpus(n);
    let (wh, fb) = workload(&big, 200);
    let queries: Vec<(String, Query)> = wh
        .into_iter()
        .chain(fb.into_iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    let reps = scale.reps().max(7);
    let index = SubtreeIndex::build(
        &work.path("idx"),
        big.trees(),
        big.interner(),
        IndexOptions::new(3, Coding::SubtreeInterval),
    )
    .expect("obs bench build");

    let mut rows = Vec::new();
    let mut stage_ns_total = 0u128;
    let mut wall_ns_total = 0u128;
    for (name, q) in &queries {
        // Warmup (pager + stats caches) doubling as the oracle.
        let oracle = index.evaluate(q).expect("obs warmup").matches;
        let mut baseline_seconds = f64::INFINITY;
        let mut disabled_seconds = f64::INFINITY;
        let mut enabled_seconds = f64::INFINITY;
        let mut q_stage = 0u128;
        let mut q_wall = 0u128;
        for _ in 0..reps {
            let (r, secs) = time(|| index.evaluate(q).expect("baseline evaluate"));
            assert_eq!(r.matches, oracle, "unstable baseline on {name}");
            baseline_seconds = baseline_seconds.min(secs);

            let t = Timings::new(false);
            let ctx = ExecContext {
                timings: Some(&t),
                ..ExecContext::default()
            };
            let (r, secs) = time(|| index.evaluate_with(q, &ctx).expect("disabled evaluate"));
            assert_eq!(
                r.matches, oracle,
                "disabled instrumentation changed the answer on {name}"
            );
            disabled_seconds = disabled_seconds.min(secs);
            assert_eq!(
                t.snapshot().stage_total(),
                0,
                "disabled timings recorded spans on {name}"
            );

            let t = Timings::new(true);
            let ctx = ExecContext {
                timings: Some(&t),
                ..ExecContext::default()
            };
            let (r, secs) = time(|| index.evaluate_with(q, &ctx).expect("enabled evaluate"));
            assert_eq!(
                r.matches, oracle,
                "enabled instrumentation changed the answer on {name}"
            );
            enabled_seconds = enabled_seconds.min(secs);
            q_stage += t.snapshot().stage_total() as u128;
            q_wall += ((secs * 1e9) as u128).max(1);
        }
        stage_ns_total += q_stage;
        wall_ns_total += q_wall;
        rows.push(ObsBenchRow {
            name: name.clone(),
            matches: oracle.len(),
            baseline_seconds,
            disabled_seconds,
            enabled_seconds,
            stage_ratio: q_stage as f64 / q_wall.max(1) as f64,
        });
    }

    let sum = |f: &dyn Fn(&ObsBenchRow) -> f64| -> f64 { rows.iter().map(f).sum() };
    let baseline = sum(&|r| r.baseline_seconds).max(1e-12);
    let disabled_overhead = sum(&|r| r.disabled_seconds) / baseline - 1.0;
    let enabled_overhead = sum(&|r| r.enabled_seconds) / baseline - 1.0;
    let stage_ratio = stage_ns_total as f64 / wall_ns_total.max(1) as f64;
    assert!(
        disabled_overhead < 0.05,
        "disabled-instrumentation overhead {:.2}% exceeds the 5% gate",
        disabled_overhead * 100.0
    );
    assert!(
        enabled_overhead < 0.25,
        "enabled-instrumentation overhead {:.2}% exceeds the 25% sanity cap",
        enabled_overhead * 100.0
    );
    assert!(
        (0.9..=1.1).contains(&stage_ratio),
        "stage partition attributes {:.1}% of the enabled wall (gate: 90-110%)",
        stage_ratio * 100.0
    );

    // Registry-spine overhead: the same workload batched through two
    // otherwise-identical query services, one folding every query into
    // the process-wide metrics registry (the default) and one with
    // `collect_metrics: false`. Reps interleave so cache drift hits
    // both states equally; min-of-reps total wall is compared.
    let batch: Vec<Query> = queries.iter().map(|(_, q)| q.clone()).collect();
    let service_with = |collect_metrics: bool| {
        si_service::QueryService::open(
            &work.path("idx"),
            si_service::ServiceConfig {
                threads: 4,
                collect_metrics,
                ..si_service::ServiceConfig::default()
            },
        )
        .expect("obs bench service open")
    };
    let on = service_with(true);
    let off = service_with(false);
    // Warm both services' caches before timing.
    on.run_batch(&batch).expect("registry warmup (on)");
    off.run_batch(&batch).expect("registry warmup (off)");
    let mut registry_on_seconds = f64::INFINITY;
    let mut registry_off_seconds = f64::INFINITY;
    for _ in 0..reps {
        let (report_on, secs) = time(|| on.run_batch(&batch).expect("registry-on batch"));
        registry_on_seconds = registry_on_seconds.min(secs);
        let (report_off, secs) = time(|| off.run_batch(&batch).expect("registry-off batch"));
        registry_off_seconds = registry_off_seconds.min(secs);
        // Live equivalence check: metrics must never change answers.
        for ((a, b), (_, q)) in report_on
            .outcomes
            .iter()
            .zip(&report_off.outcomes)
            .zip(&queries)
        {
            assert_eq!(
                a.result.matches, b.result.matches,
                "metrics registry changed the answer on {q:?}"
            );
        }
    }
    let registry_overhead = registry_on_seconds / registry_off_seconds.max(1e-12) - 1.0;
    assert!(
        registry_overhead < 0.02,
        "metrics-registry overhead {:.2}% exceeds the 2% gate \
         (on {:.3} ms vs off {:.3} ms)",
        registry_overhead * 100.0,
        registry_on_seconds * 1e3,
        registry_off_seconds * 1e3
    );

    ObsBenchReport {
        rows,
        reps,
        disabled_overhead,
        enabled_overhead,
        stage_ratio,
        registry_off_seconds,
        registry_on_seconds,
        registry_overhead,
    }
}

/// Prints the instrumentation-overhead summary and writes
/// `BENCH_obs.json` into the current directory.
pub fn emit_obs_bench(scale: Scale, report: &ObsBenchReport) -> std::io::Result<()> {
    println!("# Observability overhead: no timings vs disabled vs enabled instrumentation");
    println!(
        "{} queries x {} reps, interval coding, seed {:#x}",
        report.rows.len(),
        report.reps,
        corpus_seed()
    );
    let sum = |f: &dyn Fn(&ObsBenchRow) -> f64| -> f64 { report.rows.iter().map(f).sum() };
    let baseline_ms = sum(&|r| r.baseline_seconds) * 1e3;
    let disabled_ms = sum(&|r| r.disabled_seconds) * 1e3;
    let enabled_ms = sum(&|r| r.enabled_seconds) * 1e3;
    println!(
        "baseline {:.3} ms | disabled {:.3} ms ({:+.2}%) | enabled {:.3} ms ({:+.2}%)",
        baseline_ms,
        disabled_ms,
        report.disabled_overhead * 100.0,
        enabled_ms,
        report.enabled_overhead * 100.0
    );
    println!(
        "stage partition attributes {:.1}% of the enabled wall",
        report.stage_ratio * 100.0
    );
    println!(
        "metrics registry: batch {:.3} ms on vs {:.3} ms off ({:+.2}%, gate < 2%)",
        report.registry_on_seconds * 1e3,
        report.registry_off_seconds * 1e3,
        report.registry_overhead * 100.0
    );
    let base_q = latency_quantiles(report.rows.iter().map(|r| r.baseline_seconds));
    let dis_q = latency_quantiles(report.rows.iter().map(|r| r.disabled_seconds));
    let en_q = latency_quantiles(report.rows.iter().map(|r| r.enabled_seconds));
    print_quantiles("baseline latency", &base_q);
    print_quantiles("disabled latency", &dis_q);
    print_quantiles("enabled latency", &en_q);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"coding\": \"interval\",\n  \
         \"seed\": {},\n  \"reps\": {},\n  \"match_sets_identical\": true,\n  \
         \"baseline_total_ms\": {:.4},\n  \"disabled_total_ms\": {:.4},\n  \
         \"enabled_total_ms\": {:.4},\n  \"disabled_overhead\": {:.5},\n  \
         \"enabled_overhead\": {:.5},\n  \"stage_sum_ratio\": {:.4},\n  \
         \"registry_on_batch_ms\": {:.4},\n  \"registry_off_batch_ms\": {:.4},\n  \
         \"registry_overhead\": {:.5},\n  \"registry_gate\": 0.02,\n  \
         \"latency_quantiles\": {{\"baseline\": {}, \"disabled\": {}, \"enabled\": {}}},\n  \
         \"queries\": [\n",
        corpus_seed(),
        report.reps,
        baseline_ms,
        disabled_ms,
        enabled_ms,
        report.disabled_overhead,
        report.enabled_overhead,
        report.stage_ratio,
        report.registry_on_seconds * 1e3,
        report.registry_off_seconds * 1e3,
        report.registry_overhead,
        quantiles_json(&base_q),
        quantiles_json(&dis_q),
        quantiles_json(&en_q),
    ));
    for (i, r) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"matches\": {}, \"baseline_ms\": {:.4}, \
             \"disabled_ms\": {:.4}, \"enabled_ms\": {:.4}, \"stage_ratio\": {:.4}}}{}\n",
            json_escape(&r.name),
            r.matches,
            r.baseline_seconds * 1e3,
            r.disabled_seconds * 1e3,
            r.enabled_seconds * 1e3,
            r.stage_ratio,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_obs.json", json)?;
    println!(
        "wrote BENCH_obs.json ({} query measurements)",
        report.rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Result cache: Zipfian replay with interleaved ingests
// --------------------------------------------------------------------

/// One skew point of the hit-rate sweep (fresh cache, no ingests).
pub struct CacheSkewRow {
    /// Zipf exponent `s` of the replayed stream.
    pub skew: f64,
    /// Events replayed at this skew.
    pub events: usize,
    /// Fraction of events answered entirely from the cache.
    pub hit_rate: f64,
}

/// Figures of the result-cache replay (`BENCH_cache.json`).
pub struct CacheBenchReport {
    /// Shards of the replayed index.
    pub shards: usize,
    /// Events in the main (ingest-interleaved) stream.
    pub events: usize,
    /// Ingests interleaved into the stream.
    pub ingests: usize,
    /// Distinct queries in the Zipf-ranked pool.
    pub pool: usize,
    /// Whole-query cache hits across the main stream.
    pub result_hits: u64,
    /// Queries that evaluated at least one shard.
    pub result_misses: u64,
    /// Negative-entry probes that answered a shard.
    pub negative_hits: u64,
    /// Cached shard partials reused by miss queries — nonzero proves
    /// an ingest invalidated only the shards it touched.
    pub partial_reuses: u64,
    /// `result_hits / events` of the main stream.
    pub warm_hit_rate: f64,
    /// Median wall milliseconds of miss (evaluating) events.
    pub cold_median_ms: f64,
    /// Median wall milliseconds of whole-query-hit events.
    pub warm_median_ms: f64,
    /// `cold_median_ms / warm_median_ms`.
    pub warm_speedup: f64,
    /// Latency quantiles of miss events.
    pub cold: HistogramSummary,
    /// Latency quantiles of hit events.
    pub warm: HistogramSummary,
    /// Hit rate vs Zipf exponent, fresh cache per point.
    pub skew_rows: Vec<CacheSkewRow>,
    /// Cache counters after the main stream.
    pub cache: si_core::ResultCacheStats,
}

/// Samples ranks `0..k` with `P(r) ∝ 1/(r+1)^s`: precomputed harmonic
/// CDF, binary search per draw.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for r in 1..=k {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut si_corpus::rng::StdRng) -> usize {
        let total = *self.cdf.last().expect("nonempty rank pool");
        let u = rng.gen::<f64>() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Replays a Zipfian (s = 1.0) query stream with interleaved ingests
/// through the cached sharded service, asserting byte-identical match
/// sets against the uncached scatter-gather evaluator on **every**
/// event. Panics if no shard partial was reused after an ingest, if
/// the warm hit rate falls below the floor, or if whole-query hits are
/// not at least 10x faster than evaluating misses at the median.
pub fn run_cache_bench(scale: Scale, threads: usize) -> CacheBenchReport {
    use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
    use si_core::{ResultCache, ResultCacheConfig};
    use si_corpus::rng::StdRng;
    use si_service::{QueryService, ServiceConfig};
    use std::sync::Arc;

    let work = Workdir::new("cache");
    let n = match scale {
        Scale::Small => 8_000,
        Scale::Paper => 50_000,
    };
    let big = corpus(n);
    let trees = big.trees();
    let (wh, fb) = workload(&big, 200);
    let pool: Vec<(String, Query)> = wh
        .into_iter()
        .chain(fb.into_iter().map(|(c, s, q)| (format!("fb-{c}-{s}"), q)))
        .collect();
    let mut rng = StdRng::seed_from_u64(corpus_seed() ^ 0xCAC4E);
    // Shuffle the rank→query assignment so Zipf popularity is not
    // correlated with the workload's construction order.
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }

    let shards = 4;
    let ingest_target = 3usize;
    let chunk = n / 20;
    let initial = n - ingest_target * chunk;
    let dir = work.path("idx");
    ShardedIndex::build(
        &dir,
        &trees[..initial],
        big.interner(),
        IndexOptions::new(3, Coding::RootSplit),
        ShardedBuildConfig {
            shards,
            workers: threads.max(2),
            mode: ShardBuildMode::InMemory,
        },
    )
    .expect("cache bench build");
    let config = ServiceConfig {
        threads,
        ..ServiceConfig::default()
    };
    let open = |cache: &Arc<ResultCache>| {
        QueryService::new(
            Arc::new(ShardedIndex::open(&dir).expect("reopen index")),
            config,
        )
        .with_result_cache(cache.clone())
    };

    // ---- Main stream: Zipf(1.0) replay with interleaved ingests. ----
    let events = match scale {
        Scale::Small => 600,
        Scale::Paper => 4_000,
    };
    let zipf = Zipf::new(pool.len(), 1.0);
    let cache = Arc::new(ResultCache::new(ResultCacheConfig::with_budget(32 << 20)));
    let mut service = open(&cache);
    let mut ingested = initial;
    let mut ingests = 0usize;
    let (mut hits, mut misses, mut negs, mut partials) = (0u64, 0u64, 0u64, 0u64);
    let mut cold_seconds: Vec<f64> = Vec::new();
    let mut warm_seconds: Vec<f64> = Vec::new();
    let cold_hist = Histogram::new();
    let warm_hist = Histogram::new();
    for e in 0..events {
        if e > 0 && e % (events / (ingest_target + 1)) == 0 && ingested + chunk <= n {
            let mut writer = ShardedIndex::open(&dir).expect("reopen for ingest");
            writer
                .ingest(&trees[ingested..ingested + chunk], big.interner())
                .expect("interleaved ingest");
            ingested += chunk;
            ingests += 1;
            // The cache outlives the service: reopening over the grown
            // manifest keeps every untouched shard's partials valid.
            service = open(&cache);
        }
        let (name, q) = &pool[order[zipf.sample(&mut rng)]];
        let (report, secs) = time(|| {
            service
                .run_batch(std::slice::from_ref(q))
                .expect("cache replay batch")
        });
        let outcome = &report.outcomes[0];
        // Live oracle: the uncached scatter-gather evaluator over the
        // exact same index state.
        let oracle = service.index().evaluate(q).expect("oracle evaluate");
        assert_eq!(
            outcome.result.matches, oracle.matches,
            "cached replay diverged from the oracle on {name} (event {e})"
        );
        let s = &outcome.result.stats;
        hits += s.result_hits;
        misses += s.result_misses;
        negs += s.negative_hits;
        partials += s.partial_reuses;
        if s.result_hits > 0 {
            warm_seconds.push(secs);
            warm_hist.record_secs(secs);
        } else if s.result_misses > 0 {
            cold_seconds.push(secs);
            cold_hist.record_secs(secs);
        }
        // A cold query every shard skip-pruned involves no evaluation
        // and no cache — it belongs to neither latency population.
    }
    assert_eq!(ingests, ingest_target, "stream too short for the ingests");
    assert!(
        partials > 0,
        "no shard partial was reused across {ingests} ingests — epoch \
         invalidation is discarding untouched shards"
    );
    let warm_hit_rate = hits as f64 / events as f64;
    assert!(
        warm_hit_rate >= 0.4,
        "warm hit rate {warm_hit_rate:.3} below the 0.4 floor on a \
         Zipf(1.0) stream of {events} events over {} queries",
        pool.len()
    );
    let cold_median_ms = median(&mut cold_seconds) * 1e3;
    let warm_median_ms = median(&mut warm_seconds) * 1e3;
    let warm_speedup = cold_median_ms / warm_median_ms.max(1e-9);
    assert!(
        warm_speedup >= 10.0,
        "median warm hit ({warm_median_ms:.4} ms) is only {warm_speedup:.1}x \
         faster than a median evaluating miss ({cold_median_ms:.4} ms); \
         the gate is 10x"
    );

    // ---- Hit rate vs skew: fresh cache per point, no ingests. ----
    let sweep_events = match scale {
        Scale::Small => 400,
        Scale::Paper => 2_000,
    };
    let mut skew_rows = Vec::new();
    for skew in [0.2, 0.6, 1.0, 1.4] {
        let zipf = Zipf::new(pool.len(), skew);
        let fresh = Arc::new(ResultCache::new(ResultCacheConfig::with_budget(32 << 20)));
        let service = open(&fresh);
        let mut skew_hits = 0u64;
        for _ in 0..sweep_events {
            let (_, q) = &pool[order[zipf.sample(&mut rng)]];
            let report = service
                .run_batch(std::slice::from_ref(q))
                .expect("skew sweep batch");
            skew_hits += report.outcomes[0].result.stats.result_hits;
        }
        skew_rows.push(CacheSkewRow {
            skew,
            events: sweep_events,
            hit_rate: skew_hits as f64 / sweep_events as f64,
        });
    }

    CacheBenchReport {
        shards,
        events,
        ingests,
        pool: pool.len(),
        result_hits: hits,
        result_misses: misses,
        negative_hits: negs,
        partial_reuses: partials,
        warm_hit_rate,
        cold_median_ms,
        warm_median_ms,
        warm_speedup,
        cold: cold_hist.summary(),
        warm: warm_hist.summary(),
        skew_rows,
        cache: cache.stats(),
    }
}

/// Prints the result-cache replay summary and writes
/// `BENCH_cache.json` into the current directory.
pub fn emit_cache_bench(scale: Scale, report: &CacheBenchReport) -> std::io::Result<()> {
    println!("# Result cache: Zipfian replay with shard-epoch invalidation");
    println!(
        "{} events over {} queries, {} shards, {} interleaved ingests, seed {:#x}",
        report.events,
        report.pool,
        report.shards,
        report.ingests,
        corpus_seed()
    );
    println!(
        "warm hit rate {:.1}% ({} hits / {} misses, {} negative shard hits, \
         {} shard partials reused across ingests)",
        report.warm_hit_rate * 100.0,
        report.result_hits,
        report.result_misses,
        report.negative_hits,
        report.partial_reuses,
    );
    println!(
        "median latency: miss {:.4} ms, hit {:.4} ms ({:.0}x)",
        report.cold_median_ms, report.warm_median_ms, report.warm_speedup
    );
    print_quantiles("miss latency", &report.cold);
    print_quantiles("hit latency", &report.warm);
    for row in &report.skew_rows {
        println!(
            "  zipf s={:.1}: {:.1}% hit rate over {} events",
            row.skew,
            row.hit_rate * 100.0,
            row.events
        );
    }
    let c = &report.cache;
    println!(
        "cache: {} insertions, {} evictions, {} KiB resident (peak {} KiB)",
        c.insertions,
        c.evictions,
        c.current_bytes >> 10,
        c.peak_bytes >> 10,
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"seed\": {},\n  \"shards\": {},\n  \
         \"events\": {},\n  \"ingests\": {},\n  \"pool_queries\": {},\n  \
         \"zipf_s\": 1.0,\n  \"match_sets_identical\": true,\n  \
         \"result_hits\": {},\n  \"result_misses\": {},\n  \
         \"negative_hits\": {},\n  \"partial_reuses\": {},\n  \
         \"warm_hit_rate\": {:.4},\n  \"cold_median_ms\": {:.4},\n  \
         \"warm_median_ms\": {:.4},\n  \"warm_speedup\": {:.2},\n  \
         \"latency_quantiles\": {{\"miss\": {}, \"hit\": {}}},\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"negative_hits\": {}, \
         \"insertions\": {}, \"evictions\": {}, \"current_bytes\": {}, \
         \"peak_bytes\": {}}},\n  \"skew_sweep\": [\n",
        corpus_seed(),
        report.shards,
        report.events,
        report.ingests,
        report.pool,
        report.result_hits,
        report.result_misses,
        report.negative_hits,
        report.partial_reuses,
        report.warm_hit_rate,
        report.cold_median_ms,
        report.warm_median_ms,
        report.warm_speedup,
        quantiles_json(&report.cold),
        quantiles_json(&report.warm),
        report.cache.hits,
        report.cache.misses,
        report.cache.negative_hits,
        report.cache.insertions,
        report.cache.evictions,
        report.cache.current_bytes,
        report.cache.peak_bytes,
    ));
    for (i, row) in report.skew_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"s\": {:.1}, \"events\": {}, \"hit_rate\": {:.4}}}{}\n",
            row.skew,
            row.events,
            row.hit_rate,
            if i + 1 == report.skew_rows.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_cache.json", json)?;
    println!(
        "wrote BENCH_cache.json ({} skew points)",
        report.skew_rows.len()
    );
    Ok(())
}

// --------------------------------------------------------------------
// Overlapped posting I/O: BENCH_prefetch.json
// --------------------------------------------------------------------

/// One scan-heavy query's figures in the cold buffered A/B.
#[derive(Debug, Clone)]
pub struct PrefetchBenchRow {
    /// Query text id (`scan-<rank>` by posting count).
    pub name: String,
    /// Match count (asserted identical across every arm, every rep).
    pub matches: usize,
    /// Postings on the cover key (workload context).
    pub postings: u64,
    /// Min seconds on a fresh buffered pager with prefetch on.
    pub cold_on_seconds: f64,
    /// Min seconds on a fresh buffered pager with prefetch off.
    pub cold_off_seconds: f64,
    /// Prefetch hints issued on one cold prefetch-on rep.
    pub hints: u64,
    /// Prefetched pages this query consumed on that rep.
    pub useful: u64,
}

/// Aggregate figures of [`run_prefetch_bench`].
#[derive(Debug)]
pub struct PrefetchBenchReport {
    /// Per-query rows (interval coding, cold buffered arm).
    pub rows: Vec<PrefetchBenchRow>,
    /// Timed repetitions per query per state.
    pub reps: usize,
    /// Median over rows of `cold_off / cold_on`. Reported, not gated:
    /// a posting list is one ascending extent of the file, so the
    /// kernel's readahead already serves the prefetch-off consumer.
    pub cold_median_speedup: f64,
    /// Min seconds for a full warm pass (pager LRU + block cache hot,
    /// prefetch on: every hint suppressed by the cache-residency check).
    pub warm_on_seconds: f64,
    /// Min seconds for the same warm pass with prefetch disabled (the
    /// one-atomic-branch path every site pays when the feature is off).
    pub warm_off_seconds: f64,
    /// `warm_on / warm_off - 1` (the CI gate: <= 0.02 either way).
    pub warm_overhead: f64,
    /// Min seconds for a full pass on fresh mmap opens, prefetch on
    /// (touch reads). Zero when the platform cannot map.
    pub mmap_on_seconds: f64,
    /// Min seconds for the same mmap pass with prefetch off.
    pub mmap_off_seconds: f64,
}

/// Drops the OS page cache for `path` (best effort, unix only). The
/// cold-cache arm must not be served from the kernel's cache: a cached
/// "cold" read collapses into a memcpy and leaves no I/O latency for
/// the prefetcher to overlap, so every cold measurement evicts the
/// index file first and both states pay real block-layer reads.
#[cfg(unix)]
fn drop_page_cache(path: &std::path::Path) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
    }
    const POSIX_FADV_DONTNEED: i32 = 4;
    let Ok(f) = std::fs::File::open(path) else {
        return;
    };
    // Only clean pages are droppable; the file was written moments ago.
    let _ = f.sync_all();
    // SAFETY: plain advice on an owned, open fd; no memory is touched.
    unsafe {
        posix_fadvise(f.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED);
    }
}

#[cfg(not(unix))]
fn drop_page_cache(_path: &std::path::Path) {}

/// The prefetch workload: `S(//X)` where `X` ranks among the most
/// frequent small index keys, so the cover is a single long posting
/// list drained end to end — heap-extent I/O dominates and the
/// prefetcher's batched, overlapped reads have something to hide.
fn prefetch_probe_queries(
    index: &SubtreeIndex,
    interner: &mut si_parsetree::LabelInterner,
    n: usize,
) -> Vec<(String, Query, u64)> {
    let mut heavy: Vec<(u64, Vec<u8>)> = Vec::new();
    for entry in index.iter_keys().expect("iter keys") {
        let (key, _) = entry.expect("key entry");
        let size = si_core::canonical::key_size(&key).unwrap_or(0);
        if !(1..=2).contains(&size) {
            continue;
        }
        let stats = index
            .key_stats(&key)
            .expect("key stats")
            .expect("indexed key has stats");
        heavy.push((stats.postings, key));
    }
    heavy.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut queries = Vec::new();
    for (postings, key) in &heavy {
        if queries.len() >= n {
            break;
        }
        let Some(rendered) = render_canon(key, interner) else {
            continue;
        };
        let text = format!("S(//{rendered})");
        let Ok(q) = si_query::parse_query(&text, interner) else {
            continue;
        };
        queries.push((format!("scan-{}", queries.len()), q, *postings));
    }
    queries
}

/// Runs the overlapped-I/O A/B on three read paths, interleaving
/// prefetch-on and prefetch-off repetitions (state order flips every
/// rep so drift hits both sides equally):
///
/// - **cold buffered** — every measurement reopens the index through
///   the buffered pager, so the page LRU starts empty and each posting
///   page costs a positioned read; prefetch collapses those into
///   batched worker-side reads ahead of the consumer. Per-query rows
///   and their median ratio are reported, not gated: the consumer
///   reads ascending extents, which the kernel's readahead serves
///   whether or not the workers get there first.
/// - **fully warm** — one buffered index plus a shared block cache,
///   warmed until no rep touches the disk. Prefetch-on reps exercise
///   the hints-suppressed path (cache residency checked before every
///   hint), prefetch-off reps the disabled path; the `<= 2%` overhead
///   gate bounds on-vs-off.
/// - **mmap** — fresh read-only mapped opens; prefetch degrades to
///   madvise-style touch reads. Reported, not gated (the OS page cache
///   cannot be dropped portably, so cold mapped numbers are advisory).
///
/// Match sets are asserted identical against a prefetch-off baseline on
/// every repetition of every arm, and the cold arm asserts hints were
/// issued (on), consumed (on, across the suite), and absent (off) —
/// the CI smoke job relies on these panics.
pub fn run_prefetch_bench(scale: Scale) -> PrefetchBenchReport {
    let work = Workdir::new("prefetch");
    let n = scale.query_corpus();
    let big = corpus(n);
    let reps = scale.reps().max(5);
    let dir = work.path("prefetch-idx");
    let built = SubtreeIndex::build(
        &dir,
        big.trees(),
        big.interner(),
        IndexOptions::new(3, Coding::SubtreeInterval),
    )
    .expect("prefetch bench build");
    let mut interner = built.interner();
    let queries = prefetch_probe_queries(&built, &mut interner, 12);
    assert!(
        queries.len() >= 4,
        "prefetch bench needs scan-heavy probes, found {}",
        queries.len()
    );
    drop(built); // every timed arm reopens through its own pager

    let was_enabled = si_storage::prefetch_enabled();
    let ctx = si_core::ExecContext::default();

    // Baseline match sets: buffered, prefetch off.
    si_storage::set_prefetch_enabled(false);
    let baseline: Vec<_> = {
        let index = SubtreeIndex::open_buffered(&dir).expect("open buffered");
        assert!(!index.is_mapped(), "open_buffered must not map");
        queries
            .iter()
            .map(|(_, q, _)| index.evaluate_with(q, &ctx).expect("evaluate").matches)
            .collect()
    };

    // Cold buffered arm: fresh pager LRU per measurement.
    let mut cold_on = vec![f64::INFINITY; queries.len()];
    let mut cold_off = vec![f64::INFINITY; queries.len()];
    let mut hints = vec![0u64; queries.len()];
    let mut useful = vec![0u64; queries.len()];
    for rep in 0..reps {
        let states = if rep % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for (qi, (name, q, _)) in queries.iter().enumerate() {
            for on in states {
                si_storage::set_prefetch_enabled(on);
                drop_page_cache(&dir.join("index.bt"));
                let index = SubtreeIndex::open_buffered(&dir).expect("open buffered");
                let (result, secs) = time(|| index.evaluate_with(q, &ctx).expect("evaluate"));
                assert_eq!(
                    result.matches, baseline[qi],
                    "prefetch changed the match set on {name} (cold, on={on})"
                );
                if on {
                    assert!(
                        result.stats.prefetch_hints > 0,
                        "no prefetch hints on cold {name}"
                    );
                    hints[qi] = hints[qi].max(result.stats.prefetch_hints);
                    useful[qi] = useful[qi].max(result.stats.prefetch_useful);
                    cold_on[qi] = cold_on[qi].min(secs);
                } else {
                    assert_eq!(
                        result.stats.prefetch_hints, 0,
                        "hints issued while disabled on {name}"
                    );
                    cold_off[qi] = cold_off[qi].min(secs);
                }
            }
        }
    }
    assert!(
        useful.iter().sum::<u64>() > 0,
        "cold prefetch-on runs consumed zero prefetched pages"
    );

    // Fully warm arm: one buffered pager + a shared block cache.
    let mut warm_on = f64::INFINITY;
    let mut warm_off = f64::INFINITY;
    {
        let index = SubtreeIndex::open_buffered(&dir).expect("open buffered");
        let cache = std::sync::Arc::new(si_core::BlockCache::new(
            si_core::BlockCacheConfig::default(),
        ));
        let warm_ctx = si_core::ExecContext {
            cache: Some(cache),
            ..Default::default()
        };
        si_storage::set_prefetch_enabled(false);
        for _ in 0..2 {
            for (qi, (name, q, _)) in queries.iter().enumerate() {
                let r = index.evaluate_with(q, &warm_ctx).expect("evaluate");
                assert_eq!(r.matches, baseline[qi], "warm-up diverged on {name}");
            }
        }
        // Warm + on: hints may still be issued (a hint is just an async
        // request), but a fully-resident pager must never actually load
        // a page ahead of anyone — "warm lists cost nothing" means zero
        // prefetched pages consumed.
        si_storage::set_prefetch_enabled(true);
        let (_, q, _) = &queries[0];
        let r = index.evaluate_with(q, &warm_ctx).expect("evaluate");
        assert_eq!(
            r.stats.prefetch_useful, 0,
            "warm query consumed prefetched pages"
        );
        // Twice the cold reps: the 2% gate compares two ~equal minima,
        // so the noise floor has to be tighter than the gate.
        for rep in 0..reps * 2 {
            let states = if rep % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for on in states {
                si_storage::set_prefetch_enabled(on);
                let (got, secs) = time(|| {
                    queries
                        .iter()
                        .map(|(_, q, _)| {
                            index.evaluate_with(q, &warm_ctx).expect("evaluate").matches
                        })
                        .collect::<Vec<_>>()
                });
                for (qi, m) in got.iter().enumerate() {
                    assert_eq!(m, &baseline[qi], "warm pass diverged (on={on})");
                }
                if on {
                    warm_on = warm_on.min(secs);
                } else {
                    warm_off = warm_off.min(secs);
                }
            }
        }
    }

    // Mmap arm: fresh read-only mapped opens, touch-read hints.
    let mut mmap_on = f64::INFINITY;
    let mut mmap_off = f64::INFINITY;
    let mapped = SubtreeIndex::open(&dir)
        .map(|i| i.is_mapped())
        .unwrap_or(false);
    if mapped {
        for rep in 0..reps {
            let states = if rep % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for on in states {
                si_storage::set_prefetch_enabled(on);
                drop_page_cache(&dir.join("index.bt"));
                let index = SubtreeIndex::open(&dir).expect("open mapped");
                let (got, secs) = time(|| {
                    queries
                        .iter()
                        .map(|(_, q, _)| index.evaluate_with(q, &ctx).expect("evaluate").matches)
                        .collect::<Vec<_>>()
                });
                for (qi, m) in got.iter().enumerate() {
                    assert_eq!(m, &baseline[qi], "mmap pass diverged (on={on})");
                }
                if on {
                    mmap_on = mmap_on.min(secs);
                } else {
                    mmap_off = mmap_off.min(secs);
                }
            }
        }
    } else {
        mmap_on = 0.0;
        mmap_off = 0.0;
        eprintln!("prefetch bench: mmap unavailable, skipping the mapped arm");
    }
    si_storage::set_prefetch_enabled(was_enabled);

    let rows: Vec<PrefetchBenchRow> = queries
        .iter()
        .enumerate()
        .map(|(qi, (name, _, postings))| PrefetchBenchRow {
            name: name.clone(),
            matches: baseline[qi].len(),
            postings: *postings,
            cold_on_seconds: cold_on[qi],
            cold_off_seconds: cold_off[qi],
            hints: hints[qi],
            useful: useful[qi],
        })
        .collect();
    let mut speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.cold_off_seconds / r.cold_on_seconds.max(1e-9))
        .collect();
    let cold_median_speedup = median(&mut speedups);
    let warm_overhead = warm_on / warm_off.max(1e-9) - 1.0;
    assert!(
        warm_overhead <= 0.02,
        "warm/disabled prefetch overhead {:.2}% over the 2% gate",
        warm_overhead * 100.0
    );
    PrefetchBenchReport {
        rows,
        reps,
        cold_median_speedup,
        warm_on_seconds: warm_on,
        warm_off_seconds: warm_off,
        warm_overhead,
        mmap_on_seconds: mmap_on,
        mmap_off_seconds: mmap_off,
    }
}

/// Prints the overlapped-I/O A/B summary and writes
/// `BENCH_prefetch.json` into the current directory.
pub fn emit_prefetch_bench(scale: Scale, report: &PrefetchBenchReport) -> std::io::Result<()> {
    println!("# Overlapped posting I/O: prefetch on vs off");
    println!(
        "{} probes x {} reps per state, seed {:#x}",
        report.rows.len(),
        report.reps,
        corpus_seed()
    );
    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>12} {:>9} {:>7} {:>7}",
        "query", "postings", "matches", "cold off ms", "cold on ms", "speedup", "hints", "useful"
    );
    for r in &report.rows {
        println!(
            "{:<10} {:>9} {:>10} {:>12.3} {:>12.3} {:>8.2}x {:>7} {:>7}",
            r.name,
            r.postings,
            r.matches,
            r.cold_off_seconds * 1e3,
            r.cold_on_seconds * 1e3,
            r.cold_off_seconds / r.cold_on_seconds.max(1e-9),
            r.hints,
            r.useful
        );
    }
    println!(
        "cold buffered: {:.2}x median speedup (reported, not gated)",
        report.cold_median_speedup
    );
    println!(
        "fully warm:    {:.3} ms on vs {:.3} ms off per pass, {:+.2}% overhead (gate <= 2%)",
        report.warm_on_seconds * 1e3,
        report.warm_off_seconds * 1e3,
        report.warm_overhead * 100.0
    );
    if report.mmap_off_seconds > 0.0 {
        println!(
            "mmap:          {:.3} ms on vs {:.3} ms off per pass ({:.2}x, advisory)",
            report.mmap_on_seconds * 1e3,
            report.mmap_off_seconds * 1e3,
            report.mmap_off_seconds / report.mmap_on_seconds.max(1e-9)
        );
    }
    let on_q = latency_quantiles(report.rows.iter().map(|r| r.cold_on_seconds));
    let off_q = latency_quantiles(report.rows.iter().map(|r| r.cold_off_seconds));
    print_quantiles("cold prefetch-on latency", &on_q);
    print_quantiles("cold prefetch-off latency", &off_q);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"mss\": 3,\n  \"seed\": {},\n  \"reps\": {},\n  \
         \"match_sets_identical\": true,\n  \"cold_median_speedup\": {:.3},\n  \
         \"warm_on_ms\": {:.4},\n  \"warm_off_ms\": {:.4},\n  \
         \"warm_overhead\": {:.5},\n  \"warm_overhead_gate\": 0.02,\n  \
         \"mmap_on_ms\": {:.4},\n  \"mmap_off_ms\": {:.4},\n  \
         \"latency_quantiles\": {{\"cold_on\": {}, \"cold_off\": {}}},\n  \"queries\": [\n",
        corpus_seed(),
        report.reps,
        report.cold_median_speedup,
        report.warm_on_seconds * 1e3,
        report.warm_off_seconds * 1e3,
        report.warm_overhead,
        report.mmap_on_seconds * 1e3,
        report.mmap_off_seconds * 1e3,
        quantiles_json(&on_q),
        quantiles_json(&off_q),
    ));
    for (i, r) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"postings\": {}, \"matches\": {}, \
             \"cold_off_ms\": {:.4}, \"cold_on_ms\": {:.4}, \"speedup\": {:.3}, \
             \"hints\": {}, \"useful\": {}}}{}\n",
            json_escape(&r.name),
            r.postings,
            r.matches,
            r.cold_off_seconds * 1e3,
            r.cold_on_seconds * 1e3,
            r.cold_off_seconds / r.cold_on_seconds.max(1e-9),
            r.hints,
            r.useful,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_prefetch.json", json)?;
    println!(
        "wrote BENCH_prefetch.json ({} query measurements)",
        report.rows.len()
    );
    Ok(())
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
