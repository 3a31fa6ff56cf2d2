//! The run harness shared by the four workloads: the fixed dataset, the
//! measured passes and the end-to-end metrics computed from what a
//! workload hands back.

pub mod build_ingest;
pub mod query;
pub mod serve;

use std::path::{Path, PathBuf};
use std::time::Instant;

use si_core::{
    Coding, IndexOptions, ShardBuildMode, ShardedBuildConfig, ShardedIndex, SubtreeIndex,
};
use si_corpus::{Corpus, GeneratorConfig};

use crate::prepared::Prepared;
use crate::schema::{manifest, Ledger};
use crate::stats::{median, tail};
use crate::sys;

/// The workloads `run` dispatches; `BENCHMARK.json` lists the same.
pub const NAMES: [&str; 4] = [
    "build-ingest",
    "query-selective",
    "query-scan",
    "serve-zipf",
];

/// Seed of the indexed corpus, whatever `--seed` is: the dataset is
/// fixed, as a treebank would be, so `index_bytes_per_tree` is exact and
/// a run's cost does not depend on which corpus its seed happened to
/// draw. `--seed` decides everything a client sends — query pools, the
/// order of operations, the Zipf stream, the order of ingest batches.
pub const DATASET_SEED: u64 = 0x00C0_FFEE;

/// Measured passes of a read workload. Fixed, so both sides of a
/// comparison compute the same statistic.
pub const PASSES: usize = 5;

/// Fresh opens timed for `open_first_ms`, spread evenly over the passes.
pub const OPEN_REPEATS: usize = 15;

/// Seconds every measured phase of a full-scale run must last.
pub const MIN_PHASE_SECONDS: f64 = 10.0;

/// XORed into `--seed` for the held-out trees query shapes are cut from
/// (they must not be part of the indexed corpus).
pub const HELDOUT_SEED: u64 = 0x4845_4C44_4F55_5421;

/// Engine threads any workload may use (the sandbox has two cores).
pub const ENGINE_THREADS: usize = 2;

/// Maximum subtree size indexed, in every workload.
pub const MSS: usize = 3;

/// Index options of every workload: root-split coding, `mss = 3`.
pub fn index_options() -> IndexOptions {
    IndexOptions::new(MSS, Coding::RootSplit)
}

/// The sharded build every workload uses: `shards` tid ranges built by
/// [`ENGINE_THREADS`] workers.
pub fn sharded_config(shards: usize) -> ShardedBuildConfig {
    ShardedBuildConfig {
        shards,
        workers: ENGINE_THREADS,
        mode: ShardBuildMode::InMemory,
    }
}

/// The first `trees` trees of the dataset.
pub fn dataset(trees: usize) -> Corpus {
    GeneratorConfig::default()
        .with_seed(DATASET_SEED)
        .generate(trees)
}

/// Generates the dataset and builds an index over it at `dir`:
/// monolithic for `shards == 1`, tid-range sharded otherwise. Returns
/// `(generate seconds, build seconds)`.
pub fn build_index(trees: usize, shards: usize, dir: &Path) -> (f64, f64) {
    let started = Instant::now();
    let corpus = dataset(trees);
    let generate_s = started.elapsed().as_secs_f64();
    sys::fresh_dir(dir).expect("index directory");
    let started = Instant::now();
    if shards == 1 {
        SubtreeIndex::build(dir, corpus.trees(), corpus.interner(), index_options())
            .expect("index build");
    } else {
        ShardedIndex::build(
            dir,
            corpus.trees(),
            corpus.interner(),
            index_options(),
            sharded_config(shards),
        )
        .expect("sharded build");
    }
    (generate_s, started.elapsed().as_secs_f64())
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every client input is derived from.
    pub seed: u64,
    /// `--seconds`: operation counts are the frozen ones times
    /// `seconds / run_seconds`.
    pub seconds: f64,
    /// Record spans and print per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Small schema-only tier: same code path, tiny sizes, no
    /// workload-validity asserts.
    pub smoke: bool,
    /// Directory indexes and the span file are written under.
    pub out: PathBuf,
}

impl RunArgs {
    /// `count` operations at the manifest's `run_seconds`, scaled to
    /// `--seconds`; never fewer than one.
    pub fn scaled(&self, count: usize) -> usize {
        let scale = self.seconds / f64::from(manifest().run_seconds);
        ((count as f64 * scale).round() as usize).max(1)
    }

    /// Directory of `workload`'s files.
    pub fn dir(&self, workload: &str) -> PathBuf {
        self.out.join(workload)
    }
}

/// Runs `workload`'s `prepare` in a child process and waits for it, as
/// `si build` runs apart from `si query` and `si serve`: corpus, index
/// build, pool generation and the oracle happen there, so the measured
/// process never holds them and its `peak_rss_mb` is the read path's.
pub fn prepare_in_child(workload: &str, args: &RunArgs) -> Prepared {
    let exe = std::env::current_exe().expect("own executable");
    let mut child = std::process::Command::new(exe);
    child
        .args(["prepare", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        child.arg("--smoke");
    }
    let status = child.status().expect("prepare child runs");
    assert!(status.success(), "prepare child failed: {status}");
    Prepared::read(&args.dir(workload).join(crate::prepared::FILE_NAME)).expect("prepared file")
}

/// Runs `f` and returns its result with the wall seconds and process
/// CPU milliseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu_before = sys::cpu_ms();
    let started = Instant::now();
    let out = f();
    let seconds = started.elapsed().as_secs_f64();
    (out, seconds, sys::cpu_ms() - cpu_before)
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations per second of each pass.
    pub pass_ops_per_s: Vec<f64>,
    /// Latency samples of all passes, pooled.
    pub latencies_ms: Vec<f64>,
    /// `open + first query` wall of each fresh open timed between passes.
    pub open_first_ms: Vec<f64>,
    /// Process CPU milliseconds over all passes.
    pub cpu_ms: f64,
    /// Operations over all passes.
    pub ops: u64,
    /// Seconds measured: the sum of the passes' timed seconds.
    pub seconds: f64,
    /// `VmHWM` of the process when the phase ended, in MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Ends the phase: records the process's memory high-water mark (in
    /// a `--trace` run the traced phase and the probes come after the
    /// untraced one, and must not count into its figure).
    pub fn finish(mut self) -> Self {
        self.peak_rss_mb = sys::peak_rss_mb();
        self
    }

    /// Adds one pass of `ops` operations that took `seconds` and
    /// `cpu_ms`; the pass has already appended its latency samples.
    pub fn add_pass(&mut self, ops: u64, seconds: f64, cpu_ms: f64) {
        self.pass_ops_per_s.push(ops as f64 / seconds);
        self.cpu_ms += cpu_ms;
        self.ops += ops;
        self.seconds += seconds;
    }
}

/// Everything a workload reports back to the harness.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seed → ready to measure, warm-up pass included.
    pub setup_s: f64,
    /// The measured phase (untraced in an end-to-end run, traced in a
    /// `--trace` run).
    pub measured: Measured,
    /// The untraced phase a `--trace` run measures before the traced one.
    pub untraced: Option<Measured>,
    /// Bytes under the workload's index directory.
    pub index_bytes: u64,
    /// Trees that index holds.
    pub trees_indexed: u64,
    /// Operations checked against their expected digest.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// Workload-validity violations (offending value included).
    pub violations: Vec<String>,
    /// Per-layer metrics (filled by `--trace` runs).
    pub layers: Ledger,
    /// Free-form lines printed beside the metrics.
    pub notes: Vec<String>,
}

/// Fresh opens due after pass `pass` (0-based) of `passes`, so that
/// [`OPEN_REPEATS`] are spread evenly over the measured phase.
pub fn opens_after_pass(pass: usize, passes: usize) -> usize {
    OPEN_REPEATS * (pass + 1) / passes - OPEN_REPEATS * pass / passes
}

/// Folds an outcome into the eight end-to-end metrics; those of a
/// `--trace` run come from its untraced phase.
pub fn end_to_end(outcome: &Outcome) -> Ledger {
    let m = outcome.untraced.as_ref().unwrap_or(&outcome.measured);
    let mut l = Ledger::default();
    l.set("setup_s", outcome.setup_s);
    l.set("ops_per_s", median(&m.pass_ops_per_s));
    l.set("op_p50_ms", median(&m.latencies_ms));
    l.set("op_tail_ms", tail(&m.latencies_ms).1);
    l.set("open_first_ms", median(&m.open_first_ms));
    l.set("cpu_ms_per_op", m.cpu_ms / m.ops.max(1) as f64);
    l.set("peak_rss_mb", m.peak_rss_mb);
    l.set(
        "index_bytes_per_tree",
        outcome.index_bytes as f64 / outcome.trees_indexed.max(1) as f64,
    );
    l
}

/// `trace.overhead_share`: `1 - traced / untraced` throughput of the
/// two phases of a `--trace` run.
pub fn overhead_share(untraced: &Measured, traced: &Measured) -> f64 {
    1.0 - median(&traced.pass_ops_per_s) / median(&untraced.pass_ops_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_spread_evenly_and_sum_to_the_repeat_count() {
        for passes in [1, 3, 5, 7] {
            let per_pass: Vec<usize> = (0..passes).map(|p| opens_after_pass(p, passes)).collect();
            assert_eq!(per_pass.iter().sum::<usize>(), OPEN_REPEATS, "{passes}");
            let (lo, hi) = (
                per_pass.iter().min().unwrap(),
                per_pass.iter().max().unwrap(),
            );
            assert!(hi - lo <= 1, "{per_pass:?}");
        }
        assert_eq!(opens_after_pass(0, 5), 3);
    }
}
