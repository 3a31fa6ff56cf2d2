//! Subcommand implementations.

use std::collections::BTreeMap;
use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use si_core::build_ext::ExternalBuildConfig;
use si_core::cover::decompose;
use si_core::plan::{estimated_cardinality, plan_structural, PlannerMode};
use si_core::sharded::{shard_provably_empty, ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::stats::intersect_tid_ranges;
use si_core::{Coding, EvalStats, ExecMode, IndexOptions, KeyStats, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_obs::{json_escape, Json, MetricsSnapshot, Stage, Timings, TimingsSnapshot};
use si_parsetree::{ptb, LabelInterner};
use si_query::{parse_query, write_query};

use crate::args::Args;

type AnyError = Box<dyn Error>;

const USAGE: &str = "\
si — Subtree Index over syntactically annotated trees

USAGE:
  si generate  --sentences N [--seed S] [--out FILE]        write a synthetic PTB corpus
  si build     --input FILE --index DIR [--mss 3]
               [--coding root-split|filter|interval]
               [--external true]
               [--shards N] [--workers W]                   build an index from PTB text;
                                                            --shards > 1 makes a tid-range
                                                            sharded index built in parallel
  si ingest    --input FILE --index DIR                     append new documents to a
                                                            sharded index as a fresh shard
                                                            (existing shards untouched)
  si query     --index DIR QUERY [--show N] [--verbose]
               [--exec streaming|materialized]
               [--planner cost|bytes]
               [--cache-mb N] [--sort-pref 4.0]
               [--prefetch true|false]
               [--explain-analyze] [--trace-json FILE]      evaluate a tree query
                                                            (--sort-pref: prefer sort-free
                                                            root-slot plans when stream
                                                            estimates are within the factor;
                                                            1.0 disables; --explain-analyze:
                                                            per-stage times + executed
                                                            operator tree; --trace-json:
                                                            append one span-tree JSON line)
  si batch     --index DIR --queries FILE [--threads N]
               [--cache-mb 64] [--result-cache-mb 32]
               [--batch-size 64] [--prefetch true|false]
               [--trace-json FILE]
               [--stats-interval SECS] [--metrics-json FILE]
               [--slow-query-ms N] [--slow-log FILE]        run a query file concurrently
                                                            (--result-cache-mb: byte budget
                                                            for cached match sets, epoch-
                                                            invalidated on ingest; 0 = off)
  si serve     --index DIR [--threads N] [--cache-mb 64]
               [--result-cache-mb 32] [--batch-size 64]
               [--prefetch true|false] [--trace-json FILE]
               [--stats-interval SECS] [--metrics-json FILE]
               [--slow-query-ms N] [--slow-log FILE]        serve queries from stdin, batched
                                                            (--stats-interval: one JSON
                                                            metrics-snapshot line per tick,
                                                            to --metrics-json or stderr;
                                                            --slow-query-ms: append span
                                                            trees of threshold-breaching
                                                            queries to --slow-log or stderr)
  si report    FILE... [--top 5]                            aggregate trace-json / slow-log /
                                                            metrics-json lines offline: stage
                                                            breakdown, top-N slowest queries
                                                            with their dominant operator, and
                                                            cache/seek efficiency summaries
  si scan      --input FILE QUERY [--show N]                TGrep2 mode: match without an index
  si extract   --input FILE [--mss 3] [--top 20]            most frequent subtree keys
  si stats     --index DIR [KEY]                            index statistics; with a
                                                            KEY (query syntax), per-key
                                                            planner statistics
  si decompose [--mss 3] [--coding root-split] QUERY        show the query's cover

Query syntax: LABEL('(' [//] node ')')*, e.g. S(NP(NNS))(VP(//NN))";

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["verbose", "explain-analyze"];

/// Dispatches a full argv (without the program name).
pub fn run(argv: &[String]) -> Result<(), AnyError> {
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse_bools(rest, BOOL_FLAGS)?;
    match cmd.as_str() {
        "generate" => generate(&args),
        "build" => build(&args),
        "ingest" => ingest(&args),
        "query" => query(&args),
        "batch" => batch(&args),
        "serve" => serve(
            &args,
            &mut std::io::stdin().lock(),
            &mut std::io::stdout().lock(),
        ),
        "scan" => scan(&args),
        "extract" => extract(&args),
        "stats" => stats(&args),
        "report" => report(&args, &mut std::io::stdout().lock()),
        "decompose" => decompose_cmd(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `si help`").into()),
    }
}

fn parse_exec(name: Option<&str>) -> Result<ExecMode, AnyError> {
    match name.unwrap_or("streaming") {
        "streaming" | "s" => Ok(ExecMode::Streaming),
        "materialized" | "m" | "legacy" => Ok(ExecMode::Materialized),
        other => Err(format!("unknown executor {other:?} (streaming | materialized)").into()),
    }
}

fn parse_planner(name: Option<&str>) -> Result<PlannerMode, AnyError> {
    match name.unwrap_or("cost") {
        "cost" | "cost-based" | "c" => Ok(PlannerMode::CostBased),
        "bytes" | "byte-len" | "b" => Ok(PlannerMode::ByteLen),
        other => Err(format!("unknown planner {other:?} (cost | bytes)").into()),
    }
}

fn parse_coding(name: Option<&str>) -> Result<Coding, AnyError> {
    match name.unwrap_or("root-split") {
        "root-split" | "rs" => Ok(Coding::RootSplit),
        "filter" | "filter-based" | "fb" => Ok(Coding::FilterBased),
        "interval" | "subtree-interval" | "si" => Ok(Coding::SubtreeInterval),
        other => Err(format!("unknown coding {other:?} (root-split | filter | interval)").into()),
    }
}

fn generate(args: &Args) -> Result<(), AnyError> {
    let sentences: usize = args.get_or("sentences", 1_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let corpus = GeneratorConfig::default()
        .with_seed(seed)
        .generate(sentences);
    let mut out: Box<dyn Write> = match args.get("out") {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(std::io::stdout().lock()),
    };
    for tree in corpus.trees() {
        writeln!(out, "{}", ptb::write(tree, corpus.interner()))?;
    }
    out.flush()?;
    eprintln!("wrote {sentences} sentences (seed {seed})");
    Ok(())
}

fn build(args: &Args) -> Result<(), AnyError> {
    let input = args.required("input")?;
    let index_dir = args.required("index")?;
    let mss: usize = args.get_or("mss", 3)?;
    let coding = parse_coding(args.get("coding"))?;
    let external: bool = args.get_or("external", false)?;
    let shards: usize = args.get_or("shards", 1)?;
    let defaults = ShardedBuildConfig::default();
    let workers: usize = args.get_or("workers", defaults.workers)?;

    let text = std::fs::read_to_string(input)?;
    let mut interner = LabelInterner::new();
    let trees = ptb::parse_corpus(&text, &mut interner)?;
    eprintln!("parsed {} trees, {} labels", trees.len(), interner.len());

    let options = IndexOptions::new(mss, coding);
    let dir = Path::new(index_dir);
    if shards > 1 {
        let started = std::time::Instant::now();
        let sharded = ShardedIndex::build(
            dir,
            &trees,
            &interner,
            options,
            ShardedBuildConfig {
                shards,
                workers,
                mode: if external {
                    ShardBuildMode::External
                } else {
                    ShardBuildMode::InMemory
                },
            },
        )?;
        eprintln!(
            "built {} shards on {} workers in {:.2} s wall",
            sharded.shards().len(),
            workers.clamp(1, sharded.shards().len()),
            started.elapsed().as_secs_f64()
        );
        print_stats(&sharded);
        return Ok(());
    }
    // A stale MANIFEST.si would shadow the fresh bare index (readers
    // dispatch on its presence), so a previous sharded layout in this
    // directory is torn down first.
    si_core::sharded::remove_sharded_layout(dir)?;
    if external {
        SubtreeIndex::build_external(
            dir,
            &trees,
            &interner,
            options,
            ExternalBuildConfig::default(),
        )?;
    } else {
        SubtreeIndex::build(dir, &trees, &interner, options)?;
    }
    print_stats(&ShardedIndex::open(dir)?);
    Ok(())
}

/// Appends the documents of `--input` to a sharded index as one fresh
/// shard; only `MANIFEST.si` is rewritten, existing shard files stay
/// untouched. The new corpus is parsed against the index's interner so
/// existing label ids keep their meaning (new labels extend it).
fn ingest(args: &Args) -> Result<(), AnyError> {
    let input = args.required("input")?;
    let index_dir = args.required("index")?;
    let mut sharded = ShardedIndex::open(Path::new(index_dir))?;
    let mut interner = sharded.interner();
    let text = std::fs::read_to_string(input)?;
    let trees = ptb::parse_corpus(&text, &mut interner)?;
    if trees.is_empty() {
        return Err("ingest: input holds no trees".into());
    }
    let started = std::time::Instant::now();
    let entry = sharded.ingest(&trees, &interner)?;
    eprintln!(
        "ingested {} trees as {} (global tids {}..={}) in {:.2} s; {} shards total",
        trees.len(),
        entry.dir_name(),
        entry.first_tid(),
        entry.last_tid(),
        started.elapsed().as_secs_f64(),
        sharded.shards().len()
    );
    Ok(())
}

/// `--prefetch BOOL` (default on): the process-wide overlapped-I/O
/// switch ([`si_storage::set_prefetch_enabled`]). When off, every hint
/// site degrades to one atomic load.
fn apply_prefetch_flag(args: &Args) -> Result<(), AnyError> {
    si_storage::set_prefetch_enabled(args.get_or("prefetch", true)?);
    Ok(())
}

fn query(args: &Args) -> Result<(), AnyError> {
    let index_dir = args.required("index")?;
    let show: usize = args.get_or("show", 0)?;
    apply_prefetch_flag(args)?;
    let verbose: bool = args.get_or("verbose", false)?;
    let explain_analyze: bool = args.get_or("explain-analyze", false)?;
    let trace = trace_sink(args)?;
    let cache_mb: usize = args.get_or("cache-mb", 0)?;
    let [query_text] = args.positional() else {
        return Err("query: expected exactly one QUERY argument".into());
    };
    let exec = parse_exec(args.get("exec"))?;
    let planner = parse_planner(args.get("planner"))?;
    let mut index = ShardedIndex::open(Path::new(index_dir))?;
    index.set_exec_mode(exec);
    let mut interner = index.interner();
    let timings = (explain_analyze || trace.is_some()).then(|| Timings::new(true));
    let query = {
        let _span = timings.as_ref().map(|t| t.span(Stage::Parse));
        parse_query(query_text, &mut interner)?
    };
    // The block cache applies when the directory opens as one shard:
    // shards store the same canonical keys over different posting
    // lists, so a single cache must never span several (the query
    // service keeps one per shard instead).
    let sole = index.shards().len() == 1;
    if cache_mb > 0 && !sole {
        eprintln!(
            "warning: --cache-mb is ignored on an index of several shards \
             (per-shard caches live in `si batch` / `si serve`)"
        );
    }
    let cache = (cache_mb > 0 && sole).then(|| {
        std::sync::Arc::new(si_core::BlockCache::new(
            si_core::BlockCacheConfig::with_budget(cache_mb << 20),
        ))
    });
    let sort_pref: f64 = args.get_or("sort-pref", si_core::plan::DEFAULT_ROOT_PREF_FACTOR)?;
    let ctx = si_core::ExecContext {
        cache,
        planner,
        root_pref_factor: sort_pref,
        timings: timings.as_ref(),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let result = index.evaluate_with(&query, &ctx)?;
    let elapsed = started.elapsed();
    println!(
        "{} matches in {:.3} ms  ({} executor, {} covers, {} joins, {} postings fetched, {} peak posting bytes{})",
        result.len(),
        elapsed.as_secs_f64() * 1e3,
        exec.name(),
        result.stats.covers,
        result.stats.joins,
        result.stats.postings_fetched,
        result.stats.peak_posting_bytes,
        if result.stats.used_validation {
            ", post-validated"
        } else {
            ""
        }
    );
    if verbose {
        print_plan_debug(&index, &query, &interner, planner)?;
        let cache_note = if !sole {
            "per-shard caches live in `si batch` / `si serve`".to_owned()
        } else if cache_mb > 0 {
            format!("{cache_mb} MiB budget")
        } else {
            "disabled; pass --cache-mb N".to_owned()
        };
        print!("{}", render_eval_stats(&result.stats, &cache_note));
    }
    if let Some(t) = &timings {
        let snap = t.snapshot();
        let total_ns = elapsed.as_nanos() as u64;
        if explain_analyze {
            let options = index.options();
            let cover = decompose(&query, options.mss, options.coding);
            let covers: Vec<String> = cover
                .subtrees
                .iter()
                .map(|st| render_key(&st.key, &interner))
                .collect();
            print_explain_analyze(&snap, total_ns, &covers, result.stats.btree_descents);
        }
        if let Some(sink) = &trace {
            sink.write_line(&trace_line(
                query_text,
                result.len(),
                total_ns,
                &result.stats,
                &snap,
            ))?;
        }
    }
    for &(tid, pre) in result.matches.iter().take(show) {
        let tree = index.tree(tid)?;
        println!(
            "  tree {tid} @ node {pre}: {}",
            ptb::write(&tree, &interner)
        );
    }
    Ok(())
}

/// Parses the service flags shared by `si batch` and `si serve`.
/// `--trace-json` and `--slow-query-ms` both turn per-query span
/// collection on — that is the only way the service's outcomes carry
/// snapshots to write out.
fn service_config(args: &Args) -> Result<si_service::ServiceConfig, AnyError> {
    let defaults = si_service::ServiceConfig::default();
    let cache_mb: usize = args.get_or("cache-mb", 64)?;
    Ok(si_service::ServiceConfig {
        threads: args.get_or("threads", defaults.threads)?,
        cache: si_core::BlockCacheConfig::with_budget(cache_mb << 20),
        batch_size: args.get_or("batch-size", defaults.batch_size)?,
        collect_timings: args.get("trace-json").is_some() || args.get("slow-query-ms").is_some(),
        // The result cache defaults ON for the service commands (the
        // library default is off); `--result-cache-mb 0` disables it.
        result_cache_mb: args.get_or("result-cache-mb", 32)?,
        ..defaults
    })
}

/// A shared, line-atomic JSON-lines sink: every record is assembled in
/// full and written (with its newline) in a single `write_all`, so the
/// concurrent writers of serve mode — per-batch trace/slow records and
/// the periodic stats ticker — never interleave mid-line. This is the
/// one appender behind `--trace-json`, `--slow-log` and
/// `--metrics-json` for `si query`, `si batch` and `si serve` alike.
struct LineSink(Mutex<Box<dyn Write + Send>>);

impl LineSink {
    /// Appends to `path`, creating it if needed.
    fn file(path: &str) -> Result<Self, AnyError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self(Mutex::new(Box::new(file))))
    }

    /// Writes lines to stderr (the default telemetry destination, so
    /// stdout stays pure query results).
    fn stderr() -> Self {
        Self(Mutex::new(Box::new(std::io::stderr())))
    }

    /// Writes one complete record line atomically.
    fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut w = self.0.lock().unwrap_or_else(|e| e.into_inner());
        w.write_all(&buf)?;
        w.flush()
    }
}

/// Opens the `--trace-json` sink in append mode, if requested.
fn trace_sink(args: &Args) -> Result<Option<LineSink>, AnyError> {
    Ok(match args.get("trace-json") {
        Some(path) => Some(LineSink::file(path)?),
        None => None,
    })
}

/// `--slow-query-ms`: latency threshold plus the sink breaching
/// queries' span trees append to (`--slow-log FILE`, stderr otherwise).
struct SlowLog {
    threshold_ms: f64,
    sink: LineSink,
}

fn slow_log(args: &Args) -> Result<Option<SlowLog>, AnyError> {
    let Some(raw) = args.get("slow-query-ms") else {
        return Ok(None);
    };
    let threshold_ms: f64 = raw
        .parse()
        .map_err(|_| format!("--slow-query-ms: cannot parse {raw:?}"))?;
    let sink = match args.get("slow-log") {
        Some(path) => LineSink::file(path)?,
        None => LineSink::stderr(),
    };
    Ok(Some(SlowLog { threshold_ms, sink }))
}

/// One slow-query-log record: the regular trace line tagged with
/// `"type":"slow"` and the threshold it breached, so mixed files still
/// classify unambiguously in `si report`.
fn slow_line(
    threshold_ms: f64,
    query_text: &str,
    matches: usize,
    total_ns: u64,
    stats: &EvalStats,
    snap: &TimingsSnapshot,
) -> String {
    let body = trace_line(query_text, matches, total_ns, stats, snap);
    format!(
        "{{\"type\":\"slow\",\"threshold_ms\":{threshold_ms},{}",
        &body[1..]
    )
}

/// Appends `{"name":value,...}` from name/number pairs.
fn write_num_obj<'a, V: std::fmt::Display>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a str, V)>,
) {
    use std::fmt::Write as _;
    out.push('{');
    for (i, (name, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", json_escape(name));
    }
    out.push('}');
}

/// Ticker bookkeeping shared between the periodic thread and the final
/// at-exit tick: the tick ordinal and the previous cumulative snapshot
/// the next delta subtracts against.
struct TickState(Mutex<(u64, MetricsSnapshot)>);

/// Emits one `{"type":"metrics",...}` line: full cumulative counters,
/// the delta since the previous tick, gauge levels, and the two latency
/// views (windowed quantiles over just this interval, drained here, and
/// the cumulative distribution).
fn emit_metrics_tick(
    service: &si_service::QueryService,
    sink: &LineSink,
    state: &TickState,
    interval_secs: u64,
) {
    let snap = service.sync_metrics();
    let window = service.metrics().latency().reset_window();
    let total = snap
        .histograms
        .get("service.latency_ns")
        .copied()
        .unwrap_or_default();
    let mut st = state.0.lock().unwrap_or_else(|e| e.into_inner());
    st.0 += 1;
    let delta = snap.counter_delta_since(&st.1);
    let mut line = format!(
        "{{\"type\":\"metrics\",\"tick\":{},\"interval_secs\":{interval_secs},\"counters\":",
        st.0
    );
    write_num_obj(
        &mut line,
        snap.counters.iter().map(|(k, &v)| (k.as_str(), v)),
    );
    line.push_str(",\"delta\":");
    write_num_obj(&mut line, delta.iter().map(|(k, &v)| (k.as_str(), v)));
    line.push_str(",\"gauges\":");
    write_num_obj(&mut line, snap.gauges.iter().map(|(k, &v)| (k.as_str(), v)));
    line.push_str(",\"latency_window\":");
    window.write_json(&mut line);
    line.push_str(",\"latency_total\":");
    total.write_json(&mut line);
    line.push('}');
    st.1 = snap;
    drop(st);
    let _ = sink.write_line(&line);
}

/// Runs `body` with the periodic metrics ticker alive around it, then
/// emits one final snapshot after `body` returns — so even a run
/// shorter than one interval produces at least one metrics line (and
/// CI can assert on the schema deterministically).
fn with_stats_ticker<T>(
    service: &si_service::QueryService,
    interval_secs: u64,
    sink: Option<&LineSink>,
    body: impl FnOnce() -> Result<T, AnyError>,
) -> Result<T, AnyError> {
    let (Some(sink), true) = (sink, interval_secs > 0) else {
        return body();
    };
    let state = TickState(Mutex::new((0, service.metrics().registry().snapshot())));
    std::thread::scope(|scope| {
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let state_ref = &state;
        let ticker = scope.spawn(move || {
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                stop_rx.recv_timeout(std::time::Duration::from_secs(interval_secs))
            {
                emit_metrics_tick(service, sink, state_ref, interval_secs);
            }
        });
        let result = body();
        drop(stop_tx);
        let _ = ticker.join();
        emit_metrics_tick(service, sink, &state, interval_secs);
        result
    })
}

/// The `--metrics-json` sink (stderr when the flag is absent); only
/// built when `--stats-interval` actually enables the ticker.
fn metrics_sink(args: &Args) -> Result<Option<LineSink>, AnyError> {
    if args.get_or("stats-interval", 0u64)? == 0 {
        return Ok(None);
    }
    Ok(Some(match args.get("metrics-json") {
        Some(path) => LineSink::file(path)?,
        None => LineSink::stderr(),
    }))
}

/// Runs every query of `--queries FILE` (one per line; blank lines and
/// `#` comments skipped) through the concurrent query service and
/// prints per-query match counts plus a throughput summary.
fn batch(args: &Args) -> Result<(), AnyError> {
    let index_dir = args.required("index")?;
    let queries_file = args.required("queries")?;
    apply_prefetch_flag(args)?;
    let config = service_config(args)?;
    let service = si_service::QueryService::open(Path::new(index_dir), config)?;
    let text = std::fs::read_to_string(queries_file)?;
    let lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let trace = trace_sink(args)?;
    let slow = slow_log(args)?;
    let stats_interval: u64 = args.get_or("stats-interval", 0)?;
    let msink = metrics_sink(args)?;
    let mut out = std::io::stdout().lock();
    let summary = with_stats_ticker(&service, stats_interval, msink.as_ref(), || {
        run_service_batches(&service, &lines, &mut out, trace.as_ref(), slow.as_ref())
    })?;
    print_service_summary(&service, &summary, config.threads);
    Ok(())
}

/// Long-running mode: reads queries line by line from `input`, groups
/// them into batches of `--batch-size`, and evaluates each batch
/// concurrently with shared scans. Runs until end of input.
fn serve(
    args: &Args,
    input: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> Result<(), AnyError> {
    let index_dir = args.required("index")?;
    apply_prefetch_flag(args)?;
    let config = service_config(args)?;
    let service = si_service::QueryService::open(Path::new(index_dir), config)?;
    let trace = trace_sink(args)?;
    let slow = slow_log(args)?;
    let stats_interval: u64 = args.get_or("stats-interval", 0)?;
    let msink = metrics_sink(args)?;
    print_serve_banner(args, index_dir, &service, &config, stats_interval, &slow)?;
    let total = with_stats_ticker(&service, stats_interval, msink.as_ref(), || {
        let mut total = ServiceSummary::default();
        let mut pending: Vec<String> = Vec::new();
        loop {
            let mut line = String::new();
            let eof = input.read_line(&mut line)? == 0;
            if !eof {
                let line = line.trim();
                if !line.is_empty() && !line.starts_with('#') {
                    pending.push(line.to_owned());
                }
            }
            if pending.len() >= service.batch_size() || (eof && !pending.is_empty()) {
                let batch: Vec<String> = std::mem::take(&mut pending);
                let summary =
                    run_service_batches(&service, &batch, out, trace.as_ref(), slow.as_ref())?;
                total.absorb(&summary);
                out.flush()?;
            }
            if eof {
                break;
            }
        }
        Ok(total)
    })?;
    print_service_summary(&service, &total, config.threads);
    Ok(())
}

/// The `si serve` startup banner: what is being served and through
/// which machinery — index layout, read path (mmap vs buffered pager),
/// cache configuration and any telemetry sinks — so a long-running
/// process's log records how it was actually configured.
fn print_serve_banner(
    args: &Args,
    index_dir: &str,
    service: &si_service::QueryService,
    config: &si_service::ServiceConfig,
    stats_interval: u64,
    slow: &Option<SlowLog>,
) -> Result<(), AnyError> {
    let cache_mb: usize = args.get_or("cache-mb", 64)?;
    eprintln!("serving    {index_dir} ({})", shard_count(service.index()));
    eprintln!("read path  {}", service.read_path());
    let result_cache = match config.result_cache_mb {
        0 => "off".to_owned(),
        mb => format!("{mb} MiB (epoch-invalidated)"),
    };
    eprintln!(
        "config     {} threads, batch size {}, block cache {cache_mb} MiB, result cache {result_cache}",
        config.threads,
        service.batch_size(),
    );
    if stats_interval > 0 {
        eprintln!(
            "telemetry  metrics snapshot every {stats_interval} s -> {}",
            args.get("metrics-json").unwrap_or("stderr")
        );
    }
    if let Some(s) = slow {
        eprintln!(
            "telemetry  slow-query log (>= {} ms) -> {}",
            s.threshold_ms,
            args.get("slow-log").unwrap_or("stderr")
        );
    }
    Ok(())
}

/// Accumulated service-run figures across batches.
#[derive(Debug, Default)]
struct ServiceSummary {
    queries: usize,
    matches: usize,
    wall_seconds: f64,
    latency_seconds: f64,
    shared_keys: usize,
    /// Every query's `EvalStats` folded together, rendered by the same
    /// helper as `si query --verbose`.
    stats: EvalStats,
}

impl ServiceSummary {
    fn absorb(&mut self, other: &ServiceSummary) {
        self.queries += other.queries;
        self.matches += other.matches;
        self.wall_seconds += other.wall_seconds;
        self.latency_seconds += other.latency_seconds;
        self.shared_keys += other.shared_keys;
        self.stats.absorb(&other.stats);
    }
}

/// Parses `lines` against the service's index, evaluates them in
/// batch-size groups, and writes one result line per query. A line
/// that fails to parse gets an error line and the rest of the batch
/// proceeds — a long-running `si serve` must survive client typos.
fn run_service_batches(
    service: &si_service::QueryService,
    lines: &[String],
    out: &mut dyn Write,
    trace: Option<&LineSink>,
    slow: Option<&SlowLog>,
) -> Result<ServiceSummary, AnyError> {
    let mut interner = service.interner();
    let mut summary = ServiceSummary::default();
    for chunk in lines.chunks(service.batch_size().max(1)) {
        let mut queries = Vec::with_capacity(chunk.len());
        let mut parsed: Vec<Result<usize, String>> = Vec::with_capacity(chunk.len());
        for text in chunk {
            match parse_query(text, &mut interner) {
                Ok(q) => {
                    parsed.push(Ok(queries.len()));
                    queries.push(q);
                }
                Err(e) => parsed.push(Err(e.to_string())),
            }
        }
        let report = service.run_batch(&queries)?;
        for (text, slot) in chunk.iter().zip(&parsed) {
            match slot {
                Ok(i) => {
                    let outcome = &report.outcomes[*i];
                    writeln!(
                        out,
                        "{}\t{} matches\t{:.3} ms",
                        text,
                        outcome.result.len(),
                        outcome.seconds * 1e3
                    )?;
                    summary.matches += outcome.result.len();
                    summary.latency_seconds += outcome.seconds;
                    summary.stats.absorb(&outcome.result.stats);
                    if let Some(snap) = outcome.timings.as_ref() {
                        let total_ns = (outcome.seconds * 1e9) as u64;
                        if let Some(trace) = trace {
                            trace.write_line(&trace_line(
                                text,
                                outcome.result.len(),
                                total_ns,
                                &outcome.result.stats,
                                snap,
                            ))?;
                        }
                        if let Some(slow) = slow {
                            if outcome.seconds * 1e3 >= slow.threshold_ms {
                                slow.sink.write_line(&slow_line(
                                    slow.threshold_ms,
                                    text,
                                    outcome.result.len(),
                                    total_ns,
                                    &outcome.result.stats,
                                    snap,
                                ))?;
                            }
                        }
                    }
                }
                Err(e) => writeln!(out, "{text}\terror: {e}")?,
            }
        }
        summary.queries += report.outcomes.len();
        summary.wall_seconds += report.wall_seconds;
        summary.shared_keys += report.shared_keys;
    }
    Ok(summary)
}

fn print_service_summary(
    service: &si_service::QueryService,
    summary: &ServiceSummary,
    threads: usize,
) {
    let cache = service.cache_stats();
    let pool = service.pool_stats();
    eprintln!(
        "{} queries in {:.3} s ({:.0} QPS, {threads} threads), {} matches, \
         mean latency {:.3} ms, {} shared scans",
        summary.queries,
        summary.wall_seconds,
        if summary.wall_seconds > 0.0 {
            summary.queries as f64 / summary.wall_seconds
        } else {
            0.0
        },
        summary.matches,
        if summary.queries > 0 {
            summary.latency_seconds * 1e3 / summary.queries as f64
        } else {
            0.0
        },
        summary.shared_keys,
    );
    let lat = service.latency_summary();
    if lat.count > 0 {
        eprintln!(
            "latency     p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms \
             ({} queries, cumulative)",
            lat.p50 as f64 / 1e6,
            lat.p90 as f64 / 1e6,
            lat.p99 as f64 / 1e6,
            lat.p999 as f64 / 1e6,
            lat.count,
        );
    }
    eprintln!(
        "block cache: {:.1}% hits ({} hits / {} misses, {} evictions, peak {} KiB)",
        cache.hit_rate() * 100.0,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.peak_bytes >> 10,
    );
    if let Some(results) = service.result_cache_stats() {
        eprintln!(
            "result cache: {:.1}% hits ({} hits / {} misses, {} negative, \
             {} evictions, {} KiB resident)",
            results.hit_rate() * 100.0,
            results.hits,
            results.misses,
            results.negative_hits,
            results.evictions,
            results.current_bytes >> 10,
        );
    }
    eprintln!(
        "tuple pool:  {} hits / {} misses, {} insertions, {} evictions, \
         {} KiB resident (peak {} KiB)",
        pool.hits,
        pool.misses,
        pool.insertions,
        pool.evictions,
        pool.current_bytes >> 10,
        pool.peak_bytes >> 10,
    );
    eprint!(
        "{}",
        render_eval_stats(&summary.stats, "summed per-query counters")
    );
}

/// The one formatting path for an `EvalStats` counter block, shared by
/// `si query --verbose` and the `si batch` / `si serve` summaries.
/// `cache_note` qualifies the block-cache counters (budget for a
/// single query, aggregation note for a service summary).
fn render_eval_stats(s: &EvalStats, cache_note: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if s.shards > 0 {
        let _ = writeln!(
            out,
            "shards      {} shard evaluations, {} skipped from per-shard statistics",
            (s.shards as u64).saturating_sub(s.shards_skipped as u64),
            s.shards_skipped
        );
    }
    if s.range_pruned {
        let _ = writeln!(
            out,
            "planner     result proven empty from disjoint tid ranges; no list opened"
        );
    }
    let _ = writeln!(
        out,
        "pager       {} hits, {} misses, {} evictions, {} B+Tree descents",
        s.pager_hits, s.pager_misses, s.pager_evictions, s.btree_descents
    );
    let _ = writeln!(
        out,
        "block cache {} hits, {} misses ({cache_note})",
        s.cache_hits, s.cache_misses
    );
    let _ = writeln!(
        out,
        "zero-copy   {} postings borrowed from cached blocks, {} sort exchanges avoided",
        s.postings_borrowed, s.sort_exchanges_avoided
    );
    let _ = writeln!(
        out,
        "seeks       {} restart-point seeks, {} postings skipped undecoded",
        s.seeks, s.postings_skipped
    );
    let _ = writeln!(
        out,
        "prefetch    {} hints issued, {} prefetched pages consumed",
        s.prefetch_hints, s.prefetch_useful
    );
    let _ = writeln!(
        out,
        "results     {} whole-query hits ({} negative), {} misses, {} shard partials reused",
        s.result_hits, s.negative_hits, s.result_misses, s.partial_reuses
    );
    out
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// `si query --explain-analyze`: the stage-time table followed by the
/// executed operator tree, each node annotated with rows out, posting
/// counters, seeks and elapsed time. `covers` are the rendered cover
/// keys, indexed by the operators' cover slots.
fn print_explain_analyze(snap: &TimingsSnapshot, total_ns: u64, covers: &[String], descents: u64) {
    let attributed = snap.stage_total();
    println!("stage times (measured total {}):", fmt_ns(total_ns));
    let pct = |ns: u64| {
        if total_ns > 0 {
            ns as f64 * 100.0 / total_ns as f64
        } else {
            0.0
        }
    };
    for stage in Stage::ALL {
        let ns = snap.stage(stage);
        if ns == 0 {
            continue;
        }
        println!(
            "  {:<13} {:>12}  {:>5.1}%",
            stage.name(),
            fmt_ns(ns),
            pct(ns)
        );
    }
    println!(
        "  {:<13} {:>12}  {:>5.1}% of measured wall",
        "attributed",
        fmt_ns(attributed),
        pct(attributed)
    );
    println!("B+Tree descents: {descents}");
    println!("operators:");
    for r in snap.roots() {
        print_op(snap, r, covers, 1);
    }
}

/// One operator line of the EXPLAIN ANALYZE tree, then its children
/// indented below it.
fn print_op(snap: &TimingsSnapshot, id: usize, covers: &[String], depth: usize) {
    let op = &snap.ops[id];
    let mut line = format!("{}{}", "  ".repeat(depth), op.label);
    if let Some(key) = op.cover.and_then(|c| covers.get(c)) {
        line.push_str(&format!(" [{key}]"));
    }
    line.push_str(&format!("  rows={} time={}", op.rows, fmt_ns(op.nanos)));
    if op.postings_fetched > 0 || op.postings_borrowed > 0 {
        line.push_str(&format!(
            " fetched={} borrowed={}",
            op.postings_fetched, op.postings_borrowed
        ));
    }
    if op.seeks > 0 || op.postings_skipped > 0 {
        line.push_str(&format!(
            " seeks={} skipped={}",
            op.seeks, op.postings_skipped
        ));
    }
    println!("{line}");
    for &c in &op.children {
        print_op(snap, c, covers, depth + 1);
    }
}

/// One single-line JSON trace record (`--trace-json`): query text,
/// match count, measured total nanoseconds, the result-cache counters,
/// the prefetch counters, then the snapshot's own `stages` / `ops`
/// fields spliced in.
fn trace_line(
    query_text: &str,
    matches: usize,
    total_ns: u64,
    stats: &EvalStats,
    snap: &TimingsSnapshot,
) -> String {
    let mut frag = String::new();
    snap.write_json(&mut frag);
    format!(
        "{{\"query\":\"{}\",\"matches\":{matches},\"total_ns\":{total_ns},\
         \"cache\":{{\"result_hits\":{},\"result_misses\":{},\
         \"partial_reuses\":{},\"negative_hits\":{}}},\
         \"prefetch\":{{\"hints\":{},\"useful\":{}}},{}",
        json_escape(query_text),
        stats.result_hits,
        stats.result_misses,
        stats.partial_reuses,
        stats.negative_hits,
        stats.prefetch_hints,
        stats.prefetch_useful,
        &frag[1..]
    )
}

/// TGrep2 / CorpusSearch mode: load the whole corpus and scan it with
/// the in-memory matcher — the baseline workflow the Subtree Index
/// replaces (§2 of the paper). Useful for one-off queries and as a
/// sanity check against `si query`.
fn scan(args: &Args) -> Result<(), AnyError> {
    let input = args.required("input")?;
    let show: usize = args.get_or("show", 0)?;
    let [query_text] = args.positional() else {
        return Err("scan: expected exactly one QUERY argument".into());
    };
    let text = std::fs::read_to_string(input)?;
    let mut interner = LabelInterner::new();
    let trees = ptb::parse_corpus(&text, &mut interner)?;
    let query = parse_query(query_text, &mut interner)?;
    let started = std::time::Instant::now();
    let mut total = 0usize;
    let mut shown = 0usize;
    for (tid, tree) in trees.iter().enumerate() {
        let roots = si_query::match_roots(tree, &query);
        total += roots.len();
        if !roots.is_empty() && shown < show {
            println!("  tree {tid}: {}", ptb::write(tree, &interner));
            shown += 1;
        }
    }
    println!(
        "{} matches across {} trees in {:.3} ms (full scan)",
        total,
        trees.len(),
        started.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

/// Dumps the most frequent subtree keys of a corpus — the raw material
/// of Figures 2–4 and of the frequency-based baseline's cutoff.
fn extract(args: &Args) -> Result<(), AnyError> {
    let input = args.required("input")?;
    let mss: usize = args.get_or("mss", 3)?;
    let top: usize = args.get_or("top", 20)?;
    let text = std::fs::read_to_string(input)?;
    let mut interner = LabelInterner::new();
    let trees = ptb::parse_corpus(&text, &mut interner)?;
    let mut counts: std::collections::HashMap<Vec<u8>, u64> = std::collections::HashMap::new();
    for tree in &trees {
        si_core::extract::for_each_subtree(tree, mss, |sub| {
            *counts.entry(sub.key.clone()).or_insert(0) += 1;
        });
    }
    let total: u64 = counts.values().sum();
    println!(
        "{} unique subtree keys, {} occurrences (mss = {mss}, {} trees)",
        counts.len(),
        total,
        trees.len()
    );
    let mut ranked: Vec<(&Vec<u8>, &u64)> = counts.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (key, count) in ranked.into_iter().take(top) {
        println!("  {count:>8}  {}", render_key(key, &interner));
    }
    Ok(())
}

/// Renders a canonical key in query syntax.
fn render_key(key: &[u8], interner: &LabelInterner) -> String {
    fn go(t: &si_core::canonical::CanonTree, interner: &LabelInterner, out: &mut String) {
        out.push_str(interner.resolve(si_parsetree::Label(t.label)));
        for c in &t.children {
            out.push('(');
            go(c, interner, out);
            out.push(')');
        }
    }
    match si_core::canonical::decode_key(key) {
        Some(shape) => {
            let mut out = String::new();
            go(&shape, interner, &mut out);
            out
        }
        None => format!("<malformed key {key:02x?}>"),
    }
}

/// One `si stats` / `--verbose` line for a cover key's statistics.
fn key_stats_line(rendered: &str, stats: Option<&KeyStats>) -> String {
    match stats {
        None => format!("  {rendered}: not indexed (query has no matches)"),
        Some(s) => {
            let mut line = format!(
                "  {rendered}: {} postings, {} distinct trees, tids [{}, {}], \
                 {:.2} postings/tree, {} bytes",
                s.postings,
                s.distinct_tids,
                s.first_tid,
                s.last_tid,
                s.mean_postings_per_tid(),
                s.bytes,
            );
            // Per-key tid histogram (lists with restart points): how the
            // key's occurrences spread across its [first, last] range —
            // what the planner's range-overlap refinement reads.
            if s.has_hist() {
                let buckets: Vec<String> = s.tid_hist.iter().map(u32::to_string).collect();
                line.push_str(&format!("\n      tid histogram [{}]", buckets.join(" ")));
            }
            line
        }
    }
}

/// `si query --verbose`: recomputes the cover, the per-key statistics
/// (aggregated across shards), every shard's skip verdict — which
/// shards the scatter-gather will consult and which its statistics
/// already prove empty — and, when the directory opens as one shard,
/// the join order the planner chose there (several shards each plan on
/// their own statistics, so there is no single order to show), so
/// planner decisions are debuggable straight from the CLI.
fn print_plan_debug(
    index: &ShardedIndex,
    query: &si_query::Query,
    interner: &LabelInterner,
    mode: PlannerMode,
) -> Result<(), AnyError> {
    let options = index.options();
    let cover = decompose(query, options.mss, options.coding);
    println!(
        "planner     {} over {} (exact statistics from list headers; key stats below aggregated)",
        mode.name(),
        shard_count(index)
    );
    let mut all: Vec<Option<KeyStats>> = Vec::with_capacity(cover.subtrees.len());
    for st in &cover.subtrees {
        let s = index.key_stats(&st.key)?;
        println!(
            "{}",
            key_stats_line(&render_key(&st.key, interner), s.as_ref())
        );
        all.push(s);
    }
    let probe_ctx = si_core::ExecContext::default();
    for (entry, shard) in index.manifest().shards.iter().zip(index.shards()) {
        let skip = shard_provably_empty(shard, &cover.subtrees, mode, &probe_ctx)?;
        println!(
            "  {}  tids [{}, {}]  {}",
            shard_label(index, shard),
            entry.first_tid(),
            entry.last_tid(),
            if skip {
                "skip (provably empty from shard statistics)"
            } else {
                "evaluate"
            }
        );
    }
    if index.shards().len() > 1 || all.iter().any(|s| s.is_none()) {
        return Ok(());
    }
    let stats: Vec<KeyStats> = all.into_iter().map(|s| s.unwrap()).collect();
    // Range seeding and pruning happen only under the cost-based mode;
    // a byte-ordered run executes unseeded, so don't claim otherwise.
    let cost = mode == PlannerMode::CostBased;
    let Some(common) = intersect_tid_ranges(&stats) else {
        println!(
            "join order  {}",
            if cost {
                "(none: tid ranges disjoint, result provably empty)"
            } else {
                "(tid ranges disjoint, but byte-ordered mode executes anyway)"
            }
        );
        return Ok(());
    };
    if options.coding == Coding::FilterBased {
        if cost {
            println!(
                "join order  leapfrog tid intersection over {} streams, seeded to tids [{}, {}]",
                cover.subtrees.len(),
                common.0,
                common.1
            );
        } else {
            println!(
                "join order  leapfrog tid intersection over {} streams (unseeded)",
                cover.subtrees.len()
            );
        }
        return Ok(());
    }
    let plan = plan_structural(query, &cover, options.coding, &stats, mode);
    let mut order = format!("[{}]", render_key(&cover.subtrees[plan.base].key, interner));
    for step in &plan.steps {
        let join = match step.driving {
            Some((kind, _, _)) => format!("{kind:?}"),
            None => "TidCross".to_owned(),
        };
        let sort = match (step.sort_left, step.sort_right) {
            (None, None) => String::new(),
            (l, r) => format!(
                ", sort {}",
                match (l, r) {
                    (Some(_), Some(_)) => "both",
                    (Some(_), None) => "left",
                    _ => "right",
                }
            ),
        };
        order.push_str(&format!(
            " -{join}{sort}-> {}",
            render_key(&cover.subtrees[step.cover].key, interner)
        ));
    }
    println!("join order  {order}");
    if mode == PlannerMode::CostBased {
        let est: Vec<String> = cover
            .subtrees
            .iter()
            .zip(&stats)
            .map(|(st, s)| {
                format!(
                    "{}≈{:.0}",
                    render_key(&st.key, interner),
                    estimated_cardinality(s, &st.key, options.coding, common)
                )
            })
            .collect();
        println!("est cards   {}", est.join("  "));
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), AnyError> {
    let index_dir = args.required("index")?;
    let index = ShardedIndex::open(Path::new(index_dir))?;
    match args.positional() {
        [] => {
            print_stats(&index);
            println!(
                "read path  {}",
                if index.is_mapped() {
                    "mmap (read-only page images served from the mapping)"
                } else {
                    "buffered pager"
                }
            );
            print_byte_ledger(&index)?;
        }
        [key_text] => {
            // The KEY is query syntax; its cover under the index's own
            // mss/coding yields the canonical keys to look up — for a
            // subtree of size <= mss that is exactly one key. Per-shard
            // records aggregate: counts and bytes sum, the tid range
            // spans the covering shards.
            let mut interner = index.interner();
            let query = parse_query(key_text, &mut interner)?;
            let cover = decompose(&query, index.options().mss, index.options().coding);
            for st in &cover.subtrees {
                let s = index.key_stats(&st.key)?;
                println!(
                    "{}",
                    key_stats_line(&render_key(&st.key, &interner), s.as_ref())
                );
            }
        }
        _ => return Err("stats: expected at most one KEY argument".into()),
    }
    Ok(())
}

/// One query record as `si report` keeps it: trace-json and slow-log
/// lines both reduce to this.
#[derive(Default)]
struct ReportQuery {
    query: String,
    matches: u64,
    total_ns: u64,
    slow: bool,
    /// Operator with the largest *self* time (nanos minus the sum of
    /// its children's), and that self time.
    dominant: Option<(String, u64)>,
    result_hits: u64,
    result_misses: u64,
    partial_reuses: u64,
    negative_hits: u64,
    prefetch_hints: u64,
    prefetch_useful: u64,
}

/// The dominant operator of a trace record's `ops` forest: largest
/// self-time (a node's nanoseconds minus its children's — inclusive
/// times would always elect the root). The synthetic `shard-N` group
/// nodes `absorb` adds have zero self time, so they never win.
fn dominant_op(ops: &[Json]) -> Option<(String, u64)> {
    let nanos: Vec<u64> = ops
        .iter()
        .map(|op| op.get("nanos").and_then(Json::as_u64).unwrap_or(0))
        .collect();
    let mut best: Option<(String, u64)> = None;
    for (i, op) in ops.iter().enumerate() {
        let child_ns: u64 = op
            .get("children")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_u64)
            .filter_map(|c| nanos.get(c as usize))
            .sum();
        let self_ns = nanos[i].saturating_sub(child_ns);
        let label = op.get("label").and_then(Json::as_str).unwrap_or("?");
        if best.as_ref().is_none_or(|(_, b)| self_ns > *b) {
            best = Some((label.to_owned(), self_ns));
        }
    }
    best
}

/// `si report FILE...`: offline aggregation over the JSON-lines
/// telemetry the serve/batch/query commands emit. Lines classify by
/// shape — `"stages"` marks a per-query trace or slow record,
/// `"counters"` a metrics snapshot — so trace files, slow logs and
/// metrics files mix freely on one command line.
fn report(args: &Args, out: &mut dyn Write) -> Result<(), AnyError> {
    let top: usize = args.get_or("top", 5)?;
    let files = args.positional();
    if files.is_empty() {
        return Err(
            "report: expected one or more FILE arguments (trace-json / slow-log / metrics-json \
             lines)"
                .into(),
        );
    }

    let mut queries: Vec<ReportQuery> = Vec::new();
    let mut stage_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut metrics_lines = 0usize;
    let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut skipped = 0usize;
    for path in files {
        let text = std::fs::read_to_string(path)?;
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let Ok(v) = Json::parse(line) else {
                skipped += 1;
                continue;
            };
            if let Some(stages) = v.get("stages") {
                let mut rec = ReportQuery {
                    query: v
                        .get("query")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    matches: v.get("matches").and_then(Json::as_u64).unwrap_or(0),
                    total_ns: v.get("total_ns").and_then(Json::as_u64).unwrap_or(0),
                    slow: v.get("type").and_then(Json::as_str) == Some("slow"),
                    ..ReportQuery::default()
                };
                for (name, ns) in stages.as_obj().unwrap_or(&[]) {
                    *stage_ns.entry(name.clone()).or_insert(0) += ns.as_u64().unwrap_or(0);
                }
                if let Some(cache) = v.get("cache") {
                    let n = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
                    rec.result_hits = n("result_hits");
                    rec.result_misses = n("result_misses");
                    rec.partial_reuses = n("partial_reuses");
                    rec.negative_hits = n("negative_hits");
                }
                if let Some(pf) = v.get("prefetch") {
                    let n = |k: &str| pf.get(k).and_then(Json::as_u64).unwrap_or(0);
                    rec.prefetch_hints = n("hints");
                    rec.prefetch_useful = n("useful");
                }
                rec.dominant = dominant_op(v.get("ops").and_then(Json::as_arr).unwrap_or(&[]));
                queries.push(rec);
            } else if let Some(counters) = v.get("counters") {
                // Counters are cumulative, so the last snapshot line
                // seen supersedes earlier ones.
                metrics_lines += 1;
                last_counters = counters
                    .as_obj()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|(k, n)| n.as_u64().map(|n| (k.clone(), n)))
                    .collect();
            } else {
                skipped += 1;
            }
        }
    }

    writeln!(
        out,
        "report over {} file{}{}",
        files.len(),
        if files.len() == 1 { "" } else { "s" },
        if skipped > 0 {
            format!(" ({skipped} unrecognized lines skipped)")
        } else {
            String::new()
        }
    )?;
    let slow_count = queries.iter().filter(|q| q.slow).count();
    writeln!(
        out,
        "queries aggregated: {} ({} slow-log records)",
        queries.len(),
        slow_count
    )?;

    if !queries.is_empty() {
        let stage_total: u64 = stage_ns.values().sum();
        writeln!(out, "stage breakdown (summed over traced queries):")?;
        let mut stages: Vec<(&String, &u64)> = stage_ns.iter().filter(|(_, &ns)| ns > 0).collect();
        stages.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (name, &ns) in stages {
            writeln!(
                out,
                "  {name:<13} {:>12}  {:>5.1}%",
                fmt_ns(ns),
                if stage_total > 0 {
                    ns as f64 * 100.0 / stage_total as f64
                } else {
                    0.0
                }
            )?;
        }
        writeln!(out, "  {:<13} {:>12}", "total", fmt_ns(stage_total))?;

        let mut by_latency: Vec<&ReportQuery> = queries.iter().collect();
        by_latency.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.query.cmp(&b.query)));
        writeln!(out, "top {} slowest queries:", top.min(by_latency.len()))?;
        for (i, q) in by_latency.iter().take(top).enumerate() {
            let dominant = match &q.dominant {
                Some((label, self_ns)) => {
                    format!(", dominant op {label} ({} self)", fmt_ns(*self_ns))
                }
                None => String::new(),
            };
            writeln!(
                out,
                "  {}. {:>12}  {}  ({} matches{}{})",
                i + 1,
                fmt_ns(q.total_ns),
                q.query,
                q.matches,
                dominant,
                if q.slow { ", slow-log" } else { "" }
            )?;
        }

        let sum = |f: fn(&ReportQuery) -> u64| -> u64 { queries.iter().map(f).sum() };
        let hits = sum(|q| q.result_hits);
        let misses = sum(|q| q.result_misses);
        writeln!(
            out,
            "result cache (traced queries): {} hits ({} negative), {} misses, {} shard partials \
             reused{}",
            hits,
            sum(|q| q.negative_hits),
            misses,
            sum(|q| q.partial_reuses),
            if hits + misses > 0 {
                format!(
                    " — {:.1}% hit rate",
                    hits as f64 * 100.0 / (hits + misses) as f64
                )
            } else {
                String::new()
            }
        )?;
        writeln!(
            out,
            "prefetch (traced queries): {} hints issued, {} prefetched pages consumed",
            sum(|q| q.prefetch_hints),
            sum(|q| q.prefetch_useful)
        )?;
    }

    if metrics_lines > 0 {
        writeln!(
            out,
            "metrics snapshots: {metrics_lines} line{}; final cumulative counters:",
            if metrics_lines == 1 { "" } else { "s" }
        )?;
        let c = |k: &str| last_counters.get(k).copied().unwrap_or(0);
        let rate = |h: u64, m: u64| {
            if h + m > 0 {
                format!("{:.1}%", h as f64 * 100.0 / (h + m) as f64)
            } else {
                "-".to_owned()
            }
        };
        writeln!(
            out,
            "  service     {} queries, {} matches",
            c("service.queries"),
            c("service.matches")
        )?;
        writeln!(
            out,
            "  block cache {} hit rate ({} hits / {} misses)",
            rate(c("blockcache.hits"), c("blockcache.misses")),
            c("blockcache.hits"),
            c("blockcache.misses")
        )?;
        writeln!(
            out,
            "  result cache {} hit rate ({} hits / {} misses, {} negative)",
            rate(c("resultcache.hits"), c("resultcache.misses")),
            c("resultcache.hits"),
            c("resultcache.misses"),
            c("resultcache.negative_hits")
        )?;
        writeln!(
            out,
            "  pager       {} hit rate ({} hits / {} reads, {} mmap reads)",
            rate(c("pager.hits"), c("pager.reads")),
            c("pager.hits"),
            c("pager.reads"),
            c("pager.mmap_reads")
        )?;
        writeln!(
            out,
            "  prefetch    {} useful rate ({} issued / {} useful, {} wasted, {} cancelled)",
            rate(
                c("pager.prefetch.useful"),
                c("pager.prefetch.issued").saturating_sub(c("pager.prefetch.useful"))
            ),
            c("pager.prefetch.issued"),
            c("pager.prefetch.useful"),
            c("pager.prefetch.wasted"),
            c("pager.prefetch.cancelled")
        )?;
        writeln!(
            out,
            "  seeks       {} restart-point seeks, {} postings skipped undecoded, {} fetched",
            c("eval.seeks"),
            c("eval.postings_skipped"),
            c("eval.postings_fetched")
        )?;
        writeln!(
            out,
            "  shards      {} visits, {} skipped from statistics",
            c("shard.visits"),
            c("shard.skips")
        )?;
    }
    Ok(())
}

/// "1 shard" / "N shards".
fn shard_count(index: &ShardedIndex) -> String {
    match index.shards().len() {
        1 => "1 shard".to_owned(),
        n => format!("{n} shards"),
    }
}

/// A shard's directory relative to the index directory: `shard-NNNN`
/// under a manifest, `.` for a bare directory's implicit shard.
fn shard_label(index: &ShardedIndex, shard: &SubtreeIndex) -> String {
    match shard.dir().strip_prefix(index.dir()) {
        Ok(rel) if !rel.as_os_str().is_empty() => rel.display().to_string(),
        _ => ".".to_owned(),
    }
}

/// `si stats` / post-build summary. Per-shard records aggregate:
/// `keys` counts per-shard B+Tree entries (a key hot in every shard
/// counts once per shard) and the build time sums per-shard CPU seconds.
fn print_stats(index: &ShardedIndex) {
    let o = index.options();
    let s = index.stats();
    println!("index      {}", index.dir().display());
    println!("coding     {}", o.coding);
    println!("mss        {}", o.mss);
    println!("sentences  {}", index.num_trees());
    println!("keys       {}", s.keys);
    println!("postings   {}", s.postings);
    println!(
        "index      {} bytes ({:.1} MiB)",
        s.index_bytes,
        s.index_bytes as f64 / (1 << 20) as f64
    );
    println!("postings   {} bytes", s.posting_bytes);
    println!("data file  {} bytes", s.data_bytes);
    println!(
        "built in   {:.2} s (cpu, summed over shards)",
        s.build_seconds
    );
    println!("shards     {}", index.shards().len());
    for (entry, shard) in index.manifest().shards.iter().zip(index.shards()) {
        println!(
            "  {}  tids [{}, {}]  {} keys  {} bytes",
            shard_label(index, shard),
            entry.first_tid(),
            entry.last_tid(),
            shard.stats().keys,
            shard.stats().index_bytes
        );
    }
}

/// Where the bytes of an index directory go.
#[derive(Default)]
struct ByteLedger {
    /// `(what, bytes)` lines that partition every file under the
    /// directory: `index.bt` split by what its pages hold, every other
    /// file by name (summed over shards).
    lines: Vec<(String, u64)>,
    inline_values: u64,
    inline_bytes: u64,
    heap_values: u64,
    heap_bytes: u64,
    heap_pages: u64,
    postings: u64,
    /// `(bits, values, patched values)` per column name of the coding's
    /// stored rows ([`Coding::column_names`]); the bits count the
    /// column's patches too.
    columns: Vec<(u64, u64, u64)>,
    /// `corpus/trees.dat` bytes as shape, tag and word column, all shards.
    data_columns: [u64; 3],
}

impl ByteLedger {
    fn total(&self) -> u64 {
        self.lines.iter().map(|(_, bytes)| bytes).sum()
    }
}

/// Sizes of the files under `dir`, keyed by path relative to `root`.
fn file_sizes(root: &Path, dir: &Path, out: &mut BTreeMap<String, u64>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            file_sizes(root, &path, out)?;
        } else {
            let name = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            *out.entry(name).or_insert(0) += path.metadata()?.len();
        }
    }
    Ok(())
}

/// One pass over every shard's `(key, value)` pairs, and one over the
/// directory's files. A value is list header + packed blocks — each its
/// column codes and patch headers, its columns and its patches — and
/// sits inline in a leaf or in the shard's heap, which packs its values
/// back to back and pads only its last page; what is left of `index.bt` once values and heap pages are
/// taken out is the tree itself (meta page, leaf and internal pages).
fn byte_ledger(index: &ShardedIndex) -> Result<ByteLedger, AnyError> {
    use si_storage::btree::INLINE_MAX;
    let coding = index.options().coding;
    let (mut payload, mut list_headers) = (0u64, 0u64);
    let (mut block_header_bits, mut patch_bits) = (0u64, 0u64);
    let mut ledger = ByteLedger {
        columns: vec![(0, 0, 0); coding.column_names().len()],
        ..ByteLedger::default()
    };
    let mut btree_bytes = 0u64;
    let mut other_files: BTreeMap<String, u64> = BTreeMap::new();
    for shard in index.shards() {
        let mut shard_heap_bytes = 0u64;
        for entry in shard.iter_keys()? {
            let (key, value) = entry?;
            let len = value.len() as u64;
            let m = si_core::canonical::key_size(&key).ok_or("byte ledger: bad canonical key")?;
            let list = si_core::coding::list_anatomy(coding, m, &value)?;
            payload += len - list.header_bytes;
            block_header_bits += list.block_header_bits;
            patch_bits += list.patch_bits.iter().sum::<u64>();
            list_headers += list.header_bytes;
            ledger.postings += list.postings;
            // `Δtid` once per posting; the rest once per node of the row.
            let nodes = if coding == Coding::SubtreeInterval {
                m
            } else {
                1
            };
            for (c, total) in ledger.columns.iter_mut().enumerate() {
                total.0 += list.column_bits[c] + list.patch_bits[c];
                total.1 += list.postings * if c == 0 { 1 } else { nodes as u64 };
                total.2 += list.patches[c];
            }
            if value.len() <= INLINE_MAX {
                ledger.inline_values += 1;
                ledger.inline_bytes += len;
            } else {
                ledger.heap_values += 1;
                shard_heap_bytes += len;
            }
        }
        ledger.heap_bytes += shard_heap_bytes;
        ledger.heap_pages += shard_heap_bytes.div_ceil(si_storage::PAGE_SIZE as u64);
        let data = shard.store().column_bytes()?;
        (0..3).for_each(|c| ledger.data_columns[c] += data[c]);
    }
    let mut files = BTreeMap::new();
    file_sizes(index.dir(), index.dir(), &mut files)?;
    for (name, bytes) in &files {
        // Every shard holds the same files: one line per name.
        let name = match name.split_once('/') {
            Some((shard, rest)) if shard.starts_with("shard-") => rest,
            _ => name,
        };
        if name == "index.bt" {
            btree_bytes += bytes;
        } else {
            *other_files.entry(name.to_owned()).or_insert(0) += bytes;
        }
    }
    let heap_page_bytes = ledger.heap_pages * si_storage::PAGE_SIZE as u64;
    let tree_pages = btree_bytes
        .checked_sub(ledger.inline_bytes + heap_page_bytes)
        .ok_or("byte ledger: values outweigh index.bt")?;
    // The blocks' bit fields in whole bytes; the columns row takes the
    // fractions and the padding that ends each block.
    let (block_headers, patches) = (block_header_bits / 8, patch_bits / 8);
    ledger.lines = vec![
        (
            "block headers (codes + patch headers)".to_owned(),
            block_headers,
        ),
        ("patches (positions + high parts)".to_owned(), patches),
        (
            "packed columns".to_owned(),
            payload - block_headers - patches,
        ),
        (
            "list headers (stats + restart tables)".to_owned(),
            list_headers,
        ),
        (
            "heap padding".to_owned(),
            heap_page_bytes - ledger.heap_bytes,
        ),
        ("tree pages, net of inline values".to_owned(), tree_pages),
    ];
    other_files.remove("corpus/trees.dat");
    let names = ["shape", "tag column", "word column"];
    for (column, bytes) in names.iter().zip(ledger.data_columns) {
        other_files.insert(format!("corpus/trees.dat {column}"), bytes);
    }
    ledger.lines.extend(other_files);
    Ok(ledger)
}

fn print_byte_ledger(index: &ShardedIndex) -> Result<(), AnyError> {
    let ledger = byte_ledger(index)?;
    let total = ledger.total();
    println!("byte ledger (every file under the index directory)");
    for (what, bytes) in &ledger.lines {
        println!(
            "  {what:<37} {bytes:>12}  {:>5.1}%",
            *bytes as f64 * 100.0 / total.max(1) as f64
        );
    }
    println!(
        "  {:<37} {total:>12}  {:.2} B/tree",
        "total",
        total as f64 / index.num_trees().max(1) as f64
    );
    println!(
        "  values: {} inline ({} bytes), {} in the heap ({} bytes in {} pages)",
        ledger.inline_values,
        ledger.inline_bytes,
        ledger.heap_values,
        ledger.heap_bytes,
        ledger.heap_pages
    );
    let coding = index.options().coding;
    let per_posting = |bytes: u64| bytes as f64 / ledger.postings.max(1) as f64;
    let [headers, patches, columns] = [0, 1, 2].map(|line| ledger.lines[line].1);
    println!(
        "  {coding}: {:.3} B/posting stored ({:.3} block headers + {:.3} patches + {:.3} columns) over {} postings",
        per_posting(headers + patches + columns),
        per_posting(headers),
        per_posting(patches),
        per_posting(columns),
        ledger.postings
    );
    let bits: Vec<String> = coding
        .column_names()
        .iter()
        .zip(&ledger.columns)
        .map(|(name, &(bits, values, patched))| {
            let share = |n: u64| n as f64 / values.max(1) as f64;
            format!(
                "{name} {:.2} ({:.1}% patched)",
                share(bits),
                100.0 * share(patched)
            )
        })
        .collect();
    println!(
        "  mean bits per value, patches included: {}",
        bits.join(", ")
    );
    let per_tree = |bytes: u64| format!("{:.2}", bytes as f64 / index.num_trees().max(1) as f64);
    let [shape, tag, word] = ledger.data_columns.map(per_tree);
    let total = per_tree(ledger.data_columns.iter().sum());
    println!("  trees.dat: {total} B/tree = shape {shape} + tag column {tag} + word column {word}");
    Ok(())
}

fn decompose_cmd(args: &Args) -> Result<(), AnyError> {
    let mss: usize = args.get_or("mss", 3)?;
    let coding = parse_coding(args.get("coding"))?;
    let [query_text] = args.positional() else {
        return Err("decompose: expected exactly one QUERY argument".into());
    };
    let mut interner = LabelInterner::new();
    let query = parse_query(query_text, &mut interner)?;
    let cover = decompose(&query, mss, coding);
    println!(
        "{} cover subtrees ({} joins) under {} coding, mss = {mss}:",
        cover.subtrees.len(),
        cover.num_joins(),
        coding
    );
    for (i, st) in cover.subtrees.iter().enumerate() {
        // Render the cover subtree as a query over its member nodes.
        let rendered = render_subtree(&query, st, &interner);
        println!(
            "  [{i}] root=node{} size={}  {}",
            st.root.0,
            st.size(),
            rendered
        );
    }
    Ok(())
}

/// Renders a cover subtree in query syntax.
fn render_subtree(
    query: &si_query::Query,
    st: &si_core::cover::CoverSubtree,
    interner: &LabelInterner,
) -> String {
    fn go(
        query: &si_query::Query,
        n: si_query::QNodeId,
        members: &[si_query::QNodeId],
        interner: &LabelInterner,
        out: &mut String,
    ) {
        out.push_str(interner.resolve(query.label(n)));
        for c in query.children_via(n, si_query::Axis::Child) {
            if members.contains(&c) {
                out.push('(');
                go(query, c, members, interner, out);
                out.push(')');
            }
        }
    }
    let mut out = String::new();
    go(query, st.root, &st.nodes, interner, &mut out);
    let _ = write_query; // (kept for future full-query rendering)
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("si-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_ok()); // usage
        assert!(run(&argv(&["help"])).is_ok());
    }

    #[test]
    fn coding_names() {
        assert_eq!(parse_coding(Some("rs")).unwrap(), Coding::RootSplit);
        assert_eq!(parse_coding(Some("filter")).unwrap(), Coding::FilterBased);
        assert_eq!(
            parse_coding(Some("interval")).unwrap(),
            Coding::SubtreeInterval
        );
        assert_eq!(parse_coding(None).unwrap(), Coding::RootSplit);
        assert!(parse_coding(Some("bogus")).is_err());
    }

    #[test]
    fn full_pipeline_generate_build_query() {
        let dir = tmp("pipeline");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "100",
            "--seed",
            "5",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
            "--mss",
            "3",
            "--coding",
            "root-split",
        ]))
        .unwrap();
        run(&argv(&[
            "query",
            "--index",
            index_dir.to_str().unwrap(),
            "S(NP)(VP)",
            "--show",
            "1",
        ]))
        .unwrap();
        run(&argv(&["stats", "--index", index_dir.to_str().unwrap()])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_build_flag() {
        let dir = tmp("external");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "50",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
            "--external",
            "true",
        ]))
        .unwrap();
        run(&argv(&[
            "query",
            "--index",
            index_dir.to_str().unwrap(),
            "NP(NN)",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decompose_prints_cover() {
        run(&argv(&[
            "decompose",
            "--mss",
            "3",
            "S(NP(DT)(NN))(VP(VBZ))",
        ]))
        .unwrap();
        run(&argv(&[
            "decompose",
            "--mss",
            "2",
            "--coding",
            "interval",
            "A(B(C))(D)",
        ]))
        .unwrap();
        assert!(run(&argv(&["decompose"])).is_err());
    }

    #[test]
    fn query_requires_exactly_one_positional() {
        assert!(run(&argv(&["query", "--index", "/nonexistent"])).is_err());
    }

    #[test]
    fn query_verbose_prints_counters() {
        let dir = tmp("verbose");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "60",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "query",
            "--index",
            index_dir.to_str().unwrap(),
            "--verbose",
            "NP(NN)",
        ]))
        .unwrap();
        run(&argv(&[
            "query",
            "--index",
            index_dir.to_str().unwrap(),
            "--verbose",
            "--cache-mb",
            "8",
            "NP(NN)",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_analyze_and_trace_json() {
        let dir = tmp("explain");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        let trace_file = dir.join("trace.jsonl");
        run(&argv(&[
            "generate",
            "--sentences",
            "80",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let idx = index_dir.to_str().unwrap();
        run(&argv(&[
            "query",
            "--index",
            idx,
            "--explain-analyze",
            "NP(DT)(NN)",
        ]))
        .unwrap();
        // Two traced queries append two JSON lines.
        for q in ["NP(NN)", "S(NP)(VP)"] {
            run(&argv(&[
                "query",
                "--index",
                idx,
                "--trace-json",
                trace_file.to_str().unwrap(),
                q,
            ]))
            .unwrap();
        }
        let text = std::fs::read_to_string(&trace_file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        for line in &lines {
            assert!(line.starts_with("{\"query\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            for key in [
                "\"matches\":",
                "\"total_ns\":",
                "\"prefetch\":{\"hints\":",
                "\"stages\":",
                "\"ops\":",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
        // The service path traces too (collect_timings via --trace-json).
        let queries_file = dir.join("queries.txt");
        let batch_trace = dir.join("batch-trace.jsonl");
        std::fs::write(&queries_file, "NP(NN)\nS(NP)(VP)\nVP(VBZ)\n").unwrap();
        run(&argv(&[
            "batch",
            "--index",
            idx,
            "--queries",
            queries_file.to_str().unwrap(),
            "--threads",
            "2",
            "--trace-json",
            batch_trace.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&batch_trace).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        for line in text.lines() {
            assert!(line.contains("\"ops\":"), "{line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_key_and_planner_flags() {
        let dir = tmp("statskey");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "60",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let idx = index_dir.to_str().unwrap();
        // Per-key statistics for a query-syntax KEY (single and
        // multi-cover), and the plain index summary.
        run(&argv(&["stats", "--index", idx, "NP(NN)"])).unwrap();
        run(&argv(&["stats", "--index", idx, "S(NP(DT)(NN))(VP(VBZ))"])).unwrap();
        run(&argv(&["stats", "--index", idx])).unwrap();
        assert!(run(&argv(&["stats", "--index", idx, "NP(NN)", "extra"])).is_err());
        // Both planner modes answer; bogus mode errors.
        run(&argv(&[
            "query",
            "--index",
            idx,
            "--planner",
            "cost",
            "--verbose",
            "S(NP)(VP)",
        ]))
        .unwrap();
        run(&argv(&[
            "query",
            "--index",
            idx,
            "--planner",
            "bytes",
            "NP(NN)",
        ]))
        .unwrap();
        assert!(run(&argv(&[
            "query",
            "--index",
            idx,
            "--planner",
            "x",
            "NP(NN)"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_runs_a_query_file() {
        let dir = tmp("batch");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        let queries_file = dir.join("queries.txt");
        run(&argv(&[
            "generate",
            "--sentences",
            "80",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(
            &queries_file,
            "# comment lines and blanks are skipped\n\nNP(NN)\nS(NP)(VP)\nVP(VBZ)\nNP(NN)\n",
        )
        .unwrap();
        run(&argv(&[
            "batch",
            "--index",
            index_dir.to_str().unwrap(),
            "--queries",
            queries_file.to_str().unwrap(),
            "--threads",
            "2",
            "--cache-mb",
            "8",
        ]))
        .unwrap();
        // Missing the queries flag errors.
        assert!(run(&argv(&["batch", "--index", index_dir.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_processes_stdin_batches() {
        let dir = tmp("serve");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "60",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let args = Args::parse_bools(
            &argv(&[
                "--index",
                index_dir.to_str().unwrap(),
                "--threads",
                "2",
                "--batch-size",
                "2",
            ]),
            BOOL_FLAGS,
        )
        .unwrap();
        let input = b"NP(NN)\nS(NP)(VP)\nVP(VBZ)\n" as &[u8];
        let mut reader = std::io::BufReader::new(input);
        let mut out: Vec<u8> = Vec::new();
        serve(&args, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one result line per query: {text}");
        assert!(lines[0].starts_with("NP(NN)\t"), "{text}");
        assert!(lines[0].contains("matches"), "{text}");

        // A malformed line must not kill the long-running service: it
        // gets an error line and the rest of its batch still runs.
        let input = b"NP(NN)\nNP((\nS(NP)(VP)\n" as &[u8];
        let mut reader = std::io::BufReader::new(input);
        let mut out: Vec<u8> = Vec::new();
        serve(&args, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "every line answered: {text}");
        assert!(lines[1].starts_with("NP((\terror:"), "{text}");
        assert!(lines[2].contains("matches"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_emits_metrics_snapshots_and_slow_log() {
        let dir = tmp("telemetry");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "60",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let metrics_file = dir.join("metrics.jsonl");
        let slow_file = dir.join("slow.jsonl");
        // Threshold 0 ms: every query breaches, so the slow log holds
        // one span tree per query.
        let args = Args::parse_bools(
            &argv(&[
                "--index",
                index_dir.to_str().unwrap(),
                "--threads",
                "2",
                "--stats-interval",
                "1",
                "--metrics-json",
                metrics_file.to_str().unwrap(),
                "--slow-query-ms",
                "0",
                "--slow-log",
                slow_file.to_str().unwrap(),
            ]),
            BOOL_FLAGS,
        )
        .unwrap();
        let input = b"NP(NN)\nS(NP)(VP)\nVP(VBZ)\n" as &[u8];
        let mut reader = std::io::BufReader::new(input);
        let mut out: Vec<u8> = Vec::new();
        serve(&args, &mut reader, &mut out).unwrap();
        // At least the final at-exit snapshot, schema-complete.
        let metrics = std::fs::read_to_string(&metrics_file).unwrap();
        assert!(!metrics.lines().collect::<Vec<_>>().is_empty(), "{metrics}");
        for line in metrics.lines() {
            for key in [
                "\"type\":\"metrics\"",
                "\"tick\":",
                "\"counters\":",
                "\"delta\":",
                "\"gauges\":",
                "\"latency_window\":",
                "\"latency_total\":",
                "\"service.queries\":",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
            Json::parse(line).unwrap();
        }
        let slow = std::fs::read_to_string(&slow_file).unwrap();
        assert_eq!(slow.lines().count(), 3, "{slow}");
        for line in slow.lines() {
            assert!(
                line.starts_with("{\"type\":\"slow\",\"threshold_ms\":0"),
                "{line}"
            );
            assert!(line.contains("\"ops\":"), "{line}");
            Json::parse(line).unwrap();
        }
        // An unreachable threshold captures nothing: the span-tree cost
        // is paid only by queries that actually breach it.
        let quiet_slow = dir.join("quiet-slow.jsonl");
        let args = Args::parse_bools(
            &argv(&[
                "--index",
                index_dir.to_str().unwrap(),
                "--slow-query-ms",
                "100000",
                "--slow-log",
                quiet_slow.to_str().unwrap(),
            ]),
            BOOL_FLAGS,
        )
        .unwrap();
        let input = b"NP(NN)\nS(NP)(VP)\n" as &[u8];
        let mut reader = std::io::BufReader::new(input);
        let mut out: Vec<u8> = Vec::new();
        serve(&args, &mut reader, &mut out).unwrap();
        assert_eq!(std::fs::read_to_string(&quiet_slow).unwrap(), "");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_aggregates_trace_slow_and_metrics_files() {
        let dir = tmp("report");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        let queries_file = dir.join("queries.txt");
        run(&argv(&[
            "generate",
            "--sentences",
            "80",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&queries_file, "NP(NN)\nS(NP)(VP)\nVP(VBZ)\nNP(DT)(NN)\n").unwrap();
        let trace_file = dir.join("trace.jsonl");
        let slow_file = dir.join("slow.jsonl");
        let metrics_file = dir.join("metrics.jsonl");
        run(&argv(&[
            "batch",
            "--index",
            index_dir.to_str().unwrap(),
            "--queries",
            queries_file.to_str().unwrap(),
            "--trace-json",
            trace_file.to_str().unwrap(),
            "--slow-query-ms",
            "0",
            "--slow-log",
            slow_file.to_str().unwrap(),
            "--stats-interval",
            "30",
            "--metrics-json",
            metrics_file.to_str().unwrap(),
        ]))
        .unwrap();
        let args = Args::parse_bools(
            &argv(&[
                "--top",
                "2",
                trace_file.to_str().unwrap(),
                slow_file.to_str().unwrap(),
                metrics_file.to_str().unwrap(),
            ]),
            BOOL_FLAGS,
        )
        .unwrap();
        let mut out: Vec<u8> = Vec::new();
        report(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // 4 trace records + 4 slow records, every line classified.
        assert!(
            text.contains("queries aggregated: 8 (4 slow-log records)"),
            "{text}"
        );
        assert!(!text.contains("unrecognized"), "{text}");
        assert!(text.contains("stage breakdown"), "{text}");
        assert!(text.contains("top 2 slowest queries:"), "{text}");
        assert!(text.contains("dominant op"), "{text}");
        assert!(text.contains("metrics snapshots: 1 line"), "{text}");
        // The registry counted each of the 4 queries once, even though
        // trace + slow views record them twice.
        assert!(text.contains("service     4 queries"), "{text}");
        // Prefetch shows up in both the per-query aggregation and the
        // metrics-snapshot block.
        assert!(text.contains("prefetch (traced queries):"), "{text}");
        assert!(text.contains("  prefetch    "), "{text}");
        // The dispatcher wires `si report` up, and no files is an error.
        run(&argv(&["report", trace_file.to_str().unwrap()])).unwrap();
        assert!(run(&argv(&["report"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_build_ingest_query_stats_batch() {
        let dir = tmp("sharded");
        let corpus_file = dir.join("corpus.ptb");
        let more_file = dir.join("more.ptb");
        let index_dir = dir.join("idx");
        let queries_file = dir.join("queries.txt");
        run(&argv(&[
            "generate",
            "--sentences",
            "90",
            "--seed",
            "11",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "generate",
            "--sentences",
            "30",
            "--seed",
            "12",
            "--out",
            more_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
            "--shards",
            "3",
            "--workers",
            "2",
        ]))
        .unwrap();
        let idx = index_dir.to_str().unwrap();
        assert!(index_dir.join("MANIFEST.si").is_file());
        assert!(index_dir.join("shard-0000").is_dir());
        // Query (plain + verbose + show), stats (summary + per-key).
        run(&argv(&[
            "query",
            "--index",
            idx,
            "S(NP)(VP)",
            "--show",
            "1",
        ]))
        .unwrap();
        run(&argv(&["query", "--index", idx, "--verbose", "NP(NN)"])).unwrap();
        run(&argv(&["stats", "--index", idx])).unwrap();
        run(&argv(&["stats", "--index", idx, "NP(NN)"])).unwrap();
        // Ingest appends a shard; queries and stats keep working.
        run(&argv(&[
            "ingest",
            "--input",
            more_file.to_str().unwrap(),
            "--index",
            idx,
        ]))
        .unwrap();
        assert!(index_dir.join("shard-0003").is_dir());
        run(&argv(&["query", "--index", idx, "S(NP)(VP)"])).unwrap();
        run(&argv(&["stats", "--index", idx])).unwrap();
        // Batch through the sharded service.
        std::fs::write(&queries_file, "NP(NN)\nS(NP)(VP)\nVP(VBZ)\nNP(NN)\n").unwrap();
        run(&argv(&[
            "batch",
            "--index",
            idx,
            "--queries",
            queries_file.to_str().unwrap(),
            "--threads",
            "2",
            "--cache-mb",
            "8",
        ]))
        .unwrap();
        // Ingest into a monolithic index is a helpful error.
        let mono_dir = dir.join("mono");
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            mono_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&argv(&[
            "ingest",
            "--input",
            more_file.to_str().unwrap(),
            "--index",
            mono_dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monolithic_rebuild_tears_down_a_stale_sharded_layout() {
        let dir = tmp("rebuild-over-sharded");
        let big = dir.join("big.ptb");
        let small = dir.join("small.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "90",
            "--seed",
            "31",
            "--out",
            big.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "generate",
            "--sentences",
            "30",
            "--seed",
            "32",
            "--out",
            small.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            big.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
            "--shards",
            "3",
        ]))
        .unwrap();
        assert!(index_dir.join("MANIFEST.si").is_file());
        // A monolithic rebuild into the same directory must become
        // authoritative: the stale manifest (which readers dispatch on)
        // and its shard directories are removed.
        run(&argv(&[
            "build",
            "--input",
            small.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!index_dir.join("MANIFEST.si").exists());
        assert!(!index_dir.join("shard-0000").exists());
        let reopened = ShardedIndex::open(&index_dir).unwrap();
        assert_eq!(reopened.shards().len(), 1);
        assert_eq!(reopened.shards()[0].dir(), index_dir.as_path());
        assert_eq!(reopened.num_trees(), 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_and_mono_cli_answers_agree() {
        let dir = tmp("sharded-agree");
        let corpus_file = dir.join("corpus.ptb");
        run(&argv(&[
            "generate",
            "--sentences",
            "70",
            "--seed",
            "21",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        let mono_dir = dir.join("mono");
        let shard_dir = dir.join("sharded");
        for (target, shards) in [(&mono_dir, None), (&shard_dir, Some("4"))] {
            let mut cmd = vec![
                "build",
                "--input",
                corpus_file.to_str().unwrap(),
                "--index",
                target.to_str().unwrap(),
            ];
            if let Some(n) = shards {
                cmd.extend(["--shards", n, "--workers", "2"]);
            }
            run(&argv(&cmd)).unwrap();
        }
        // Same answers through the public evaluate path.
        let mono = ShardedIndex::open(&mono_dir).unwrap();
        let sharded = ShardedIndex::open(&shard_dir).unwrap();
        let mut qi = mono.interner();
        for text in ["NP(NN)", "S(NP)(VP)", "VP(//NN)", "XXUNKNOWN"] {
            let q = parse_query(text, &mut qi).unwrap();
            let ctx = si_core::ExecContext::default();
            assert_eq!(
                mono.evaluate_with(&q, &ctx).unwrap().matches,
                sharded.evaluate_with(&q, &ctx).unwrap().matches,
                "{text}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_ledger_accounts_for_every_byte_of_the_directory() {
        let dir = tmp("ledger");
        let corpus = GeneratorConfig::default().with_seed(9).generate(400);
        let (trees, interner) = (corpus.trees(), corpus.interner());
        let options = IndexOptions::new(3, Coding::RootSplit);
        let (bare, sharded) = (dir.join("bare"), dir.join("sharded"));
        SubtreeIndex::build(&bare, trees, interner, options).unwrap();
        let config = ShardedBuildConfig {
            shards: 3,
            workers: 1,
            mode: ShardBuildMode::InMemory,
        };
        ShardedIndex::build(&sharded, trees, interner, options, config).unwrap();
        for index_dir in [&bare, &sharded] {
            let index = ShardedIndex::open(index_dir).unwrap();
            let ledger = byte_ledger(&index).unwrap();
            let mut on_disk = BTreeMap::new();
            file_sizes(index_dir, index_dir, &mut on_disk).unwrap();
            assert_eq!(ledger.total(), on_disk.values().sum::<u64>());
            assert!(ledger.lines[0].0.starts_with("block headers"));
            assert!(ledger.lines[1].0.starts_with("patches"));
            assert_eq!(ledger.lines[2].0, "packed columns");
            assert_eq!(
                ledger.lines[..3]
                    .iter()
                    .map(|(_, bytes)| bytes)
                    .sum::<u64>(),
                index.stats().posting_bytes,
                "the stored payload"
            );
            assert!(ledger.lines[1].1 > 0, "some column is patched");
            assert_eq!(ledger.postings, index.stats().postings);
            assert!(ledger.heap_values > 0 && ledger.inline_values > 0);
            let (what, padding) = &ledger.lines[4];
            assert_eq!(what, "heap padding");
            assert!(*padding < index.shards().len() as u64 * si_storage::PAGE_SIZE as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_exec_flag_selects_executor() {
        let dir = tmp("execflag");
        let corpus_file = dir.join("corpus.ptb");
        let index_dir = dir.join("idx");
        run(&argv(&[
            "generate",
            "--sentences",
            "40",
            "--out",
            corpus_file.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--input",
            corpus_file.to_str().unwrap(),
            "--index",
            index_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let idx = index_dir.to_str().unwrap();
        run(&argv(&[
            "query",
            "--index",
            idx,
            "--exec",
            "streaming",
            "NP(NN)",
        ]))
        .unwrap();
        run(&argv(&[
            "query",
            "--index",
            idx,
            "--exec",
            "materialized",
            "NP(NN)",
        ]))
        .unwrap();
        assert!(run(&argv(&[
            "query", "--index", idx, "--exec", "bogus", "NP(NN)"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod scan_extract_tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    fn corpus_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("si-cli-se-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("c.ptb");
        std::fs::write(
            &f,
            "(S (NP (DT the) (NN dog)) (VP (VBZ barks)))\n(S (NP (NN cat)) (VP (VBD sat)))\n",
        )
        .unwrap();
        f
    }

    #[test]
    fn scan_matches_like_tgrep() {
        let f = corpus_file("scan");
        run(&argv(&[
            "scan",
            "--input",
            f.to_str().unwrap(),
            "S(NP(NN))",
            "--show",
            "1",
        ]))
        .unwrap();
        assert!(run(&argv(&["scan", "--input", f.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(f.parent().unwrap()).ok();
    }

    #[test]
    fn extract_dumps_keys() {
        let f = corpus_file("extract");
        run(&argv(&[
            "extract",
            "--input",
            f.to_str().unwrap(),
            "--mss",
            "2",
            "--top",
            "5",
        ]))
        .unwrap();
        std::fs::remove_dir_all(f.parent().unwrap()).ok();
    }

    #[test]
    fn render_key_round_trips_structure() {
        let mut li = LabelInterner::new();
        let q = parse_query("NP(DT)(NN)", &mut li).unwrap();
        let cover = decompose(&q, 3, Coding::RootSplit);
        let rendered = render_key(&cover.subtrees[0].key, &li);
        // Canonical order may differ from input order but both children
        // appear under NP.
        assert!(rendered.starts_with("NP("));
        assert!(rendered.contains("DT"));
        assert!(rendered.contains("NN"));
    }
}
