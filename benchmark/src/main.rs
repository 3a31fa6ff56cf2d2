//! `si-benchmark` — the repository's benchmark.
//!
//! ```text
//! si-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out DIR] [--append FILE]
//! si-benchmark compare A.jsonl B.jsonl
//! si-benchmark list
//! ```
//!
//! A `run` is one workload in this one process: seed → inputs → set-up
//! → warm-up → measured passes → answer check. Its last stdout line is
//! the result object the acceptance driver reads; the lines before it
//! name every metric with its unit. See `README.md` beside this crate.

mod compare;
mod digest;
mod pool;
mod prepared;
mod schema;
mod stats;
mod sys;
mod trace;
mod workload;
mod zipf;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use schema::{manifest, result_line};
use workload::{Outcome, RunArgs, MIN_PHASE_SECONDS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5EED_0001;

/// Seconds a `--smoke` run is sized for unless `--seconds` says otherwise.
const SMOKE_SECONDS: f64 = 1.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: si-benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR] [--append FILE]\n       \
         si-benchmark compare A.jsonl B.jsonl\n       \
         si-benchmark list",
        workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

struct RunCommand {
    workload: String,
    args: RunArgs,
    append: Option<PathBuf>,
}

fn parse_run(argv: &[String]) -> Option<RunCommand> {
    let mut cmd = RunCommand {
        workload: String::new(),
        args: RunArgs {
            seed: DEFAULT_SEED,
            seconds: f64::from(manifest().run_seconds),
            trace: false,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
        },
        append: None,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => cmd.args.smoke = true,
            "--workload" => cmd.workload = it.next()?.clone(),
            "--seed" => cmd.args.seed = parse_seed(it.next()?)?,
            "--seconds" => seconds = Some(it.next()?.parse().ok().filter(|s| *s > 0.0)?),
            "--trace" => cmd.args.trace = it.next()?.parse::<u8>().ok()? != 0,
            "--out" => cmd.args.out = PathBuf::from(it.next()?),
            "--append" => cmd.append = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    if let Some(s) = seconds.or(cmd.args.smoke.then_some(SMOKE_SECONDS)) {
        cmd.args.seconds = s;
    }
    workload::NAMES
        .contains(&cmd.workload.as_str())
        .then_some(cmd)
}

fn run_workload(name: &str, args: &RunArgs) -> (Outcome, trace::Tracer) {
    let mut tracer = trace::Tracer::new(args.trace);
    let outcome = match name {
        workload::build_ingest::NAME => workload::build_ingest::run(args, &mut tracer),
        "query-selective" => workload::query::run(
            &workload::query::Params::selective(args.smoke),
            args,
            &mut tracer,
        ),
        "query-scan" => workload::query::run(
            &workload::query::Params::scan(args.smoke),
            args,
            &mut tracer,
        ),
        workload::serve::NAME => workload::serve::run(args, &mut tracer),
        _ => unreachable!("workload names are checked while parsing"),
    };
    (outcome, tracer)
}

/// The `prepare` child of a read workload (see
/// `workload::prepare_in_child`).
fn prepare(cmd: &RunCommand) -> ExitCode {
    let args = &cmd.args;
    std::fs::create_dir_all(args.dir(&cmd.workload)).expect("workload directory");
    match cmd.workload.as_str() {
        "query-selective" => {
            workload::query::prepare(&workload::query::Params::selective(args.smoke), args);
        }
        "query-scan" => workload::query::prepare(&workload::query::Params::scan(args.smoke), args),
        workload::serve::NAME => workload::serve::prepare(args),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

fn run(cmd: &RunCommand) -> ExitCode {
    let args = &cmd.args;
    std::fs::create_dir_all(args.dir(&cmd.workload)).expect("workload directory");
    println!(
        "# {} seed {} seconds {} trace {} {}threads {} (host parallelism {})",
        cmd.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke " } else { "" },
        workload::ENGINE_THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (mut outcome, tracer) = run_workload(&cmd.workload, args);
    // Indexes go as soon as the run is over: pages of a deleted file are
    // never written back, so the next run does not share its two cores
    // with the kernel flushing this run's hundred megabytes.
    std::fs::remove_dir_all(args.dir(&cmd.workload)).expect("remove workload directory");

    // A metric of the eight that the manifest lists per layer (it could
    // not repeat within its cap) is printed by `--trace 1` runs.
    let mut ledger = workload::end_to_end(&outcome);
    for m in outcome.untraced.iter().chain([&outcome.measured]) {
        if !args.smoke && m.seconds < MIN_PHASE_SECONDS {
            outcome.violations.push(format!(
                "measured phase lasted {:.2} s, below {MIN_PHASE_SECONDS} s",
                m.seconds
            ));
        }
    }

    if args.trace {
        let path = args.out.join(format!("trace-{}.json", cmd.workload));
        tracer.write_json(&path, &cmd.workload).expect("span file");
        let times = tracer.layer_times();
        let l = &mut outcome.layers;
        for (metric, span) in [
            ("si_core.open.open_ms", "si_core.open.open"),
            ("si_core.open.first_query_ms", "si_core.open.first_query"),
        ] {
            l.set(metric, times.get(span).map_or(0.0, |t| t.mean_ms()));
        }
        let untraced = outcome.untraced.as_ref().expect("trace runs measure twice");
        l.set(
            "trace.overhead_share",
            workload::overhead_share(untraced, &outcome.measured),
        );
        l.set("trace.spans", tracer.spans().len() as f64);
        println!("# spans written to {}", path.display());
        for (name, t) in &times {
            println!(
                "# span {name:<36} count {:>9} total {:>12.3} ms self {:>12.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    ledger.extend(&outcome.layers);
    let (reported, other) = if args.trace {
        (&manifest().per_layer, &manifest().end_to_end)
    } else {
        (&manifest().end_to_end, &manifest().per_layer)
    };
    let report = ledger.report(reported);
    for (def, value) in &report {
        println!("metric {:<48} {:>16.6} {}", def.name, value, def.unit);
    }
    // What this run measured besides: the result object of the other
    // `--trace` mode carries these.
    let mut beside = ledger.report(other);
    beside.retain(|(d, _)| ledger.get(&d.name).is_some());
    for (def, value) in &beside {
        println!("beside {:<48} {:>16.6} {}", def.name, value, def.unit);
    }
    let m = outcome.untraced.as_ref().unwrap_or(&outcome.measured);
    let (tail_p, _) = stats::tail(&m.latencies_ms);
    println!(
        "# measured {:.2} s in {} passes, {} ops; op_p50_ms and op_tail_ms (p{tail_p}) are over \
         {} pooled latency samples; set-up {:.2} s",
        m.seconds,
        m.pass_ops_per_s.len(),
        m.ops,
        m.latencies_ms.len(),
        outcome.setup_s,
    );
    let per_pass: Vec<String> = m.pass_ops_per_s.iter().map(|v| format!("{v:.4}")).collect();
    println!("# ops_per_s of each pass: {}", per_pass.join(" "));
    let opens: Vec<String> = m.open_first_ms.iter().map(|v| format!("{v:.2}")).collect();
    println!("# open_first_ms samples: {}", opens.join(" "));
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for v in &outcome.violations {
        println!("# VIOLATION {v}");
    }

    let correct = outcome.failed == 0 && outcome.violations.is_empty();
    let line = result_line(correct, outcome.attempted.max(1), outcome.failed, &report);
    if let Some(path) = &cmd.append {
        // Everything the run measured, for `compare`.
        let all: Vec<_> = report.iter().chain(&beside).copied().collect();
        let everything = result_line(correct, outcome.attempted.max(1), outcome.failed, &all);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("append file");
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {everything}}}",
            cmd.workload,
            args.seed,
            u8::from(args.trace)
        )
        .expect("append result");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => parse_run(&argv[1..]).map_or_else(usage, |cmd| run(&cmd)),
        Some("prepare") => parse_run(&argv[1..]).map_or_else(usage, |cmd| prepare(&cmd)),
        Some("compare") if argv.len() == 3 => {
            compare::run(&PathBuf::from(&argv[1]), &PathBuf::from(&argv[2]))
        }
        Some("list") => {
            for (name, why) in &manifest().workloads {
                println!("{name}\t{why}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
