//! Regenerates the paper's tables and figures (§6).
//!
//! ```text
//! cargo run -p si-bench --release --bin experiments -- all
//! cargo run -p si-bench --release --bin experiments -- fig2 fig8 tab2
//! SI_SCALE=paper cargo run -p si-bench --release --bin experiments -- fig13
//! ```
//!
//! Experiment ids: fig2 fig3 fig8 fig9 fig10 tab1 fig11 fig12 tab2 fig13
//! tab3 (or `all`). `scripts/paper/kick-tires.sh` and
//! `scripts/paper/full.sh` run every id and write one file per id under
//! `scripts/paper/out/`; README's "Reproducing §6" reads those tables
//! against the paper. Engine measurements (throughput, latency, caches,
//! tracing overhead) live in `benchmark/`, not here.
//!
//! `--seed N` pins the corpus RNG seed (default `0x5EED0001`); with a
//! fixed seed the count and byte tables (fig2 fig3 fig8 fig9 tab1 tab3)
//! are identical on every run.

use si_bench::harness::{self, Scale};

const ALL: &[&str] = &[
    "fig2", "fig3", "fig8", "fig9", "fig10", "tab1", "fig11", "fig12", "tab2", "fig13", "tab3",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2);
                });
                let seed = parse_seed(v).unwrap_or_else(|| {
                    eprintln!("--seed: cannot parse {v:?} (decimal or 0x-hex)");
                    std::process::exit(2);
                });
                harness::set_corpus_seed(seed);
                i += 2;
            }
            other => {
                ids.push(other.to_owned());
                i += 1;
            }
        }
    }
    let wanted: Vec<&str> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    for id in &wanted {
        if !ALL.contains(id) {
            eprintln!("unknown experiment {id}; known: {ALL:?}");
            std::process::exit(2);
        }
    }
    let scale = Scale::from_env();
    eprintln!(
        "scale: {scale:?} (set SI_SCALE=paper for the paper's sizes), seed {:#x}",
        harness::corpus_seed()
    );

    // The build grid backs fig8/fig9/fig10/tab1; compute it once.
    let needs_grid = wanted
        .iter()
        .any(|id| matches!(*id, "fig8" | "fig9" | "fig10" | "tab1"));
    let grid = needs_grid.then(|| {
        eprintln!("building the (size x mss x coding) index grid...");
        harness::run_index_grid(scale)
    });
    // The query grid backs fig11/fig12.
    let needs_queries = wanted.iter().any(|id| matches!(*id, "fig11" | "fig12"));
    let runs = needs_queries.then(|| {
        eprintln!("running the query-runtime grid...");
        harness::run_query_grid(scale)
    });

    for id in wanted {
        println!();
        match id {
            "fig2" => harness::fig2(scale),
            "fig3" => harness::fig3(scale),
            "fig8" => harness::fig8(grid.as_ref().unwrap()),
            "fig9" => harness::fig9(grid.as_ref().unwrap()),
            "fig10" => harness::fig10(grid.as_ref().unwrap()),
            "tab1" => harness::tab1(grid.as_ref().unwrap()),
            "fig11" => harness::fig11(runs.as_ref().unwrap()),
            "fig12" => harness::fig12(runs.as_ref().unwrap()),
            "tab2" => harness::tab2(scale),
            "fig13" => harness::fig13(scale),
            "tab3" => harness::tab3(),
            _ => unreachable!("validated above"),
        }
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}
