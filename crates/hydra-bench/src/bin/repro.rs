//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin repro            # 60 s runs
//! cargo run --release -p hydra-bench --bin repro -- --full  # 600 s (paper)
//! cargo run --release -p hydra-bench --bin repro -- fig9    # one experiment
//! cargo run --release -p hydra-bench --bin repro -- trace > trace.json
//! ```
//!
//! Run with `--help` (or an unknown selector) for the full selector
//! list. `trace` alone prints nothing but the Chrome trace-event JSON of
//! the demo deployment, ready to pipe into a file and load in
//! `chrome://tracing` or <https://ui.perfetto.dev>. All dispatch lives
//! in [`hydra_bench::run`]; this binary hands it stdout and stderr.

use std::env;
use std::io;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = hydra_bench::run(&args, &mut io::stdout().lock(), &mut io::stderr().lock());
    match result {
        Ok(run) if run.ok => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repro: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}
