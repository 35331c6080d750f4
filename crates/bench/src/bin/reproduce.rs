//! Regenerates, or with `--check` byte-checks, every committed
//! `results_*.txt`; see the `lr_bench` crate docs for the arguments and
//! the write rule.
//!
//! Usage: `cargo run --release -p lr-bench --bin reproduce -- [small|paper] [--check] [ARTIFACT...]`
//!
//! Exits 2 on an unknown argument and 1 when an artifact fails its own
//! acceptance checks, cannot be written, or differs from its committed
//! file under `--check`.

use std::path::Path;
use std::process::ExitCode;

use lr_bench::Args;

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)) {
        Ok(args) if lr_bench::run(&args, Path::new(".")) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
