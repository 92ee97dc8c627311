//! `repro <name> [--quick] [--csv [path]] [--obs] [--trace-out [path]]`
//! regenerates one experiment of the paper's evaluation — a row of
//! [`lotec_bench::experiments::EXPERIMENTS`] — on stdout. Without a name,
//! or with an unknown name or flag, it prints the list of experiments and
//! exits 2.

use std::io::Write;
use std::process::ExitCode;

use lotec_bench::experiments;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, ctx) = match experiments::parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("repro: {msg}\n\n{}", experiments::usage());
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::stdout().lock();
    match (experiment.run)(&ctx, &mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {}: {e}", experiment.name);
            ExitCode::FAILURE
        }
    }
}
