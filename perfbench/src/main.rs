//! The pmcs benchmark: one command, three workloads, every metric by name
//! with its unit, outputs checked after each timed phase.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <admission|sweep|campaign> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
//! workload's work through timing decorators and prints the per-layer
//! metrics. The last line of standard output is the JSON result.

#![forbid(unsafe_code)]

mod admission;
mod campaign;
mod report;
mod sweep;
mod timed;

use report::{Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: pmcs-perfbench --workload <admission|sweep|campaign> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "admission" => admission::run,
        "sweep" => sweep::run,
        "campaign" => campaign::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    run(args.seed, args.seconds, args.trace, &mut out);
    out.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
