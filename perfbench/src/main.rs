//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--spans FILE]`
//!
//! Prints report lines, then the result object as the last line. Exits
//! 1 when any case fails its checks, 2 on bad arguments.

use mtb_perfbench::bench::{run, Options};
use mtb_perfbench::workload::{Size, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload meso-noise|cycle-paper|cycle-cluster \
[--seed N] [--seconds S] [--trace 0|1] [--spans FILE]";

struct Args {
    options: Options,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut spans) = (0, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(&"expected 0 to 3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        options: Options {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
            pins: Options::default_pins(seed, Size::Full),
        },
        spans,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(args.options);
    if let (Some(path), Some(tr)) = (&args.spans, &outcome.tracer) {
        if let Err(e) = std::fs::write(path, tr.to_json_lines()) {
            eprintln!("cannot write spans to {path}: {e}");
        }
    }
    print!("{}", outcome.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
