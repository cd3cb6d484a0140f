//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the root of an HDPAT checkout, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload sweep-bench`.
//! Prints the host facts as one JSON line, then the result as the last
//! line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

use std::process::ExitCode;

use perfbench::{Opts, Workload};

const USAGE: &str = "usage: perfbench --workload sweep-bench|run-full|serve-mix \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke: false,
        root: perfbench::checkout_root()?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&opts);
    if let Some(doc) = &report.trace_doc {
        match perfbench::write_trace(&opts, doc) {
            Ok(path) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, fail_ratio {}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.fail_ratio()
    );
    println!("{}", report.host.to_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
