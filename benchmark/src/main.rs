//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload farm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the JSON report. A failed
//! operation or correctness check prints the reason to standard error
//! and exits with status 1.

use std::path::PathBuf;
use std::process::ExitCode;

use gtlb_ledger::run::run;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let outcome = parse(std::env::args().skip(1)).and_then(|args| {
        let spans =
            PathBuf::from(format!("target/gtlb-ledger/spans-{}-{}.tsv", args.workload, args.seed));
        let report = run(&args.workload, args.seed, args.seconds, args.trace, Some(&spans))?;
        report.to_json(args.trace)
    });
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gtlb-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
