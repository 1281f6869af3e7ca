//! `safexbench`: runs serve-path workloads and prints every metric.
//!
//! ```text
//! cargo run --release --manifest-path safexbench/Cargo.toml -- \
//!     --workload burst_b16 --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Each workload prints its manifest and notes, then one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with the
//! end-to-end metrics, or the per-layer ones under `--trace`. The exit
//! code is non-zero when the correctness gate fails.

use std::path::PathBuf;
use std::process::ExitCode;

use safexbench::workload::DEFAULT_SEED;
use safexbench::{run, Options, Workload};

const USAGE: &str = "usage: safexbench [--workload burst_b16|trickle_b1|cache_hot|fault_soak] \
[--seed N] [--seconds S] [--trace 0|1|DIR]
  --workload  one workload (default: all four, one result line each)
  --seed      input, gap and tier seed, decimal or 0x-hex (default 0x5AFE)
  --seconds   how long to keep starting timed reps (default 20)
  --trace     1 or DIR: add the traced rep, print per-layer metrics and
              write spans to DIR (default target/safexbench)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace_dir: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace_dir: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                parsed.seed = parse_seed(&value).ok_or_else(|| format!("bad seed {value:?}"))?;
            }
            "--seconds" => {
                let seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace_dir = match value.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from("target/safexbench")),
                    dir => Some(PathBuf::from(dir)),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("safexbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for workload in args.workloads {
        let mut opts = Options::new(workload, args.seed);
        opts.seconds = args.seconds.unwrap_or(opts.seconds);
        opts.trace = args.trace_dir.is_some();
        let report = match run(&opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("safexbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        println!("== safexbench {} ==", workload.name());
        println!("manifest {}", report.manifest.to_json().to_string_compact());
        for note in &report.notes {
            println!("  {note}");
        }
        for m in report.metrics() {
            println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for error in &report.errors {
            println!("  GATE FAILED: {error}");
        }
        if let (Some(dir), Some(spans)) = (&args.trace_dir, &report.spans) {
            let path = dir.join(format!("{}.json", workload.name()));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, spans.to_string_compact()));
            match written {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => {
                    eprintln!("safexbench: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{}", report.result_json());
        correct &= report.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
