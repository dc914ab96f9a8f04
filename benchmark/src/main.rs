//! Command line of the benchmark; `benchmark/run.sh` builds and execs it.
//!
//! ```text
//! rkvc-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                [--sets N] [--check] [--bless]
//! rkvc-benchmark compare A.json B.json
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! output with one JSON line. Without, it runs every workload in a child
//! process each and writes `benchmark/out/result.json`.

use std::process::ExitCode;

use rkvc_benchmark::orchestrate::{self, Plan};
use rkvc_benchmark::run::{self, Options};
use rkvc_benchmark::spec::Spec;
use rkvc_benchmark::workloads::{by_name, WORKLOADS};
use rkvc_benchmark::{compare, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str = "usage: rkvc-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--sets N] [--check] [--bless]\n       rkvc-benchmark compare A.json B.json";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| compare::load_runs(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed) = compare::compare(&Spec::load()?, &load(a)?, &load(b)?);
    print!("{report}");
    Ok(!regressed)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare_files(a, b),
            _ => Err(USAGE.to_owned()),
        };
    }

    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let (mut trace, mut check, mut bless) = (false, false, false);
    let mut sets = 1usize;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}\n{USAGE}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(by_name(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed =
                    parse_seed(value("a number")?).ok_or("--seed needs a decimal or 0x number")?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--sets" => {
                sets = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--sets needs a count of at least 1")?;
            }
            // Bare `--trace` means 1; the driver always passes 0 or 1.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => check = true,
            "--bless" => bless = true,
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        }
    }

    match workload {
        Some(workload) => {
            let opts = Options {
                workload,
                seed,
                seconds,
                trace,
                check,
                bless,
            };
            let outcome = run::run(&opts)?;
            run::print_report(&opts, &outcome);
            Ok(outcome.correct)
        }
        None if check => {
            let problems = orchestrate::check(seed)?;
            for p in &problems {
                println!("check problem: {p}");
            }
            println!("check: {} problems", problems.len());
            Ok(problems.is_empty())
        }
        None if bless => Err("--bless needs --workload (and is for benchmark PRs only)".to_owned()),
        None => orchestrate::run(&Plan {
            seed,
            seconds,
            trace,
            sets,
        }),
    }
}

fn main() -> ExitCode {
    // One thread, whatever the caller's environment says: on the sizing
    // host the second vCPU's speed moves by half with its placement, and
    // nothing the main thread can measure tracks it (README, "Noise").
    std::env::set_var("RKVC_THREADS", "1");
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rkvc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
