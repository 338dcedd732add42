//! The wsflow benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <paper|scale|svc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) repeats whole rounds of the workload
//! for `--seconds` seconds and prints the end-to-end metrics; a traced
//! run (`--trace 1`) turns on the `wsflow-obs` registry, times one round
//! with and without it, and times each layer's public calls on the
//! workload's own inputs. Both check the program's outputs and exit 1
//! if any check fails. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod paper;
mod report;
mod scale;
mod svc;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper|scale|svc> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "paper" | "scale" | "svc") {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "paper" => paper::run(&args),
        "scale" => scale::run(&args),
        _ => svc::run(&args),
    };
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &report.info {
        println!("{:<34} {:>16.6} {} (not gated)", m.name, m.value, m.unit);
    }
    println!(
        "operations attempted {} failed {}",
        report.attempted, report.failed
    );
    for failure in &report.check_failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", report.json());
    if report.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload svc --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "svc");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(3));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload paper --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper --seed").is_err());
    }
}
