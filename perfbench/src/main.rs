//! The LifeRaft benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload saturated_archive --seed 1 --seconds 9 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the program's own
//! entry points; `--trace 1` measures the per-layer metrics with spans
//! recorded around calls into each crate. Either way the last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `README.md` beside this crate for the workloads and the metrics.

mod drive;
mod measure;
mod metrics;
mod spans;
mod workload;
mod wrap;

use measure::Plan;
use workload::Workload;

const USAGE: &str = "usage: liferaft-perfbench --workload <saturated_archive|crossmatch_joins|flash_crowd_door|crash_failover_elastic> --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    plan: Plan,
    trace: bool,
    /// Set in the child processes an untraced run starts, one per arrival
    /// draw.
    replica: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut replica) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--replica" => {
                let r = value.parse::<u64>().map_err(|_| bad("expected a u64"))?;
                if r >= measure::REPLICAS {
                    return Err(bad("replica out of range"));
                }
                replica = Some(r);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        plan: Plan {
            workload,
            seed,
            seconds: seconds.unwrap_or(9.0),
        },
        trace: trace.unwrap_or(false),
        replica,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(r) = args.replica {
        println!("{}", measure::replica(&args.plan, r));
        return;
    }
    let outcome = if args.trace {
        measure::traced(&args.plan)
    } else {
        match measure::untraced(&args.plan) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    };
    println!("{}", outcome.to_json());
}
