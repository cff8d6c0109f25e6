//! Benchmark of the offload datapath.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corrupt-digest]
//! ```
//!
//! Prints every metric as `name = value unit`, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no per-layer timing;
//! with `--trace 1` they are the per-layer ones, taken from a second,
//! traced window on the same stack, plus the tracing overhead.
//! `--corrupt-digest` flips a bit of every expected digest: the run must
//! then report `"correct": false` and exit with code 1.

mod clock;
mod inputs;
mod run;
mod stack;

use run::{Outcome, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: pbo-perfbench --workload <xrpc_small|xrpc_mix_cached|\
datapath_ints512|datapath_chars8000> --seed <u64> --seconds <1..60> --trace <0|1> \
[--corrupt-digest]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut corrupt = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-digest" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.faults.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.corrupt,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: run failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} trace {}: attempted {} failed {}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        out.attempted,
        out.failed
    );
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.faults {
        println!("FAULT: {f}");
    }
    println!("{}", json(&out));
    if out.faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
