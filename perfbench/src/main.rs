//! `blameit-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints every metric with its unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero when a correctness check fails. `--scale tiny|small|default`
//! overrides the workload's scale (for smoke runs).

use blameit_bench::Args;
use blameit_perfbench::{run, Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse();
    let name = args.get("workload").unwrap_or("");
    let Some(workload) = Workload::parse(name) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!(
            "--workload expects one of {}, got {name:?}",
            names.join("|")
        );
        return ExitCode::from(2);
    };
    let opts = Opts {
        workload,
        seed: args.u64("seed", 1),
        seconds: args.f64("seconds", 10.0),
        trace: args.u64("trace", 0) != 0,
        scale: args
            .get("scale")
            .map(|_| args.scale(blameit_bench::Scale::Tiny)),
        work_dir: PathBuf::from(".perfbench"),
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload={} seed={} trace={} threads={} host_cores={}",
        workload.name(),
        opts.seed,
        u8::from(opts.trace),
        blameit_perfbench::THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for m in outcome.metrics(opts.trace) {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{}", outcome.json_line(opts.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
