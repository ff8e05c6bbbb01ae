//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric with its sample count, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. A traced run
//! also writes its spans to `perfbench/out/<workload>-seed<n>.trace.jsonl`.
//! The process first pins itself to one CPU (see `pin`).

use std::process::ExitCode;

use lutdla_perfbench::pin::pin_to_one_cpu;
use lutdla_perfbench::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    let cpu = pin_to_one_cpu();
    let outcome = run(&args);
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.trace.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let header = format!(
        "workload={} seed={} seconds={} trace={} cpu={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu.map_or("unpinned".to_string(), |c| c.to_string())
    );
    print!("{}", outcome.report.render(&header));
    ExitCode::SUCCESS
}
