//! Command line: `perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH`.
//! Prints human-readable lines, then the result object as the last line.

use perfbench::workload::Workload;
use perfbench::{run, Options};
use std::path::PathBuf;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::WarmHttp,
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: PathBuf::from("target/release/privbasis-cli"),
        work_dir: PathBuf::from(".bench_run"),
        tiny: false,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| "--seconds must be a number")?
            }
            "--trace" => opts.trace = value == "1",
            "--cli" => opts.cli = PathBuf::from(value),
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for m in &report.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}
