//! `motivo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and the metrics (the
//! end-to-end ones, or with `--trace 1` the per-layer ones). Exits 1 when
//! an operation or output check failed, 2 when the run could not measure.

use motivo_perfbench::workload::Scale;
use motivo_perfbench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: motivo-perfbench --workload <count-skewed|count-ooc|serve> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_root: PathBuf::from(".bench_work"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("`{}` needs a value", pair[0]));
        };
        let parsed: Result<(), String> = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                Ok(())
            }
            "--seed" => value
                .parse()
                .map(|v| opts.seed = v)
                .map_err(|e| e.to_string()),
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => {
                    opts.seconds = v;
                    Ok(())
                }
                Ok(_) => Err("must be positive".into()),
                Err(e) => Err(e.to_string()),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    Ok(())
                }
                _ => Err("must be 0 or 1".into()),
            },
            _ => Err("unknown flag".into()),
        };
        if let Err(e) = parsed {
            return usage(&format!("{flag} {value}: {e}"));
        }
    }
    if opts.workload.is_empty() {
        return usage("--workload is required");
    }
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
