//! `incdx-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--state DIR] [--daemon BIN]`
//!
//! Runs one workload and prints, as its last stdout line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Exit codes:
//! 0 all answers right, 1 a wrong answer or a failed run, 2 usage.
//! `perfbench/run.py` builds this binary and is the usual entry point.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use incdx_perfbench::{batch, serve, RunArgs, RunOutput, DEDC_FIRST, STUCKAT_EXHAUSTIVE};

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        state: PathBuf::from(".bench_build/perfbench"),
        daemon: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--state" => out.state = PathBuf::from(value()?),
            "--daemon" => out.daemon = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// Identifies this build: a hash of the running executable, so the
/// determinism ledger compares runs of one build (one commit) only.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}

fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let ledger = args.state.join("ledger").join(format!(
        "{}-{}-{:016x}.tsv",
        args.workload,
        args.seed,
        build_id()?
    ));
    match args.workload.as_str() {
        "stuckat-exhaustive" => batch::run(&STUCKAT_EXHAUSTIVE, args, &ledger),
        "dedc-first" => batch::run(&DEDC_FIRST, args, &ledger),
        "serve-mixed" => serve::run(args, &ledger),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Writes the spans of a traced run, one JSON object per line.
fn write_spans(args: &RunArgs, out: &RunOutput) -> Result<(), String> {
    let dir = args.state.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    let mut text = String::new();
    for (i, s) in out.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"diagnosis\":{}}}",
            s.name, s.start_ns, s.end_ns, s.diagnosis
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("incdx-perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("incdx-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("incdx-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        if let Err(e) = write_spans(&args, &out) {
            eprintln!("incdx-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        out.metrics
            .result_line(out.correct, out.attempted, out.failed)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
