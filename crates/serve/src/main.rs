//! The `incdx-serve` binary: flag parsing and the daemon ready line.
//!
//! ```text
//! incdx-serve [--addr HOST:PORT] [--spool DIR] [--workers N]
//!             [--quantum NODES] [--max-queue N] [--chaos SEED,RATE]
//!             [--no-auto-resume]
//! ```
//!
//! On successful startup the daemon prints exactly one ready line to
//! stdout — `{"serve":"ready","addr":"127.0.0.1:PORT","recovered":N,
//! "quarantined":N}` — and then serves until a `shutdown` request.
//! Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use incdx_core::{json_obj, ChaosConfig};
use incdx_serve::{ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("incdx-serve: {msg}");
            eprintln!(
                "usage: incdx-serve [--addr HOST:PORT] [--spool DIR] [--workers N] \
                 [--quantum NODES] [--max-queue N] [--chaos SEED,RATE] [--no-auto-resume]"
            );
            return ExitCode::from(2);
        }
    };
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(msg) => {
            eprintln!("incdx-serve: {msg}");
            return ExitCode::from(1);
        }
    };
    let ready = json_obj! {
        "serve": "ready", "addr": format!("127.0.0.1:{}", server.port()),
        "recovered": server.recovered(), "quarantined": server.quarantined(),
    };
    println!("{ready}");
    let _ = std::io::stdout().flush();
    server.join();
    ExitCode::SUCCESS
}

fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--spool" => cfg.spool_dir = PathBuf::from(value("--spool")?),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--quantum" => {
                cfg.quantum = value("--quantum")?
                    .parse()
                    .map_err(|e| format!("--quantum: {e}"))?;
            }
            "--max-queue" => {
                cfg.max_queue = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?;
            }
            "--chaos" => {
                cfg.chaos =
                    Some(ChaosConfig::parse(&value("--chaos")?).map_err(|e| e.to_string())?);
            }
            "--no-auto-resume" => cfg.auto_resume = false,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}
