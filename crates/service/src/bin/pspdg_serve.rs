//! The plan-service daemon.
//!
//! ```text
//! pspdg_serve [--addr HOST:PORT] [--handlers N] [--exec-workers N]
//!             [--budget-mb N] [--no-record]
//! ```
//!
//! Binds localhost (ephemeral port by default), prints one
//! `listening on ADDR` line to stdout, and serves until a client sends
//! `{"op":"shutdown"}` — then drains every in-flight request and exits.

use pspdg_service::{PlanService, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: pspdg_serve [--addr HOST:PORT] [--handlers N] [--exec-workers N] \
         [--budget-mb N] [--no-record]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--handlers" => match value("--handlers").parse() {
                Ok(n) if n >= 1 => config.handlers = n,
                _ => usage(),
            },
            "--exec-workers" => match value("--exec-workers").parse() {
                Ok(n) if n >= 1 => config.exec_workers = n,
                _ => usage(),
            },
            "--budget-mb" => match value("--budget-mb").parse::<usize>() {
                Ok(n) if n >= 1 => config.budget_bytes = n << 20,
                _ => usage(),
            },
            "--no-record" => config.record = false,
            _ => usage(),
        }
    }
    let service = match PlanService::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pspdg_serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", service.addr());
    service.wait();
}
