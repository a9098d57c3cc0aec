//! The admission-control server binary.
//!
//! ```text
//! dpcp-serve [--addr HOST:PORT] [--workers N] [--cache-capacity N] [--quick]
//! ```
//!
//! Binds, prints the resolved address (one `listening on` line, so CI
//! can scrape the port from `--addr 127.0.0.1:0`), then serves until
//! killed. `--quick` is the CI-scale flag: a small worker pool and cache
//! for smoke jobs. Any other argument is a usage error (exit code 2).

use std::process::ExitCode;

use dpcp_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: dpcp-serve [--addr HOST:PORT] [--workers N] \
         [--cache-capacity N] [--quick]"
    );
    std::process::exit(2)
}

fn parse_args() -> ServeConfig {
    let mut it = std::env::args().skip(1);
    let mut quick = false;
    let mut config = ServeConfig::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--addr" => config.addr = it.next().unwrap_or_else(|| usage()),
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cache-capacity" => {
                config.cache_capacity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    if quick {
        config.workers = config.workers.min(2);
        config.cache_capacity = config.cache_capacity.min(64);
    }
    config
}

fn main() -> ExitCode {
    let config = parse_args();
    let server = match Server::spawn(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dpcp-serve: bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dpcp-serve listening on {} ({} workers, cache capacity {})",
        server.local_addr(),
        config.workers.max(1),
        config.cache_capacity
    );
    // Serve until killed; the accept and worker threads do all the work.
    loop {
        std::thread::park();
    }
}
