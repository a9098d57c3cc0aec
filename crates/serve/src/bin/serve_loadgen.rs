//! The seeded duplicate-heavy load generator.
//!
//! ```text
//! serve-loadgen [--addr HOST:PORT] [--quick] [--out PATH] [--seed N]
//!               [--expect-hits] [--min-speedup X] [--keep-alive]
//! ```
//!
//! Without `--addr` it self-hosts a server in-process on an ephemeral
//! port (the CI-friendly mode: one command, no orchestration). The
//! report — p50/p99 latency, hit/miss split, verdicts/sec, the cache
//! speedup and the byte-identity check — is printed and written as JSON
//! to `--out` (default `results/serve/load_report.json`).
//!
//! `--expect-hits` makes the exit code assert the cache worked: nonzero
//! when any request errored, no hit was served, or a duplicate response
//! differed byte-for-byte. `--min-speedup X` additionally requires the
//! hit path to be at least `X`× faster than the cold path.
//!
//! `--keep-alive` reuses one connection per client thread via
//! `Connection: keep-alive` (and makes `--expect-hits` additionally
//! assert that at least one request actually rode a reused connection);
//! the report carries the opened/reused connection counters either way.
//!
//! Any other argument is a usage error (exit code 2).

use std::path::PathBuf;
use std::process::ExitCode;

use dpcp_serve::{loadgen, LoadgenConfig, ServeConfig, Server};

struct Args {
    quick: bool,
    out: PathBuf,
    addr: Option<String>,
    seed: Option<u64>,
    expect_hits: bool,
    min_speedup: Option<f64>,
    keep_alive: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve-loadgen [--addr HOST:PORT] [--quick] [--out PATH] \
         [--seed N] [--expect-hits] [--min-speedup X] [--keep-alive]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        quick: false,
        out: PathBuf::from("results/serve/load_report.json"),
        addr: None,
        seed: None,
        expect_hits: false,
        min_speedup: None,
        keep_alive: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--addr" => args.addr = Some(it.next().unwrap_or_else(|| usage())),
            "--seed" => {
                args.seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--expect-hits" => args.expect_hits = true,
            "--keep-alive" => args.keep_alive = true,
            "--min-speedup" => {
                args.min_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut config = if args.quick {
        LoadgenConfig::quick()
    } else {
        LoadgenConfig::full()
    };
    if let Some(seed) = args.seed {
        config.seed = seed;
    }
    config.keep_alive = args.keep_alive;

    // Self-host when no server was pointed at; keep the handle so the
    // run shuts it down cleanly.
    let hosted = if args.addr.is_none() {
        match Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        }) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("serve-loadgen: self-host failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = args.addr.clone().unwrap_or_else(|| {
        hosted
            .as_ref()
            .expect("self-hosted")
            .local_addr()
            .to_string()
    });

    let report = match loadgen::run(&addr, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(server) = hosted {
        server.shutdown();
    }

    println!(
        "serve-loadgen: {} requests to {addr} ({} errors) | {} hits / {} misses | \
         p50 {} us, p99 {} us | hit p50 {} us vs miss p50 {} us ({:.1}x) | \
         {:.1} verdicts/sec | byte-identical: {} | keep-alive: {} \
         ({} connections opened, {} reused)",
        report.requests,
        report.errors,
        report.hits,
        report.misses,
        report.p50_us,
        report.p99_us,
        report.hit_p50_us,
        report.miss_p50_us,
        report.hit_speedup,
        report.verdicts_per_sec,
        report.byte_identical,
        report.keep_alive,
        report.connections_opened,
        report.connections_reused
    );

    let out = &args.out;
    if let Some(parent) = out.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("serve-loadgen: create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    let text = serde_json::to_string_pretty(&report).expect("reports always serialize");
    if let Err(e) = std::fs::write(out, text) {
        eprintln!("serve-loadgen: write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("serve-loadgen: report written to {}", out.display());

    if args.expect_hits && (report.errors > 0 || report.hits == 0 || !report.byte_identical) {
        eprintln!(
            "serve-loadgen: cache expectation failed \
             (errors {}, hits {}, byte-identical {})",
            report.errors, report.hits, report.byte_identical
        );
        return ExitCode::FAILURE;
    }
    if args.expect_hits && args.keep_alive && report.connections_reused == 0 {
        eprintln!(
            "serve-loadgen: keep-alive expectation failed \
             ({} requests, {} connections opened, 0 reused)",
            report.requests, report.connections_opened
        );
        return ExitCode::FAILURE;
    }
    if let Some(min) = args.min_speedup {
        if report.hit_speedup < min {
            eprintln!(
                "serve-loadgen: hit speedup {:.2}x below the required {min:.2}x",
                report.hit_speedup
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
