//! The benchmark driver: runs one workload against the release binaries
//! `dpcp-serve` and `campaign`, checks every output, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run) as the last line of standard output.
//!
//! ```text
//! perfbench --workload serve-cold|serve-hot|campaign --seed N --seconds S
//!           --trace 0|1 --bin-dir DIR --work-dir DIR
//!           [--clients N] [--rev REV]
//! ```
//!
//! `perfbench/run.py` builds everything and supplies the directories.

mod campaign;
mod client;
mod metrics;
mod pool;
mod procs;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{per_layer_catalog, Report, END_TO_END};

/// Everything a workload needs to know about the run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Closed-loop client threads (at most `nproc`).
    pub clients: usize,
    /// Measured available parallelism; also the server's worker count
    /// and the campaign's rayon width.
    pub nproc: usize,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    ctx: Ctx,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut it = std::env::args().skip(1);
    let mut flags: Vec<(String, String)> = Vec::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.push((flag, value));
    }
    let get = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.clone())
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str, text: String| {
        text.parse::<u64>()
            .map_err(|_| format!("{name} expects a whole number, got {text:?}"))
    };
    for (flag, _) in &flags {
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--clients",
            "--bin-dir",
            "--work-dir",
            "--rev",
        ]
        .contains(&flag.as_str())
        {
            return Err(format!("unknown flag {flag}"));
        }
    }
    let workload = need("--workload")?;
    if !["serve-cold", "serve-hot", "campaign"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let clients = match get("--clients") {
        Some(text) => number("--clients", text)? as usize,
        None => nproc,
    };
    // Bench honesty: never more closed-loop clients than cores.
    if clients == 0 || clients > nproc {
        return Err(format!(
            "refusing to run {clients} clients on {nproc} available cores (1..={nproc} allowed)"
        ));
    }
    let trace = need("--trace")?;
    if trace != "0" && trace != "1" {
        return Err(format!("--trace expects 0 or 1, got {trace:?}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: number("--seed", need("--seed")?)?,
            seconds: number("--seconds", need("--seconds")?)?.max(1) as f64,
            traced: trace == "1",
            clients,
            nproc,
            bin_dir: PathBuf::from(need("--bin-dir")?),
            work_dir: PathBuf::from(need("--work-dir")?),
        },
        rev: get("--rev").unwrap_or_else(|| "unknown".to_string()),
    })
}

fn object(entries: Vec<(String, serde::Value)>) -> serde::Value {
    serde::Value::Object(entries)
}

fn string(text: &str) -> serde::Value {
    serde::Value::String(text.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let provenance = object(vec![
        ("workload".into(), string(&args.workload)),
        ("seed".into(), serde::Value::U64(ctx.seed)),
        ("seconds".into(), serde::Value::F64(ctx.seconds)),
        ("trace".into(), serde::Value::Bool(ctx.traced)),
        ("nproc".into(), serde::Value::U64(ctx.nproc as u64)),
        ("clients".into(), serde::Value::U64(ctx.clients as u64)),
        ("server_workers".into(), serde::Value::U64(ctx.nproc as u64)),
        // Cargo names the output directory after the build profile.
        (
            "profile".into(),
            string(
                &ctx.bin_dir
                    .file_name()
                    .map_or(String::new(), |n| n.to_string_lossy().into_owned()),
            ),
        ),
        ("rev".into(), string(&args.rev)),
    ]);
    let json = |v: &serde::Value| serde_json::to_string(v).expect("values serialize");
    println!("perfbench: provenance {}", json(&provenance));
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::FAILURE;
    }

    let before = procs::cpu_jiffies();
    let outcome = match args.workload.as_str() {
        "serve-cold" => serve::run(ctx, false),
        "serve-hot" => serve::run(ctx, true),
        _ => campaign::run(ctx),
    };
    let mut report: Report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // A share of CPU time the hypervisor gave to other guests: results
    // taken under heavy steal are not comparable with quiet ones.
    if let (Some((s0, t0)), Some((s1, t1))) = (before, procs::cpu_jiffies()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.property("host_steal_share", serde::Value::F64(share));
    }

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        ctx.seed,
        u8::from(ctx.traced)
    );
    if ctx.traced {
        let path = ctx.work_dir.join(format!("spans-{tag}.jsonl"));
        if let Err(e) = trace::write_jsonl(&report.spans, &path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "perfbench: {} spans written to {}",
            report.spans.len(),
            path.display()
        );
    }

    let catalog: Vec<(String, &str)> = if ctx.traced {
        let names: Vec<String> = dpcp_baselines::standard_registry()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        per_layer_catalog(&names)
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    };
    let mut values = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        // A layer the workload's path never crosses reports 0; an
        // end-to-end metric must always be measured.
        let value = match report.values.get(&name) {
            Some(v) if v.is_finite() => *v,
            None if ctx.traced => 0.0,
            other => {
                eprintln!("perfbench: metric {name} not measured ({other:?})");
                return ExitCode::FAILURE;
            }
        };
        values.push((
            name,
            object(vec![
                ("value".into(), serde::Value::F64(value)),
                ("unit".into(), string(unit)),
            ]),
        ));
    }
    for (name, ok) in &report.checks {
        println!(
            "perfbench: check {name}: {}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let correct = report.failed == 0 && report.checks.iter().all(|(_, ok)| *ok);
    let properties = object(report.properties.clone());
    println!("perfbench: properties {}", json(&properties));

    let metrics = object(values);
    let record = object(vec![
        ("provenance".into(), provenance),
        ("properties".into(), properties),
        ("metrics".into(), metrics.clone()),
    ]);
    let path = ctx.work_dir.join(format!("report-{tag}.json"));
    if let Err(e) = std::fs::write(&path, json(&record)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let result = object(vec![
        ("correct".into(), serde::Value::Bool(correct)),
        (
            "attempted".into(),
            serde::Value::U64(report.attempted.max(1)),
        ),
        ("failed".into(), serde::Value::U64(report.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", json(&result));
    ExitCode::SUCCESS
}
