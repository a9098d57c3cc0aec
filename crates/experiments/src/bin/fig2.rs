//! Regenerates Fig. 2 of the paper: acceptance ratio vs normalized
//! utilization for the four panels (a)–(d).
//!
//! ```text
//! cargo run -p dpcp_experiments --release --bin fig2 -- \
//!     [--samples N] [--seed S] [--panels abcd] [--out DIR] \
//!     [--assert-golden DIR]
//! ```
//!
//! A thin wrapper over the campaign engine: each panel is one bundled
//! single-scenario manifest (`fig2_panel_manifest`) whose cell the
//! engine evaluates with the exact seed discipline the pre-campaign
//! binary used — flag-for-flag, the emitted `fig2_<panel>.csv` bytes
//! are unchanged. `--assert-golden DIR` diffs every emitted CSV against
//! `DIR/fig2_<panel>.csv` and exits non-zero on any difference.

use std::path::PathBuf;
use std::process::ExitCode;

use dpcp_experiments::ascii::{render_curve, render_table};
use dpcp_experiments::campaign::{assert_golden, run_cells};
use dpcp_experiments::manifest::fig2_panel_manifest;
use dpcp_gen::scenario::Fig2Panel;

struct Args {
    samples: usize,
    seed: u64,
    panels: Vec<Fig2Panel>,
    out: PathBuf,
    assert_golden: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        samples: 50,
        seed: 2020,
        panels: Fig2Panel::all().to_vec(),
        out: PathBuf::from("results"),
        assert_golden: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--samples" => {
                args.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples needs a positive integer");
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--panels" => {
                let spec = it.next().expect("--panels needs letters from {a,b,c,d}");
                args.panels = spec
                    .chars()
                    .map(|c| match c {
                        'a' => Fig2Panel::A,
                        'b' => Fig2Panel::B,
                        'c' => Fig2Panel::C,
                        'd' => Fig2Panel::D,
                        other => panic!("unknown panel '{other}'"),
                    })
                    .collect();
            }
            "--out" => {
                args.out = PathBuf::from(it.next().expect("--out needs a directory"));
            }
            "--assert-golden" => {
                args.assert_golden = Some(PathBuf::from(
                    it.next().expect("--assert-golden needs a directory"),
                ));
            }
            other => panic!(
                "unknown flag '{other}' \
                 (try --samples/--seed/--panels/--out/--assert-golden)"
            ),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("cannot create output directory");
    println!(
        "Fig. 2 reproduction — {} samples/point, seed {}",
        args.samples, args.seed
    );
    let mut golden_ok = true;
    for panel in &args.panels {
        let manifest = fig2_panel_manifest(*panel, args.samples, args.seed);
        let cells = manifest.cells(false);
        let started = std::time::Instant::now();
        let results = run_cells(&cells);
        let curve = results[0].curve();
        let elapsed = started.elapsed();
        println!("\n=== {panel} ===  ({elapsed:.1?})");
        println!("{}", render_curve(&curve, 16));
        println!("{}", render_table(&curve));
        // The bundled manifest's name ("fig2_<panel>") is the single
        // owner of the panel tag; output and golden filenames derive
        // from it.
        let csv_name = format!("{}.csv", manifest.name);
        let csv = curve.to_csv();
        let path = args.out.join(&csv_name);
        std::fs::write(&path, &csv).expect("cannot write CSV");
        println!("wrote {}", path.display());
        if let Some(golden_dir) = &args.assert_golden {
            golden_ok &= assert_golden(golden_dir, &csv_name, &csv);
        }
    }
    if golden_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
