//! Bound golden for the six local-execution baselines: every `TaskBound`
//! each one reports on fixed partitions, failing tasks included, pinned
//! in `ci/golden_baseline_bounds.csv`.
//!
//! A rejected verdict carries no task bounds, so `ci/golden_verdicts.csv`
//! cannot see what a baseline bounds a task at once the set fails. This
//! test analyses each set directly, on `Partition::local_execution`
//! clusters in three layouts:
//! - `line3`: every task at Algorithm 1's line-3 size
//!   (`initial_processors`, one processor when `L* ≥ D`);
//! - `wide`: the same with one task given two more processors;
//! - `narrow`: the same with that task given one processor fewer (at
//!   least one), which pushes its FED-FP bound past its deadline.
//!
//! The widened or narrowed task is task `sample mod n`. One row per (set,
//! layout, protocol, task): the task's width, its WCRT in nanoseconds
//! (`none` when the recurrence exceeds the deadline), `schedulable`, the
//! breakdown's five terms in nanoseconds (empty without a breakdown).
//! Every bound must count one signature and no truncation.
//!
//! The pools draw the same sets as the verdict golden's: Fig. 2 panels A
//! and B at U/m ∈ {0.2, 0.4, 0.6}, the light pool at `light_fraction`
//! 0.3, the reader-writer pool, the hot-resource pool without light
//! tasks, and Fig. 1.
//!
//! To rewrite the file after an intended bound change, run this test with
//! `GOLDEN_BOUNDS_BLESS=1` and state the reason in CHANGES.md.

use std::fmt::Write as _;
use std::path::PathBuf;

use dpcp_p::baselines::Baseline;
use dpcp_p::core::analysis::{EvalScratch, TaskBound};
use dpcp_p::core::{ProtocolAnalysis, SchedAnalyzer};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::gen::GraphShape;
use dpcp_p::model::{fig1, initial_processors, Partition, Platform, ProcessorId, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HEADER: &str = "pool,u_per_m,sample,layout,protocol,task,width,wcrt_ns,schedulable,\
path_len,inter_task_blocking,intra_task_blocking,intra_task_interference,agent_interference";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("ci/golden_baseline_bounds.csv")
}

/// One drawn set.
struct PoolSet {
    pool: String,
    load: String,
    sample: u64,
    tasks: TaskSet,
}

/// `samples` sets per normalized load, seeded exactly as
/// `tests/golden_verdicts.rs` seeds the pool with the same `index`.
fn draw(pool: &str, index: u64, scenario: &Scenario, loads: &[f64], samples: u64) -> Vec<PoolSet> {
    let mut sets = Vec::new();
    for (l, &load) in loads.iter().enumerate() {
        for sample in 0..samples {
            let base = 0x601D_0000 + index * 10_000 + (l as u64) * 100 + sample;
            let tasks = (0..32u64)
                .find_map(|retry| {
                    let mut rng = StdRng::seed_from_u64(base.wrapping_add(retry * 7919));
                    scenario
                        .sample_task_set(load * scenario.m as f64, &mut rng)
                        .ok()
                })
                .unwrap_or_else(|| panic!("{pool} at U/m {load} draws a set within 32 retries"));
            sets.push(PoolSet {
                pool: pool.to_string(),
                load: load.to_string(),
                sample,
                tasks,
            });
        }
    }
    sets
}

fn scenario(
    nr_range: (usize, usize),
    access_prob: f64,
    max_requests: u32,
    cs_range_us: (u64, u64),
    light_fraction: f64,
    rw_share: Option<f64>,
) -> Scenario {
    Scenario {
        m: 8,
        nr_range,
        u_avg: 1.5,
        access_prob,
        max_requests,
        cs_range_us,
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share,
    }
}

fn pool() -> Vec<PoolSet> {
    let mut sets = Vec::new();
    let loads = [0.2, 0.4, 0.6];
    for (p, panel) in [Fig2Panel::A, Fig2Panel::B].into_iter().enumerate() {
        sets.extend(draw(
            &panel.to_string(),
            p as u64,
            &Scenario::fig2(panel),
            &loads,
            4,
        ));
    }
    let light = |rw_share| scenario((2, 4), 0.75, 25, (15, 50), 0.3, rw_share);
    sets.extend(draw("light0.3", 2, &light(None), &loads, 3));
    sets.extend(draw("rw0.3", 6, &light(Some(0.5)), &loads, 2));
    let hot = scenario((1, 2), 1.0, 50, (1000, 3000), 0.0, None);
    sets.extend(draw(
        "hot0.0",
        7,
        &hot,
        &[2.0 / 8.0, 3.0 / 8.0, 4.0 / 8.0],
        5,
    ));
    sets.push(PoolSet {
        pool: "Fig.1".to_string(),
        load: "-".to_string(),
        sample: 0,
        tasks: fig1::task_set().expect("Fig. 1 builds"),
    });
    sets
}

/// Contiguous exclusive clusters of the given widths, on a platform just
/// wide enough for them.
fn layout(tasks: &TaskSet, widths: &[usize]) -> Partition {
    let platform = Platform::new(widths.iter().sum::<usize>().max(2)).expect("m ≥ 2");
    let mut next = 0;
    let clusters = widths
        .iter()
        .map(|&w| {
            next += w;
            (next - w..next).map(ProcessorId::new).collect()
        })
        .collect();
    Partition::local_execution(tasks, &platform, clusters).expect("disjoint clusters")
}

fn write_bound(csv: &mut String, bound: &TaskBound) {
    match bound.wcrt {
        Some(w) => write!(csv, "{},", w.as_ns()),
        None => write!(csv, "none,"),
    }
    .expect("writing to a String");
    write!(csv, "{},", bound.schedulable).expect("writing to a String");
    match bound.breakdown {
        Some(b) => write!(
            csv,
            "{},{},{},{},{}",
            b.path_len.as_ns(),
            b.inter_task_blocking.as_ns(),
            b.intra_task_blocking.as_ns(),
            b.intra_task_interference.as_ns(),
            b.agent_interference.as_ns()
        ),
        None => write!(csv, ",,,,"),
    }
    .expect("writing to a String");
    csv.push('\n');
}

fn bound_rows(sets: &[PoolSet]) -> String {
    let mut csv = format!("{HEADER}\n");
    for set in sets {
        let tasks = &set.tasks;
        let line3: Vec<usize> = tasks
            .iter()
            .map(|t| initial_processors(t).unwrap_or(1))
            .collect();
        let k = set.sample as usize % tasks.len();
        let mut wide = line3.clone();
        wide[k] += 2;
        let mut narrow = line3.clone();
        narrow[k] = (narrow[k] - 1).max(1);
        for (name, widths) in [("line3", line3), ("wide", wide), ("narrow", narrow)] {
            let partition = layout(tasks, &widths);
            for baseline in Baseline::ALL {
                let protocol = baseline.name();
                let report = baseline.analyze(tasks, &partition, &mut EvalScratch::new());
                assert_eq!(report.task_bounds.len(), tasks.len(), "{protocol}");
                assert_eq!(
                    report.schedulable,
                    report.task_bounds.iter().all(|b| b.schedulable),
                    "{protocol}"
                );
                for (i, bound) in report.task_bounds.iter().enumerate() {
                    assert_eq!(bound.task.index(), i, "{protocol}: bounds in task order");
                    assert_eq!(
                        (bound.signatures_evaluated, bound.truncated),
                        (1, false),
                        "{protocol}"
                    );
                    write!(
                        csv,
                        "{},{},{},{name},{protocol},{i},{},",
                        set.pool, set.load, set.sample, widths[i]
                    )
                    .expect("writing to a String");
                    write_bound(&mut csv, bound);
                }
            }
        }
    }
    csv
}

/// The column of one row, by header name.
fn cell<'a>(row: &'a str, column: &str) -> &'a str {
    let index = HEADER
        .split(',')
        .position(|h| h == column)
        .expect("a known column");
    row.split(',').nth(index).expect("a full row")
}

/// Asserts the rows cover what the golden exists to pin: for every
/// baseline a task that passes, a failing task (with a bound for FED-FP,
/// without one for the recurrences), and a reader-writer set.
fn assert_coverage(csv: &str) {
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    for baseline in Baseline::ALL {
        let protocol = baseline.name();
        let ours: Vec<&str> = rows
            .iter()
            .copied()
            .filter(|row| cell(row, "protocol") == protocol)
            .collect();
        let any = |f: &dyn Fn(&str) -> bool| ours.iter().any(|row| f(row));
        assert!(
            any(&|row| cell(row, "schedulable") == "true"),
            "{protocol}: no task passes"
        );
        // FED-FP's closed form always yields a bound; the recurrences
        // yield none once they exceed the deadline.
        if protocol == "FED-FP" {
            assert!(
                any(&|row| cell(row, "schedulable") == "false" && cell(row, "wcrt_ns") != "none"),
                "{protocol}: no task fails with a bound"
            );
        } else {
            assert!(
                any(&|row| cell(row, "wcrt_ns") == "none"),
                "{protocol}: no recurrence exceeds its deadline"
            );
        }
        assert!(
            any(&|row| cell(row, "pool") == "rw0.3"),
            "{protocol}: no reader-writer set"
        );
    }
}

#[test]
fn every_baseline_reproduces_the_golden_bounds() {
    let csv = bound_rows(&pool());
    let path = golden_path();
    if std::env::var_os("GOLDEN_BOUNDS_BLESS").is_some() {
        std::fs::write(&path, &csv).expect("golden is writable");
    }
    let golden = std::fs::read_to_string(&path).expect("ci/golden_baseline_bounds.csv exists");
    let diffs: Vec<String> = golden
        .lines()
        .zip(csv.lines())
        .filter(|(want, got)| want != got)
        .take(20)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == csv.lines().count(),
        "bound rows differ from {} ({} golden rows, {} computed); first differences:\n{}",
        path.display(),
        golden.lines().count(),
        csv.lines().count(),
        diffs.join("\n")
    );
    assert_coverage(&csv);
}
