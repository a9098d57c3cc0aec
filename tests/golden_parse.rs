//! Parse golden: what `serde_json::from_str` accepts, and the value it
//! builds, on a corpus of wire bodies, pinned in `ci/golden_parse.csv`.
//!
//! The corpus holds the CI manifests, `AnalysisRequest` bodies from a
//! seeded Fig. 2 panel A/B pool (compact and pretty), their verdicts, and
//! seeded mutations of one request body: each member removed or set to
//! `null` at every object level, members reversed, the first member
//! duplicated with either copy valid, escaped keys, lenient number
//! spellings in `u32`/`u64`/`usize` fields, an unknown member nested to
//! the depth cap and one past it, truncations and trailing bytes. Every
//! text is also parsed as a `serde_json::Value`.
//!
//! One row per (case, target type): `ok` with a 64-bit FNV-1a digest of
//! `serde_json::to_string` of the parsed value, or `err`. The test uses
//! only `from_str` and `to_string`, so one file pins any two builds
//! against each other. To rewrite it after an intended change of the
//! accepted language, run this test with `GOLDEN_PARSE_BLESS=1` and
//! state the reason in CHANGES.md.

use std::fmt::Write as _;
use std::path::PathBuf;

use dpcp_experiments::{CampaignManifest, FuzzManifest};
use dpcp_p::baselines::standard_registry;
use dpcp_p::core::partition::ResourceHeuristic;
use dpcp_p::core::{AnalysisConfig, AnalysisRequest, AnalysisSession, AnalysisVerdict};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::model::Platform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

const PANELS: [Fig2Panel; 2] = [Fig2Panel::A, Fig2Panel::B];
const LOADS: [f64; 3] = [0.2, 0.5, 0.8];
const SAMPLES: u64 = 2;
/// Deepest nesting the parser accepts.
const MAX_DEPTH: usize = 128;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("ci/golden_parse.csv")
}

/// 64-bit FNV-1a, the digest the campaign engine fingerprints with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Parses `$text` as `$ty` and digests the value's compact JSON.
macro_rules! parse_as {
    ($ty:ty, $text:expr) => {
        serde_json::from_str::<$ty>($text).map(|v| {
            fnv1a(
                serde_json::to_string(&v)
                    .expect("parsed values serialize")
                    .as_bytes(),
            )
        })
    };
}

/// Appends the rows of one case: its parse as `ty` and as a `Value`.
fn rows(csv: &mut String, id: &str, ty: &str, typed: Result<u64, serde_json::Error>, text: &str) {
    let cell = |parsed: Result<u64, serde_json::Error>| match parsed {
        Ok(digest) => format!("ok,{digest:016x}"),
        Err(_) => "err,".to_string(),
    };
    writeln!(csv, "{id},{ty},{}", cell(typed)).expect("writing to a String");
    writeln!(csv, "{id},Value,{}", cell(parse_as!(Value, text))).expect("writing to a String");
}

fn request_rows(csv: &mut String, id: &str, text: &str) {
    rows(
        csv,
        id,
        "AnalysisRequest",
        parse_as!(AnalysisRequest, text),
        text,
    );
}

/// The request pool: `SAMPLES` sets per (panel, U/m) point, each from a
/// seed that is a pure function of its coordinates, each naming the next
/// registry protocol in turn.
fn pool() -> Vec<(String, AnalysisRequest)> {
    let registry = standard_registry();
    let names = registry.names();
    let mut requests = Vec::new();
    for (p, panel) in PANELS.into_iter().enumerate() {
        let scenario = Scenario::fig2(panel);
        let platform = Platform::new(scenario.m).expect("fig2 platform");
        for (l, load) in LOADS.into_iter().enumerate() {
            for sample in 0..SAMPLES {
                let base = 0x9A85_0000 + (p as u64) * 10_000 + (l as u64) * 100 + sample;
                let tasks = (0..32u64)
                    .find_map(|retry| {
                        let mut rng = StdRng::seed_from_u64(base.wrapping_add(retry * 7919));
                        scenario
                            .sample_task_set(load * scenario.m as f64, &mut rng)
                            .ok()
                    })
                    .expect("generation succeeds within 32 retries");
                let protocol = names[requests.len() % names.len()].to_string();
                let request = AnalysisRequest {
                    schema: None,
                    protocol,
                    tasks,
                    platform,
                    config: AnalysisConfig::ep(),
                    heuristic: ResourceHeuristic::WorstFitDecreasing,
                };
                requests.push((format!("{panel}-{load}-{sample}"), request));
            }
        }
    }
    requests
}

fn members(value: &mut Value) -> &mut Vec<(String, Value)> {
    match value {
        Value::Object(entries) => entries,
        other => panic!("expected an object, found {other:?}"),
    }
}

/// The value at `path` (member names, or indices into arrays).
fn at<'v>(value: &'v mut Value, path: &[&str]) -> &'v mut Value {
    path.iter().fold(value, |v, step| match v {
        Value::Object(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == step)
                .unwrap_or_else(|| panic!("no member {step}"))
                .1
        }
        Value::Array(items) => &mut items[step.parse::<usize>().expect("an index")],
        other => panic!("cannot step into {other:?}"),
    })
}

/// `depth` (at least 1) arrays nested in one another.
fn nested(depth: usize) -> Value {
    (1..depth).fold(Value::Array(vec![]), |inner, _| Value::Array(vec![inner]))
}

fn reversed(value: &Value) -> Value {
    match value {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), reversed(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(reversed).collect()),
        other => other.clone(),
    }
}

fn text(value: &Value) -> String {
    serde_json::to_string(value).expect("values serialize")
}

/// The mutation corpus of one request body.
fn mutation_rows(csv: &mut String, request: &AnalysisRequest, rng: &mut StdRng) {
    let body = serde_json::to_string(request).expect("requests serialize");
    let base: Value = serde_json::from_str(&body).expect("the base body parses");

    // A task with a vertex that issues requests, and that vertex.
    let tasks = match at(&mut base.clone(), &["tasks", "tasks"]) {
        Value::Array(items) => items.clone(),
        _ => panic!("tasks is an array"),
    };
    let with_requests: Vec<(usize, usize)> = tasks
        .iter()
        .enumerate()
        .flat_map(|(t, task)| {
            let vertices = match task.field("vertices") {
                Value::Array(items) => items.clone(),
                _ => Vec::new(),
            };
            vertices
                .into_iter()
                .enumerate()
                .filter(|(_, v)| matches!(v.field("requests"), Value::Array(r) if !r.is_empty()))
                .map(move |(x, _)| (t, x))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!with_requests.is_empty(), "the base body issues no request");
    let (t, x) = with_requests[rng.gen_range(0..with_requests.len())];
    let (t, x) = (t.to_string(), x.to_string());
    let task = ["tasks", "tasks", t.as_str()];
    let dag = ["tasks", "tasks", t.as_str(), "dag"];
    let vertex = ["tasks", "tasks", t.as_str(), "vertices", x.as_str()];
    let req = [
        "tasks",
        "tasks",
        t.as_str(),
        "vertices",
        x.as_str(),
        "requests",
        "0",
    ];
    let levels: [(&str, &[&str]); 8] = [
        ("top", &[]),
        ("taskset", &["tasks"]),
        ("task", &task),
        ("dag", &dag),
        ("vertex", &vertex),
        ("request", &req),
        ("config", &["config"]),
        ("platform", &["platform"]),
    ];

    request_rows(csv, "mut/base", &body);
    for (level, path) in levels {
        let names: Vec<String> = members(at(&mut base.clone(), path))
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        for (i, name) in names.iter().enumerate() {
            let mut removed = base.clone();
            members(at(&mut removed, path)).remove(i);
            request_rows(csv, &format!("mut/{level}/{name}/absent"), &text(&removed));
            let mut null = base.clone();
            members(at(&mut null, path))[i].1 = Value::Null;
            request_rows(csv, &format!("mut/{level}/{name}/null"), &text(&null));
        }
        // The first member twice: the first copy wins in both cases.
        let junk = Value::Bool(true);
        for (case, copies) in [
            ("first-valid", [false, true]),
            ("second-valid", [true, false]),
        ] {
            let mut dup = base.clone();
            let entries = members(at(&mut dup, path));
            let (name, valid) = entries[0].clone();
            entries.remove(0);
            for is_junk in copies.into_iter().rev() {
                let v = if is_junk { junk.clone() } else { valid.clone() };
                entries.insert(0, (name.clone(), v));
            }
            request_rows(csv, &format!("mut/{level}/dup/{case}"), &text(&dup));
        }
    }
    request_rows(csv, "mut/reversed", &text(&reversed(&base)));

    // Keys match after escape decoding.
    for (case, key, escaped) in [
        ("protocol", "\"protocol\":", "\"\\u0070rotocol\":"),
        (
            "vertex_count",
            "\"vertex_count\":",
            "\"vertex\\u005fcount\":",
        ),
        ("count", "\"count\":", "\"co\\u0075nt\":"),
        ("protocol-nul", "\"protocol\":", "\"protocol\\u0000\":"),
    ] {
        let escaped_body = body.replacen(key, escaped, 1);
        assert_ne!(escaped_body, body, "{key} occurs in the body");
        request_rows(csv, &format!("mut/escaped/{case}"), &escaped_body);
    }

    // Number spellings: each replaces the value of one integer member.
    let spellings = [
        "1",
        "01",
        "00",
        "-0",
        "-1",
        "+1",
        "1.",
        ".5",
        "1.0",
        "1e0",
        "1E2",
        "-",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775809",
    ];
    let fields: [(&str, Vec<&str>); 6] = [
        ("u32/schema", vec!["schema"]),
        ("u32/count", req.iter().copied().chain(["count"]).collect()),
        ("u64/path_visit_cap", vec!["config", "path_visit_cap"]),
        (
            "u64/deadline",
            task.iter().copied().chain(["deadline"]).collect(),
        ),
        (
            "usize/path_signature_cap",
            vec!["config", "path_signature_cap"],
        ),
        ("usize/processors", vec!["platform", "processors"]),
    ];
    for (field, path) in &fields {
        let mut marked = base.clone();
        *at(&mut marked, path) = Value::String("@NUMBER@".into());
        let marked = text(&marked);
        for spelling in spellings {
            let spelled = marked.replacen("\"@NUMBER@\"", spelling, 1);
            request_rows(csv, &format!("mut/number/{field}/{spelling}"), &spelled);
        }
    }

    // Unknown and skipped members are depth-checked: the whole document
    // may nest `MAX_DEPTH` levels, not one more.
    for (level, path) in [("top", &[][..]), ("vertex", &vertex[..])] {
        // The object at `path` is itself nested `path.len() + 1` deep.
        for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
            let mut deep = base.clone();
            let member = nested(depth - path.len() - 1);
            members(at(&mut deep, path)).push(("zz_unknown".into(), member));
            request_rows(csv, &format!("mut/deep/{level}/{depth}"), &text(&deep));
        }
    }
    for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
        let mut deep = base.clone();
        *at(&mut deep, &["tasks", "users"]) = nested(depth - 2);
        request_rows(csv, &format!("mut/deep/users/{depth}"), &text(&deep));
    }

    // Truncations, trailing bytes.
    let mut offsets: Vec<usize> = (0..8).map(|_| rng.gen_range(1..body.len())).collect();
    offsets.sort_unstable();
    for offset in offsets {
        request_rows(csv, &format!("mut/truncated/{offset}"), &body[..offset]);
    }
    request_rows(csv, "mut/trailing-x", &format!("{body}x"));
    request_rows(csv, "mut/trailing-ws", &format!("{body} \n\t"));
    request_rows(csv, "mut/leading-ws", &format!(" \r\n{body}"));
}

/// Shape rules the request types do not reach: a struct read from a
/// non-object reads every member as absent, a tuple ignores extra
/// elements and reads missing ones as `null`, and a data variant is
/// named by an object's first member.
fn manifest_shape_rows(csv: &mut String, smoke: &str, fuzz: &str) {
    let smoke: Value = serde_json::from_str(smoke).expect("the manifest parses");
    let pair = |items: &[u64]| Value::Array(items.iter().map(|&i| Value::U64(i)).collect());
    for (case, path, new) in [
        ("quick-number", &["quick"][..], Value::U64(5)),
        ("quick-array", &["quick"], Value::Array(vec![])),
        ("pair-extra", &["axes", "nr_range", "0"], pair(&[2, 4, 9])),
        ("pair-short", &["axes", "nr_range", "0"], pair(&[2])),
        ("pair-number", &["axes", "nr_range", "0"], Value::U64(5)),
    ] {
        let mut manifest = smoke.clone();
        *at(&mut manifest, path) = new;
        let text = text(&manifest);
        let parsed = parse_as!(CampaignManifest, &text);
        rows(
            csv,
            &format!("shape/{case}"),
            "CampaignManifest",
            parsed,
            &text,
        );
    }
    let fuzz: Value = serde_json::from_str(fuzz).expect("the manifest parses");
    let object = |entries: Vec<(&str, Value)>| {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let layers = || object(vec![("layers", Value::U64(64))]);
    for (case, shape) in [
        (
            "variant-extra-member",
            object(vec![("Layered", layers()), ("x", Value::U64(1))]),
        ),
        (
            "variant-second-member",
            object(vec![("x", Value::U64(1)), ("Layered", layers())]),
        ),
        (
            "variant-number-payload",
            object(vec![("Layered", Value::U64(5))]),
        ),
        ("variant-empty-object", object(vec![])),
        ("variant-data-as-string", Value::String("Layered".into())),
        (
            "variant-unit-as-object",
            object(vec![("ForkJoin", Value::Null)]),
        ),
    ] {
        let mut manifest = fuzz.clone();
        *at(&mut manifest, &["axes", "graph_shape", "0"]) = shape;
        let text = text(&manifest);
        let parsed = parse_as!(FuzzManifest, &text);
        rows(csv, &format!("shape/{case}"), "FuzzManifest", parsed, &text);
    }
}

fn corpus_rows() -> String {
    let mut csv = String::from("case,type,result,digest\n");
    let ci = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("ci");
    for name in ["smoke", "search_smoke"] {
        let text = std::fs::read_to_string(ci.join(format!("{name}.json"))).expect("manifest");
        let parsed = parse_as!(CampaignManifest, &text);
        rows(
            &mut csv,
            &format!("ci/{name}"),
            "CampaignManifest",
            parsed,
            &text,
        );
    }
    let fuzz = std::fs::read_to_string(ci.join("fuzz_smoke.json")).expect("manifest");
    let parsed = parse_as!(FuzzManifest, &fuzz);
    rows(&mut csv, "ci/fuzz_smoke", "FuzzManifest", parsed, &fuzz);
    let smoke = std::fs::read_to_string(ci.join("smoke.json")).expect("manifest");
    manifest_shape_rows(&mut csv, &smoke, &fuzz);

    let registry = standard_registry();
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    let requests = pool();
    for (id, request) in &requests {
        let compact = serde_json::to_string(request).expect("requests serialize");
        let pretty = serde_json::to_string_pretty(request).expect("requests serialize");
        request_rows(&mut csv, &format!("pool/{id}/compact"), &compact);
        request_rows(&mut csv, &format!("pool/{id}/pretty"), &pretty);
        let verdict = registry
            .respond(&mut session, request)
            .expect("write-only fig2 sets resolve under every protocol");
        let verdict = serde_json::to_string(&verdict).expect("verdicts serialize");
        let parsed = parse_as!(AnalysisVerdict, &verdict);
        rows(
            &mut csv,
            &format!("pool/{id}/verdict"),
            "AnalysisVerdict",
            parsed,
            &verdict,
        );
    }
    let mut rng = StdRng::seed_from_u64(0x9A85_E001);
    let base = &requests[2].1;
    mutation_rows(&mut csv, base, &mut rng);
    csv
}

#[test]
fn parses_reproduce_the_golden_corpus() {
    let csv = corpus_rows();
    let path = golden_path();
    if std::env::var_os("GOLDEN_PARSE_BLESS").is_some() {
        std::fs::write(&path, &csv).expect("golden is writable");
    }
    let golden = std::fs::read_to_string(&path).expect("ci/golden_parse.csv exists");
    let diffs: Vec<String> = golden
        .lines()
        .zip(csv.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == csv.lines().count(),
        "{} parse rows differ from {} ({} golden rows, {} computed):\n{}",
        diffs.len(),
        path.display(),
        golden.lines().count(),
        csv.lines().count(),
        diffs.join("\n")
    );
    // The corpus must exercise both outcomes of the cases it exists for.
    for (case, want) in [
        ("mut/top/schema/absent,", "ok"),
        ("mut/request/count/absent,", "err"),
        ("mut/top/dup/first-valid,", "ok"),
        ("mut/top/dup/second-valid,", "err"),
        ("mut/deep/top/128,AnalysisRequest", "ok"),
        ("mut/deep/top/129,AnalysisRequest", "err"),
        ("mut/trailing-x,AnalysisRequest", "err"),
    ] {
        assert!(
            csv.lines()
                .any(|row| row.starts_with(case) && row.contains(&format!(",{want},"))),
            "no {want} row for {case}"
        );
    }
}
