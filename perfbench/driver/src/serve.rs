//! The `serve-cold` and `serve-hot` workloads: closed-loop keep-alive
//! clients against a `dpcp-serve` child process, every verdict checked
//! byte for byte against an in-process `ProtocolRegistry::respond`.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpcp_core::{AnalysisConfig, AnalysisSession, AnalysisVerdict, ProtocolRegistry};
use dpcp_serve::cache::VerdictCache;

use crate::client::{CacheTag, Client};
use crate::metrics::{medians_by_protocol, slug, sums_by_request, Report};
use crate::pool::{Job, Kind, Pool};
use crate::procs::{peak_rss_mb, reset_peak_rss, Server};
use crate::replay::{analysis_layers, serve_request, Counters};
use crate::stats::{self, median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::Ctx;

/// Verdict-cache capacity of the server under test: small enough that a
/// `serve-cold` run fills it, so peak memory is the steady state of a
/// full cache rather than a point on its growth curve.
const CACHE_CAPACITY: usize = 1024;

/// Server spawns timed per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 25;

/// Samples a timed loop collects at least, so ten lie beyond p99.
const MIN_SAMPLES: usize = 1000;

/// A timed loop may stretch to this multiple of `--seconds` to reach
/// [`MIN_SAMPLES`].
const MAX_STRETCH: f64 = 4.0;

/// Window of one peak-memory reading (see [`windowed_peaks`]).
const RSS_WINDOW: Duration = Duration::from_millis(2500);

/// `/healthz` round trips behind `http.rtt_us`.
const HEALTHZ_PINGS: u64 = 400;

/// Schedule requests replayed in-process by a traced run.
const REPLAY_CAP: usize = 1200;

/// Request ids of warm-up requests, outside the schedule's range.
const WARMUP_ID: usize = 1 << 40;

/// What one worker thread of the driver hands back.
type ThreadOutcome<T> = Result<T, String>;

/// A submission and its reference verdict bytes.
type Reference = (usize, Vec<u8>);

/// One request as the client saw it.
#[derive(Debug)]
struct Sample {
    sub: usize,
    kind: Kind,
    bytes: usize,
    latency_ms: f64,
    /// The cache tag and body of a `200`, or why the request failed.
    reply: Result<(CacheTag, Arc<Vec<u8>>), String>,
}

#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Until `seconds` have passed and `min_samples` were collected.
    Time { seconds: f64, min_samples: usize },
    /// Exactly the first `n` schedule entries.
    Count(usize),
}

#[derive(Debug)]
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    spans: Vec<Span>,
}

/// Sends one request and records it; equal bodies per submission share
/// one allocation.
fn send(client: &mut Client, job: &Job, interned: &mut HashMap<usize, Arc<Vec<u8>>>) -> Sample {
    let sent = Instant::now();
    let outcome = client.send("POST", "/analyze", &job.body);
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    let reply = match outcome {
        Ok(reply) if reply.status == 200 => {
            let slot = interned
                .entry(job.sub)
                .or_insert_with(|| Arc::new(reply.body.clone()));
            if **slot != reply.body {
                *slot = Arc::new(reply.body);
            }
            Ok((reply.cache, Arc::clone(slot)))
        }
        Ok(reply) => Err(format!("status {}", reply.status)),
        Err(e) => Err(e),
    };
    Sample {
        sub: job.sub,
        kind: job.kind,
        bytes: job.body.len(),
        latency_ms,
        reply,
    }
}

/// Sends jobs one after another on one connection (the `serve-hot`
/// warm-up), closing it afterwards.
fn send_all(addr: &str, jobs: &[Job]) -> Vec<Sample> {
    let mut client = Client::new(addr);
    let mut interned = HashMap::new();
    jobs.iter()
        .map(|job| send(&mut client, job, &mut interned))
        .collect()
}

/// The closed loop: `clients` threads, each building the next schedule
/// entry and sending it as soon as its previous reply arrived.
fn drive(
    addr: &str,
    clients: usize,
    stop: Stop,
    pool: &Pool,
    epoch: Instant,
    traced: bool,
) -> Result<Phase, String> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let parts: Vec<ThreadOutcome<(Vec<Sample>, Vec<Span>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|thread| {
                let (next, done) = (&next, &done);
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut tracer = Tracer::new(epoch, thread, traced);
                    let mut interned = HashMap::new();
                    let mut samples = Vec::new();
                    loop {
                        if let Stop::Time {
                            seconds,
                            min_samples,
                        } = stop
                        {
                            let elapsed = started.elapsed().as_secs_f64();
                            let enough = done.load(Ordering::SeqCst) >= min_samples;
                            if (elapsed >= seconds && enough) || elapsed >= seconds * MAX_STRETCH {
                                break;
                            }
                        }
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        if matches!(stop, Stop::Count(n) if j >= n) {
                            break;
                        }
                        let (job, _) = pool.job(j, &mut tracer)?;
                        let span = tracer.open("http.request", None, j as u64);
                        samples.push(send(&mut client, &job, &mut interned));
                        tracer.close(span);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok((samples, tracer.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for part in parts {
        let (s, t) = part?;
        samples.extend(s);
        spans.push(t);
    }
    Ok(Phase {
        samples,
        wall_s,
        spans: trace::merge(spans),
    })
}

/// Reference verdict bytes per submission, computed in-process on
/// `threads` threads, each with its own session.
fn references(
    pool: &Pool,
    registry: &ProtocolRegistry,
    subs: &BTreeSet<usize>,
    threads: usize,
) -> Result<HashMap<usize, Vec<u8>>, String> {
    let subs: Vec<usize> = subs.iter().copied().collect();
    let parts: Vec<ThreadOutcome<Vec<Reference>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let subs = &subs;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(Instant::now(), t, false);
                    let mut session = AnalysisSession::new(AnalysisConfig::ep());
                    let mut out = Vec::new();
                    for &sub in subs.iter().skip(t).step_by(threads) {
                        let (request, _) = pool.request(sub, &mut tracer)?;
                        // A refused request has no reference: every
                        // response to it then counts as failed.
                        if let Ok(verdict) = registry.respond(&mut session, &request) {
                            let bytes =
                                serde_json::to_string(&verdict).expect("verdicts serialize");
                            out.push((sub, bytes.into_bytes()));
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut refs = HashMap::new();
    for part in parts {
        refs.extend(part?);
    }
    Ok(refs)
}

/// Failed requests: transport errors, non-`200`s and verdict bytes that
/// differ from the reference.
fn audit(samples: &[Sample], refs: &HashMap<usize, Vec<u8>>) -> u64 {
    samples
        .iter()
        .filter(|s| match (&s.reply, refs.get(&s.sub)) {
            (Ok((_, body)), Some(expected)) => body.as_slice() != expected.as_slice(),
            _ => true,
        })
        .count() as u64
}

/// The oracle must catch a corrupted reference: flipping one byte of a
/// verdict that was served must add failures.
fn canary(samples: &[Sample], refs: &HashMap<usize, Vec<u8>>) -> bool {
    let Some(victim) = samples.iter().find(|s| s.reply.is_ok()) else {
        return false;
    };
    let mut corrupted = refs.clone();
    let Some(bytes) = corrupted.get_mut(&victim.sub) else {
        return false;
    };
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    audit(samples, &corrupted) > audit(samples, refs)
}

/// Client latencies (ms), ascending; a failed request counts as missing
/// every latency limit.
fn latencies(samples: &[Sample]) -> Vec<f64> {
    let raw: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.reply.is_ok() {
                s.latency_ms
            } else {
                f64::MAX
            }
        })
        .collect();
    stats::sorted(&raw)
}

/// Workload properties of the requests sent.
fn properties(
    report: &mut Report,
    pool: &Pool,
    samples: &[Sample],
    refs: &HashMap<usize, Vec<u8>>,
) {
    let n = samples.len().max(1) as f64;
    let share = |kind: Kind| samples.iter().filter(|s| s.kind == kind).count() as f64 / n;
    report.property("requests", serde::Value::U64(samples.len() as u64));
    report.property("distinct_share", serde::Value::F64(share(Kind::Distinct)));
    report.property(
        "raw_duplicate_share",
        serde::Value::F64(share(Kind::RawDup)),
    );
    report.property("reencoded_share", serde::Value::F64(share(Kind::Reencoded)));
    let mut per_protocol = vec![0usize; pool.names.len()];
    for s in samples {
        per_protocol[pool.protocol(s.sub)] += 1;
    }
    let mix = pool
        .names
        .iter()
        .zip(per_protocol)
        .map(|(name, count)| (name.clone(), serde::Value::F64(count as f64 / n)))
        .collect();
    report.property("protocol_mix", serde::Value::Object(mix));
    let admitted: HashMap<usize, bool> = refs
        .iter()
        .map(|(&sub, bytes)| {
            let verdict = std::str::from_utf8(bytes)
                .ok()
                .and_then(|t| serde_json::from_str::<AnalysisVerdict>(t).ok());
            (sub, verdict.is_some_and(|v| v.schedulable))
        })
        .collect();
    let admitted = samples
        .iter()
        .filter(|s| admitted.get(&s.sub) == Some(&true))
        .count();
    report.property("admitted_share", serde::Value::F64(admitted as f64 / n));
    let kb: Vec<f64> = samples.iter().map(|s| s.bytes as f64 / 1024.0).collect();
    report.property("mean_body_kb", serde::Value::F64(stats::mean(&kb)));
    report.property(
        "samples_beyond_p99",
        serde::Value::U64(stats::beyond(samples.len(), 99.0) as u64),
    );
}

/// Runs one serve workload.
pub fn run(ctx: &Ctx, hot: bool) -> Result<Report, String> {
    let registry = dpcp_baselines::standard_registry();
    let names: Vec<String> = registry.names().into_iter().map(str::to_string).collect();
    let epoch = Instant::now();
    let mut gen_tracer = Tracer::new(epoch, ctx.clients, ctx.traced);
    let (pool, retries) = if hot {
        Pool::hot(ctx.seed, &names, &mut gen_tracer)?
    } else {
        (Pool::cold(ctx.seed, &names), Vec::new())
    };
    if ctx.traced {
        return traced(
            ctx,
            &registry,
            &pool,
            gen_tracer.into_spans(),
            retries,
            epoch,
        );
    }

    let bin = ctx.bin_dir.join("dpcp-serve");
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 1..SETUP_SPAWNS {
        setups.push(Server::spawn(&bin, ctx.nproc, CACHE_CAPACITY)?.setup_s);
    }
    let server = Server::spawn(&bin, ctx.nproc, CACHE_CAPACITY)?;
    setups.push(server.setup_s);
    let warm = send_all(&server.addr, &pool.warmup());
    let stop = Stop::Time {
        seconds: ctx.seconds,
        min_samples: MIN_SAMPLES,
    };
    let finished = AtomicBool::new(false);
    let (phase, peaks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| windowed_peaks(server.pid(), &finished));
        let phase = drive(&server.addr, ctx.clients, stop, &pool, epoch, false);
        finished.store(true, Ordering::SeqCst);
        (phase, sampler.join().expect("memory sampler panicked"))
    });
    let phase = phase?;
    drop(server);
    if peaks.is_empty() {
        return Err("cannot read the server's peak resident set".to_string());
    }

    let subs = warm.iter().chain(&phase.samples).map(|s| s.sub).collect();
    let refs = references(&pool, &registry, &subs, ctx.nproc)?;
    let failed_in_loop = audit(&phase.samples, &refs);
    let mut report = Report {
        attempted: (warm.len() + phase.samples.len()) as u64,
        failed: audit(&warm, &refs) + failed_in_loop,
        ..Report::default()
    };
    report.check(
        "oracle catches a corrupted reference",
        canary(&phase.samples, &refs),
    );
    properties(&mut report, &pool, &phase.samples, &refs);

    let lat = latencies(&phase.samples);
    let correct = phase.samples.len() as u64 - failed_in_loop;
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", percentile(&lat, 50.0));
    report.set("latency_p99_ms", percentile(&lat, 99.0));
    report.set("verdicts_per_s", correct as f64 / phase.wall_s);
    report.set("peak_rss_mb", median(&peaks));
    Ok(report)
}

/// Peak resident set (MiB) of `pid` per window of [`RSS_WINDOW`]: the
/// kernel's high-water mark is reset at each window start and read at
/// its end, until `finished` is set. The median over windows is robust
/// to one input or one noisy moment, where a whole-run peak is not.
fn windowed_peaks(pid: u32, finished: &AtomicBool) -> Vec<f64> {
    let mut peaks = Vec::new();
    loop {
        // Where the kernel refuses the reset, the one window is the run.
        let resettable = reset_peak_rss(pid);
        let opened = Instant::now();
        while (!resettable || opened.elapsed() < RSS_WINDOW) && !finished.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        // A window cut short by the end of the loop is dropped, unless it
        // is the only one.
        if opened.elapsed() >= RSS_WINDOW || peaks.is_empty() {
            peaks.extend(peak_rss_mb(pid));
        }
        if finished.load(Ordering::SeqCst) {
            return peaks;
        }
    }
}

/// The traced run: an untraced and a traced pass over the same schedule
/// (each against a fresh server), then an in-process replay of the
/// layers with spans around every call.
fn traced(
    ctx: &Ctx,
    registry: &ProtocolRegistry,
    pool: &Pool,
    gen_spans: Vec<Span>,
    mut retries: Vec<f64>,
    epoch: Instant,
) -> Result<Report, String> {
    let bin = ctx.bin_dir.join("dpcp-serve");
    let warmup = pool.warmup();

    let server = Server::spawn(&bin, ctx.nproc, CACHE_CAPACITY)?;
    let warm_u = send_all(&server.addr, &warmup);
    let stop = Stop::Time {
        seconds: ctx.seconds / 2.0,
        min_samples: 0,
    };
    let plain = drive(&server.addr, ctx.clients, stop, pool, epoch, false)?;
    drop(server);

    let server = Server::spawn(&bin, ctx.nproc, CACHE_CAPACITY)?;
    let mut pinger = Client::new(&server.addr);
    let mut ping_tracer = Tracer::new(epoch, ctx.clients + 1, true);
    for ping in 0..HEALTHZ_PINGS {
        let span = ping_tracer.open("http.healthz", None, ping);
        let reply = pinger.send("GET", "/healthz", b"")?;
        ping_tracer.close(span);
        if reply.status != 200 {
            return Err(format!("/healthz answered {}", reply.status));
        }
    }
    // A kept-alive connection pins a server worker until it closes.
    drop(pinger);
    let warm_t = send_all(&server.addr, &warmup);
    let n = plain.samples.len();
    let timed = drive(&server.addr, ctx.clients, Stop::Count(n), pool, epoch, true)?;
    drop(server);

    // The warm-up replays first (it fills the cache), then a prefix of
    // the schedule strided over the threads, sharing one cache as the
    // server's workers do.
    let warm_jobs: Vec<(u64, Job)> = warmup
        .into_iter()
        .map(|j| ((WARMUP_ID + j.sub) as u64, j))
        .collect();
    let mut silent = Tracer::new(epoch, 0, false);
    let mut loop_jobs: Vec<(u64, Job)> = Vec::new();
    for j in 0..n.min(REPLAY_CAP) {
        let (job, failed_draws) = pool.job(j, &mut silent)?;
        if warm_jobs.is_empty() {
            retries.push(f64::from(failed_draws));
        }
        loop_jobs.push((j as u64, job));
    }
    let cache = VerdictCache::new(CACHE_CAPACITY);
    let replay = |thread: usize, jobs: Vec<&(u64, Job)>| -> Result<(Vec<Span>, Counters), String> {
        let mut tracer = Tracer::new(epoch, 100 + thread, true);
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let mut counters = Counters::default();
        for (id, job) in jobs {
            let missed = serve_request(
                &mut tracer,
                registry,
                &mut session,
                &cache,
                &mut counters,
                *id,
                &job.body,
            )?;
            if let Some(request) = missed {
                analysis_layers(
                    &mut tracer,
                    registry,
                    &mut session,
                    &mut counters,
                    *id,
                    &request,
                )?;
            }
        }
        Ok((tracer.into_spans(), counters))
    };
    let threads = ctx.nproc;
    let mut parts = vec![replay(threads, warm_jobs.iter().collect())];
    parts.extend(std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let jobs = loop_jobs.iter().skip(t).step_by(threads).collect();
                scope.spawn(move || replay(t, jobs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect::<Vec<_>>()
    }));
    let mut span_parts = vec![gen_spans, ping_tracer.into_spans(), timed.spans];
    let mut counters = Counters::default();
    for part in parts {
        let (spans, c) = part?;
        span_parts.push(spans);
        counters.absorb(c);
    }
    let spans = trace::merge(span_parts);

    let phases = [&warm_u, &warm_t, &plain.samples, &timed.samples];
    let subs = phases
        .iter()
        .flat_map(|p| p.iter().map(|s| s.sub))
        .collect();
    let refs = references(pool, registry, &subs, ctx.nproc)?;
    let attempted: u64 = phases.iter().map(|p| p.len() as u64).sum();
    let failed: u64 = phases.iter().map(|p| audit(p, &refs)).sum();
    let mut report = Report {
        attempted,
        failed,
        ..Report::default()
    };
    report.check(
        "oracle catches a corrupted reference",
        canary(&plain.samples, &refs),
    );
    let nesting = trace::check_nesting(&spans);
    if let Err(e) = &nesting {
        eprintln!("perfbench: {e}");
    }
    report.check("every child span lies inside its parent", nesting.is_ok());
    properties(&mut report, pool, &timed.samples, &refs);

    let med = |name: &str| median(&trace::durations(&spans, name));
    let rtt_us = med("http.healthz");
    report.set("http.rtt_us", rtt_us);
    let served: Vec<&Sample> = warm_t.iter().chain(&timed.samples).collect();
    let count = |pred: &dyn Fn(&Sample) -> bool| served.iter().filter(|s| pred(s)).count() as f64;
    let hit = |s: &Sample| matches!(s.reply, Ok((CacheTag::Hit, _)));
    report.set(
        "cache.raw_hits",
        count(&|s| hit(s) && s.kind == Kind::RawDup),
    );
    report.set(
        "cache.struct_hits",
        count(&|s| hit(s) && s.kind == Kind::Reencoded),
    );
    report.set(
        "cache.misses",
        count(&|s| matches!(s.reply, Ok((CacheTag::Miss, _)))),
    );
    report.set("cache.hit_ratio", count(&hit) / served.len().max(1) as f64);
    let probes: Vec<f64> = sums_by_request(&spans, "cache.probe")
        .into_values()
        .collect();
    report.set("cache.probe_us", median(&probes));
    let parse = trace::durations(&spans, "parse");
    report.set("parse.us", median(&parse));
    report.set(
        "parse.mb_per_s",
        counters.parse_bytes / parse.iter().sum::<f64>().max(f64::MIN_POSITIVE),
    );
    report.set("key.us", med("key"));
    report.set("serialize.us", med("serialize"));
    fill_analysis_layers(&mut report, &spans, &counters);
    report.set("gen.us", med("gen"));
    report.set("gen.retries", stats::mean(&retries));

    let protocol_of: HashMap<u64, usize> = warm_jobs
        .iter()
        .chain(&loop_jobs)
        .map(|(id, job)| (*id, pool.protocol(job.sub)))
        .collect();
    let protocols = pool.names.len();
    let stage = |name: &str| medians_by_protocol(&spans, name, &protocol_of, protocols);
    let respond = stage("respond");
    for (p, name) in pool.names.iter().enumerate() {
        report.set(format!("respond_ms.{}", slug(name)), respond[p] / 1e3);
    }
    if warm_jobs.is_empty() {
        // Do the layers add up? Per protocol, the stage medians against
        // the untraced client latency median of the same protocol.
        let stages: Vec<Vec<f64>> = ["cache.probe", "parse", "key", "respond", "serialize"]
            .iter()
            .map(|name| stage(name))
            .collect();
        let mut latency_us = vec![Vec::new(); protocols];
        for s in plain.samples.iter().filter(|s| s.reply.is_ok()) {
            latency_us[pool.protocol(s.sub)].push(s.latency_ms * 1e3);
        }
        for (p, name) in pool.names.iter().enumerate() {
            let attributed = rtt_us + stages.iter().map(|m| m[p]).sum::<f64>();
            report.set(
                format!("cold.unattributed_frac.{}", slug(name)),
                1.0 - attributed / median(&latency_us[p]).max(f64::MIN_POSITIVE),
            );
        }
    }
    report.set("trace.overhead_frac", timed.wall_s / plain.wall_s - 1.0);
    report.set("error_rate", failed as f64 / attempted.max(1) as f64);
    report.set("requests", attempted as f64);
    report.spans = spans;
    Ok(report)
}

/// The analysis-layer metrics shared with the campaign's traced run.
pub fn fill_analysis_layers(report: &mut Report, spans: &[Span], counters: &Counters) {
    let med = |name: &str| median(&trace::durations(spans, name));
    report.set("enumerate.us", med("enumerate"));
    report.set("enumerate.signatures", stats::mean(&counters.signatures));
    report.set(
        "enumerate.truncated_ratio",
        counters.truncated_tasks as f64 / counters.enumerated_tasks.max(1) as f64,
    );
    report.set("solve.us", med("solve"));
    report.set("partition.rounds", stats::mean(&counters.rounds));
    report.set("search.probes", stats::mean(&counters.search_probes));
    report.set("search.us", med("search"));
    report.set(
        "search.improved_ratio",
        counters.improved as f64 / counters.searches.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sub: usize, reply: Result<&[u8], &str>) -> Sample {
        Sample {
            sub,
            kind: Kind::Distinct,
            bytes: 0,
            latency_ms: 1.0,
            reply: reply
                .map(|b| (CacheTag::Miss, Arc::new(b.to_vec())))
                .map_err(str::to_string),
        }
    }

    #[test]
    fn audit_fails_wrong_bytes_and_errors_and_the_canary_bites() {
        let refs = HashMap::from([(0, b"{\"a\":1}".to_vec()), (1, b"{\"b\":2}".to_vec())]);
        let samples = vec![
            sample(0, Ok(b"{\"a\":1}")),
            sample(1, Ok(b"{\"b\":2}")),
            sample(1, Ok(b"{\"b\":3}")),
            sample(0, Err("status 500")),
            sample(7, Ok(b"{}")),
        ];
        assert_eq!(audit(&samples, &refs), 3);
        assert!(canary(&samples, &refs));
        assert!(!canary(&[sample(0, Err("down"))], &refs));
    }
}
