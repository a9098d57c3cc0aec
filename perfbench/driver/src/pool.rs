//! Seeded workload inputs: Fig. 2 task sets wrapped into analysis
//! requests. The programs under test only ever see what this module
//! generates from the run's seed.

use std::sync::Arc;

use dpcp_core::{AnalysisConfig, AnalysisRequest, ResourceHeuristic};
use dpcp_gen::{Fig2Panel, Scenario};
use dpcp_model::{Platform, TaskSet};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

use crate::trace::Tracer;

/// Sweep positions of the Fig. 2(a) utilization points `serve-cold`
/// draws from (U = 2.6 … 10.6 on m = 16): from all-admit to all-reject
/// for most protocols.
const COLD_POINTS: [usize; 6] = [2, 4, 6, 8, 10, 12];

/// Total utilization of the `serve-hot` sets (the service's historical
/// load-generator setting).
const HOT_UTILIZATION: f64 = 8.0;

/// Compact-body size band of the `serve-hot` sets, in bytes. Parse cost
/// grows faster than linearly in body size, so a narrow band keeps the
/// re-encoded tail from swinging with the seed.
const HOT_BODY_BAND: (usize, usize) = (26 * 1024, 28 * 1024);

/// How a request relates to earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First sight of this submission.
    Distinct,
    /// Byte-identical to an earlier request.
    RawDup,
    /// An earlier submission in new bytes (pretty-printed, unique
    /// trailing whitespace).
    Reencoded,
}

/// One request of the workload, as sent.
#[derive(Debug, Clone)]
pub struct Job {
    /// The submission (analysis problem) this request carries.
    pub sub: usize,
    pub kind: Kind,
    pub body: Arc<[u8]>,
}

/// The submissions of one run. `serve-cold` submission `j` is a fresh
/// set drawn from `(seed, j)` on demand, so the schedule never runs dry
/// and nothing large stays resident; `serve-hot` keeps its few sets.
#[derive(Debug)]
pub struct Pool {
    pub names: Vec<String>,
    platform: Platform,
    seed: u64,
    hot: Option<Hot>,
}

#[derive(Debug)]
struct Hot {
    sets: Vec<TaskSet>,
    compact: Vec<Arc<[u8]>>,
    pretty: Vec<Vec<u8>>,
}

/// Draws one set, recording a `gen` span per generator call; returns the
/// set and the failed draws before it.
fn sample_set(
    scenario: &Scenario,
    u: f64,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(TaskSet, u32), String> {
    for retries in 0..1000 {
        let drawn = tracer.time("gen", None, request, || {
            scenario.sample_task_set(u, &mut *rng)
        });
        if let Ok(tasks) = drawn {
            return Ok((tasks, retries));
        }
    }
    Err(format!("generator failed 1000 times at U = {u}"))
}

impl Pool {
    fn new(seed: u64, names: &[String]) -> Pool {
        Pool {
            names: names.to_vec(),
            platform: Platform::new(Scenario::fig2(Fig2Panel::A).m).expect("m = 16"),
            seed,
            hot: None,
        }
    }

    /// `serve-cold`: every request a distinct submission. Requests come in
    /// blocks of one set per sweep point under every protocol, shuffled
    /// within the block, so any prefix of the schedule keeps the protocol
    /// and utilization mix balanced.
    pub fn cold(seed: u64, names: &[String]) -> Pool {
        Pool::new(seed, names)
    }

    /// `serve-hot`: one set per protocol, drawn at U = 8 inside the body
    /// size band. Returns the pool and the failed draws per accepted set.
    pub fn hot(
        seed: u64,
        names: &[String],
        tracer: &mut Tracer,
    ) -> Result<(Pool, Vec<f64>), String> {
        let scenario = Scenario::fig2(Fig2Panel::A);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4077_4077_4077_4077);
        let mut pool = Pool::new(seed, names);
        let mut hot = Hot {
            sets: Vec::new(),
            compact: Vec::new(),
            pretty: Vec::new(),
        };
        let mut retries = Vec::new();
        for protocol in 0..names.len() {
            for attempt in 1.. {
                let (tasks, failed) = sample_set(
                    &scenario,
                    HOT_UTILIZATION,
                    &mut rng,
                    tracer,
                    protocol as u64,
                )?;
                retries.push(f64::from(failed));
                let request = pool.wrap(protocol, tasks);
                let compact = serde_json::to_string(&request).expect("requests serialize");
                if (HOT_BODY_BAND.0..=HOT_BODY_BAND.1).contains(&compact.len()) || attempt == 200 {
                    let pretty =
                        serde_json::to_string_pretty(&request).expect("requests serialize");
                    hot.sets.push(request.tasks);
                    hot.compact.push(Arc::from(compact.into_bytes()));
                    hot.pretty.push(pretty.into_bytes());
                    break;
                }
            }
        }
        pool.hot = Some(hot);
        Ok((pool, retries))
    }

    fn wrap(&self, protocol: usize, tasks: TaskSet) -> AnalysisRequest {
        AnalysisRequest {
            schema: None,
            protocol: self.names[protocol].clone(),
            tasks,
            platform: self.platform,
            config: AnalysisConfig::ep(),
            heuristic: ResourceHeuristic::WorstFitDecreasing,
        }
    }

    /// `(sweep point, protocol)` of `serve-cold` submission `j`.
    fn cold_slot(&self, j: usize) -> (usize, usize) {
        let per_block = COLD_POINTS.len() * self.names.len();
        let mut block: Vec<(usize, usize)> = (0..COLD_POINTS.len())
            .flat_map(|point| (0..self.names.len()).map(move |p| (point, p)))
            .collect();
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ mix((j / per_block) as u64)));
        block.shuffle(&mut rng);
        block[j % per_block]
    }

    /// The protocol (registry index) of a submission.
    pub fn protocol(&self, sub: usize) -> usize {
        match self.hot {
            Some(_) => sub,
            None => self.cold_slot(sub).1,
        }
    }

    /// The request of a submission, with the generator's failed draws
    /// (`gen` spans go to `tracer`).
    pub fn request(
        &self,
        sub: usize,
        tracer: &mut Tracer,
    ) -> Result<(AnalysisRequest, u32), String> {
        if let Some(hot) = &self.hot {
            return Ok((self.wrap(sub, hot.sets[sub].clone()), 0));
        }
        let (point, protocol) = self.cold_slot(sub);
        let scenario = Scenario::fig2(Fig2Panel::A);
        let u = scenario.utilization_points()[COLD_POINTS[point]];
        let mut rng =
            StdRng::seed_from_u64(mix(self.seed ^ 0xc01d_c01d_c01d_c01d ^ mix(sub as u64)));
        let (tasks, retries) = sample_set(&scenario, u, &mut rng, tracer, sub as u64)?;
        Ok((self.wrap(protocol, tasks), retries))
    }

    /// `(submission, kind)` of the `j`-th request of the schedule; a pure
    /// function of `(seed, j)`, so every client thread and every phase
    /// agrees on it. `serve-hot` sends 3 in 4 requests as raw duplicates
    /// and the rest re-encoded.
    pub fn slot(&self, j: usize) -> (usize, Kind) {
        let Some(hot) = &self.hot else {
            return (j, Kind::Distinct);
        };
        let h = mix(self.seed ^ (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let sub = (h % hot.sets.len() as u64) as usize;
        let kind = if (h >> 32).is_multiple_of(4) {
            Kind::Reencoded
        } else {
            Kind::RawDup
        };
        (sub, kind)
    }

    /// The `j`-th request of the schedule, with its body and the
    /// generator's failed draws.
    pub fn job(&self, j: usize, tracer: &mut Tracer) -> Result<(Job, u32), String> {
        let (sub, kind) = self.slot(j);
        let Some(hot) = &self.hot else {
            let (request, retries) = self.request(sub, tracer)?;
            let body = serde_json::to_string(&request).expect("requests serialize");
            return Ok((
                Job {
                    sub,
                    kind,
                    body: Arc::from(body.into_bytes()),
                },
                retries,
            ));
        };
        let body: Arc<[u8]> = match kind {
            Kind::Reencoded => {
                let mut body = hot.pretty[sub].clone();
                body.extend(whitespace_tag(j as u64));
                Arc::from(body)
            }
            _ => Arc::clone(&hot.compact[sub]),
        };
        Ok((Job { sub, kind, body }, 0))
    }

    /// The first sight of every `serve-hot` submission (cold misses that
    /// fill the cache before the timed loop); empty for `serve-cold`.
    pub fn warmup(&self) -> Vec<Job> {
        let Some(hot) = &self.hot else {
            return Vec::new();
        };
        hot.compact
            .iter()
            .enumerate()
            .map(|(sub, body)| Job {
                sub,
                kind: Kind::Distinct,
                body: Arc::clone(body),
            })
            .collect()
    }
}

/// 16 whitespace characters spelling `n` in base 4: legal trailing JSON
/// whitespace that makes each re-encoded body unique, so it misses the
/// server's raw-bytes tier and hits the structural one.
fn whitespace_tag(mut n: u64) -> [u8; 16] {
    const DIGITS: [u8; 4] = [b' ', b'\t', b'\r', b'\n'];
    let mut tag = [b' '; 16];
    for slot in &mut tag {
        *slot = DIGITS[(n % 4) as usize];
        n /= 4;
    }
    tag
}

/// splitmix64 finaliser.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn names() -> Vec<String> {
        dpcp_baselines::standard_registry()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    fn off() -> Tracer {
        Tracer::new(Instant::now(), 0, false)
    }

    #[test]
    fn whitespace_tags_are_distinct_and_parse_as_json_whitespace() {
        assert_ne!(whitespace_tag(1), whitespace_tag(2));
        let mut body = b"{\"a\":1}".to_vec();
        body.extend(whitespace_tag(12345));
        let text = std::str::from_utf8(&body).unwrap();
        assert!(serde_json::from_str::<serde::Value>(text).is_ok());
    }

    #[test]
    fn hot_schedule_is_seeded_and_mostly_raw_duplicates() {
        let (pool, _) = Pool::hot(3, &names(), &mut off()).unwrap();
        assert_eq!(pool.warmup().len(), 9);
        let kinds: Vec<Kind> = (0..400).map(|j| pool.slot(j).1).collect();
        let again: Vec<Kind> = (0..400).map(|j| pool.slot(j).1).collect();
        assert_eq!(kinds, again);
        let reencoded = kinds.iter().filter(|&&k| k == Kind::Reencoded).count();
        assert!((60..140).contains(&reencoded), "{reencoded} of 400");
        // A re-encoded body parses to the very same request.
        let j = (0..400)
            .find(|&j| pool.slot(j).1 == Kind::Reencoded)
            .unwrap();
        let (job, _) = pool.job(j, &mut off()).unwrap();
        let parsed: AnalysisRequest =
            serde_json::from_str(std::str::from_utf8(&job.body).unwrap()).unwrap();
        assert_eq!(parsed, pool.request(job.sub, &mut off()).unwrap().0);
    }

    #[test]
    fn cold_blocks_are_balanced_and_reproducible() {
        let pool = Pool::cold(5, &names());
        let mut per_protocol = [0usize; 9];
        for j in 54..108 {
            per_protocol[pool.protocol(j)] += 1;
        }
        assert_eq!(per_protocol, [6; 9]);
        let a = pool.request(7, &mut off()).unwrap().0;
        let b = pool.request(7, &mut off()).unwrap().0;
        assert_eq!(a, b);
        assert_ne!(
            a.structural_key(),
            pool.request(8, &mut off()).unwrap().0.structural_key()
        );
    }
}
