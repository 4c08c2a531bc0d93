//! The `warm-service` workload: an in-process `spackled` (`serve` on
//! loopback) over the same universe as `reuse-public`, booted and
//! warm-filled during set-up, then driven closed-loop by [`CLIENTS`]
//! `Client` connections — daemon callers each wait for their reply.
//!
//! Each client draws goals from the 47 (32 roots plus 15
//! `<root> ^mpiabi`) with a seeded Zipf skew. Client 0 also lands a
//! seeded `update` (a new version of a random RADIUSS root package)
//! every [`UPDATE_EVERY`]th request, so re-preparation after writes sits
//! beside warm hits. The skew and the write rate are synthetic: no
//! published trace of buildcache-index or package updates backs them
//! (see the README).
//!
//! After the timed region every response is checked against a cold
//! in-process solve on the repository state it was served from. A
//! traced run also replays the same request sequence through `handle`
//! on a warm mirror `ServerState`, splitting each call into server time
//! and wire time.

use crate::gate::{Answer, Tally};
use crate::pipeline::{self, concretizer, config};
use crate::setup::{mpi_roots, radiuss_universe, GoalSpec, Universe};
use crate::stats::{median, ms, peak_rss_mb, quantile, reset_peak_rss};
use crate::trace::Tracer;
use crate::{Report, SETUP_REPEATS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spackle_radiuss::RADIUSS_ROOTS;
use spackle_repo::Repository;
use spackle_server::handle::handle;
use spackle_server::{serve, Client, Request, Response, ServerHandle, ServerState, Session};
use spackle_spec::{Sym, Version};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Client 0 sends an `update` every this many requests (about one
/// request in eight overall). Synthetic and unverified: chosen so that
/// updates land often enough in a run for `server.update_ms` and the
/// post-update misses to have samples, not from a measured write rate.
pub const UPDATE_EVERY: u64 = 4;
/// Zipf exponent of goal popularity. Synthetic and unverified: a mild
/// skew, so that every goal is drawn in a run.
const ZIPF_S: f64 = 0.5;
/// Untraced/traced call pairs sent after the timed region of a traced
/// run to measure the tracing overhead.
const OVERHEAD_PAIRS: usize = 16;

fn goals() -> Vec<GoalSpec> {
    let mut goals: Vec<GoalSpec> = RADIUSS_ROOTS
        .iter()
        .map(|r| GoalSpec::new(r, &[]))
        .collect();
    goals.extend(
        mpi_roots()
            .into_iter()
            .map(|r| GoalSpec::new(&format!("{r} ^mpiabi"), &[])),
    );
    goals
}

/// Seeded Zipf popularity over the goals: a random goal order, with the
/// k-th most popular drawn with weight 1/k^s.
struct Mix {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Mix {
    fn new(n: usize, seed: u64) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed);
        let order = crate::setup::shuffled(n, &mut rng);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Mix { cdf, order }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0.0..1.0);
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.order[rank]
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read(usize),
    Update { package: String, version: String },
}

impl Op {
    fn request(&self, goals: &[GoalSpec]) -> Request {
        match self {
            Op::Read(gi) => Request::concretize(&goals[*gi].spec),
            Op::Update { package, version } => {
                let mut r = Request::op("update");
                r.package = package.clone();
                r.version = version.clone();
                r
            }
        }
    }
}

/// One timed request: times are since the run's epoch.
struct Record {
    client: usize,
    id: u64,
    op: Op,
    sent: Duration,
    received: Duration,
    result: Result<Response, String>,
}

impl Record {
    fn call_ms(&self) -> f64 {
        ms(self.received - self.sent)
    }
}

/// A booted, warm-filled daemon and its client connections.
struct Daemon {
    server: ServerHandle,
    clients: Vec<Client>,
    fill: Vec<(usize, Result<Response, String>)>,
    fill_ms: f64,
}

fn boot(u: &Universe, goals: &[GoalSpec]) -> Result<Daemon, String> {
    let state = Arc::new(ServerState::new((*u.repo).clone(), u.sources.clone()));
    let server = serve(state, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let fill = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    (c..goals.len())
                        .step_by(CLIENTS)
                        .map(|gi| (gi, client.call(Request::concretize(&goals[gi].spec))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("warm-fill client thread"))
            .collect()
    });
    Ok(Daemon {
        server,
        clients,
        fill,
        fill_ms: ms(t.elapsed()),
    })
}

fn stop(mut d: Daemon) -> Result<(), String> {
    let bye = d.clients[0].shutdown();
    drop(d.clients);
    let report = d.server.join().map_err(|e| format!("server: {e}"))?;
    match bye {
        Ok(r) if r.ok && report.worker_panics == 0 => Ok(()),
        Ok(r) => Err(format!(
            "shutdown: {} ({} worker panics)",
            r.error, report.worker_panics
        )),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}

/// What every client of the timed region shares.
struct Drive<'a> {
    goals: &'a [GoalSpec],
    mix: Mix,
    seed: u64,
    epoch: Instant,
    budget: Duration,
    trace: bool,
    start: Barrier,
}

impl Drive<'_> {
    /// Run client `c`'s closed loop until the budget has passed.
    fn client(&self, c: usize, client: &mut Client) -> (Vec<Record>, Tracer) {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1));
        let mut tr = if self.trace {
            Tracer::new(self.epoch)
        } else {
            Tracer::disabled()
        };
        let mut records = Vec::new();
        let mut updates = 0u64;
        self.start.wait();
        let begin = Instant::now();
        let mut seq = 0u64;
        while begin.elapsed() < self.budget {
            seq += 1;
            let op = if c == 0 && seq.is_multiple_of(UPDATE_EVERY) {
                updates += 1;
                Op::Update {
                    package: RADIUSS_ROOTS[rng.gen_range(0..RADIUSS_ROOTS.len())].to_string(),
                    version: format!("999.{updates}"),
                }
            } else {
                Op::Read(self.mix.draw(&mut rng))
            };
            let id = (c as u64) << 32 | seq;
            let (sent, received, result) =
                self.timed_call(&mut tr, id, client, op.request(self.goals));
            records.push(Record {
                client: c,
                id,
                op,
                sent,
                received,
                result,
            });
        }
        (records, tr)
    }

    /// One request, timed since the epoch, under a `call` span when
    /// `tr` is enabled: returns sent, received and result.
    fn timed_call(
        &self,
        tr: &mut Tracer,
        id: u64,
        client: &mut Client,
        request: Request,
    ) -> (Duration, Duration, Result<Response, String>) {
        let sent = self.epoch.elapsed();
        let span = tr.open("call", id);
        let result = client.call(request);
        tr.close(span);
        (sent, self.epoch.elapsed(), result)
    }

    /// The tracing overhead, measured after the timed region of a traced
    /// run: the median of traced minus untraced time of the same warm
    /// read sent back to back (after a priming call, so both are
    /// ground-cache hits; the order alternates).
    fn tracing_overhead(&self, client: &mut Client) -> Result<f64, String> {
        let mut rng = StdRng::seed_from_u64(!self.seed);
        let mut on = Tracer::new(self.epoch);
        let mut off = Tracer::disabled();
        let mut call = |tr: &mut Tracer, request: Request| {
            let (sent, received, result) = self.timed_call(tr, 0, client, request);
            match result {
                Ok(r) if r.ok => Ok(ms(received - sent)),
                Ok(r) => Err(format!("overhead probe failed: {}", r.error)),
                Err(e) => Err(format!("overhead probe: {e}")),
            }
        };
        let mut overhead = Vec::new();
        for i in 0..OVERHEAD_PAIRS {
            let gi = self.mix.draw(&mut rng);
            let read = || Request::concretize(&self.goals[gi].spec);
            call(&mut off, read())?;
            let (traced, untraced) = if i % 2 == 0 {
                let untraced = call(&mut off, read())?;
                (call(&mut on, read())?, untraced)
            } else {
                let traced = call(&mut on, read())?;
                (traced, call(&mut off, read())?)
            };
            overhead.push(traced - untraced);
        }
        Ok(median(&overhead))
    }
}

/// `repo` with `version` appended to `package`, as `ServerState::update`
/// applies it.
fn updated(repo: &Repository, package: &str, version: &str) -> Option<Repository> {
    let mut def = repo.get(Sym::intern(package))?.clone();
    def.versions.push(Version::parse(version).ok()?);
    let mut next = repo.clone();
    next.upsert(def);
    Some(next)
}

/// Check every response against a cold in-process solve on the
/// repository state it was served from. A read racing an update may
/// have seen the state before or after it; it passes if it matches
/// either. References are shared between states whose segment key for
/// the goal is the same, since the key covers every input of the solve.
fn check(
    u: &Universe,
    goals: &[GoalSpec],
    fill: &[(usize, Result<Response, String>)],
    records: &[Record],
) -> Tally {
    let mut tally = Tally::default();
    let updates: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.op, Op::Update { .. }))
        .collect();
    let mut states = vec![Arc::clone(&u.repo)];
    for r in &updates {
        let Op::Update { package, version } = &r.op else {
            unreachable!()
        };
        let ok = matches!(&r.result, Ok(resp) if resp.ok);
        tally.record(ok);
        let last = states.last().expect("initial state");
        let next = if ok {
            updated(last, package, version)
        } else {
            None
        };
        states.push(next.map_or_else(|| Arc::clone(last), Arc::new));
    }

    // Every (state, goal) a response may have come from, and the
    // segment key that decides its answer.
    let candidates = |r: &Record| {
        let lo = updates.iter().filter(|w| w.received < r.sent).count();
        let hi = updates.iter().filter(|w| w.sent < r.received).count();
        lo..=hi
    };
    let mut keys: HashMap<(usize, usize), Result<u64, String>> = HashMap::new();
    let mut need = |state: usize, gi: usize| {
        keys.entry((state, gi)).or_insert_with(|| {
            let conc = concretizer(&states[state], &u.sources, config());
            conc.segment_key(&goals[gi].goal)
                .map(|k| k.0)
                .map_err(|e| e.to_string())
        });
    };
    for (gi, _) in fill {
        need(0, *gi);
    }
    for r in records {
        if let Op::Read(gi) = r.op {
            candidates(r).for_each(|s| need(s, gi));
        }
    }
    let mut distinct: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for (&at, key) in &keys {
        if let Ok(k) = key {
            distinct.entry(*k).or_insert(at);
        }
    }

    // Cold solves of the distinct keys, split over `CLIENTS` threads.
    let jobs: Vec<(u64, (usize, usize))> = distinct.into_iter().collect();
    let refs: HashMap<u64, Result<Answer, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                let states = &states;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(key, (state, gi))| {
                            let conc = concretizer(&states[state], &u.sources, config());
                            let cold = conc.concretize_goal(&goals[gi].goal);
                            (
                                key,
                                cold.map(|s| Answer::new(&s, None))
                                    .map_err(|e| e.to_string()),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    });
    let reference_at = |state: usize, gi: usize| -> Result<Answer, String> {
        match &keys[&(state, gi)] {
            Ok(k) => refs[k].clone(),
            Err(e) => Err(e.clone()),
        }
    };
    for (gi, result) in fill {
        tally.check_response(&reference_at(0, *gi), result);
    }
    for r in records {
        let Op::Read(gi) = r.op else { continue };
        let ok = candidates(r).any(|s| {
            let want = reference_at(s, gi);
            matches!((&want, &r.result), (Ok(a), Ok(resp)) if a.matches_response(resp))
        });
        tally.record(ok);
    }
    eprintln!(
        "perfbench: {} distinct references for {} states",
        refs.len(),
        states.len()
    );
    tally
}

/// Replay the timed requests, in send order, through `handle` on a warm
/// mirror state, with a span per call; returns each request's
/// in-process handle time in ms, indexed like `records`. A read that
/// misses the mirror's ground cache ran the whole pipeline inside
/// `handle`; it is solved again stage by stage on the same state, its
/// counters added to `sums`, to split that cost by layer.
fn replay(
    u: &Universe,
    goals: &[GoalSpec],
    records: &[Record],
    tr: &mut Tracer,
    sums: &mut BTreeMap<&'static str, f64>,
) -> Vec<f64> {
    let mirror = ServerState::new((*u.repo).clone(), u.sources.clone());
    let mut sessions: Vec<Session> = (0..CLIENTS).map(|_| Session::new()).collect();
    for g in goals {
        handle(&mirror, &mut sessions[0], &Request::concretize(&g.spec));
    }
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].sent);
    let mut handle_ms = vec![0.0; records.len()];
    for i in order {
        let r = &records[i];
        let request = r.op.request(goals);
        let span = tr.open("handle", r.id);
        let response = handle(&mirror, &mut sessions[r.client], &request);
        handle_ms[i] = tr.close(span);
        if let (Op::Read(gi), true) = (&r.op, response.ok && !response.ground_cache_hit) {
            let conc = mirror.concretizer(config());
            let staged = pipeline::staged(
                tr,
                r.id,
                &conc,
                mirror.caches(),
                &goals[*gi].goal,
                None,
                true,
            );
            for (k, v) in staged.map(|st| st.counts).unwrap_or_default() {
                *sums.entry(k).or_default() += v;
            }
        }
    }
    handle_ms
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let goals = goals();
    let mut setup_s = Vec::new();
    let (mut repo_ms, mut cache_ms, mut fill_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let u = radiuss_universe(seed);
        let d = boot(&u, &goals)?;
        setup_s.push(t.elapsed().as_secs_f64());
        repo_ms.push(u.repo_ms);
        cache_ms.push(u.cache_ms);
        fill_ms.push(d.fill_ms);
        if i + 1 < SETUP_REPEATS {
            stop(d)?;
        } else {
            kept = Some((u, d));
        }
    }
    let (u, mut d) = kept.expect("at least one set-up");

    let drive = Drive {
        goals: &goals,
        mix: Mix::new(goals.len(), seed),
        seed,
        epoch: Instant::now(),
        budget: Duration::from_secs(seconds),
        trace,
        start: Barrier::new(CLIENTS),
    };
    // The peak covers the timed region only: not the set-ups, and not
    // the checks and replay after it.
    reset_peak_rss();
    let per_client: Vec<(Vec<Record>, Tracer)> = std::thread::scope(|s| {
        let workers: Vec<_> = d
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let drive = &drive;
                s.spawn(move || drive.client(c, client))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let epoch = drive.epoch;
    let elapsed = epoch.elapsed();
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let stats = d.clients[0].stats();
    let cache = d.server.state().ground_cache().stats();
    let overhead_ms = if trace {
        drive.tracing_overhead(&mut d.clients[0])
    } else {
        Ok(0.0)
    };
    let fill = std::mem::take(&mut d.fill);
    stop(d)?;
    let overhead_ms = overhead_ms?;

    let mut tr = Tracer::new(epoch);
    let mut records = Vec::new();
    for (r, t) in per_client {
        records.extend(r);
        tr.absorb(t);
    }
    let tally = check(&u, &goals, &fill, &records);
    let reads: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.op, Op::Read(_)))
        .collect();
    let read_ms: Vec<f64> = reads.iter().map(|r| r.call_ms()).collect();
    eprintln!(
        "perfbench: {} requests ({} reads) in {:.2} s; p90 leaves {} samples beyond it",
        records.len(),
        reads.len(),
        elapsed.as_secs_f64(),
        reads.len() / 10
    );
    if !trace {
        return Ok(Report {
            tally,
            metrics: vec![
                ("latency_p50_ms", median(&read_ms)),
                ("latency_p90_ms", quantile(&read_ms, 0.9)),
                (
                    "throughput_ops_s",
                    records.len() as f64 / elapsed.as_secs_f64(),
                ),
                ("setup_s", median(&setup_s)),
                ("peak_rss_mb", peak_rss),
            ],
            trace: None,
        });
    }

    let mut sums = BTreeMap::new();
    let handle_ms = replay(&u, &goals, &records, &mut tr, &mut sums);
    let (mut handle_reads, mut wire_reads) = (Vec::new(), Vec::new());
    let mut hits = 0usize;
    for (i, r) in records.iter().enumerate() {
        if !matches!(r.op, Op::Read(_)) {
            continue;
        }
        handle_reads.push(handle_ms[i]);
        wire_reads.push((r.call_ms() - handle_ms[i]).max(0.0));
        hits += usize::from(matches!(&r.result, Ok(resp) if resp.ground_cache_hit));
    }
    let update_ms: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.op, Op::Update { .. }))
        .map(Record::call_ms)
        .collect();
    let (failures, shed) = match &stats {
        Ok(s) => (s.failures as f64, s.shed as f64),
        Err(e) => return Err(format!("stats: {e}")),
    };
    // A call splits into handle plus wire (the remainder, clipped at 0),
    // so the share cannot fall below 1 here: it holds by construction,
    // and exceeds 1 by the replayed handle time that outlasted its live
    // call.
    let call_sum: f64 = read_ms.iter().sum();
    let explained: f64 = handle_reads.iter().chain(&wire_reads).sum();
    let mut layers = pipeline::layer_metrics(&tr, &sums, reads.len().max(1) as f64);
    for (k, v) in [
        ("setup.repo_ms", median(&repo_ms)),
        ("setup.cache_ms", median(&cache_ms)),
        ("setup.warm_fill_ms", median(&fill_ms)),
        ("buildcache.entries", u.entries() as f64),
        (
            "ground_cache.hit_rate",
            hits as f64 / reads.len().max(1) as f64,
        ),
        ("ground_cache.entries", cache.entries as f64),
        ("ground_cache.invalidated", cache.invalidated as f64),
        ("ground_cache.retained", cache.segments_retained as f64),
        ("ground_cache.salvaged", cache.salvaged_translations as f64),
        ("server.handle_ms", median(&handle_reads)),
        ("server.wire_ms", median(&wire_reads)),
        (
            "server.update_ms",
            if update_ms.is_empty() {
                0.0
            } else {
                median(&update_ms)
            },
        ),
        ("server.failures", failures),
        ("server.shed", shed),
        ("trace.self_time_share", explained / call_sum.max(1e-9)),
        ("trace.overhead_ms", overhead_ms),
        ("error_rate", tally.error_rate()),
    ] {
        layers.insert(k, v);
    }
    Ok(Report {
        tally,
        metrics: layers.into_iter().collect(),
        trace: Some(tr),
    })
}
