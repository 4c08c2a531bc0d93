//! The cold workloads: every operation is a concretization with no
//! ground cache attached, as each `spackle concretize` CLI call pays.
//!
//! * `reuse-public` (Fig 5, the cache-size axis): the 32 RADIUSS roots
//!   over RADIUSS + `mpiabi`, with the local cache plus a seeded public
//!   cache of [`PUBLIC_DAGS`] synthesized DAGs as separate sources.
//! * `splice-scale` (Fig 7 / RQ4, the splice-candidate axis): the 15
//!   MPI-dependent roots with `mpich` forbidden, over a repository with
//!   [`REPLICAS`] `mpiabi` replicas and the local cache only; each
//!   solution is planned, installed (rewiring spliced binaries) into a
//!   fresh in-memory store and verified.
//!
//! An untraced run times `Concretizer::concretize_goal` (plus the
//! install) per goal. A traced run follows each such op with the same
//! goal solved stage by stage, with a span per layer call.
//!
//! [`PUBLIC_DAGS`]: crate::setup::PUBLIC_DAGS
//! [`REPLICAS`]: crate::setup::REPLICAS

use crate::gate::{reference, Answer, Tally};
use crate::pipeline::{self, concretizer, config};
use crate::setup::{mpi_roots, radiuss_universe, replica_universe, shuffled, GoalSpec, Universe};
use crate::stats::{median, ms, peak_rss_mb, quantile, reset_peak_rss};
use crate::trace::Tracer;
use crate::{Report, SETUP_REPEATS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spackle_buildcache::CacheSource;
use spackle_radiuss::RADIUSS_ROOTS;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A cold workload's inputs.
pub struct Cold {
    pub universe: fn(u64) -> Universe,
    pub goals: fn() -> Vec<GoalSpec>,
    /// Install each solution (from the first source) and verify it.
    pub installs: bool,
}

pub const REUSE_PUBLIC: Cold = Cold {
    universe: radiuss_universe,
    goals: || {
        RADIUSS_ROOTS
            .iter()
            .map(|r| GoalSpec::new(r, &[]))
            .collect()
    },
    installs: false,
};

pub const SPLICE_SCALE: Cold = Cold {
    universe: |_| replica_universe(),
    goals: || {
        let forbid = ["mpich", "openmpi"];
        mpi_roots()
            .into_iter()
            .map(|r| GoalSpec::new(r, &forbid))
            .collect()
    },
    installs: true,
};

/// Build the universe [`SETUP_REPEATS`] times; keep the last. Returns
/// it with the median set-up time in seconds.
fn set_up(w: &Cold, seed: u64, layers: &mut BTreeMap<&'static str, f64>) -> (Universe, f64) {
    let mut total = Vec::new();
    let (mut repo_ms, mut cache_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let u = (w.universe)(seed);
        total.push(t.elapsed().as_secs_f64());
        repo_ms.push(u.repo_ms);
        cache_ms.push(u.cache_ms);
        last = Some(u);
    }
    let u = last.expect("at least one set-up");
    layers.insert("setup.repo_ms", median(&repo_ms));
    layers.insert("setup.cache_ms", median(&cache_ms));
    layers.insert("buildcache.entries", u.entries() as f64);
    (u, median(&total))
}

/// One untraced operation: a cold concretize, plus install and verify
/// when the workload installs. Returns its latency and answer.
fn untraced_op(
    u: &Universe,
    g: &GoalSpec,
    install_from: Option<&dyn CacheSource>,
) -> (f64, Result<Answer, String>) {
    let t = Instant::now();
    let conc = concretizer(&u.repo, &u.sources, config());
    let out = conc.concretize_goal(&g.goal).map_err(|e| e.to_string());
    let out = out.and_then(|sol| {
        let installed = install_from
            .map(|cache| pipeline::install(&mut Tracer::disabled(), 0, sol.spec(), cache))
            .transpose()?;
        Ok((sol, installed))
    });
    let latency = ms(t.elapsed());
    (
        latency,
        out.map(|(sol, installed)| Answer::new(&sol, installed)),
    )
}

/// Run whole sweeps over the goals, each in a fresh seeded order, until
/// at least `budget` has passed. Whole sweeps keep every run's goal mix
/// identical.
fn sweeps(
    n_goals: usize,
    rng: &mut StdRng,
    budget: Duration,
    mut op: impl FnMut(usize),
) -> Duration {
    let start = Instant::now();
    while start.elapsed() < budget {
        for gi in shuffled(n_goals, rng) {
            op(gi);
        }
    }
    start.elapsed()
}

pub fn run(w: &Cold, seed: u64, seconds: u64, trace: bool) -> Report {
    let mut layers = BTreeMap::new();
    let (u, setup_s) = set_up(w, seed, &mut layers);
    let goals = (w.goals)();
    let install_from = w.installs.then(|| u.sources[0].as_ref());

    let conc = concretizer(&u.repo, &u.sources, config());
    let golden: Vec<Result<Answer, String>> = goals
        .iter()
        .map(|g| reference(&conc, &u.sources, &g.goal, install_from))
        .collect();
    for (g, r) in goals.iter().zip(&golden) {
        if let Err(e) = r {
            eprintln!("perfbench: no reference for {}: {e}", g.spec);
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    if !trace {
        // The peak covers the timed sweeps only, not the set-ups or the
        // references. Comparing an answer with its reference allocates
        // nothing, so it stays inline.
        let mut latencies = Vec::new();
        reset_peak_rss();
        let elapsed = sweeps(goals.len(), &mut rng, budget, |gi| {
            let (latency, answer) = untraced_op(&u, &goals[gi], install_from);
            latencies.push(latency);
            tally.check(&golden[gi], &answer);
        });
        let peak_rss = peak_rss_mb().unwrap_or(0.0);
        eprintln!(
            "perfbench: {} ops in {:.2} s; p90 leaves {} samples beyond it",
            latencies.len(),
            elapsed.as_secs_f64(),
            latencies.len() / 10
        );
        return Report {
            tally,
            metrics: vec![
                ("latency_p50_ms", median(&latencies)),
                ("latency_p90_ms", quantile(&latencies, 0.9)),
                (
                    "throughput_ops_s",
                    latencies.len() as f64 / elapsed.as_secs_f64(),
                ),
                ("setup_s", setup_s),
                ("peak_rss_mb", peak_rss),
            ],
            trace: None,
        };
    }

    // Traced run: each goal runs untraced and then stage by stage with
    // spans, back to back, so the pair's difference is the tracing
    // overhead under the same machine conditions.
    let mut tr = Tracer::new(Instant::now());
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut traced, mut overhead) = (Vec::new(), Vec::new());
    let mut op_id = 0u64;
    sweeps(goals.len(), &mut rng, budget, |gi| {
        let (untraced, answer) = untraced_op(&u, &goals[gi], install_from);
        tally.check(&golden[gi], &answer);
        op_id += 1;
        let conc = concretizer(&u.repo, &u.sources, config());
        let staged = pipeline::staged(
            &mut tr,
            op_id,
            &conc,
            &u.sources,
            &goals[gi].goal,
            install_from,
            true,
        );
        let answer = staged.map(|st| {
            traced.push(st.op_ms);
            overhead.push(st.op_ms - untraced);
            for (k, v) in &st.counts {
                *sums.entry(k).or_default() += v;
            }
            Answer::new(&st.solution, st.install)
        });
        tally.check(&golden[gi], &answer);
    });

    layers.extend(pipeline::layer_metrics(
        &tr,
        &sums,
        traced.len().max(1) as f64,
    ));
    // The layers' self times against the traced end-to-end time: the
    // op span's own self time is the glue no layer call covers.
    let glue = tr.self_ms().get("op").copied().unwrap_or(0.0);
    let op_sum: f64 = traced.iter().sum();
    layers.insert("trace.self_time_share", 1.0 - glue / op_sum.max(1e-9));
    layers.insert("trace.overhead_ms", median(&overhead));
    layers.insert("error_rate", tally.error_rate());
    Report {
        tally,
        metrics: layers.into_iter().collect(),
        trace: Some(tr),
    }
}
