//! Workload inputs: the repositories, buildcaches and goal lists, all
//! derived from the workload seed and nothing else (no core count, no
//! clock), so the same seed gives the same inputs on any machine. The
//! local cache is `spackle_radiuss::local_cache`, the generator
//! `spackled` boots with; it concretizes on every core, so its time
//! (not its contents) depends on the core count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spackle_buildcache::{BuildCache, CacheSource, Labeled};
use spackle_core::Goal;
use spackle_radiuss::{
    local_cache, radiuss_repo, synth_spec, with_mpiabi, with_replicas, SynthConfig, RADIUSS_ROOTS,
};
use spackle_repo::Repository;
use spackle_spec::{parse_spec, Sym};
use std::sync::Arc;
use std::time::Instant;

/// Synthesized DAGs in the seeded public cache (about 800 entries).
pub const PUBLIC_DAGS: usize = 300;
/// `mpiabi` replicas in the splice-scale repository (Fig 7's top end).
pub const REPLICAS: usize = 100;

/// A repository plus its reusable-spec sources, highest priority first,
/// with the time each part took to build.
pub struct Universe {
    pub repo: Arc<Repository>,
    pub sources: Vec<Arc<dyn CacheSource>>,
    pub repo_ms: f64,
    pub cache_ms: f64,
}

impl Universe {
    /// Entries over every source.
    pub fn entries(&self) -> usize {
        self.sources.iter().map(|s| s.len()).sum()
    }
}

/// The public buildcache: `n_dags` synthesized configurations of random
/// RADIUSS roots, drawn from one RNG stream seeded by `seed`. One
/// stream (rather than one per worker thread) keeps the cache identical
/// whatever the machine's core count.
pub fn public_cache(repo: &Repository, n_dags: usize, seed: u64) -> BuildCache {
    let cfg = SynthConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = BuildCache::new();
    for _ in 0..n_dags {
        let root = RADIUSS_ROOTS[rng.gen_range(0..RADIUSS_ROOTS.len())];
        if let Some(spec) = synth_spec(repo, Sym::intern(root), &cfg, &mut rng) {
            cache.add_spec(&spec);
        }
    }
    cache
}

/// RADIUSS + `mpiabi`, served from the local cache and a seeded public
/// cache kept as separate labeled sources, as `spackled` boots them.
pub fn radiuss_universe(seed: u64) -> Universe {
    let t = Instant::now();
    let base = radiuss_repo();
    let repo = with_mpiabi(&base);
    let repo_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let local = local_cache(&base);
    let public = public_cache(&base, PUBLIC_DAGS, seed);
    let cache_ms = t.elapsed().as_secs_f64() * 1e3;
    Universe {
        repo: Arc::new(repo),
        sources: vec![
            Arc::new(Labeled::new(local, "local")),
            Arc::new(Labeled::new(public, "public")),
        ],
        repo_ms,
        cache_ms,
    }
}

/// RADIUSS + [`REPLICAS`] `mpiabi` replicas against the local cache
/// alone (the public cache is index-only, so it cannot feed installs).
pub fn replica_universe() -> Universe {
    let t = Instant::now();
    let base = radiuss_repo();
    let repo = with_replicas(&base, REPLICAS);
    let repo_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let local = local_cache(&base);
    let cache_ms = t.elapsed().as_secs_f64() * 1e3;
    Universe {
        repo: Arc::new(repo),
        sources: vec![Arc::new(Labeled::new(local, "local"))],
        repo_ms,
        cache_ms,
    }
}

/// One goal: its spec text and the parsed form with forbidden packages.
#[derive(Clone, Debug)]
pub struct GoalSpec {
    pub spec: String,
    pub goal: Goal,
}

impl GoalSpec {
    pub fn new(spec: &str, forbid: &[&str]) -> GoalSpec {
        let mut goal = Goal::single(parse_spec(spec).expect("benchmark goals parse"));
        goal.forbidden = forbid.iter().map(|f| Sym::intern(f)).collect();
        GoalSpec {
            spec: spec.to_string(),
            goal,
        }
    }
}

/// The RADIUSS roots that depend on MPI (15 of the 32).
pub fn mpi_roots() -> Vec<&'static str> {
    let repo = radiuss_repo();
    let mpi = Sym::intern("mpi");
    RADIUSS_ROOTS
        .iter()
        .copied()
        .filter(|r| repo.possible_closure(&[Sym::intern(r)]).contains(&mpi))
        .collect()
}

/// A seeded shuffle of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}
