//! One cold concretization driven stage by stage through the public
//! layer APIs, with a span around each call:
//!
//! `Concretizer::program_text` (encode) → `parse_program` (parse) →
//! `Solver::ground` → `Solver::translate_ground` (CNF translation plus
//! preprocessing) → `Solver::solve_translated` (search,
//! branch-and-bound, stability) → `interpret::interpret`, then, when
//! the workload installs, `InstallPlan::plan` → `Installer::install` →
//! `Installer::verify`.
//!
//! This is the same sequence `Concretizer::concretize_goal` runs for a
//! solve with no ground cache attached, so the traced run and the
//! golden reference exercise the layers the untraced run times as a
//! whole.

use crate::trace::Tracer;
use spackle_asp::cdcl::Sat;
use spackle_asp::{
    cnf, parse_program, Model, PreprocessConfig, SolveOutcome, Solver, SolverConfig,
};
use spackle_buildcache::CacheSource;
use spackle_core::interpret::interpret;
use spackle_core::{Concretizer, ConcretizerConfig, Goal, Solution};
use spackle_install::{InstallLayout, InstallPlan, InstallReport, Installer};
use spackle_repo::Repository;
use spackle_spec::ConcreteSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where installs land. Installs are in memory: nothing is written here.
pub const STORE: &str = "/perfbench/store";

/// Every benchmark solve uses the CLI default configuration.
pub fn config() -> ConcretizerConfig {
    ConcretizerConfig::splice_spack()
}

/// A concretizer over `repo` and `sources` under `config`.
pub fn concretizer(
    repo: &Arc<Repository>,
    sources: &[Arc<dyn CacheSource>],
    config: ConcretizerConfig,
) -> Concretizer {
    sources.iter().fold(
        Concretizer::shared(Arc::clone(repo)).with_config(config),
        |c, s| c.with_reusable(s),
    )
}

/// Install counts for one solution into a fresh in-memory store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstallCounts {
    pub builds: usize,
    pub binary_installs: usize,
    pub rewired: usize,
    pub verify_errors: usize,
}

/// Plan, install and verify `spec` from `cache` into a fresh store.
pub fn install(
    tr: &mut Tracer,
    op: u64,
    spec: &ConcreteSpec,
    cache: &dyn CacheSource,
) -> Result<InstallCounts, String> {
    let plan = tr.time("install.plan", op, || InstallPlan::plan(spec, cache));
    let mut installer = Installer::new(InstallLayout::new(STORE));
    let report: InstallReport = tr
        .time("install.install", op, || {
            installer.install(spec, cache, &plan)
        })
        .map_err(|e| format!("install: {e}"))?;
    let problems = tr.time("install.verify", op, || installer.verify(spec));
    Ok(InstallCounts {
        builds: plan.builds(),
        binary_installs: plan.binary_installs(),
        rewired: report.rewired,
        verify_errors: problems.len(),
    })
}

/// What one staged solve produced.
pub struct Staged {
    /// Duration of the `op` span: the traced solve (and install).
    pub op_ms: f64,
    pub solution: Solution,
    pub model: Model,
    pub install: Option<InstallCounts>,
    /// Per-op layer counters (bytes, rules, atoms, search effort...).
    pub counts: BTreeMap<&'static str, f64>,
}

/// Solve `goal` cold, stage by stage, inside an `op` span. With `diag`,
/// also run (outside the op span) the standalone CNF translation, and
/// the same ground program re-translated and re-solved with
/// preprocessing disabled, to split translation from preprocessing and
/// to measure the search time preprocessing saves.
pub fn staged(
    tr: &mut Tracer,
    op: u64,
    conc: &Concretizer,
    sources: &[Arc<dyn CacheSource>],
    goal: &Goal,
    install_from: Option<&dyn CacheSource>,
    diag: bool,
) -> Result<Staged, String> {
    let solver_cfg: SolverConfig = config().solver;
    let solver = Solver::with_config(solver_cfg.clone());
    let mut counts = BTreeMap::new();
    let span = tr.open("op", op);
    let result = (|| {
        let enc = tr
            .time("encode", op, || conc.program_text(goal))
            .map_err(|e| format!("encode: {e}"))?;
        counts.insert("encode.bytes", enc.program.len() as f64);
        counts.insert("buildcache.reusable_specs", enc.reusable_count as f64);
        let program = tr
            .time("parse", op, || parse_program(&enc.program))
            .map_err(|e| format!("parse: {e}"))?;
        counts.insert("parse.rules", program.rules.len() as f64);
        let gp = tr
            .time("ground", op, || solver.ground(&program))
            .map_err(|e| format!("ground: {e}"))?;
        counts.insert("ground.atoms", gp.possible.len() as f64);
        counts.insert("ground.rules", gp.rules.len() as f64);
        let tp = tr.time("translate_ground", op, || {
            solver.translate_ground(Arc::clone(&gp))
        });
        let (outcome, st) = tr
            .time("search", op, || solver.solve_translated(&tp))
            .map_err(|e| format!("search: {e}"))?;
        for (k, v) in [
            ("preprocess.fixed_literals", st.pre_fixed_literals),
            ("preprocess.failed_literals", st.pre_failed_literals),
            ("preprocess.eliminated_vars", st.pre_eliminated_vars),
            ("search.conflicts", st.conflicts),
            ("search.decisions", st.decisions),
            ("search.propagations", st.propagations),
            ("search.optimize_probes", st.optimize_probes),
            ("search.stability_restarts", st.stability_restarts),
        ] {
            counts.insert(k, v as f64);
        }
        let SolveOutcome::Optimal(model) = outcome else {
            return Err("unsatisfiable".to_string());
        };
        let interp = tr
            .time("interpret", op, || {
                interpret(&model, sources, &enc.root_names)
            })
            .map_err(|e| format!("interpret: {e}"))?;
        counts.insert("interpret.spliced", interp.spliced.len() as f64);
        let solution = Solution {
            specs: interp.specs,
            reused: interp.reused,
            built: interp.built,
            spliced: interp.spliced,
            cost: model.cost.clone(),
            stats: Default::default(),
        };
        let install = match install_from {
            Some(cache) => Some(install(tr, op, solution.spec(), cache)?),
            None => None,
        };
        if let Some(i) = install {
            for (k, v) in [
                ("install.builds", i.builds),
                ("install.binary_installs", i.binary_installs),
                ("install.rewired", i.rewired),
                ("install.verify_errors", i.verify_errors),
            ] {
                counts.insert(k, v as f64);
            }
        }
        Ok((solution, model, install, gp))
    })();
    let op_ms = tr.close(span);
    let (solution, model, install, gp) = result?;

    if diag {
        let d = tr.open("diag", op);
        let vars = tr.time("translate", op, || {
            let mut sat = Sat::new();
            cnf::translate(&gp, &mut sat);
            sat.num_vars()
        });
        counts.insert("translate.sat_vars", vars as f64);
        let plain = Solver::with_config(SolverConfig {
            preprocess: PreprocessConfig::disabled(),
            ..solver_cfg
        });
        let tp = tr.time("nopre.translate_ground", op, || plain.translate_ground(gp));
        let plain_search = tr.time("nopre.search", op, || plain.solve_translated(&tp));
        tr.close(d);
        plain_search.map_err(|e| format!("search without preprocessing: {e}"))?;
    }
    Ok(Staged {
        op_ms,
        solution,
        model,
        install,
        counts,
    })
}

/// Per-op layer metrics over the staged solves recorded in `tr`: each
/// layer's self time in ms and each counter in `sums`, divided by `ops`.
/// Translation time is the standalone `cnf::translate`; preprocessing is
/// `translate_ground` minus it; the search time preprocessing saves is
/// the re-solve without it minus the real search.
pub fn layer_metrics(
    tr: &Tracer,
    sums: &BTreeMap<&'static str, f64>,
    ops: f64,
) -> BTreeMap<&'static str, f64> {
    let selfs = tr.self_ms();
    let totals = tr.total_ms();
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let translate = get(&totals, "translate");
    let install_ms: f64 = ["install.plan", "install.install", "install.verify"]
        .iter()
        .map(|k| get(&selfs, k))
        .sum();
    let mut out = BTreeMap::new();
    for (k, v) in [
        ("encode.ms", get(&selfs, "encode")),
        ("parse.ms", get(&selfs, "parse")),
        ("ground.ms", get(&selfs, "ground")),
        ("translate.ms", translate),
        ("preprocess.ms", get(&selfs, "translate_ground") - translate),
        (
            "preprocess.search_ms_saved",
            get(&totals, "nopre.search") - get(&selfs, "search"),
        ),
        ("search.ms", get(&selfs, "search")),
        ("interpret.ms", get(&selfs, "interpret")),
        ("install.ms", install_ms),
    ] {
        out.insert(k, v / ops);
    }
    for (k, v) in sums {
        out.insert(*k, v / ops);
    }
    out
}
