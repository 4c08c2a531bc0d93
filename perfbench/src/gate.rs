//! The correctness gate: every answer the benchmark times is checked
//! against a reference built independently of the timed call, and every
//! mismatch or failure is counted against the operations attempted.

use crate::pipeline::{self, InstallCounts};
use crate::trace::Tracer;
use spackle_asp::{certify_model, SolverConfig};
use spackle_buildcache::CacheSource;
use spackle_core::{Concretizer, Goal, Solution};
use spackle_server::Response;
use std::sync::Arc;
use std::time::Instant;

/// A goal's answer in comparable form: root DAG hashes, the reused,
/// built and spliced package sets, the optimal cost vector and, where
/// the workload installs, the install counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub hashes: Vec<String>,
    pub reused: Vec<String>,
    pub built: Vec<String>,
    pub spliced: Vec<String>,
    pub cost: Vec<(i64, i64)>,
    pub install: Option<InstallCounts>,
}

fn sorted(names: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = names.collect();
    v.sort();
    v
}

impl Answer {
    pub fn new(sol: &Solution, install: Option<InstallCounts>) -> Answer {
        Answer {
            hashes: sol.specs.iter().map(|s| s.dag_hash().to_string()).collect(),
            reused: sorted(sol.reused.iter().map(|s| s.as_str().to_string())),
            built: sorted(sol.built.iter().map(|s| s.as_str().to_string())),
            spliced: sorted(
                sol.spliced
                    .iter()
                    .map(|s| format!("{}:{}>{}", s.parent, s.replaced, s.replacement)),
            ),
            cost: sol.cost.clone(),
            install,
        }
    }

    /// Does a daemon response carry this answer? The wire reports the
    /// spliced count and no cost vector, so those compare coarser.
    pub fn matches_response(&self, r: &Response) -> bool {
        r.ok && r.hashes == self.hashes
            && sorted(r.reused.iter().cloned()) == self.reused
            && sorted(r.built.iter().cloned()) == self.built
            && r.spliced as usize == self.spliced.len()
    }
}

/// Operations attempted and failed (wrong answer, error, or an install
/// that `Installer::verify` complains about).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Check a timed answer against its reference (whose install, if
    /// any, verified clean).
    pub fn check(&mut self, reference: &Result<Answer, String>, got: &Result<Answer, String>) {
        self.record(matches!((reference, got), (Ok(want), Ok(have)) if want == have));
    }

    /// Check a daemon response against the reference for the state it
    /// was served from.
    pub fn check_response(
        &mut self,
        reference: &Result<Answer, String>,
        got: &Result<Response, String>,
    ) {
        let ok = matches!((reference, got), (Ok(want), Ok(r)) if want.matches_response(r));
        self.record(ok);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The reference answer for `goal`, built independently of the timed
/// path: a stage-by-stage solve whose model passes `certify_model`
/// (stable, minimal, honest cost), whose optimum the seed engine (no
/// preprocessing, no search heuristics, from-scratch branch-and-bound)
/// confirms, and whose install — when `install_from` is given — verifies
/// clean.
pub fn reference(
    conc: &Concretizer,
    sources: &[Arc<dyn CacheSource>],
    goal: &Goal,
    install_from: Option<&dyn CacheSource>,
) -> Result<Answer, String> {
    let mut tr = Tracer::new(Instant::now());
    let st = pipeline::staged(&mut tr, 0, conc, sources, goal, install_from, false)?;
    certify_model(&st.model).map_err(|e| format!("reference model fails certification: {e}"))?;
    let mut seed_cfg = pipeline::config();
    seed_cfg.solver = SolverConfig::seed_engine();
    let seed = conc
        .clone()
        .with_config(seed_cfg)
        .concretize_goal(goal)
        .map_err(|e| format!("seed engine: {e}"))?;
    if seed.cost != st.solution.cost {
        return Err(format!(
            "seed engine optimum {:?} differs from {:?}",
            seed.cost, st.solution.cost
        ));
    }
    if st.install.is_some_and(|i| i.verify_errors > 0) {
        return Err("reference install does not verify".to_string());
    }
    Ok(Answer::new(&st.solution, st.install))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::concretizer;
    use spackle_buildcache::BuildCache;
    use spackle_repo::{PackageBuilder, Repository};
    use spackle_server::{serve, Client, Request, ServerState};
    use spackle_spec::parse_spec;

    fn tiny() -> (Arc<Repository>, Vec<Arc<dyn CacheSource>>) {
        let repo = Repository::from_packages([
            PackageBuilder::new("zlib")
                .version("1.3")
                .version("1.2")
                .build()
                .unwrap(),
            PackageBuilder::new("app")
                .version("1.0")
                .depends_on("zlib")
                .build()
                .unwrap(),
        ])
        .unwrap();
        let sources: Vec<Arc<dyn CacheSource>> = vec![Arc::new(BuildCache::new())];
        (Arc::new(repo), sources)
    }

    #[test]
    fn planted_wrong_answer_and_failures_raise_error_rate() {
        let (repo, sources) = tiny();
        let conc = concretizer(&repo, &sources, pipeline::config());
        let goal = Goal::single(parse_spec("app").unwrap());
        let want = reference(&conc, &sources, &goal, None);
        assert!(want.is_ok(), "{want:?}");
        let timed = conc.concretize_goal(&goal).map(|s| Answer::new(&s, None));

        let mut tally = Tally::default();
        tally.check(&want, &timed.clone().map_err(|e| e.to_string()));
        assert_eq!(tally.error_rate(), 0.0);

        // A planted wrong answer: one root hash flipped.
        let mut wrong = timed.clone().unwrap();
        wrong.hashes[0] = "0".repeat(wrong.hashes[0].len());
        tally.check(&want, &Ok(wrong));
        assert_eq!(tally.failed, 1);

        // A failed solve.
        let bad = Goal::single(parse_spec("no-such-package").unwrap());
        let failed = conc.concretize_goal(&bad).map(|s| Answer::new(&s, None));
        tally.check(&want, &failed.map_err(|e| e.to_string()));
        assert_eq!((tally.attempted, tally.failed), (3, 2));

        // An install that `Installer::verify` complains about.
        let installed = |verify_errors| {
            let mut a = timed.clone().unwrap();
            a.install = Some(InstallCounts {
                verify_errors,
                ..Default::default()
            });
            a
        };
        tally.check(&Ok(installed(0)), &Ok(installed(1)));
        assert_eq!(tally.failed, 3);
        assert!(tally.error_rate() > 0.7);
    }

    #[test]
    fn failed_and_wrong_daemon_responses_raise_error_rate() {
        let (repo, sources) = tiny();
        let conc = concretizer(&repo, &sources, pipeline::config());
        let want = reference(
            &conc,
            &sources,
            &Goal::single(parse_spec("app").unwrap()),
            None,
        );
        let state = Arc::new(ServerState::new((*repo).clone(), sources));
        let server = serve(state, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let mut tally = Tally::default();
        let good = client.call(Request::concretize("app"));
        tally.check_response(&want, &good);
        assert_eq!(tally.failed, 0);

        let mut wrong = good.unwrap();
        wrong.built.push("zlib".to_string());
        tally.check_response(&want, &Ok(wrong));
        let failed = client.call(Request::concretize("no-such-package"));
        assert!(!failed.as_ref().unwrap().ok);
        tally.check_response(&want, &failed);
        tally.check_response(&want, &Err("server closed the connection".to_string()));
        assert_eq!((tally.attempted, tally.failed), (4, 3));

        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
    }
}
