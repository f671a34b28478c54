//! The crash-safe experiment job service (`repro serve <jobs>`).
//!
//! A jobs file (one whitespace-separated spec per line) is turned into a
//! supervised, journaled sweep:
//!
//! 1. **Journal replay** — the CRC'd WAL ([`super::journal`]) restores
//!    every transition a previous (possibly killed) invocation recorded.
//!    Jobs already `done` are not re-run; `running` rows without a
//!    matching `done`/`failed` count as consumed attempts, so a job that
//!    kills the process on every attempt is quarantined after
//!    `max_attempts` crash-resume cycles instead of crash-looping forever.
//! 2. **Result dedup** — finished results also go to a `Cache` under
//!    `<dir>/results/cache`, keyed by the job's parameter digest (the label
//!    is excluded, so relabeled duplicates dedup). A valid entry satisfies
//!    a job without simulation; a corrupt one is set aside and missed.
//! 3. **Gates** — every pending job passes the static admission pipeline
//!    before any network is built (a rejected scheme is recorded and
//!    skipped), and with [`ServeConfig::screen`] the analytical surrogate
//!    screens out jobs offered far past their predicted saturation.
//! 4. **Supervision** — the surviving jobs run on the crate's one
//!    supervised pool ([`super::pool::run_supervised`]: `catch_unwind`,
//!    optional wall-clock timeout, bounded backoff, poison-job quarantine
//!    after `max_attempts` failures — labeled in the report, never
//!    aborting the sweep).
//!
//! The sweep digest folds every job's id, terminal status, and (for done
//! jobs) the full bit pattern of its result, in jobs-file order — so "a
//! killed+resumed sweep equals an uninterrupted one" is checkable as a
//! single `u64` comparison.

use super::cache::Cache;
use super::journal::Journal;
use super::pool::{replay_jobs, rows, run_supervised, Policy, Task};
use super::store::Store;
use crate::runner::{self, ExpConfig, RunResult};
use crate::sweep::build_network;
use metrics::report::{Table, Value};
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use rair::scheme::{Routing, Scheme};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use traffic::pattern::Pattern;
use traffic::scenario::{AppSpec, InterDest, Scenario};

/// One line of a jobs file: which configuration to simulate. The `label`
/// is for humans and reports only — the job identity ([`JobSpec::id`]) is
/// a digest of everything *but* the label, so two differently-labeled
/// lines with identical parameters dedup to one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub label: String,
    /// Scheme key: `ro_rr`, `ro_age`, `rair`, `rair_va`, `rair_native_high`
    /// or `rair_foreign_high`.
    pub scheme: String,
    /// Routing key: `xy`, `local` or `dbar`.
    pub routing: String,
    /// Region key: `single`, `halves` or `quadrants`.
    pub region: String,
    /// Pattern key: `uniform`, `transpose` or `bitcomp`.
    pub pattern: String,
    /// Offered load in flits/cycle/node (absolute, not %-of-saturation —
    /// the service must not depend on the saturation search).
    pub rate: f64,
    pub seed: u64,
}

/// One `(key, constructor)` table per spec field: [`JobSpec::parse`]
/// accepts exactly these keys and [`JobSpec::resolve`] builds from them, so
/// the two cannot drift.
type Keys<T> = &'static [(&'static str, T)];

const SCHEMES: Keys<fn() -> Scheme> = &[
    ("ro_rr", || Scheme::RoRr),
    ("ro_age", || Scheme::RoAge),
    ("rair", Scheme::rair),
    ("rair_va", Scheme::rair_va_only),
    ("rair_native_high", Scheme::rair_native_high),
    ("rair_foreign_high", Scheme::rair_foreign_high),
];
const ROUTINGS: Keys<Routing> = &[
    ("xy", Routing::Xy),
    ("local", Routing::Local),
    ("dbar", Routing::Dbar),
];
const REGIONS: Keys<fn(&SimConfig) -> RegionMap> = &[
    ("single", RegionMap::single),
    ("halves", RegionMap::halves),
    ("quadrants", RegionMap::quadrants),
];
const PATTERNS: Keys<fn() -> Pattern> = &[
    ("uniform", || Pattern::UniformRandom),
    ("transpose", || Pattern::Transpose),
    ("bitcomp", || Pattern::BitComplement),
];

/// The entry `key` names in `table`, or an error naming the key.
fn lookup<T: Copy>(kind: &str, key: &str, table: Keys<T>) -> Result<T, String> {
    let entry = table.iter().find(|(k, _)| *k == key);
    entry.map(|&(_, v)| v).ok_or_else(|| {
        let keys: Vec<&str> = table.iter().map(|(k, _)| *k).collect();
        format!("unknown {kind} `{key}` (one of {})", keys.join("|"))
    })
}

/// What the four keys of a [`JobSpec`] name.
#[derive(Debug)]
struct JobConfig {
    scheme: Scheme,
    routing: Routing,
    region: RegionMap,
    /// The per-application traffic spec the job offers.
    app: AppSpec,
}

impl JobSpec {
    /// Parse one jobs-file line:
    /// `label scheme routing region pattern rate [seed]`.
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 && f.len() != 7 {
            return Err(format!(
                "expected `label scheme routing region pattern rate [seed]`, got {} field(s)",
                f.len()
            ));
        }
        let rate: f64 = f[5]
            .parse()
            .map_err(|_| format!("rate `{}` is not a number", f[5]))?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!("rate {rate} must be a positive finite load"));
        }
        let seed = match f.get(6) {
            None => 1,
            Some(s) => s
                .parse()
                .map_err(|_| format!("seed `{s}` is not an integer"))?,
        };
        let spec = JobSpec {
            label: f[0].to_string(),
            scheme: f[1].to_string(),
            routing: f[2].to_string(),
            region: f[3].to_string(),
            pattern: f[4].to_string(),
            rate,
            seed,
        };
        spec.resolve(&SimConfig::table1())?;
        Ok(spec)
    }

    /// Parse a whole jobs file (`#` comments and blank lines skipped).
    /// Errors carry the 1-based line number.
    pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push(Self::parse(line).map_err(|e| format!("jobs file line {}: {e}", i + 1))?);
        }
        if out.is_empty() {
            return Err("jobs file contains no jobs".into());
        }
        Ok(out)
    }

    /// The job's identity: a digest of every result-determining parameter
    /// (spec fields + the windows/seed of `ec`), excluding the label.
    pub fn id(&self, ec: &ExpConfig) -> u64 {
        let mut d = metrics::Digest::new();
        // Domain tag ("RAIRJOB" + version): keys of this family can never
        // collide with the saturation-cache or sweep digests.
        d.write_u64(0x5241_4952_4A4F_4201);
        d.write_str(&self.scheme);
        d.write_str(&self.routing);
        d.write_str(&self.region);
        d.write_str(&self.pattern);
        d.write_f64(self.rate);
        d.write_u64(self.seed);
        d.write_u64(ec.warmup);
        d.write_u64(ec.measure);
        d.write_u64(ec.seed);
        // The slot of a per-run cycle budget (`u64::MAX` = none, the only
        // value): it keeps job ids, result file names and the pinned sweep
        // digest what they are.
        d.write_u64(u64::MAX);
        d.finish()
    }

    /// The configuration the four keys name on `cfg`, or an error naming
    /// the first key no table holds. The fields are plain `String`s, so a
    /// hand-built spec can carry a key [`JobSpec::parse`] never saw.
    fn resolve(&self, cfg: &SimConfig) -> Result<JobConfig, String> {
        Ok(JobConfig {
            scheme: lookup("scheme", &self.scheme, SCHEMES)?(),
            routing: lookup("routing", &self.routing, ROUTINGS)?,
            region: lookup("region", &self.region, REGIONS)?(cfg),
            app: AppSpec {
                rate_flits: self.rate,
                intra: 0.0,
                inter: 1.0,
                inter_dest: InterDest::Pattern(lookup("pattern", &self.pattern, PATTERNS)?()),
                mc: 0.0,
            },
        })
    }
}

/// Executor: how a [`JobSpec`] becomes a [`RunResult`]. `Arc` so every
/// pool task can hold a clone; tests inject stubs.
pub type JobExec = Arc<dyn Fn(&JobSpec, &ExpConfig) -> RunResult + Send + Sync + 'static>;

/// The real executor: build the network from the spec and simulate.
pub fn sim_exec() -> JobExec {
    Arc::new(|spec: &JobSpec, ec: &ExpConfig| {
        let cfg = SimConfig::table1();
        // `serve` rejects an unknown key before it builds a task.
        let job = spec.resolve(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let apps = job.region.num_apps();
        let specs = (0..apps).map(|_| Some(job.app.clone())).collect();
        let scenario = Scenario::new(&cfg, &job.region, specs);
        let net = build_network(
            &cfg,
            &job.region,
            &job.scheme,
            job.routing,
            Box::new(scenario),
            spec.seed,
        );
        runner::run_one(spec.label.clone(), net, ec)
    })
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: holds `journal.wal`, `results/cache/` and the
    /// `SERVE_report.json`.
    pub dir: PathBuf,
    pub ec: ExpConfig,
    /// Attempts (including those consumed by earlier crashed invocations)
    /// before a job is quarantined as poison.
    pub max_attempts: u32,
    /// Base of the deterministic exponential backoff between retries
    /// (`base << (attempt-1)` ms, capped at [`super::pool::BACKOFF_CAP_MS`]).
    pub backoff_base_ms: u64,
    /// Wall-clock cap per attempt; `None` means unbounded.
    pub timeout_ms: Option<u64>,
    /// Screen jobs through the analytical surrogate before simulating.
    pub screen: bool,
}

impl ServeConfig {
    pub fn new(dir: impl Into<PathBuf>, ec: ExpConfig) -> Self {
        Self {
            dir: dir.into(),
            ec,
            max_attempts: 3,
            backoff_base_ms: 50,
            timeout_ms: None,
            screen: false,
        }
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Simulated (or restored) successfully.
    Done,
    /// Statically rejected by the admission gate; never built.
    Rejected,
    /// Screened out by the analytical surrogate; never built.
    Screened,
    /// Failed `max_attempts` times (panic/timeout) — poison, labeled and
    /// skipped, never aborting the sweep.
    Quarantined,
}

impl JobStatus {
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Rejected => "rejected",
            JobStatus::Screened => "screened",
            JobStatus::Quarantined => "quarantined",
        }
    }
}

/// Outcome of one jobs-file line.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub spec: JobSpec,
    pub id: u64,
    pub status: JobStatus,
    /// Attempts consumed across all invocations (0 for gated/restored jobs).
    pub attempts: u32,
    pub result: Option<RunResult>,
    /// Why the job was rejected/screened/quarantined.
    pub reason: Option<String>,
    /// Satisfied without running a simulation in this invocation (journal
    /// replay, result-cache hit, or dedup against an identical job).
    pub restored: bool,
}

/// What one `serve` invocation did, plus the digest that proves resume
/// correctness.
#[derive(Debug)]
pub struct ServeReport {
    pub outcomes: Vec<JobOutcome>,
    /// Digest over (id, status, result bits) in jobs-file order.
    pub sweep_digest: u64,
    /// Jobs satisfied from the journal.
    pub resumed: usize,
    /// Jobs satisfied from the result cache (or by intra-run dedup).
    pub cache_hits: usize,
    /// Fresh simulations executed by this invocation.
    pub executed: usize,
    pub journal_write_errors: u64,
    pub journal_torn_tail: bool,
    pub journal_quarantined_rows: usize,
    /// Result-cache files that failed validation and were set aside.
    pub result_cache_corrupt: u64,
}

impl ServeReport {
    pub fn quarantined(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Quarantined)
            .count()
    }

    /// The outcomes as the one report: the text table `repro serve`
    /// prints and the `jobs` rows of `SERVE_report.json`.
    pub fn table(&self) -> Table {
        Table::of(
            "Experiment service — job outcomes",
            &self.outcomes,
            &[
                ("job", "label", |o| o.spec.label.clone().into()),
                ("", "id", |o| format!("{:016x}", o.id).into()),
                ("status", "status", |o| o.status.label().into()),
                ("attempts", "attempts", |o| u64::from(o.attempts).into()),
                ("source", "", |o| {
                    if o.restored { "restored" } else { "executed" }.into()
                }),
                ("", "restored", |o| o.restored.into()),
                ("detail", "", |o| match (&o.reason, &o.result) {
                    (Some(reason), _) => reason.clone().into(),
                    (None, Some(r)) => {
                        format!("APL {}", metrics::report::f2(r.mean_apl(None))).into()
                    }
                    (None, None) => "".into(),
                }),
                ("", "reason", |o| {
                    o.reason.clone().unwrap_or_default().into()
                }),
            ],
        )
    }

    /// The `SERVE_report.json` document.
    pub fn json(&self) -> Value {
        Value::obj([
            ("sweep_digest", format!("{:016x}", self.sweep_digest).into()),
            ("resumed", self.resumed.into()),
            ("cache_hits", self.cache_hits.into()),
            ("executed", self.executed.into()),
            ("quarantined", self.quarantined().into()),
            ("journal_write_errors", self.journal_write_errors.into()),
            ("journal_torn_tail", self.journal_torn_tail.into()),
            (
                "journal_quarantined_rows",
                self.journal_quarantined_rows.into(),
            ),
            ("result_cache_corrupt", self.result_cache_corrupt.into()),
            ("jobs", self.table().json_rows()),
        ])
    }
}

/// The job-result cache: `job_<id>.txt` under `<dir>/results/cache`, one
/// `rair-res-v1` frame around a [`runner::checkpoint_line`] result row.
fn result_cache() -> Cache<RunResult> {
    Cache::new(
        "job",
        "rair-res-v1",
        runner::checkpoint_line,
        runner::parse_checkpoint_line,
    )
}

/// Execute a jobs list under the service. See the module docs for the
/// recovery semantics; the report's `sweep_digest` is the bit-identical
/// resume contract.
pub fn serve(
    store: &dyn Store,
    specs: &[JobSpec],
    scfg: &ServeConfig,
    exec: &JobExec,
) -> ServeReport {
    let (results, cache_dir) = (result_cache(), scfg.dir.join("results").join("cache"));
    if let Err(e) = store.create_dir_all(&cache_dir) {
        eprintln!(
            "[serve] warning: could not create {}: {e}",
            cache_dir.display()
        );
    }
    let journal = Journal::new(scfg.journal_path(), store);
    let replay = journal.replay();
    let replayed = replay_jobs(&replay.rows);

    // Dedup the jobs list by id: only the first occurrence runs.
    let ids: Vec<u64> = specs.iter().map(|s| s.id(&scfg.ec)).collect();
    let mut primary_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        primary_of.entry(id).or_insert(i);
    }

    let mut resumed = 0usize;
    let mut cache_hits = 0usize;
    // Outcome slots for the primary occurrence of each id.
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; specs.len()];
    let mut resolve = |i: usize,
                       attempts: u32,
                       verdict: Result<RunResult, (JobStatus, String)>,
                       restored: bool| {
        let (status, result, reason) = match verdict {
            Ok(r) => (JobStatus::Done, Some(r), None),
            Err((status, reason)) => (status, None, Some(reason)),
        };
        outcomes[i] = Some(JobOutcome {
            spec: specs[i].clone(),
            id: ids[i],
            status,
            attempts,
            result,
            reason,
            restored,
        });
    };
    // The jobs that survive every shortcut and gate, and their line index.
    let mut tasks = Vec::new();
    let mut task_line = Vec::new();

    for (i, spec) in specs.iter().enumerate() {
        let id = ids[i];
        if primary_of[&id] != i {
            continue; // duplicate: filled in after the pool from the primary
        }
        let st = replayed.get(&id);
        // 1. Journal replay: a done row or a terminal verdict stands (and is
        // not journaled again).
        if let Some(r) = st.and_then(|s| s.done.clone()) {
            resumed += 1;
            resolve(i, 0, Ok(r), true);
            continue;
        }
        if let Some((kind, reason)) = st.and_then(|s| s.terminal.clone()) {
            resumed += 1;
            let status = match kind.as_str() {
                "rejected" => JobStatus::Rejected,
                "screened" => JobStatus::Screened,
                _ => JobStatus::Quarantined,
            };
            resolve(i, 0, Err((status, reason)), true);
            continue;
        }
        journal.append(&rows::note("queued", id, &spec.label));
        // 2. Result cache: an identical job finished in some earlier sweep.
        if let Some(mut r) = results.get(store, &cache_dir, id) {
            r.label = spec.label.clone();
            journal.append(&rows::done(id, &r));
            cache_hits += 1;
            resolve(i, 0, Ok(r), true);
            continue;
        }
        // 3. Admission gate — before any network build. A key no table
        // holds names no configuration to admit.
        let cfg = SimConfig::table1();
        let admitted = spec.resolve(&cfg).and_then(|job| {
            let alg = job.routing.build();
            let adm = noc_sim::admit::admit_network_cached(
                &cfg,
                &job.region,
                alg.as_ref(),
                &job.scheme.automaton(),
            );
            match adm.rejection() {
                None => Ok(job),
                Some(p) => Err(format!("{}: {}", adm.scheme, p.detail)),
            }
        });
        let job = match admitted {
            Ok(job) => job,
            Err(why) => {
                let reason = format!("admission gate rejected {why}");
                journal.append(&rows::note("rejected", id, &reason));
                resolve(i, 0, Err((JobStatus::Rejected, reason)), false);
                continue;
            }
        };
        // 4. Optional surrogate screening: offered load far past the
        // model-predicted saturation will only measure queue blow-up.
        let kind = scfg.screen.then(|| crate::admit::routing_kind(job.routing));
        let predicted =
            kind.and_then(|k| model::predict_app_saturation(&cfg, &job.region, 0, &job.app, k));
        if let Some(sat) = predicted
            .map(|p| p.load)
            .filter(|&sat| spec.rate > 1.5 * sat)
        {
            let reason = format!(
                "screened: offered {:.3} > 1.5x predicted saturation {sat:.3}",
                spec.rate
            );
            journal.append(&rows::note("screened", id, &reason));
            resolve(i, 0, Err((JobStatus::Screened, reason)), false);
            continue;
        }
        let (exec, spec, ec) = (Arc::clone(exec), spec.clone(), scfg.ec);
        task_line.push(i);
        tasks.push(Task {
            label: spec.label.clone(),
            id,
            prior_runs: st.map_or(0, |s| s.runs),
            run: Arc::new(move || exec(&spec, &ec)),
        });
    }

    // The supervised pool over the surviving jobs; each fresh result is
    // persisted to the result cache as soon as its `done` row is journaled.
    let policy = Policy {
        max_attempts: scfg.max_attempts,
        backoff_base_ms: scfg.backoff_base_ms,
        timeout_ms: scfg.timeout_ms,
    };
    let finished = run_supervised(&tasks, &policy, Some(&journal), &|t, r| {
        results.put(store, &cache_dir, t.id, r, "");
    });
    let executed = finished.iter().filter(|o| o.result.is_ok()).count();
    for (i, o) in task_line.into_iter().zip(finished) {
        let verdict = o.result.map_err(|e| (JobStatus::Quarantined, e.message));
        resolve(i, o.attempts, verdict, false);
    }

    // Assemble outcomes in jobs-file order; duplicates copy their primary.
    let mut final_outcomes: Vec<JobOutcome> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let primary = primary_of[&ids[i]];
        if primary == i {
            final_outcomes.push(outcomes[i].take().expect("every primary job resolved"));
            continue;
        }
        // Duplicate line: identical parameters, so identical outcome; only
        // the label differs and labels are not part of the digest.
        let mut o = final_outcomes[primary].clone();
        o.spec = spec.clone();
        o.restored = true;
        if let Some(r) = o.result.as_mut() {
            r.label = spec.label.clone();
        }
        cache_hits += 1;
        final_outcomes.push(o);
    }

    let sweep_digest = digest_outcomes(&final_outcomes);
    journal.append(&rows::sweep_done(sweep_digest, final_outcomes.len()));

    let report = ServeReport {
        resumed,
        cache_hits,
        executed,
        journal_write_errors: journal.write_errors(),
        journal_torn_tail: replay.torn_tail,
        journal_quarantined_rows: replay.quarantined.len(),
        result_cache_corrupt: results.stats().corrupt,
        sweep_digest,
        outcomes: final_outcomes,
    };
    if let Err(e) = store.write_atomic(
        &scfg.dir.join("SERVE_report.json"),
        report.json().to_json().as_bytes(),
    ) {
        eprintln!("[serve] warning: could not write SERVE_report.json: {e}");
    }
    report
}

/// The resume contract: fold (id, status, result bits) in jobs-file order.
fn digest_outcomes(outcomes: &[JobOutcome]) -> u64 {
    let mut d = metrics::Digest::new();
    // Domain tag ("RAIRSERV").
    d.write_u64(0x5241_4952_5345_5256);
    for o in outcomes {
        d.write_u64(o.id);
        d.write_str(o.status.label());
        if let Some(r) = &o.result {
            r.digest_into(&mut d);
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::store::{unframe, StdStore};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rair-serve-{}-{tag}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A fast fake executor: deterministic fabricated results.
    fn stub_exec() -> JobExec {
        Arc::new(|spec: &JobSpec, _ec: &ExpConfig| RunResult::fabricated(&spec.label, spec.seed))
    }

    fn spec(label: &str, seed: u64) -> JobSpec {
        JobSpec::parse(&format!("{label} ro_rr local single uniform 0.10 {seed}")).unwrap()
    }

    #[test]
    fn jobs_file_parses_and_validates() {
        let text = "# comment\n\
                    a rair dbar halves transpose 0.25 7\n\
                    \n\
                    b ro_rr xy single uniform 0.1\n";
        let jobs = JobSpec::parse_jobs(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].scheme, "rair");
        assert_eq!(jobs[0].rate, 0.25);
        assert_eq!(jobs[1].seed, 1, "seed defaults when omitted");
        for bad in [
            "a ro_rr local single uniform", // missing rate
            "a nope local single uniform 0.1",
            "a ro_rr nope single uniform 0.1",
            "a ro_rr local nope uniform 0.1",
            "a ro_rr local single nope 0.1",
            "a ro_rr local single uniform -0.1",
            "a ro_rr local single uniform NaN",
            "a ro_rr local single uniform 0.1 x",
        ] {
            assert!(JobSpec::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(JobSpec::parse_jobs("# only comments\n").is_err());
    }

    #[test]
    fn job_id_ignores_label_but_nothing_else() {
        let ec = ExpConfig::quick();
        let a = spec("first", 7);
        let mut b = a.clone();
        b.label = "renamed".into();
        assert_eq!(a.id(&ec), b.id(&ec), "label must not affect identity");
        for perturb in [
            |s: &mut JobSpec| s.scheme = "rair".into(),
            |s: &mut JobSpec| s.routing = "dbar".into(),
            |s: &mut JobSpec| s.region = "halves".into(),
            |s: &mut JobSpec| s.pattern = "transpose".into(),
            |s: &mut JobSpec| s.rate += 0.01,
            |s: &mut JobSpec| s.seed += 1,
        ] {
            let mut c = a.clone();
            perturb(&mut c);
            assert_ne!(a.id(&ec), c.id(&ec), "{c:?} must change the id");
        }
        assert_ne!(a.id(&ec), a.id(&ExpConfig::full()), "windows are identity");
    }

    /// A hand-built spec whose key no table holds used to simulate the
    /// tables' last entry (`rair_foreign_high`, `local`, …) under its name.
    #[test]
    fn unknown_key_is_rejected_by_name_not_simulated() {
        let dir = tmp("unknown-key");
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        let never: JobExec = Arc::new(|_: &JobSpec, _: &ExpConfig| panic!("must not execute"));
        for mistype in [
            |s: &mut JobSpec| s.scheme = "rair_typo".into(),
            |s: &mut JobSpec| s.routing = "rair_typo".into(),
            |s: &mut JobSpec| s.region = "rair_typo".into(),
            |s: &mut JobSpec| s.pattern = "rair_typo".into(),
        ] {
            let mut bad = spec("bad", 1);
            mistype(&mut bad);
            let err = bad.resolve(&SimConfig::table1()).expect_err("resolved");
            assert!(err.contains("`rair_typo`"), "{err}");
            let r = serve(&StdStore, &[bad, spec("good", 2)], &scfg, &stub_exec());
            assert_eq!(r.outcomes[0].status, JobStatus::Rejected);
            assert!(r.outcomes[0].reason.as_ref().unwrap().contains(&err));
            assert_eq!((r.outcomes[1].status, r.executed), (JobStatus::Done, 1));
            // The verdict is journaled: a resume neither re-gates nor runs it.
            let r2 = serve(&StdStore, &[r.outcomes[0].spec.clone()], &scfg, &never);
            assert_eq!(
                (r2.outcomes[0].status, r2.resumed),
                (JobStatus::Rejected, 1)
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn serve_runs_resumes_and_dedups() {
        let dir = tmp("basic");
        let store = StdStore;
        let specs = vec![spec("a", 1), spec("b", 2), spec("a-again", 1)];
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        let exec = stub_exec();
        let r1 = serve(&store, &specs, &scfg, &exec);
        assert_eq!(r1.executed, 2, "third job dedups against the first");
        assert_eq!(r1.cache_hits, 1);
        assert_eq!(r1.quarantined(), 0);
        assert_eq!(r1.outcomes.len(), 3);
        assert_eq!(r1.outcomes[2].result.as_ref().unwrap().label, "a-again");
        assert!(dir.join("SERVE_report.json").exists());
        assert!(dir.join("journal.wal").exists());
        // Re-serving replays everything from the journal: zero executions,
        // bit-identical digest.
        let r2 = serve(&store, &specs, &scfg, &exec);
        assert_eq!(r2.executed, 0);
        assert_eq!(r2.resumed, 2);
        assert_eq!(
            r2.sweep_digest, r1.sweep_digest,
            "resume must be bit-identical"
        );
        // A fresh state dir with the same result cache also skips the sims.
        let dir2 = tmp("basic2");
        let scfg2 = ServeConfig {
            dir: dir2.clone(),
            ..scfg.clone()
        };
        std::fs::create_dir_all(dir2.join("results")).unwrap();
        crate::service::copy_dir_for_tests(
            &dir.join("results").join("cache"),
            &dir2.join("results").join("cache"),
        );
        let r3 = serve(&store, &specs, &scfg2, &exec);
        assert_eq!(r3.executed, 0, "result cache must satisfy identical jobs");
        assert_eq!(r3.sweep_digest, r1.sweep_digest);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn corrupt_result_cache_entry_is_set_aside_and_rerun() {
        let dir = tmp("corrupt-cache");
        let store = StdStore;
        let specs = vec![spec("x", 3)];
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        let exec = stub_exec();
        let r1 = serve(&store, &specs, &scfg, &exec);
        assert_eq!(r1.executed, 1);
        // Corrupt the cached result and wipe the journal (so the cache is
        // the only shortcut) — the entry must be quarantined and re-run.
        let cache_dir = dir.join("results").join("cache");
        let rpath = result_cache().path(&cache_dir, specs[0].id(&scfg.ec));
        let mut bytes = std::fs::read(&rpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&rpath, &bytes).unwrap();
        std::fs::remove_file(scfg.journal_path()).unwrap();
        let r2 = serve(&store, &specs, &scfg, &exec);
        assert_eq!(r2.result_cache_corrupt, 1);
        assert_eq!(r2.executed, 1, "corrupt entry must be a miss, not a hit");
        assert_eq!(r2.sweep_digest, r1.sweep_digest, "re-run value identical");
        assert!(
            rpath.with_extension("txt.corrupt").exists(),
            "corrupt entry preserved for post-mortems"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The supervision contract, one table through both front doors of the
    /// one pool: `run_supervised` under the figure sweeps' policy (2
    /// attempts) and `serve` (here also 2). A flaky-once job succeeds on
    /// attempt 2, a poison job is given up on with its label and last panic
    /// message, siblings complete, and results come back in input order;
    /// under `serve` the quarantine verdict survives a resume.
    #[test]
    fn supervision_table_through_both_front_doors() {
        use crate::service::pool::SWEEP_POLICY;
        const TABLE: [(&str, u32); 4] =
            [("ok0", 0), ("flaky", 1), ("poison", u32::MAX), ("ok1", 0)];
        // Work that panics on its first `failures` calls, per label.
        let work = |calls: &Arc<Vec<AtomicUsize>>| {
            let calls = Arc::clone(calls);
            move |label: &str, seed: u64| {
                let row = TABLE.iter().position(|(l, _)| *l == label).unwrap();
                let call = calls[row].fetch_add(1, Ordering::SeqCst) as u32;
                assert!(call >= TABLE[row].1, "synthetic failure #{call} of {label}");
                RunResult::fabricated(label, seed)
            }
        };
        let fresh = || Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let count = |c: &Arc<Vec<AtomicUsize>>| -> Vec<usize> {
            c.iter().map(|a| a.load(Ordering::SeqCst)).collect()
        };

        let calls = fresh();
        let tasks: Vec<Task> = (TABLE.iter().zip(0u64..))
            .map(|((label, _), seed)| {
                let run = work(&calls);
                Task::new(*label, move || run(label, seed))
            })
            .collect();
        let outcomes = run_supervised(&tasks, &SWEEP_POLICY, None, &|_, _| {});
        assert_eq!(count(&calls), [1, 2, 2, 1]);
        for (i, ok) in [(0, "ok0"), (1, "flaky"), (3, "ok1")] {
            let label = &outcomes[i].result.as_ref().unwrap().label;
            assert_eq!(label, ok, "input order");
        }
        let err = outcomes[2].result.as_ref().unwrap_err();
        assert_eq!(err.label, "poison");
        assert!(
            err.message.contains("2 failed attempt")
                && err.message.contains("failure #1 of poison"),
            "{err}"
        );

        let dir = tmp("table");
        let calls = fresh();
        let run = work(&calls);
        let exec: JobExec = Arc::new(move |s: &JobSpec, _: &ExpConfig| run(&s.label, s.seed));
        let specs: Vec<JobSpec> = (TABLE.iter().zip(0u64..))
            .map(|((label, _), seed)| spec(label, seed))
            .collect();
        let scfg = ServeConfig {
            backoff_base_ms: 1,
            max_attempts: 2,
            ..ServeConfig::new(&dir, ExpConfig::quick())
        };
        let r = serve(&StdStore, &specs, &scfg, &exec);
        assert_eq!(count(&calls), [1, 2, 2, 1]);
        let got: Vec<_> = (r.outcomes.iter())
            .map(|o| (o.spec.label.as_str(), o.status, o.attempts))
            .collect();
        let want = [
            ("ok0", JobStatus::Done, 1),
            ("flaky", JobStatus::Done, 2),
            ("poison", JobStatus::Quarantined, 2),
            ("ok1", JobStatus::Done, 1),
        ];
        assert_eq!(got, want);
        assert_eq!((r.executed, r.quarantined()), (3, 1));
        let reason = r.outcomes[2].reason.as_deref().unwrap();
        assert!(
            reason.contains("2 failed attempt") && reason.contains("failure #1 of poison"),
            "{reason}"
        );
        assert!(r.json().to_json().contains("\"status\": \"quarantined\""));
        // Resume: the quarantine verdict is replayed, not retried.
        let r2 = serve(&StdStore, &specs, &scfg, &exec);
        assert_eq!(count(&calls), [1, 2, 2, 1], "no retry after quarantine");
        assert_eq!(r2.sweep_digest, r.sweep_digest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_loop_attempts_accumulate_across_invocations() {
        let dir = tmp("crashloop");
        let store = StdStore;
        let scfg = ServeConfig {
            backoff_base_ms: 1,
            max_attempts: 3,
            ..ServeConfig::new(&dir, ExpConfig::quick())
        };
        let specs = vec![spec("killer", 9)];
        let id = specs[0].id(&scfg.ec);
        // Simulate two earlier invocations that each died mid-attempt:
        // `running` rows with no completion.
        let journal = Journal::new(scfg.journal_path(), &store);
        journal.append(&format!("running\t{id:016x}\t1"));
        journal.append(&format!("running\t{id:016x}\t2"));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let exec: JobExec = Arc::new(move |_s: &JobSpec, _e: &ExpConfig| {
            c.fetch_add(1, Ordering::SeqCst);
            panic!("third strike");
        });
        let r = serve(&store, &specs, &scfg, &exec);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "only the one remaining attempt is granted"
        );
        assert_eq!(r.outcomes[0].status, JobStatus::Quarantined);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hung_job_times_out_and_is_quarantined() {
        let dir = tmp("hang");
        let store = StdStore;
        let exec: JobExec = Arc::new(|spec: &JobSpec, _e: &ExpConfig| {
            if spec.label == "hang" {
                std::thread::sleep(Duration::from_millis(5_000));
            }
            RunResult::fabricated(&spec.label, spec.seed)
        });
        let scfg = ServeConfig {
            backoff_base_ms: 1,
            max_attempts: 2,
            timeout_ms: Some(50),
            ..ServeConfig::new(&dir, ExpConfig::quick())
        };
        let specs = vec![spec("hang", 1), spec("quick", 2)];
        let r = serve(&store, &specs, &scfg, &exec);
        assert_eq!(r.outcomes[0].status, JobStatus::Quarantined);
        assert!(
            r.outcomes[0]
                .reason
                .as_deref()
                .unwrap()
                .contains("timed out after 50 ms"),
            "{:?}",
            r.outcomes[0].reason
        );
        assert_eq!(r.outcomes[1].status, JobStatus::Done);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn statically_rejected_scheme_is_gated_before_any_build() {
        let dir = tmp("gate");
        let store = StdStore;
        // rair_foreign_high grants foreign traffic the high priority — the
        // admission pipeline rejects it statically.
        let bad = JobSpec::parse("inverted rair_foreign_high local halves uniform 0.05 1").unwrap();
        let built = Arc::new(AtomicUsize::new(0));
        let b = Arc::clone(&built);
        let exec: JobExec = Arc::new(move |spec: &JobSpec, _e: &ExpConfig| {
            b.fetch_add(1, Ordering::SeqCst);
            RunResult::fabricated(&spec.label, spec.seed)
        });
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        let r = serve(&store, &[bad], &scfg, &exec);
        assert_eq!(r.outcomes[0].status, JobStatus::Rejected);
        assert_eq!(built.load(Ordering::SeqCst), 0, "gate must precede build");
        assert!(r.outcomes[0]
            .reason
            .as_deref()
            .unwrap()
            .contains("admission gate rejected"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn screening_skips_deep_saturated_jobs() {
        let dir = tmp("screen");
        let store = StdStore;
        // 0.9 flits/cycle/node uniform on an 8x8 mesh is far past any
        // predicted saturation.
        let deep = JobSpec::parse("deep ro_rr local single uniform 0.90 1").unwrap();
        // Dimension-order routing saturates transpose long before adaptive
        // routing does (predicted ≈ 0.107 vs 0.30): the `xy` job is screened
        // against its own routing's prediction, its `local` twin runs.
        let xy = JobSpec::parse("xy ro_rr xy single transpose 0.30 1").unwrap();
        let local = JobSpec::parse("local ro_rr local single transpose 0.30 1").unwrap();
        let exec = stub_exec();
        let scfg = ServeConfig {
            screen: true,
            ..ServeConfig::new(&dir, ExpConfig::quick())
        };
        let r = serve(&store, &[deep.clone(), xy, local], &scfg, &exec);
        let status: Vec<JobStatus> = r.outcomes.iter().map(|o| o.status).collect();
        let screened = JobStatus::Screened;
        assert_eq!(status, [screened, screened, JobStatus::Done]);
        assert_eq!(r.executed, 1);
        // Without screening the same job runs.
        let dir2 = tmp("screen-off");
        let scfg2 = ServeConfig::new(&dir2, ExpConfig::quick());
        let r2 = serve(&store, &[deep], &scfg2, &exec);
        assert_eq!(r2.outcomes[0].status, JobStatus::Done);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    /// Bytes on disk are a compatibility surface: a literal `journal.wal`
    /// and result-cache entry as the pre-pool service wrote them (one job,
    /// `fix ro_rr local single uniform 0.10 7` under `ExpConfig::quick()`)
    /// must resume with nothing executed and the digest that service
    /// reported, and the entry must decode and re-encode byte-identically.
    #[test]
    fn wal_and_result_cache_bytes_are_unchanged() {
        const ROW: &str = "rair-ckpt-v1\tfix\t107\t3fb999999999999a\t5000\t64\t1\t2\t3\t0\t0\t0\t0\
                           \t0\t0\t0\t4031000000000000\t4033000000000000";
        let wal = format!(
            "rair-wal-v1\t74a6e9ec\tqueued\tf2e4b3f9d4e01fa5\tfix\n\
             rair-wal-v1\t6bd98aa2\trunning\tf2e4b3f9d4e01fa5\t1\n\
             rair-wal-v1\t0ee6968d\tdone\tf2e4b3f9d4e01fa5\t{ROW}\n\
             rair-wal-v1\t02715c2a\tsweep-done\t12eb357f9f4c5268\t1\n"
        );
        let dir = tmp("fixture");
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        std::fs::write(scfg.journal_path(), &wal).unwrap();
        let never: JobExec = Arc::new(|_: &JobSpec, _: &ExpConfig| panic!("must not execute"));
        let r = serve(&StdStore, &[spec("fix", 7)], &scfg, &never);
        assert_eq!((r.executed, r.resumed), (0, 1));
        assert_eq!(r.sweep_digest, 0x12eb_357f_9f4c_5268);
        assert_eq!(r.outcomes[0].id, 0xf2e4_b3f9_d4e0_1fa5);
        assert!(!r.journal_torn_tail && r.journal_quarantined_rows == 0);
        // A resolved job is not journaled again: only `sweep-done` is added.
        let after = std::fs::read_to_string(scfg.journal_path()).unwrap();
        assert_eq!(
            after.strip_prefix(wal.as_str()).map(|t| t.lines().count()),
            Some(1)
        );

        let entry = format!("rair-res-v1\t6b206049\t{ROW}\n");
        let (results, cache_dir) = (result_cache(), dir.join("results").join("cache"));
        let path = results.path(&cache_dir, r.outcomes[0].id);
        std::fs::write(&path, &entry).unwrap();
        let decoded = (results.get(&StdStore, &cache_dir, r.outcomes[0].id))
            .expect("parent-written entry decodes");
        assert_eq!(decoded.delivered, 107);
        results.put(&StdStore, &cache_dir, r.outcomes[0].id, &decoded, "");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            entry,
            "re-encoding is byte-identical"
        );
        let flipped = entry.replacen("107", "108", 1);
        assert_eq!(unframe("rair-res-v1", flipped.trim_end_matches('\n')), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
