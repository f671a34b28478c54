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
//!    A finished job exists once, as its `done` row: reusing results in
//!    another state directory means copying `journal.wal` there.
//! 2. **Gate** — every pending job passes `repro admit`'s gate
//!    ([`crate::admit::admit_cell`]: all six properties, bandwidth
//!    feasibility at the job's own offered load included) before any
//!    network is built; a rejected job is journaled with the first
//!    rejecting property's detail and skipped.
//! 3. **Supervision** — the surviving jobs run on the crate's one
//!    supervised pool ([`super::pool::run_supervised`]: `catch_unwind`,
//!    optional wall-clock timeout, bounded backoff, poison-job quarantine
//!    after `max_attempts` failures — labeled in the report, never
//!    aborting the sweep).
//!
//! Lines with the same [`JobSpec::id`] (a parameter digest that excludes
//! the label) are one job: only the first runs, the others copy its
//! outcome under their own label.
//!
//! The sweep digest folds every job's id, terminal status, and (for done
//! jobs) the full bit pattern of its result, in jobs-file order — so "a
//! killed+resumed sweep equals an uninterrupted one" is checkable as a
//! single `u64` comparison.

use super::journal::Journal;
use super::pool::{replay_jobs, rows, run_supervised, Policy, Task};
use super::store::Store;
use crate::admit::admit_cell;
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
    /// The traffic every application of the region map offers: the one
    /// operating point the gate admits and the simulation runs.
    specs: Vec<Option<AppSpec>>,
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
    /// (spec fields + the windows of `ec`), excluding the label. It also
    /// folds in `ec.seed`, which no job's result reads (the job's own seed
    /// seeds its simulation, and `repro serve` takes no `--seed`): the word
    /// keeps job ids and the pinned sweep digest (`d9d698b6ccf73385` for
    /// the demo) what they are.
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
        // value): it keeps job ids and the pinned sweep digest what they
        // are.
        d.write_u64(u64::MAX);
        d.finish()
    }

    /// The configuration the four keys name on `cfg`, or an error naming
    /// the first key no table holds. The fields are plain `String`s, so a
    /// hand-built spec can carry a key [`JobSpec::parse`] never saw.
    fn resolve(&self, cfg: &SimConfig) -> Result<JobConfig, String> {
        let scheme = lookup("scheme", &self.scheme, SCHEMES)?();
        let routing = lookup("routing", &self.routing, ROUTINGS)?;
        let region = lookup("region", &self.region, REGIONS)?(cfg);
        let app = AppSpec {
            rate_flits: self.rate,
            intra: 0.0,
            inter: 1.0,
            inter_dest: InterDest::Pattern(lookup("pattern", &self.pattern, PATTERNS)?()),
            mc: 0.0,
        };
        Ok(JobConfig {
            scheme,
            routing,
            specs: vec![Some(app); region.num_apps()],
            region,
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
        let scenario = Scenario::new(&cfg, &job.region, job.specs);
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
    /// State directory, created if missing: holds `journal.wal` (and its
    /// `.quarantine` when replay set rows aside) and `SERVE_report.json`.
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
}

impl ServeConfig {
    pub fn new(dir: impl Into<PathBuf>, ec: ExpConfig) -> Self {
        Self {
            dir: dir.into(),
            ec,
            max_attempts: 3,
            backoff_base_ms: 50,
            timeout_ms: None,
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
    /// Failed `max_attempts` times (panic/timeout) — poison, labeled and
    /// skipped, never aborting the sweep.
    Quarantined,
}

impl JobStatus {
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Rejected => "rejected",
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
    /// Why the job was rejected/quarantined.
    pub reason: Option<String>,
    /// Satisfied without running a simulation in this invocation (journal
    /// replay, or dedup against an identical job).
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
    /// Duplicates of an earlier line of this jobs file (same
    /// [`JobSpec::id`]): they copy that line's outcome and never run.
    pub cache_hits: usize,
    /// Fresh simulations executed by this invocation.
    pub executed: usize,
    pub journal_write_errors: u64,
    pub journal_torn_tail: bool,
    pub journal_quarantined_rows: usize,
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
            ("jobs", self.table().json_rows()),
        ])
    }
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
    if let Err(e) = store.create_dir_all(&scfg.dir) {
        eprintln!(
            "[serve] warning: could not create {}: {e}",
            scfg.dir.display()
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
        // not journaled again). Older binaries also wrote `screened` rows;
        // replay ignores them, so such a job is gated and run.
        if let Some(r) = st.and_then(|s| s.done.clone()) {
            resumed += 1;
            resolve(i, 0, Ok(r), true);
            continue;
        }
        if let Some((kind, reason)) = st.and_then(|s| s.terminal.clone()) {
            resumed += 1;
            let status = match kind.as_str() {
                "rejected" => JobStatus::Rejected,
                _ => JobStatus::Quarantined,
            };
            resolve(i, 0, Err((status, reason)), true);
            continue;
        }
        journal.append(&rows::note("queued", id, &spec.label));
        // 2. The admission gate, `repro admit`'s, at the job's operating
        // point, before any network build; a key no table holds names no
        // configuration to admit.
        let cfg = SimConfig::table1();
        let admitted = spec.resolve(&cfg).and_then(|job| {
            let adm = admit_cell(&cfg, &job.region, &job.scheme, job.routing, &job.specs);
            adm.rejection()
                .map_or(Ok(()), |p| Err(format!("{}: {}", adm.scheme, p.detail)))
        });
        if let Err(why) = admitted {
            let reason = format!("admission gate rejected {why}");
            journal.append(&rows::note("rejected", id, &reason));
            resolve(i, 0, Err((JobStatus::Rejected, reason)), false);
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

    // 3. The supervised pool over the surviving jobs.
    let policy = Policy {
        max_attempts: scfg.max_attempts,
        backoff_base_ms: scfg.backoff_base_ms,
        timeout_ms: scfg.timeout_ms,
    };
    let finished = run_supervised(&tasks, &policy, Some(&journal));
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
        final_outcomes.push(o);
    }

    let sweep_digest = digest_outcomes(&final_outcomes);
    journal.append(&rows::sweep_done(sweep_digest, final_outcomes.len()));

    let report = ServeReport {
        resumed,
        cache_hits: specs.len() - primary_of.len(),
        executed,
        journal_write_errors: journal.write_errors(),
        journal_torn_tail: replay.torn_tail,
        journal_quarantined_rows: replay.quarantined.len(),
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
    use crate::service::store::StdStore;
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
        // A fresh state dir seeded with a copy of the journal alone also
        // skips the sims.
        let dir2 = tmp("basic2");
        let scfg2 = ServeConfig {
            dir: dir2.clone(),
            ..scfg.clone()
        };
        std::fs::copy(scfg.journal_path(), scfg2.journal_path()).unwrap();
        let r3 = serve(&store, &specs, &scfg2, &exec);
        assert_eq!(r3.executed, 0, "the journal must satisfy identical jobs");
        assert_eq!(r3.sweep_digest, r1.sweep_digest);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
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
        let outcomes = run_supervised(&tasks, &SWEEP_POLICY, None);
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

    /// Older binaries screened jobs through the analytical model and
    /// journaled a terminal `screened` row. Replay ignores that kind (as it
    /// ignores any kind it does not read), so the job is queued and gated
    /// afresh: a literal journal such a binary wrote for `deep ro_rr local
    /// single uniform 0.90 1` under `ExpConfig::quick()`. The gate decides
    /// on the job's own load, which is past chip-wide UR's bound (0.492),
    /// so bandwidth feasibility rejects it.
    #[test]
    fn an_old_screened_row_is_ignored_and_the_job_is_gated_afresh() {
        const WAL: &str = "rair-wal-v1\t24eb7194\tqueued\t9b4e05cad69cf542\tdeep\n\
                           rair-wal-v1\td9d22712\tscreened\t9b4e05cad69cf542\t\
                           screened: offered 0.900 > 1.5x saturation bound 0.492\n\
                           rair-wal-v1\tb4294949\tsweep-done\t74745a76994632ef\t1\n";
        let dir = tmp("old-screened");
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        std::fs::write(scfg.journal_path(), WAL).unwrap();
        let deep = JobSpec::parse("deep ro_rr local single uniform 0.90 1").unwrap();
        let r = serve(&StdStore, &[deep], &scfg, &stub_exec());
        assert_eq!(r.outcomes[0].id, 0x9b4e_05ca_d69c_f542);
        assert_eq!(r.outcomes[0].status, JobStatus::Rejected);
        let reason = r.outcomes[0].reason.as_deref().unwrap();
        assert!(reason.contains("over-subscribed"), "{reason}");
        assert_eq!((r.executed, r.resumed), (0, 0));
        assert!(!r.journal_torn_tail && r.journal_quarantined_rows == 0);
        // The job is queued again and gated; no `screened` row is added.
        let after = std::fs::read_to_string(scfg.journal_path()).unwrap();
        let added = after.strip_prefix(WAL).unwrap();
        let kinds: Vec<&str> = (added.lines())
            .map(|l| l.split('\t').nth(2).unwrap())
            .collect();
        assert_eq!(kinds, ["queued", "rejected", "sweep-done"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Serve's gate is `repro admit`'s: single/transpose/XY is feasible up
    /// to 1/7 flits/cycle/node, so 0.15 is rejected by bandwidth
    /// feasibility, with the over-subscribed channel as the witness, before
    /// any build, and 0.14 runs.
    #[test]
    fn an_over_subscribed_job_is_rejected_by_feasibility_before_any_build() {
        let dir = tmp("overload");
        let built = Arc::new(AtomicUsize::new(0));
        let b = Arc::clone(&built);
        let exec: JobExec = Arc::new(move |spec: &JobSpec, _e: &ExpConfig| {
            b.fetch_add(1, Ordering::SeqCst);
            RunResult::fabricated(&spec.label, spec.seed)
        });
        let over = JobSpec::parse("over rair xy single transpose 0.15").unwrap();
        let under = JobSpec::parse("under rair xy single transpose 0.14").unwrap();
        let cfg = SimConfig::table1();
        let job = over.resolve(&cfg).unwrap();
        let adm = admit_cell(&cfg, &job.region, &job.scheme, job.routing, &job.specs);
        let rej = adm.rejection().expect("0.15 over-subscribes a channel");
        assert_eq!(rej.property, noc_sim::admit::PROP_FEASIBILITY);
        assert!(
            matches!(rej.witness, Some(noc_sim::admit::AdmitWitness::Overload { offered, .. })
                if offered > 1.0),
            "{:?}",
            rej.witness
        );
        let scfg = ServeConfig::new(&dir, ExpConfig::quick());
        let r = serve(&StdStore, &[over, under], &scfg, &exec);
        let got: Vec<_> = r.outcomes.iter().map(|o| o.status).collect();
        assert_eq!(got, [JobStatus::Rejected, JobStatus::Done]);
        assert_eq!(built.load(Ordering::SeqCst), 1, "only 0.14 is built");
        assert_eq!(
            r.outcomes[0].reason.as_deref(),
            Some(format!("admission gate rejected RA_RAIR: {}", rej.detail).as_str())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes on disk are a compatibility surface: a literal `journal.wal`
    /// as the pre-pool service wrote it (one job, `fix ro_rr local single
    /// uniform 0.10 7` under `ExpConfig::quick()`) must resume with nothing
    /// executed and the digest that service reported. So must a state
    /// directory that also holds the `results/cache/job_<id>.txt` entry
    /// older services wrote beside the journal: serve never opens it, and
    /// writes nothing under `results/`.
    #[test]
    fn parent_written_state_dirs_resume_unchanged() {
        const ROW: &str = "rair-ckpt-v1\tfix\t107\t3fb999999999999a\t5000\t64\t1\t2\t3\t0\t0\t0\t0\
                           \t0\t0\t0\t4031000000000000\t4033000000000000";
        let wal = format!(
            "rair-wal-v1\t74a6e9ec\tqueued\tf2e4b3f9d4e01fa5\tfix\n\
             rair-wal-v1\t6bd98aa2\trunning\tf2e4b3f9d4e01fa5\t1\n\
             rair-wal-v1\t0ee6968d\tdone\tf2e4b3f9d4e01fa5\t{ROW}\n\
             rair-wal-v1\t02715c2a\tsweep-done\t12eb357f9f4c5268\t1\n"
        );
        let never: JobExec = Arc::new(|_: &JobSpec, _: &ExpConfig| panic!("must not execute"));
        let entries = |dir: &std::path::Path| -> Vec<String> {
            let mut names: Vec<String> = (std::fs::read_dir(dir).unwrap())
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        for with_old_entry in [false, true] {
            let dir = tmp("fixture");
            let scfg = ServeConfig::new(&dir, ExpConfig::quick());
            std::fs::write(scfg.journal_path(), &wal).unwrap();
            let old = dir.join("results").join("cache");
            let old_entry = old.join("job_f2e4b3f9d4e01fa5.txt");
            if with_old_entry {
                std::fs::create_dir_all(&old).unwrap();
                std::fs::write(&old_entry, format!("{ROW}\n")).unwrap();
            }
            let r = serve(&StdStore, &[spec("fix", 7)], &scfg, &never);
            assert_eq!((r.executed, r.resumed), (0, 1), "{with_old_entry}");
            assert_eq!(r.sweep_digest, 0x12eb_357f_9f4c_5268);
            assert_eq!(r.outcomes[0].id, 0xf2e4_b3f9_d4e0_1fa5);
            assert!(!r.journal_torn_tail && r.journal_quarantined_rows == 0);
            // A resolved job is not journaled again: only `sweep-done` is added.
            let after = std::fs::read_to_string(scfg.journal_path()).unwrap();
            assert_eq!(
                after.strip_prefix(wal.as_str()).map(|t| t.lines().count()),
                Some(1)
            );
            let mut want = vec!["SERVE_report.json", "journal.wal"];
            if with_old_entry {
                want.push("results");
                assert_eq!(entries(&dir.join("results")), ["cache"]);
                assert_eq!(entries(&old), ["job_f2e4b3f9d4e01fa5.txt"]);
                assert_eq!(
                    std::fs::read_to_string(&old_entry).unwrap(),
                    format!("{ROW}\n")
                );
            }
            assert_eq!(entries(&dir), want, "serve writes nothing under results/");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
