//! `repro` — regenerate the paper's tables and figures, and run the
//! services grown around them.
//!
//! The whole command line is two tables: [`SUBCOMMANDS`] (name, role, help,
//! the flags it reads, handler) and [`FLAGS`] (name, scope, value and setter
//! into [`Opts`], help). `repro --help`, the usage printed with every error,
//! the "needs a value" messages and the scope check — a flag that none of
//! the named subcommands reads is rejected by name — are derived from them.
//! Flags are applied in table order, presets first, so `--windows`/`--seed`
//! override `--quick`/`--smoke` wherever they stand in argv. Adding a driver
//! is one row plus its handler (DESIGN.md §15); a handler reports failure as
//! an `Err` that `main` prints as `[repro] <message>` before exiting 1.

use experiments::admit::{controls_table, judge_controls};
use experiments::figs;
use experiments::runner::ExpConfig;
use metrics::report::{Table, Value};
use noc_sim::topology::TopologyKind;
use std::cell::Cell;
use std::process::ExitCode;
use Kind::{Switch, Valued};
use Role::{Extra, Paper, Solo};
use Scope::{Every, Row};

/// `println!` for prose beside rendered tables; `eprintln!` under `--csv`,
/// whose stdout carries CSV records only.
macro_rules! say {
    ($o:expr, $($arg:tt)*) => {
        if $o.csv {
            eprintln!($($arg)*);
        } else {
            println!($($arg)*);
        }
    };
}

/// Everything the flags can set.
struct Opts {
    ec: ExpConfig,
    csv: bool,
    /// Whether a table has been printed yet (CSV tables are separated by
    /// one blank line).
    printed: Cell<bool>,
    help: bool,
    /// CI-sized: quick windows plus a reduced matrix where one exists.
    smoke: bool,
    trace_file: String,
    serve_dir: String,
    retries: u32,
    timeout_ms: Option<u64>,
    /// The positional a solo subcommand takes (`serve`'s jobs file).
    operand: String,
}

type Outcome = Result<(), String>;

/// Where a flag is accepted: with `Every` subcommand, or only with one
/// whose `Row` names it.
enum Scope {
    Every,
    Row,
}

type Setter = fn(&mut Opts, &str) -> Option<()>;

enum Kind {
    Switch(fn(&mut Opts)),
    /// Metavar, what a missing or malformed value "needs", setter.
    Valued(&'static str, &'static str, Setter),
}

struct Flag {
    name: &'static str,
    scope: Scope,
    kind: Kind,
    help: &'static str,
}

/// A zero measurement window would make every APL 0/0, and a pair whose
/// sum overflows has no end cycle.
fn set_windows(o: &mut Opts, v: &str) -> Option<()> {
    let (w, m) = v.split_once(',')?;
    let m: u64 = m.trim().parse().ok().filter(|&m| m > 0)?;
    let w: u64 = w.trim().parse().ok()?;
    w.checked_add(m)?;
    (o.ec.warmup, o.ec.measure) = (w, m);
    Some(())
}

/// Applied in this order, whatever the argv order: presets before overrides.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--quick", scope: Row, kind: Switch(|o| o.ec = ExpConfig::quick()), help: "2 000 + 15 000-cycle windows instead of the paper's 10K + 100K" },
    Flag { name: "--smoke", scope: Row, kind: Switch(|o| (o.ec, o.smoke) = (ExpConfig::quick(), true)), help: "CI-sized: --quick windows, and a reduced matrix where one exists" },
    Flag { name: "--windows", scope: Row, kind: Valued("W,M", "WARMUP,MEASURE cycles (MEASURE > 0, WARMUP + MEASURE < 2^64)", set_windows), help: "explicit warmup,measure windows" },
    Flag { name: "--seed", scope: Row, kind: Valued("N", "an integer", |o, v| v.parse().ok().map(|n| o.ec.seed = n)), help: "seed of every random stream but the saturation searches', which is fixed" },
    Flag { name: "--csv", scope: Every, kind: Switch(|o| o.csv = true), help: "print tables as CSV" },
    Flag { name: "--trace-file", scope: Row, kind: Valued("PATH", "a path", |o, v| { o.trace_file = v.into(); Some(()) }), help: "where trace-demo writes its trace" },
    Flag { name: "--dir", scope: Row, kind: Valued("PATH", "a path", |o, v| { o.serve_dir = v.into(); Some(()) }), help: "state directory of the job service" },
    Flag { name: "--retries", scope: Row, kind: Valued("N", "a positive integer", |o, v| v.parse().ok().filter(|&n| n > 0).map(|n| o.retries = n)), help: "attempts before a job is quarantined" },
    Flag { name: "--timeout-ms", scope: Row, kind: Valued("N", "a positive number of milliseconds", |o, v| v.parse().ok().filter(|&n| n > 0).map(|n| o.timeout_ms = Some(n))), help: "wall-clock cap per attempt" },
    Flag { name: "--help", scope: Every, kind: Switch(|o| o.help = true), help: "print this text (also -h)" },
];

enum Role {
    /// One of the paper's tables and figures: part of `repro all`.
    Paper,
    Extra,
    /// Takes over the invocation (not combinable with other subcommands)
    /// and requires this positional operand, if any.
    Solo(Option<&'static str>),
}

struct Cmd {
    name: &'static str,
    role: Role,
    help: &'static str,
    /// Groups of `Row`-scoped flags the handler reads.
    flags: &'static [&'static [&'static str]],
    run: fn(&Opts) -> Outcome,
}

/// What every simulating driver reads: windows and seed. (`RAIR_ORACLE=1`
/// forces the invariant oracle on in every simulation.)
const SIM: &[&str] = &["--quick", "--smoke", "--windows", "--seed"];
/// The pseudo-subcommand that stands for every [`Paper`] row.
const ALL: &str = "all";

/// `all` runs its members in this order.
#[rustfmt::skip]
const SUBCOMMANDS: &[Cmd] = &[
    Cmd { name: "table1", role: Paper, help: "Table 1: the simulated configuration next to the paper's", flags: &[], run: |o| emit(o, &figs::table1::table()) },
    Cmd { name: "lbdr", role: Paper, help: "LBDR region confinement: path-length cost (Section III)", flags: &[&["--seed"]], run: |o| emit(o, &figs::lbdr_analysis::table(200_000, o.ec.seed)) },
    Cmd { name: "fig9", role: Paper, help: "Figs. 9 and 10: APL vs inter-region fraction across the MSP stages and routings", flags: &[SIM], run: |o| figs::fig9::report(&o.ec).into_iter().try_for_each(|f| figure(o, f)) },
    Cmd { name: "fig12", role: Paper, help: "Fig. 12: DPA against the two fixed priorities", flags: &[SIM], run: |o| figure(o, figs::fig12::report(&o.ec)) },
    Cmd { name: "fig14", role: Paper, help: "Fig. 14: six-application synthetic mix", flags: &[SIM], run: |o| figure(o, figs::fig14::report(&o.ec)) },
    Cmd { name: "fig15", role: Paper, help: "Fig. 15: global traffic patterns", flags: &[SIM], run: |o| figure(o, figs::fig15::report(&o.ec)) },
    Cmd { name: "fig17", role: Paper, help: "Fig. 17: PARSEC-like slowdowns under an adversary", flags: &[SIM], run: |o| figure(o, figs::fig17::report(&o.ec)) },
    Cmd { name: "ablation", role: Paper, help: "baselines, DPA hysteresis delta and regional/global VC split, vs RO_RR", flags: &[SIM], run: |o| emit(o, &figs::ablation::run(&o.ec)) },
    Cmd { name: "curve", role: Extra, help: "load-latency curves and knees of three patterns", flags: &[SIM], run: curve },
    Cmd { name: "trace-demo", role: Extra, help: "capture a trace to a file, replay it under two schemes", flags: &[SIM, &["--trace-file"]], run: |o| emit(o, &figs::trace_demo::run(&o.ec, &o.trace_file)?) },
    Cmd { name: "admit", role: Extra, help: "static gate: QoS, deadlock freedom, LBDR and scheme checks of every shipped config (ADMIT_report.json)", flags: &[], run: admit },
    // Not `--seed`: each job's simulation is seeded by the job's own seed.
    Cmd { name: "serve", role: Solo(Some("a jobs file")), help: "crash-safe job service over a jobs file", flags: &[&["--quick", "--smoke", "--windows"], &["--dir", "--retries", "--timeout-ms"]], run: serve },
    Cmd { name: "chaos", role: Solo(None), help: "fault-injection battery over the service (CHAOS_report.json)", flags: &[&["--smoke", "--seed"]], run: chaos },
];

impl Cmd {
    fn reads(&self, flag: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&flag))
    }
}

fn paper() -> Vec<&'static Cmd> {
    (SUBCOMMANDS.iter().filter(|c| matches!(c.role, Paper))).collect()
}

fn names(cmds: &[&Cmd]) -> String {
    cmds.iter().map(|c| c.name).collect::<Vec<_>>().join(" ")
}

/// `--help`, and the tail of every command-line error.
fn usage() -> String {
    let mut u = String::from("usage: repro [FLAG]... <SUBCOMMAND>...\n\n");
    u += "subcommands, and the flags each reads:\n";
    for c in SUBCOMMANDS {
        let name = match c.role {
            Solo(Some(operand)) => format!("{} <{operand}>", c.name),
            _ => c.name.to_string(),
        };
        u += &format!("  {name:<20}{}\n", c.help);
        if !c.flags.is_empty() {
            u += &format!("{:22}[{}]\n", "", c.flags.concat().join(" "));
        }
    }
    u += &format!("  {ALL:<20}{}\n\nflags:\n", names(&paper()));
    for f in FLAGS {
        let name = match f.kind {
            Valued(metavar, ..) => format!("{} {metavar}", f.name),
            Switch(_) => f.name.to_string(),
        };
        u += &format!("  {name:<38} {}\n", f.help);
    }
    u.trim_end().to_string()
}

/// Parse argv into the options and the subcommands to run (none for
/// `--help`). An `Err` is the message to print above the usage.
fn parse(args: impl IntoIterator<Item = String>) -> Result<(Opts, Vec<&'static Cmd>), String> {
    let mut o = Opts {
        ec: ExpConfig::full(),
        csv: false,
        printed: Cell::new(false),
        help: false,
        smoke: false,
        trace_file: "/tmp/rair_trace.bin".into(),
        serve_dir: "results/serve".into(),
        retries: 3,
        timeout_ms: None,
        operand: String::new(),
    };
    let (mut given, mut positional) = (Vec::new(), Vec::new());
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if !a.starts_with('-') {
            positional.push(a);
            continue;
        }
        let name = if a == "-h" { "--help" } else { a.as_str() };
        let i = FLAGS.iter().position(|f| f.name == name);
        let i = i.ok_or_else(|| format!("unknown flag {a}"))?;
        let value = match FLAGS[i].kind {
            Valued(_, needs, _) => args.next().ok_or(format!("{name} needs {needs}"))?,
            Switch(_) => String::new(),
        };
        given.push((i, value));
    }
    // Table order, not argv order (stable: of a repeated flag the last wins).
    given.sort_by_key(|(i, _)| *i);
    for (i, value) in &given {
        match FLAGS[*i].kind {
            Switch(set) => set(&mut o),
            Valued(_, needs, set) => {
                set(&mut o, value).ok_or(format!("{} needs {needs}", FLAGS[*i].name))?;
            }
        }
    }
    if o.help {
        return Ok((o, Vec::new()));
    }
    let find = |name: &str| SUBCOMMANDS.iter().find(|c| c.name == name);
    let solo = |c: &Cmd, other: &str| {
        let what = "cannot be combined with experiments or extra arguments";
        format!("{} {what} (`{other}`)", c.name)
    };
    let first = positional.first().ok_or("no subcommand given")?;
    let cmds = if let Some((c, Solo(operand))) = find(first).map(|c| (c, &c.role)) {
        if let Some(extra) = positional.get(1 + usize::from(operand.is_some())) {
            return Err(solo(c, extra));
        }
        o.operand = match (operand, positional.get(1)) {
            (Some(what), None) => return Err(format!("{} needs {what}", c.name)),
            (_, given) => given.cloned().unwrap_or_default(),
        };
        vec![c]
    } else {
        let mut cmds = Vec::new();
        for name in &positional {
            match find(name) {
                _ if name == ALL => cmds.extend(paper()),
                Some(c) if matches!(c.role, Solo(_)) => return Err(solo(c, first)),
                Some(c) => cmds.push(c),
                None => return Err(format!("unknown experiment {name}")),
            }
        }
        cmds
    };
    for (i, _) in &given {
        let f = &FLAGS[*i];
        if matches!(f.scope, Row) && !cmds.iter().any(|c| c.reads(f.name)) {
            return Err(format!("{} is not read by {}", f.name, names(&cmds)));
        }
    }
    Ok((o, cmds))
}

fn main() -> ExitCode {
    let (o, cmds) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if o.help {
        println!("{}", usage());
    }
    for c in cmds {
        if !matches!(c.role, Solo(_)) {
            // Only what the command reads: its windows, its seed.
            let ec = &o.ec;
            let windows = format!("{} + {} cycles", ec.warmup, ec.measure);
            let windows = c.reads("--windows").then_some(windows);
            let seed = c.reads("--seed").then(|| format!("seed {}", ec.seed));
            let what = [windows, seed].into_iter().flatten().collect::<Vec<_>>();
            let what = (!what.is_empty()).then(|| format!(" ({})", what.join(", ")));
            let what = what.unwrap_or_default();
            eprintln!("[repro] running {}{what}…", c.name);
        }
        if let Err(e) = (c.run)(&o) {
            eprintln!("[repro] {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn emit(o: &Opts, t: &Table) -> Outcome {
    if o.csv {
        let gap = if o.printed.replace(true) { "\n" } else { "" };
        print!("{gap}{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
    Ok(())
}

/// Write a `*_report.json` into the working directory.
fn write_report(path: &str, doc: &Value, what: &str) -> Outcome {
    std::fs::write(path, doc.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("[repro] wrote {what} to {path}");
    Ok(())
}

/// A paper figure: its tables, then the headline line against the paper's.
fn figure(o: &Opts, (tables, summary): (Vec<Table>, String)) -> Outcome {
    tables.iter().try_for_each(|t| emit(o, t))?;
    say!(o, "{summary}\n");
    Ok(())
}

fn curve(o: &Opts) -> Outcome {
    use figs::curve;
    use traffic::pattern::Pattern::{BitComplement, Transpose, UniformRandom};
    for pattern in [UniformRandom, Transpose, BitComplement] {
        let points = curve::run(&o.ec, &pattern, 0.6, 12);
        emit(o, &curve::table(&pattern, &points))?;
        if let Some(k) = curve::knee(&points) {
            let pattern = pattern.label();
            say!(
                o,
                "{pattern} knee (3x zero-load) at ~{k:.3} flits/cycle/node\n"
            );
        }
    }
    Ok(())
}

/// The one static gate over the scheme × routing × region matrix of every
/// canonical topology (every shipped cell must be admitted under every
/// property), then its negative controls; the matrix and the controls are
/// printed and written to `ADMIT_report.json` as `rows` and `controls`.
fn admit(o: &Opts) -> Outcome {
    use experiments::admit;
    let rows = admit::run_matrix(&TopologyKind::CANONICAL);
    let controls = admit::controls();
    let (t, ct) = (admit::table(&rows), controls_table(&controls));
    emit(o, &t)?;
    emit(o, &ct)?;
    let doc = Value::obj([("rows", t.json_rows()), ("controls", ct.json_rows())]);
    let (n, k) = (rows.len(), controls.len());
    write_report(
        "ADMIT_report.json",
        &doc,
        &format!("{n} rows and {k} controls"),
    )?;
    for r in rows.iter().filter(|r| r.verdict == "reject") {
        let cell = format!("{}/{}/{}/{}", r.topology, r.region, r.routing, r.scheme);
        let defect = r.defect.as_deref().unwrap_or("(no defect detail)");
        eprintln!("[repro] ADMIT FAILED {cell}: {defect}");
    }
    if rows.iter().any(|r| r.verdict == "reject") {
        return Err("static admission FAILED — false rejection in the golden matrix".into());
    }
    judge_controls(&controls)?;
    let worst = rows.iter().map(|r| r.micros).max().unwrap_or(0);
    let p = rows.first().map_or(0, |r| r.properties.len());
    say!(
        o,
        "static admission: all {n} configurations admitted under {p} properties \
         (slowest cell {worst} µs, target <= 10 ms), all {k} negative controls rejected\n"
    );
    Ok(())
}

/// Run a jobs file through the crash-safe service. Quarantined (poison)
/// jobs are labeled in the report, never abort the sweep, and do not fail
/// the invocation.
fn serve(o: &Opts) -> Outcome {
    use experiments::service::{serve, sim_exec, std_store, JobSpec, ServeConfig};
    let path = &o.operand;
    let jobs = std::fs::read_to_string(path)
        .map_err(|e| format!("serve: cannot read jobs file {path}: {e}"))?;
    let specs =
        JobSpec::parse_jobs(&jobs).map_err(|e| format!("serve: invalid jobs file {path}: {e}"))?;
    let scfg = ServeConfig {
        max_attempts: o.retries,
        timeout_ms: o.timeout_ms,
        ..ServeConfig::new(&o.serve_dir, o.ec)
    };
    let report = serve(std_store(), &specs, &scfg, &sim_exec());
    emit(o, &report.table())?;
    let quarantined = report.quarantined();
    say!(
        o,
        "sweep digest {:016x}  ({} resumed, {} cache hits, {} executed, {quarantined} quarantined)",
        report.sweep_digest,
        report.resumed,
        report.cache_hits,
        report.executed,
    );
    if quarantined > 0 {
        eprintln!("[serve] warning: {quarantined} poison job(s) quarantined — see the report");
    }
    Ok(())
}

/// The fault-injection battery, then its negative control; an unrecovered
/// fault or an undetected tamper fails the invocation.
fn chaos(o: &Opts) -> Outcome {
    let report = experiments::service::run_chaos(o.smoke, o.ec.seed);
    emit(o, &report.table())?;
    emit(o, &controls_table(&report.controls))?;
    let (n, k) = (report.batteries.len(), report.controls.len());
    let what = format!("{n} battery results and {k} controls");
    write_report("CHAOS_report.json", &report.json(), &what)?;
    if !report.all_green() {
        return Err("CHAOS FAILED — at least one fault class did not recover".into());
    }
    judge_controls(&report.controls)?;
    say!(
        o,
        "chaos battery: all {n} fault classes recovered with bit-identical digests, \
         all {k} negative controls detected\n"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Flag values that sit on or past an edge: a zero measurement window, a
    /// window sum that overflows, a zero retry count.
    #[rustfmt::skip]
    const VALUES: &[&str] = &[
        "5,5", "1,0", "0,1", "18446744073709551615,1", "1,18446744073709551615", ",", "-1",
        "0", "7", "", " ", "x.bin",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8192))]

        /// Hostile argv: every flag and subcommand name, `all` and `-h`,
        /// flags followed by edge values, and arbitrary strings, in any
        /// order. `parse` never panics, and what it accepts has a
        /// measurement window, a window sum that does not overflow, and any
        /// solo subcommand on its own.
        #[test]
        fn hostile_argv_never_panics_parse(
            picks in vec((0u32..8, 0u32..0x11_0000, 0u32..64, vec(0u32..0x11_0000, 0..5)), 0..8),
        ) {
            let words: Vec<&str> = (FLAGS.iter().map(|f| f.name))
                .chain(SUBCOMMANDS.iter().map(|c| c.name))
                .chain([ALL, "-h"])
                .collect();
            let mut argv: Vec<String> = Vec::new();
            for (kind, v, w, chars) in &picks {
                match kind {
                    0..=3 => argv.push(words[*v as usize % words.len()].into()),
                    4..=6 => argv.extend([
                        FLAGS[*v as usize % FLAGS.len()].name.into(),
                        VALUES[*w as usize % VALUES.len()].into(),
                    ]),
                    _ => argv.push(chars.iter().filter_map(|&c| char::from_u32(c)).collect()),
                }
            }
            if let Ok((o, cmds)) = parse(argv) {
                prop_assert!(o.ec.measure > 0);
                prop_assert!(o.ec.warmup.checked_add(o.ec.measure).is_some());
                let solo = cmds.iter().any(|c| matches!(c.role, Solo(_)));
                prop_assert!(!solo || cmds.len() == 1, "{}", names(&cmds));
            }
        }
    }

    /// The tables are the one definition: names are unique, every flag a
    /// row names exists with `Row` scope, every flag is read by some row
    /// (or by all), `all` is the paper's evaluation in order, and the usage
    /// text — what `--help` and every error print — lists every row.
    #[test]
    fn tables_are_consistent() {
        let usage = usage();
        for (i, c) in SUBCOMMANDS.iter().enumerate() {
            let name = c.name;
            let first = name != ALL && SUBCOMMANDS[..i].iter().all(|d| d.name != name);
            assert!(first, "{name} twice");
            for flag in c.flags.concat() {
                let row_scoped = FLAGS
                    .iter()
                    .any(|f| f.name == flag && matches!(f.scope, Row));
                assert!(
                    row_scoped,
                    "{name} names {flag}, which is no row-scoped flag"
                );
            }
            assert!(
                usage.contains(&format!("\n  {name}")),
                "{name} not in usage"
            );
        }
        for (i, f) in FLAGS.iter().enumerate() {
            let name = f.name;
            assert!(FLAGS[..i].iter().all(|g| g.name != name), "{name} twice");
            let read = SUBCOMMANDS.iter().any(|c| c.reads(name));
            assert_eq!(read, matches!(f.scope, Row), "{name}: scope vs the rows");
            assert!(
                usage.contains(&format!("\n  {name}")),
                "{name} not in usage"
            );
        }
        let counts = (SUBCOMMANDS.len() + 1, FLAGS.len());
        assert_eq!(counts, (14, 10), "subcommands (with `all`), flags");
        let (_, all) = parse(["all".to_string()]).unwrap_or_else(|e| panic!("{e}"));
        let want = "table1 lbdr fig9 fig12 fig14 fig15 fig17 ablation";
        assert_eq!(names(&all), want);
        // `all` stands for its rows in place; extras named with it still run.
        let args = ["trace-demo", "all", "curve"].map(String::from);
        let (_, cmds) = parse(args).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(names(&cmds), format!("trace-demo {want} curve"));
    }
}
