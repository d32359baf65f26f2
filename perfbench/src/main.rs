//! `hbr-perfbench`: one measured step of the crowd benchmark, printed
//! as one JSON line. `perfbench/run.py` drives it; each subcommand runs
//! in its own process so peak memory is per run.
//!
//! ```text
//! hbr-perfbench setup --workload W --seed N
//! hbr-perfbench run   --workload W --seed N --work DIR
//! hbr-perfbench trace --workload W --seed N --work DIR
//! hbr-perfbench catalog
//! ```
//!
//! - `setup` times `FleetBuilder::build` plus every cell `Scenario::new`,
//!   [`SETUP_REPEATS`] times.
//! - `run` is one end-to-end run: `run_crowd_controlled` plus every
//!   artifact, timed from the call to the last file written, then
//!   checked.
//! - `trace` is the per-layer pass: the same run untraced, the traced
//!   stepper, and a counting pass with telemetry on.
//! - `catalog` lists every metric with its unit and, for per-layer
//!   metrics, the end-to-end metrics and workloads it should move.

mod artifacts;
mod catalog;
mod cells;
mod probe;
mod stepper;
mod tracer;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hbr_bench::{run_crowd, run_crowd_controlled, CrowdConfig, RunControls, EPOCHS};
use hbr_core::world::{Role, Scenario, ScenarioReport};
use hbr_energy::PhaseGroup;

use artifacts::Fidelity;
use stepper::{Totals, TracedPass};
use workload::Workload;

const USAGE: &str =
    "usage: hbr-perfbench setup|run|trace --workload W --seed N [--work DIR]\n       hbr-perfbench catalog";

/// Set-ups timed by one `setup` child. Set-up takes milliseconds, so
/// `run.py` runs a `setup` child after every `run` child and reports
/// the median over all of them.
const SETUP_REPEATS: usize = 15;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or(USAGE)?;
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).cloned();
    let name = get("--workload").ok_or(USAGE)?;
    let workload = workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    Ok(Args {
        command,
        workload,
        seed,
        work: PathBuf::from(get("--work").unwrap_or_else(|| "perfbench/work".into())),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("catalog") {
        println!("{}", catalog_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A panic on an engine worker thread leaves the other workers waiting
    // at the epoch barrier forever; end the process instead, so the run
    // fails at once with the panic message on stderr.
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report_panic(info);
        std::process::exit(101);
    }));
    // The engine reads the invariant checker's default from the
    // environment; keep it off, as in a release `hbr crowd`, whatever
    // the caller's environment says.
    std::env::set_var("HBR_CHECK_INVARIANTS", "0");
    let line = match args.command.as_str() {
        "setup" => setup(&args),
        "run" => run(&args),
        "trace" => trace(&args),
        other => {
            eprintln!("error: unknown command {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// A JSON object built field by field.
#[derive(Default)]
struct Json(String);

impl Json {
    fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        let sep = if self.0.is_empty() { "{" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{value}");
        self
    }

    fn num(self, key: &str, value: f64) -> Self {
        assert!(value.is_finite(), "{key} is not finite");
        self.raw(key, value)
    }

    fn done(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

fn quoted(items: impl IntoIterator<Item = impl std::fmt::Display>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| format!("\"{i}\"")).collect();
    format!("[{}]", items.join(","))
}

fn catalog_json() -> String {
    let e2e: Vec<String> = catalog::END_TO_END
        .iter()
        .map(|m| {
            Json::default()
                .raw("name", format!("\"{}\"", m.name))
                .raw("unit", format!("\"{}\"", m.unit))
                .raw("better", format!("\"{}\"", m.better))
                .raw("bounded", m.bounded)
                .done()
        })
        .collect();
    let layers: Vec<String> = catalog::PER_LAYER
        .iter()
        .map(|m| {
            let moves: Vec<String> = m
                .moves
                .iter()
                .map(|(target, workloads)| format!("[\"{target}\",{}]", quoted(workloads.iter())))
                .collect();
            Json::default()
                .raw("name", format!("\"{}\"", m.name))
                .raw("unit", format!("\"{}\"", m.unit))
                .raw("better", format!("\"{}\"", m.better))
                .raw("moves", format!("[{}]", moves.join(",")))
                .done()
        })
        .collect();
    let workloads: Vec<String> = workload::WORKLOADS
        .iter()
        .map(|w| {
            Json::default()
                .raw("name", format!("\"{}\"", w.name))
                .raw("phones", w.phones)
                .num("density_per_ha", w.density_per_ha)
                .num("side_m", w.side_m())
                .raw("grid", w.grid())
                .raw("hours", w.hours)
                .raw("shards", w.shards)
                .done()
        })
        .collect();
    Json::default()
        .raw("workloads", format!("[{}]", workloads.join(",")))
        .raw("end_to_end", format!("[{}]", e2e.join(",")))
        .raw("per_layer", format!("[{}]", layers.join(",")))
        .done()
}

fn checks_json(checks: &[(&str, bool)]) -> String {
    checks
        .iter()
        .fold(Json::default(), |j, (name, ok)| j.raw(name, ok))
        .done()
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("work directory");
}

fn setup(args: &Args) -> String {
    let config = args.workload.crowd_config(args.seed);
    let times: Vec<String> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let fleet = cells::build_fleet(&config);
            let scenarios: Vec<Scenario> = cells::setups_from_fleet(&config, &fleet)
                .into_iter()
                .map(|s| Scenario::new(s.config))
                .collect();
            let secs = start.elapsed().as_secs_f64();
            drop(scenarios);
            secs.to_string()
        })
        .collect();
    Json::default()
        .raw("setup_s", format!("[{}]", times.join(",")))
        .done()
}

/// One untraced end-to-end run: the engine plus every artifact.
struct EndToEndRun {
    wall_s: f64,
    totals: Totals,
    fidelity: Fidelity,
    digest: u64,
    checks: Vec<(&'static str, bool)>,
}

fn end_to_end(config: &CrowdConfig, work: &Path) -> EndToEndRun {
    fresh_dir(work);
    let start = Instant::now();
    let outcome = run_crowd_controlled(config, &RunControls::default());
    let digest = artifacts::write(work, &outcome.report, None);
    let wall_s = start.elapsed().as_secs_f64();

    let mut checks = artifacts::delivery_checks(&outcome.report);
    checks.push((
        "all_epochs_done",
        outcome.epochs_done == EPOCHS && !outcome.truncated,
    ));
    EndToEndRun {
        wall_s,
        totals: Totals::of(&outcome.report),
        fidelity: Fidelity::of(&outcome.report, config.phones, config.hours),
        digest,
        checks,
    }
}

fn run(args: &Args) -> String {
    let w = &args.workload;
    let run = end_to_end(&w.crowd_config(args.seed), &args.work);
    let f = run.fidelity;
    Json::default()
        .num("wall_s", run.wall_s)
        .num("sim_rate", w.phone_sim_seconds() / run.wall_s)
        .num("l3_per_phone_hour", f.l3_per_phone_hour)
        .num("rrc_per_phone_hour", f.rrc_per_phone_hour)
        .num("uah_per_delivered_hb", f.uah_per_delivered_hb)
        .num("delivery_ratio", f.delivery_ratio)
        .num("false_dead_s", f.false_dead_s)
        .raw("digest", format!("\"{:016x}\"", run.digest))
        .raw("checks", checks_json(&run.checks))
        .done()
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn trace(args: &Args) -> String {
    let w = &args.workload;
    let config = w.crowd_config(args.seed);
    // Every pass's totals, to be compared with the engine's.
    let mut passes: Vec<(&'static str, Totals)> = Vec::new();

    // Untraced and traced passes alternate A B B A, so a drift in host
    // speed cancels out of the tracing overhead, after one untimed
    // untraced pass: the first run in a process also pays for growing
    // its heap. Only the first traced pass is kept whole; the others are
    // reduced to what is compared.
    end_to_end(&config, &args.work);
    let reference = end_to_end(&config, &args.work);
    let traced = stepper::traced_pass(&config, &args.work, 1);
    passes.push(("traced_equals_engine", Totals::of(&traced.report)));
    let again = stepper::traced_pass(&config, &args.work, 2);
    passes.push(("traced_again_equals_engine", Totals::of(&again.report)));
    let (again_wall_s, again_digest) = (root_wall_s(&again), again.digest);
    drop(again);
    let reference_again = end_to_end(&config, &args.work);
    let walls = (
        root_wall_s(&traced) + again_wall_s,
        reference.wall_s + reference_again.wall_s,
    );
    let mut checks: Vec<(&str, bool)> = reference
        .checks
        .iter()
        .zip(&reference_again.checks)
        .map(|(&(name, first), &(_, second))| (name, first && second))
        .collect();
    checks.push((
        "traced_artifacts_equal_engine",
        traced.digest == reference.digest && again_digest == reference_again.digest,
    ));

    // The workloads run with telemetry off; the layer counts live in the
    // metrics snapshot, so the engine runs once more with it on.
    let counted = run_crowd(&CrowdConfig {
        telemetry: true,
        ..config.clone()
    });
    passes.push(("counting_equals_engine", Totals::of(&counted)));
    let mut notes: Vec<String> = Vec::new();
    for (what, totals) in passes {
        if totals != reference.totals {
            notes.push(format!(
                "{what}: traced {totals:?} vs engine {:?}",
                reference.totals
            ));
        }
        checks.push((what, totals == reference.totals));
    }

    let setups = cells::setups(&config);
    let mobility = probe::mobility(&setups, args.seed);

    std::fs::write(
        args.work.join("trace-spans.jsonl"),
        tracer::to_jsonl(&traced.spans),
    )
    .expect("trace spans written");

    let layers = layer_metrics(w, &traced, &counted, mobility, walls);
    notes.extend(catalog::ABSENT.iter().map(|note| note.to_string()));
    let layer_json = layers
        .iter()
        .fold(Json::default(), |j, (name, value)| j.num(name, *value))
        .done();
    let self_json = tracer::totals_by_name(&traced.spans)
        .iter()
        .fold(Json::default(), |j, (name, t)| {
            j.raw(
                name,
                format!(
                    "[{},{},{}]",
                    t.count,
                    t.total_ns as f64 / 1e9,
                    t.self_ns as f64 / 1e9
                ),
            )
        })
        .done();
    Json::default()
        .raw("layers", layer_json)
        .raw("spans", self_json)
        .raw("checks", checks_json(&checks))
        .raw("notes", quoted(notes.iter().map(|n| n.replace('"', "'"))))
        .done()
}

/// The traced pass's wall time, from the fleet build to the last
/// artifact written.
fn root_wall_s(pass: &TracedPass) -> f64 {
    pass.spans[0].dur_ns() as f64 / 1e9
}

/// Wall nanoseconds in `run_until` per engine event scheduled.
fn ns_per_event(pass: &TracedPass) -> f64 {
    let step_ns = tracer::totals_by_name(&pass.spans)["world.step"].total_ns;
    step_ns as f64 / pass.events.max(1) as f64
}

fn layer_metrics(
    w: &Workload,
    traced: &TracedPass,
    counts: &ScenarioReport,
    mobility: probe::MobilityProbe,
    (traced_wall_s, untraced_wall_s): (f64, f64),
) -> Vec<(&'static str, f64)> {
    let totals = tracer::totals_by_name(&traced.spans);
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let root = &traced.spans[0];
    let root_self_s = tracer::self_times(&traced.spans)[&root.id] as f64 / 1e9;
    let mut steps_us: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "world.step")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let pulse = &totals["world.pulse"];

    let counter = |name: &str| counts.metrics.counter(name) as f64;
    let forwards: u64 = counts
        .devices
        .iter()
        .filter(|d| d.role == Role::Ue)
        .map(|d| d.forwards)
        .sum();
    let no_relay = counter("hbr_fallback_total{cause=\"no-relay\"}");
    let batch = counts.metrics.histograms.get("hbr_relay_batch_size");
    let mean_batch = batch.map_or(0.0, |h| h.sum() / h.count().max(1) as f64);
    let energy = |group: PhaseGroup| -> f64 {
        counts
            .devices
            .iter()
            .flat_map(|d| &d.energy_by_group)
            .filter(|(g, _)| *g == group)
            .map(|(_, uah)| uah)
            .sum()
    };
    let delivery = counts.delivery.unwrap_or_default();
    let population: Vec<f64> = traced.cell_population.iter().map(|&n| n as f64).collect();

    vec![
        ("fleet.build_s", secs("fleet.build")),
        ("world.new_s", secs("world.new")),
        ("world.step_us.p50", percentile(&mut steps_us, 50.0)),
        ("world.step_us.p99", percentile(&mut steps_us, 99.0)),
        ("world.events", traced.events as f64),
        ("world.ns_per_event", ns_per_event(traced)),
        ("world.max_queue_depth", traced.max_queue_depth as f64),
        (
            "world.pulse_us",
            pulse.total_ns as f64 / pulse.count as f64 / 1e3,
        ),
        ("world.complete_s", secs("world.complete")),
        ("crowd.other_s", root_self_s),
        ("mobility.advance_us", mobility.advance_us),
        ("mobility.query_us", mobility.query_us),
        (
            "mobility.cell_population.mean",
            population.iter().sum::<f64>() / population.len() as f64,
        ),
        (
            "mobility.cell_population.max",
            population.iter().copied().fold(0.0, f64::max),
        ),
        ("matcher.forwards", forwards as f64),
        ("matcher.fallbacks_no_relay", no_relay),
        (
            "matcher.match_ratio",
            forwards as f64 / (forwards as f64 + no_relay).max(1.0),
        ),
        (
            "scheduler.flushes.capacity",
            counter("hbr_flush_total{reason=\"capacity\"}"),
        ),
        (
            "scheduler.flushes.period",
            counter("hbr_flush_total{reason=\"period\"}"),
        ),
        (
            "scheduler.flushes.expiration",
            counter("hbr_flush_total{reason=\"expiration\"}"),
        ),
        ("scheduler.mean_batch", mean_batch),
        ("delivery.retries", delivery.retries as f64),
        ("delivery.handovers", delivery.handovers as f64),
        ("cellular.l3", counts.total_l3 as f64),
        ("cellular.rrc_establish", counter("hbr_rrc_establish_total")),
        ("d2d.link_setups", counter("hbr_d2d_link_setup_total")),
        (
            "d2d.transfers_ok",
            counter("hbr_d2d_transfer_total{result=\"ok\"}"),
        ),
        (
            "d2d.transfers_lost",
            counter("hbr_d2d_transfer_total{result=\"lost\"}"),
        ),
        ("energy.uah.cellular", energy(PhaseGroup::Cellular)),
        ("energy.uah.discovery", energy(PhaseGroup::Discovery)),
        ("energy.uah.forwarding", energy(PhaseGroup::Forwarding)),
        ("energy.uah.connection", energy(PhaseGroup::Connection)),
        ("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0),
        (
            "trace.sim_rate",
            w.phone_sim_seconds() / root_wall_s(traced),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metrics_cover_the_catalogue_in_order() {
        // A tiny roaming crowd with telemetry and spans on, through the
        // engine and the stepper: the stepper's migration exchange and
        // metrics merge must match the engine's too.
        let w = Workload {
            name: "tiny",
            phones: 300,
            density_per_ha: 100.0,
            hours: 1,
            shards: 2,
        };
        let config = CrowdConfig {
            roam: true,
            telemetry: true,
            spans: true,
            ..w.crowd_config(11)
        };
        let work = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let reference = end_to_end(&config, &work);
        let traced = stepper::traced_pass(&config, &work, 1);
        assert!(traced.report.migrations > 0, "the tiny crowd roams");
        assert_eq!(
            Totals::of(&traced.report),
            reference.totals,
            "traced loop matches the engine"
        );
        assert_eq!(traced.digest, reference.digest, "same artifacts");
        assert!(
            reference.checks.iter().all(|(_, ok)| *ok),
            "{:?}",
            reference.checks
        );
        let mobility = probe::mobility(&cells::setups(&config), 11);
        let walls = (root_wall_s(&traced), reference.wall_s);
        let layers = layer_metrics(&w, &traced, &traced.report, mobility, walls);
        let names: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
        let catalogue: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, catalogue);
        assert!(layers.iter().all(|(_, v)| v.is_finite()));
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }
}
