//! The traced stepper: steps every cell `Scenario` itself, in the crowd
//! engine's epoch lockstep, so each call into the world layer can be
//! timed on its own.
//!
//! The loop follows `hbr_bench::crowd::run_crowd_controlled` step for
//! step: the same partition and cell seeds, contiguous chunks of cells
//! per worker thread, `run_until` → `emigrate` → `pulse` per cell, a
//! barrier, the leader's fleet fold, migration manifests drained in
//! ascending source-cell order, `immigrate`, and a second barrier. The
//! merged [`Totals`] and artifacts are compared with `run_crowd`'s so
//! the timed loop cannot drift from the engine.

use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::Instant;

use hbr_bench::{CrowdConfig, EPOCHS};
use hbr_core::world::{DeliveryReport, EpochPulse, Migrant, Scenario, ScenarioReport};
use hbr_sim::spans::SpanRecorder;
use hbr_sim::telemetry::{EventRecord, MetricsRegistry, TelemetryEvent};
use hbr_sim::{DeviceId, SimDuration, SimTime};

use crate::artifacts;
use crate::cells;
use crate::tracer::{Lane, SpanRec};

/// What one traced pass hands back.
pub struct TracedPass {
    /// Every span, the root (`crowd.run`) first.
    pub spans: Vec<SpanRec>,
    /// The merged report (device rows are per residence, not coalesced).
    pub report: ScenarioReport,
    /// Sum of `events_scheduled` over the cells at the horizon.
    pub events: u64,
    /// Deepest event queue seen after any `run_until`.
    pub max_queue_depth: usize,
    /// Initial device count of every cell.
    pub cell_population: Vec<usize>,
    /// Digest of the artifacts the pass wrote.
    pub digest: u64,
}

/// One cell the stepper carries.
struct Cell {
    index: u32,
    scenario: Option<Scenario>,
    report: Option<ScenarioReport>,
    global_ids: Vec<u32>,
}

/// What a worker thread hands back.
struct WorkerOut {
    spans: Vec<SpanRec>,
    events: u64,
    max_queue_depth: usize,
}

/// Runs one traced pass of `config`, which must fix its shard count,
/// and writes its artifacts to `work`.
pub fn traced_pass(config: &CrowdConfig, work: &Path, run: u32) -> TracedPass {
    let origin = Instant::now();
    let mut main = Lane::new(origin, run, 0, None);
    let root = main.open("crowd.run", None);

    let fleet = main.time("fleet.build", None, || cells::build_fleet(config));
    let setups = main.time("crowd.partition", None, || {
        cells::setups_from_fleet(config, &fleet)
    });
    drop(fleet);
    let cell_population: Vec<usize> = setups.iter().map(|s| s.config.devices.len()).collect();
    let mut cells: Vec<Cell> = setups
        .into_iter()
        .map(|s| {
            let index = s.config.cell.expect("engine cells carry their index") as u32;
            let scenario = main.time("world.new", Some(index), || Scenario::new(s.config));
            Cell {
                index,
                scenario: Some(scenario),
                report: None,
                global_ids: s.global_ids,
            }
        })
        .collect();

    let total_us = SimDuration::from_secs(config.hours * 3600).as_micros();
    let boundaries: Vec<SimTime> = (1..=EPOCHS)
        .map(|e| {
            let us = (u128::from(total_us) * u128::from(e) / u128::from(EPOCHS)) as u64;
            SimTime::ZERO + SimDuration::from_micros(us)
        })
        .collect();

    let cell_count = cells.len();
    let shards = config
        .shards
        .expect("benchmark configs fix the shard count")
        .clamp(1, cell_count.max(1));
    let chunk = cell_count.div_ceil(shards);
    let workers = cell_count.div_ceil(chunk);
    let barrier = Barrier::new(workers);
    let pulses = Mutex::new(vec![EpochPulse::default(); cell_count]);
    let manifests: Mutex<Vec<Vec<(u32, Migrant)>>> =
        Mutex::new((0..cell_count).map(|_| Vec::new()).collect());
    let fleet_log = Mutex::new((MetricsRegistry::enabled(), Vec::<EventRecord>::new()));

    let outs: Vec<WorkerOut> = thread::scope(|scope| {
        let handles: Vec<_> = cells
            .chunks_mut(chunk)
            .enumerate()
            .map(|(chunk_index, owned)| {
                let base = chunk_index * chunk;
                let (barrier, pulses, manifests) = (&barrier, &pulses, &manifests);
                let (fleet_log, boundaries) = (&fleet_log, &boundaries);
                scope.spawn(move || {
                    let mut lane = Lane::new(origin, run, chunk_index as u32 + 1, Some(root));
                    let mut max_queue_depth = 0;
                    for (epoch, &limit) in boundaries.iter().enumerate() {
                        for (offset, cell) in owned.iter_mut().enumerate() {
                            let scenario = cell.scenario.as_mut().expect("cell running");
                            let at = Some(cell.index);
                            lane.time("world.step", at, || scenario.run_until(limit));
                            max_queue_depth = max_queue_depth.max(scenario.queue_depth());
                            let migrants =
                                lane.time("world.emigrate", at, || scenario.emigrate(limit));
                            if !migrants.is_empty() {
                                let mut published = manifests.lock().expect("manifest lock");
                                for m in migrants {
                                    let global = cell.global_ids[m.source_index() as usize];
                                    published[base + offset].push((global, m));
                                }
                            }
                            let pulse = lane.time("world.pulse", at, || scenario.pulse());
                            pulses.lock().expect("pulse lock")[base + offset] = pulse;
                        }
                        let leader =
                            lane.time("crowd.barrier", None, || barrier.wait().is_leader());
                        if leader {
                            lane.time("crowd.fold", None, || {
                                let all = pulses.lock().expect("pulse lock").clone();
                                fold_fleet(
                                    &mut fleet_log.lock().expect("fleet lock"),
                                    &all,
                                    epoch,
                                    limit,
                                    config,
                                );
                            });
                        }
                        let incoming = lane.time("crowd.exchange", None, || {
                            drain_manifests(
                                &mut manifests.lock().expect("manifest lock"),
                                base,
                                owned.len(),
                            )
                        });
                        for (cell, (ids, migrants)) in owned.iter_mut().zip(incoming) {
                            let scenario = cell.scenario.as_mut().expect("cell running");
                            lane.time("world.immigrate", Some(cell.index), || {
                                scenario.immigrate(migrants, limit)
                            });
                            cell.global_ids.extend(ids);
                        }
                        lane.time("crowd.barrier", None, || barrier.wait());
                    }
                    let mut events = 0;
                    for cell in owned.iter_mut() {
                        let scenario = cell.scenario.take().expect("cell running");
                        events += scenario.events_scheduled();
                        cell.report = Some(
                            lane.time("world.complete", Some(cell.index), || scenario.complete()),
                        );
                    }
                    WorkerOut {
                        spans: lane.spans,
                        events,
                        max_queue_depth,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker finished"))
            .collect()
    });

    let (metrics, fleet_events) = fleet_log.into_inner().expect("fleet lock");
    let report = main.time("crowd.merge", None, || {
        merge(cells, metrics, fleet_events, config.telemetry)
    });
    let digest = artifacts::write(work, &report, Some(&mut main));
    main.close();

    let mut spans = main.spans;
    // Root last on the main lane; put it first.
    spans.rotate_right(1);
    let (mut events, mut max_queue_depth) = (0, 0);
    for out in outs {
        spans.extend(out.spans);
        events += out.events;
        max_queue_depth = max_queue_depth.max(out.max_queue_depth);
    }
    TracedPass {
        spans,
        report,
        events,
        max_queue_depth,
        cell_population,
        digest,
    }
}

/// The barrier leader's fleet fold: `hbr_fleet_*` gauges and one
/// `FleetPulse` event per epoch, exactly as the engine records them.
fn fold_fleet(
    log: &mut (MetricsRegistry, Vec<EventRecord>),
    pulses: &[EpochPulse],
    epoch: usize,
    limit: SimTime,
    config: &hbr_bench::CrowdConfig,
) {
    let mut fleet = EpochPulse::default();
    for pulse in pulses {
        fleet.absorb(pulse);
    }
    if !config.telemetry {
        return;
    }
    let (metrics, events) = log;
    metrics.set_gauge("hbr_fleet_forwards", fleet.forwards as f64);
    metrics.set_gauge("hbr_fleet_fallbacks", fleet.fallbacks as f64);
    metrics.set_gauge("hbr_fleet_outage_queued", fleet.outage_queued as f64);
    metrics.set_gauge("hbr_fleet_l3", fleet.l3 as f64);
    metrics.set_gauge("hbr_fleet_delivered", fleet.delivered as f64);
    metrics.set_gauge("hbr_fleet_retries", fleet.retries as f64);
    metrics.incr("hbr_fleet_epochs_total");
    if config.roam {
        metrics.set_gauge("hbr_fleet_migrations", fleet.migrations as f64);
        metrics.set_gauge("hbr_fleet_lte_handovers", fleet.lte_handovers as f64);
    }
    events.push(EventRecord {
        time: limit,
        event: TelemetryEvent::FleetPulse {
            epoch: epoch as u32,
            cells: pulses.len() as u32,
            forwards: fleet.forwards,
            fallbacks: fleet.fallbacks,
            outage_queued: fleet.outage_queued,
            l3: fleet.l3,
            delivered: fleet.delivered,
            retries: fleet.retries,
            migrations: config.roam.then_some(fleet.migrations),
            lte_handovers: config.roam.then_some(fleet.lte_handovers),
        },
    });
}

/// Takes the migrants bound for cells `base..base + owned` out of the
/// manifests, scanning source cells in ascending order; one
/// `(global ids, migrants)` pair per owned cell.
fn drain_manifests(
    published: &mut [Vec<(u32, Migrant)>],
    base: usize,
    owned: usize,
) -> Vec<(Vec<u32>, Vec<Migrant>)> {
    (base..base + owned)
        .map(|dest| {
            let mut ids = Vec::new();
            let mut migrants = Vec::new();
            for bucket in published.iter_mut() {
                let mut i = 0;
                while i < bucket.len() {
                    if bucket[i].1.to_cell() == dest {
                        let (global, migrant) = bucket.remove(i);
                        ids.push(global);
                        migrants.push(migrant);
                    } else {
                        i += 1;
                    }
                }
            }
            (ids, migrants)
        })
        .collect()
}

/// Folds the finished cells, in cell order, into one report. Totals,
/// delivery, metrics, events and spans merge as the engine merges them;
/// device rows are appended per residence rather than coalesced, which
/// leaves every sum over rows unchanged.
fn merge(
    cells: Vec<Cell>,
    fleet_metrics: MetricsRegistry,
    fleet_events: Vec<EventRecord>,
    telemetry: bool,
) -> ScenarioReport {
    let mut reports: Vec<(Vec<u32>, ScenarioReport)> = cells
        .into_iter()
        .map(|c| (c.global_ids, c.report.expect("cell finished")))
        .collect();
    let metrics = if telemetry {
        let fleet = fleet_metrics.snapshot();
        hbr_bench::merge_snapshots(reports.iter().map(|(_, r)| &r.metrics).chain([&fleet]))
    } else {
        Default::default()
    };
    let mut merged = ScenarioReport {
        devices: Vec::new(),
        total_l3: 0,
        total_rrc: 0,
        delivered: 0,
        rejected_expired: 0,
        duplicates: 0,
        offline_secs: 0.0,
        pushes_delivered: 0,
        pushes_missed: 0,
        total_energy_uah: 0.0,
        trace: Vec::new(),
        trace_dropped: 0,
        metrics,
        events: Vec::new(),
        delivery: None,
        spans: SpanRecorder::disabled(),
        migrations: 0,
        lte_handovers: 0,
    };
    for (global_ids, report) in &mut reports {
        merged.total_l3 += report.total_l3;
        merged.total_rrc += report.total_rrc;
        merged.delivered += report.delivered;
        merged.rejected_expired += report.rejected_expired;
        merged.duplicates += report.duplicates;
        merged.offline_secs += report.offline_secs;
        merged.total_energy_uah += report.total_energy_uah;
        merged.migrations += report.migrations;
        merged.lte_handovers += report.lte_handovers;
        if let Some(d) = &report.delivery {
            merged
                .delivery
                .get_or_insert_with(Default::default)
                .absorb(d);
        }
        for (row, mut device) in report.devices.drain(..).enumerate() {
            device.device = DeviceId::new(global_ids[row]);
            merged.devices.push(device);
        }
        for mut record in report.events.drain(..) {
            record
                .event
                .remap_devices(|local| global_ids[local as usize]);
            merged.events.push(record);
        }
        let mut spans = std::mem::replace(&mut report.spans, SpanRecorder::disabled());
        spans.remap_devices(|local| global_ids[local as usize]);
        merged.spans.extend(spans);
    }
    merged.events.extend(fleet_events);
    merged.events.sort_by_key(|r| r.time);
    merged
}

/// The fields the traced loop must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Totals {
    pub l3: u64,
    pub rrc: u64,
    pub delivered: u64,
    pub migrations: u64,
    pub delivery: Option<DeliveryReport>,
}

impl Totals {
    pub fn of(report: &ScenarioReport) -> Self {
        Totals {
            l3: report.total_l3,
            rrc: report.total_rrc,
            delivered: report.delivered,
            migrations: report.migrations,
            delivery: report.delivery,
        }
    }
}
