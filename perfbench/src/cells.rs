//! The crowd engine's cell partition, rebuilt from public API so the
//! benchmark can build and step every cell `Scenario` itself.
//!
//! This mirrors `hbr_bench::crowd`'s private cell set-up: home cell =
//! initial position on the `cell_grid(area)`² grid, cell seed =
//! `derive_seed(seed, cell)`, and with roaming the whole grid. Fault
//! plans are not routed: no workload carries one. The traced stepper
//! asserts that stepping these cells reproduces `run_crowd`'s report, so
//! a drift here cannot go unnoticed.

use std::collections::BTreeMap;

use hbr_bench::{cell_grid, derive_seed, CrowdConfig};
use hbr_core::fleet::FleetBuilder;
use hbr_core::world::{CellTopology, DeviceSpec, ScenarioConfig};
use hbr_sim::SimDuration;

/// One cell's blueprint: its scenario config and the fleet-global ids
/// of its initial members, in cell-local order.
pub struct CellSetup {
    pub config: ScenarioConfig,
    pub global_ids: Vec<u32>,
}

/// Builds the fleet exactly as the engine does.
pub fn build_fleet(config: &CrowdConfig) -> Vec<DeviceSpec> {
    FleetBuilder::new(config.phones, config.relays)
        .area_side_m(config.area_side_m)
        .build(config.seed)
}

/// The cell setups of a crowd config.
pub fn setups(config: &CrowdConfig) -> Vec<CellSetup> {
    setups_from_fleet(config, &build_fleet(config))
}

/// [`setups`] over an already built fleet.
pub fn setups_from_fleet(config: &CrowdConfig, fleet: &[DeviceSpec]) -> Vec<CellSetup> {
    assert!(
        config.faults.is_empty(),
        "fault plans are not routed to cells"
    );
    let duration = SimDuration::from_secs(config.hours * 3600);
    let k = cell_grid(config.area_side_m);
    let grid = CellTopology {
        area_side_m: config.area_side_m,
        grid: k,
        cell: 0,
    };
    let homes: Vec<usize> = fleet
        .iter()
        .map(|spec| {
            let p = spec.mobility.position();
            grid.locate(p.x, p.y)
        })
        .collect();
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &home) in homes.iter().enumerate() {
        members.entry(home).or_default().push(i);
    }
    // Roaming materialises the whole grid (empty cells are migration
    // targets); pinned-home runs only the populated cells.
    let cell_indices: Vec<usize> = if config.roam {
        (0..k * k).collect()
    } else {
        members.keys().copied().collect()
    };
    let none = Vec::new();
    cell_indices
        .into_iter()
        .map(|cell| {
            let devices = members.get(&cell).unwrap_or(&none);
            let mut c = ScenarioConfig::new(duration, derive_seed(config.seed, cell));
            c.mode = config.mode;
            c.trace_capacity = config.trace_capacity;
            c.telemetry = config.telemetry;
            c.reliable_delivery = config.reliable;
            c.spans = config.spans;
            c.cell = Some(cell);
            if config.roam {
                c.topology = Some(CellTopology { cell, ..grid });
            }
            if config.push_mins > 0 {
                c.push_interval = Some(SimDuration::from_secs(config.push_mins * 60));
            }
            for &global in devices {
                c.add_device(fleet[global].clone());
            }
            CellSetup {
                config: c,
                global_ids: devices.iter().map(|&g| g as u32).collect(),
            }
        })
        .collect()
}
