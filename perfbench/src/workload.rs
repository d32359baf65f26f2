//! The benchmark's named workloads: fixed-density 10 000-phone fleets
//! for the sharded crowd engine.
//!
//! A workload fixes the *density* (phones per hectare), not the area:
//! the side of the square deployment follows from phones ÷ density, and
//! the cell grid from the side. The seed is the only free input; it
//! changes where phones stand and what they run, never the shape.

use hbr_bench::CrowdConfig;
use hbr_core::world::Mode;
use hbr_sim::fault::FaultPlan;

/// Square metres in a hectare.
const M2_PER_HA: f64 = 10_000.0;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// Fleet size.
    pub phones: usize,
    /// Phones per hectare.
    pub density_per_ha: f64,
    /// Simulated hours.
    pub hours: u64,
    /// Worker threads carrying the cells.
    pub shards: usize,
}

/// `dense200` and `sparse20`, in that order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "dense200",
        phones: 10_000,
        density_per_ha: 200.0,
        hours: 1,
        shards: 1,
    },
    Workload {
        name: "sparse20",
        phones: 10_000,
        density_per_ha: 20.0,
        hours: 4,
        shards: 1,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Relays: one phone in ten volunteers.
    pub fn relays(&self) -> usize {
        self.phones / 10
    }

    /// Side of the square deployment area that gives the stated density.
    pub fn side_m(&self) -> f64 {
        (self.phones as f64 / self.density_per_ha * M2_PER_HA).sqrt()
    }

    /// Cells per axis of the engine's partition of this area.
    pub fn grid(&self) -> usize {
        hbr_bench::cell_grid(self.side_m())
    }

    /// Phone-seconds simulated by one run.
    pub fn phone_sim_seconds(&self) -> f64 {
        self.phones as f64 * (self.hours * 3600) as f64
    }

    /// The crowd config one run of this workload hands the engine.
    pub fn crowd_config(&self, seed: u64) -> CrowdConfig {
        CrowdConfig {
            phones: self.phones,
            relays: self.relays(),
            hours: self.hours,
            area_side_m: self.side_m(),
            seed,
            push_mins: 0,
            mode: Mode::D2dFramework,
            faults: FaultPlan::new(),
            trace_capacity: 0,
            telemetry: false,
            reliable: true,
            spans: false,
            shards: Some(self.shards),
            roam: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;

    #[test]
    fn each_workload_has_its_stated_density_and_grid() {
        let grids = [("dense200", 8), ("sparse20", 23)];
        for (name, grid) in grids {
            let w = find(name).expect("workload exists");
            let hectares = w.side_m() * w.side_m() / M2_PER_HA;
            let density = w.phones as f64 / hectares;
            assert!(
                (density - w.density_per_ha).abs() < 1e-9,
                "{name}: {density} phones/ha"
            );
            assert_eq!(w.grid(), grid, "{name} grid");
            assert_eq!(w.relays(), w.phones / 10);
        }
    }

    #[test]
    fn workloads_stay_within_two_threads() {
        for w in WORKLOADS {
            assert!((1..=2).contains(&w.shards), "{} shards", w.name);
        }
    }

    #[test]
    fn the_seed_changes_the_fleet_but_not_the_shape() {
        let w = find("dense200").unwrap();
        let a = cells::setups(&w.crowd_config(1));
        let b = cells::setups(&w.crowd_config(2));
        let config_a = w.crowd_config(1);
        let config_b = w.crowd_config(2);
        assert_eq!(config_a.area_side_m, config_b.area_side_m);
        assert_eq!(config_a.phones, config_b.phones);
        assert_eq!(config_a.relays, config_b.relays);
        let count = |s: &[cells::CellSetup]| s.iter().map(|c| c.global_ids.len()).sum::<usize>();
        assert_eq!(count(&a), w.phones);
        assert_eq!(count(&b), w.phones);
        assert!(a.len() <= w.grid() * w.grid() && b.len() <= w.grid() * w.grid());
        let first = |s: &[cells::CellSetup]| {
            s.iter()
                .map(|c| c.config.devices[0].mobility.position())
                .collect::<Vec<_>>()
        };
        assert_ne!(first(&a), first(&b), "another seed places phones elsewhere");
    }
}
