//! The mobility-layer probe: `Field::advance_to` and
//! `Field::neighbours_within` timed on the workload's densest cell,
//! outside the engine, the way discovery calls them on every match.

use std::time::Instant;

use hbr_mobility::Field;
use hbr_sim::{DeviceId, SimRng, SimTime};

use crate::cells::CellSetup;

/// One-second field steps the probe takes.
const STEPS: u64 = 200;

/// Median microseconds per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityProbe {
    pub advance_us: f64,
    pub query_us: f64,
}

/// The median of a non-empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Steps the densest cell's field one second at a time; after each
/// step, one device (cycling through the cell) asks for its neighbours
/// within the D2D range, which also keeps the spatial index live so
/// every later step rebuilds it, as in the engine.
pub fn mobility(setups: &[CellSetup], seed: u64) -> MobilityProbe {
    let densest = setups
        .iter()
        .max_by_key(|s| s.config.devices.len())
        .expect("a workload has cells");
    let mut field = Field::new();
    for (i, spec) in densest.config.devices.iter().enumerate() {
        field.insert(DeviceId::new(i as u32), spec.mobility.clone());
    }
    let n = densest.config.devices.len() as u64;
    let radius = densest.config.stack.d2d.range_m;
    let mut rng = SimRng::seed_from(seed);
    let (mut advance, mut query) = (Vec::new(), Vec::new());
    for step in 1..=STEPS {
        let t = Instant::now();
        field.advance_to(SimTime::from_secs(step), &mut rng);
        advance.push(t.elapsed().as_secs_f64() * 1e6);
        let device = DeviceId::new((step * 7919 % n) as u32);
        let t = Instant::now();
        let near = field.neighbours_within(device, radius);
        query.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(near);
    }
    MobilityProbe {
        advance_us: median(&mut advance),
        query_us: median(&mut query),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
