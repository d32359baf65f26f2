//! Base-station-side aggregation: the operator's view of signaling load.
//!
//! §II-B: the operator's control channel has finite capacity, and massive
//! heartbeat-driven signaling "greatly deteriorates user experience …,
//! such as higher rate of paging failure". [`BaseStation`] collects every
//! radio's layer-3 activity and exposes the load and congestion metrics
//! the motivation section describes.

use hbr_sim::snap_struct;
use hbr_sim::{DeviceId, SimTime};
use serde::{Deserialize, Serialize};

use crate::l3::SignalingCapture;
use crate::radio::RadioActivity;

/// One cell's control-plane bookkeeping.
///
/// # Examples
///
/// ```
/// use hbr_cellular::{BaseStation, CellularRadio, RrcConfig};
/// use hbr_sim::{DeviceId, SimTime};
///
/// let mut bs = BaseStation::new(100.0);
/// let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
/// let out = radio.transmit(SimTime::ZERO, 74);
/// bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
/// assert_eq!(bs.rrc_connections(), 1);
/// assert_eq!(bs.total_l3(), 5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaseStation {
    capture: SignalingCapture,
    rrc_connections: u64,
    /// Control-channel capacity in layer-3 messages per second.
    capacity_msgs_per_sec: f64,
}

impl BaseStation {
    /// Creates a base station whose control channel saturates at
    /// `capacity_msgs_per_sec` layer-3 messages per second.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive and finite.
    pub fn new(capacity_msgs_per_sec: f64) -> Self {
        assert!(
            capacity_msgs_per_sec.is_finite() && capacity_msgs_per_sec > 0.0,
            "control-channel capacity must be positive"
        );
        BaseStation {
            capture: SignalingCapture::new(),
            rrc_connections: 0,
            capacity_msgs_per_sec,
        }
    }

    /// A base station that keeps only aggregate counters (total layer-3
    /// messages, RRC connections), dropping the per-message capture log.
    /// The crowd engine's cells use this; see [`SignalingCapture::compact`].
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive and finite.
    pub fn compact(capacity_msgs_per_sec: f64) -> Self {
        let mut bs = BaseStation::new(capacity_msgs_per_sec);
        bs.capture = SignalingCapture::compact();
        bs
    }

    /// Records one radio's activity burst at the cell.
    pub fn record(&mut self, device: DeviceId, activity: &RadioActivity, new_connections: u32) {
        self.capture
            .record_all(device, activity.messages.iter().copied());
        self.rrc_connections += u64::from(new_connections);
    }

    /// The layer-3 capture log (the NetOptiMaster trace).
    pub fn capture(&self) -> &SignalingCapture {
        &self.capture
    }

    /// Total layer-3 messages seen by this cell.
    pub fn total_l3(&self) -> u64 {
        self.capture.total()
    }

    /// Total RRC connections established at this cell.
    pub fn rrc_connections(&self) -> u64 {
        self.rrc_connections
    }

    /// Signaling load (messages per second) over a window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or reversed.
    pub fn load(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to
            .checked_since(from)
            .expect("load window must not be reversed");
        assert!(!span.is_zero(), "load window must be non-empty");
        self.capture.count_between(from, to) as f64 / span.as_secs_f64()
    }

    /// The devices generating the most signaling, as `(device, count)`
    /// rows sorted descending — the operator's "who is storming my
    /// control channel" view.
    pub fn top_talkers(&self, limit: usize) -> Vec<(DeviceId, u64)> {
        let mut counts: std::collections::BTreeMap<DeviceId, u64> = Default::default();
        for e in self.capture.entries() {
            *counts.entry(e.device).or_insert(0) += 1;
        }
        let mut rows: Vec<(DeviceId, u64)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(limit);
        rows
    }

    /// Paging failure probability as a function of window load: zero up
    /// to 70% of capacity, then rising linearly to 1.0 at twice capacity —
    /// the "degraded network performance" regime of §II-B.
    pub fn paging_failure_probability(&self, from: SimTime, to: SimTime) -> f64 {
        let load = self.load(from, to);
        let knee = 0.7 * self.capacity_msgs_per_sec;
        let ceiling = 2.0 * self.capacity_msgs_per_sec;
        if load <= knee {
            0.0
        } else {
            ((load - knee) / (ceiling - knee)).min(1.0)
        }
    }
}

snap_struct!(BaseStation { capture, rrc_connections, capacity_msgs_per_sec }
    reject |bs| !(bs.capacity_msgs_per_sec.is_finite() && bs.capacity_msgs_per_sec > 0.0)
        => format!("control-channel capacity {}", bs.capacity_msgs_per_sec));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RrcConfig;
    use crate::radio::CellularRadio;
    use hbr_sim::SimDuration;

    fn one_heartbeat_cell() -> BaseStation {
        let mut bs = BaseStation::new(100.0);
        let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
        let out = radio.transmit(SimTime::ZERO, 74);
        bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
        let tail = radio.finalize(SimTime::from_secs(60));
        bs.record(DeviceId::new(0), &tail, 0);
        bs
    }

    #[test]
    fn full_cycle_counts_eight() {
        let bs = one_heartbeat_cell();
        assert_eq!(bs.total_l3(), 8);
        assert_eq!(bs.rrc_connections(), 1);
    }

    #[test]
    fn load_is_messages_per_second() {
        let bs = one_heartbeat_cell();
        let load = bs.load(SimTime::ZERO, SimTime::from_secs(80));
        assert!((load - 8.0 / 80.0).abs() < 1e-9);
    }

    #[test]
    fn paging_failure_kicks_in_past_the_knee() {
        let mut bs = BaseStation::new(0.5); // capacity: 0.5 msg/s
        let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
        // Hammer the cell: 50 back-to-back heartbeat cycles ≈ 1 msg/s.
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            let out = radio.transmit(t, 74);
            bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
            t = out.delivered_at + SimDuration::from_secs(6); // full release
            let tail = radio.advance(t);
            bs.record(DeviceId::new(0), &tail, 0);
        }
        let p = bs.paging_failure_probability(SimTime::ZERO, t);
        assert!(p > 0.5, "overloaded cell should page-fail often, got {p}");

        let quiet = one_heartbeat_cell();
        assert_eq!(
            quiet.paging_failure_probability(SimTime::ZERO, SimTime::from_secs(3600)),
            0.0
        );
    }

    #[test]
    fn top_talkers_ranks_devices() {
        let mut bs = BaseStation::new(100.0);
        for (dev, cycles) in [(0u32, 3usize), (1, 1), (2, 2)] {
            let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
            let mut t = SimTime::ZERO;
            for _ in 0..cycles {
                let out = radio.transmit(t, 74);
                bs.record(DeviceId::new(dev), &out.activity, out.rrc_connections);
                t = out.delivered_at + SimDuration::from_secs(10);
                bs.record(DeviceId::new(dev), &radio.advance(t), 0);
            }
        }
        let top = bs.top_talkers(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, DeviceId::new(0));
        assert_eq!(top[1].0, DeviceId::new(2));
        assert!(top[0].1 > top[1].1);
        assert!(bs.top_talkers(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_load_window_panics() {
        one_heartbeat_cell().load(SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        BaseStation::new(0.0);
    }
}
