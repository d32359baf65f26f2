//! The deployment field: every device's mobility track in one place.

use std::cell::RefCell;
use std::collections::BTreeMap;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{DeviceId, SimRng, SimTime};

use crate::grid::SpatialGrid;
use crate::model::Mobility;
use crate::position::Position;

/// Tracks the mobility model of every device and answers position,
/// distance and neighbourhood queries at the current simulation time.
///
/// Devices are stored in a `BTreeMap` so iteration order (and therefore
/// any randomness consumed while advancing models) is deterministic.
///
/// Advancing costs O(moving tracks), not O(tracks): stationary tracks
/// are never stepped. Stepping one would only move its `updated_at` up
/// to the field clock, so the field supplies that clock instead wherever
/// a track leaves it ([`remove`](Field::remove) and snapshots), and the
/// result is exactly what stepping every track would have produced.
///
/// # Examples
///
/// ```
/// use hbr_mobility::{Field, Mobility, Position};
/// use hbr_sim::{DeviceId, SimRng, SimTime};
///
/// let mut field = Field::new();
/// field.insert(DeviceId::new(0), Mobility::stationary(Position::ORIGIN));
/// field.insert(DeviceId::new(1), Mobility::stationary(Position::new(6.0, 8.0)));
/// field.insert(DeviceId::new(2), Mobility::stationary(Position::new(100.0, 0.0)));
///
/// let near = field.neighbours_within(DeviceId::new(0), 20.0);
/// assert_eq!(near, vec![(DeviceId::new(1), 10.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Field {
    tracks: BTreeMap<DeviceId, Mobility>,
    /// The tracks [`advance_to`](Field::advance_to) steps, ascending by
    /// id so the shared RNG is drawn in the same order as stepping every
    /// track: each moving track, plus each stationary track inserted
    /// behind the field clock, whose `updated_at` must stay put until
    /// the next advance. Derived state, rebuilt on restore.
    steppers: Vec<DeviceId>,
    now: SimTime,
    /// Spatial index over current positions, built lazily on the first
    /// neighbourhood query and dropped when a position changes. Interior
    /// mutability lets read-only queries populate the cache.
    grid: RefCell<Option<SpatialGrid>>,
    /// Tracks stepped by every advance so far (not serialised).
    tracks_advanced: u64,
}

impl Field {
    /// Creates an empty field at time zero.
    pub fn new() -> Self {
        Field::default()
    }

    /// `true` if [`advance_to`](Field::advance_to) has to step
    /// `mobility`: it moves, or it is a stationary track behind the
    /// field clock (see `steppers`).
    fn steps(&self, mobility: &Mobility) -> bool {
        !mobility.is_stationary() || mobility.updated_at() < self.now
    }

    /// `mobility` (tracked as `device`) as stepping it through every
    /// advance would have left it. Only a stationary track that is not
    /// stepped can lag: its clock follows the field's.
    fn settled(&self, device: DeviceId, mobility: &Mobility) -> Option<Mobility> {
        (mobility.is_stationary()
            && mobility.updated_at() < self.now
            && self.steppers.binary_search(&device).is_err())
        .then(|| Mobility::stationary(mobility.position()).started_at(self.now))
    }

    /// Registers (or replaces) the mobility model for `device`.
    pub fn insert(&mut self, device: DeviceId, mobility: Mobility) {
        match (self.steppers.binary_search(&device), self.steps(&mobility)) {
            (Err(at), true) => self.steppers.insert(at, device),
            (Ok(at), false) => {
                self.steppers.remove(at);
            }
            _ => {}
        }
        self.tracks.insert(device, mobility);
        *self.grid.get_mut() = None;
    }

    /// Removes a device's track, returning it if present — as stepping
    /// it through every advance so far would have left it.
    pub fn remove(&mut self, device: DeviceId) -> Option<Mobility> {
        let removed = self.tracks.remove(&device)?;
        let removed = self.settled(device, &removed).unwrap_or(removed);
        if let Ok(at) = self.steppers.binary_search(&device) {
            self.steppers.remove(at);
        }
        *self.grid.get_mut() = None;
        Some(removed)
    }

    /// Number of tracked devices.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// `true` if no devices are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The instant the field was last advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// How many tracks every [`advance_to`](Field::advance_to) so far
    /// has stepped — a deterministic work count (stationary tracks are
    /// never stepped). Not serialised: a restored field counts from zero.
    pub fn tracks_advanced(&self) -> u64 {
        self.tracks_advanced
    }

    /// Advances every device's mobility model to `now`. Instants at or
    /// before the current field time are no-ops — the field never rewinds.
    ///
    /// Steps only the moving tracks, in id order, so the randomness
    /// drawn from `rng` is exactly that of stepping every track.
    pub fn advance_to(&mut self, now: SimTime, rng: &mut SimRng) {
        if now <= self.now {
            return;
        }
        let tracks = &mut self.tracks;
        self.tracks_advanced += self.steppers.len() as u64;
        // A stationary track is stepped once, then left to the field clock.
        self.steppers.retain(|id| {
            let mobility = tracks.get_mut(id).expect("every stepper is tracked");
            mobility.advance_to(now, rng);
            !mobility.is_stationary()
        });
        self.now = now;
        if !self.steppers.is_empty() {
            // Moving tracks remain, so positions may have changed.
            *self.grid.get_mut() = None;
        }
    }

    /// The position of `device` as of the last advance, if it is tracked.
    pub fn position(&self, device: DeviceId) -> Option<Position> {
        self.tracks.get(&device).map(Mobility::position)
    }

    /// Distance in metres between two tracked devices.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> Option<f64> {
        Some(self.position(a)?.distance_to(self.position(b)?))
    }

    /// All other devices within `radius` metres of `device`, sorted by
    /// ascending distance (ties broken by device id for determinism).
    /// Returns an empty vector if `device` is not tracked.
    ///
    /// Answered from a uniform-grid [`SpatialGrid`] index built lazily
    /// over the current positions and cached until a position changes
    /// (an [`advance_to`](Field::advance_to) that moves a track, an
    /// [`insert`](Field::insert) or a [`remove`](Field::remove)), so a
    /// detection sweep over the whole field costs O(n · local density)
    /// instead of O(n²). The result is identical to
    /// [`neighbours_within_scan`](Field::neighbours_within_scan).
    pub fn neighbours_within(&self, device: DeviceId, radius: f64) -> Vec<(DeviceId, f64)> {
        let Some(centre) = self.position(device) else {
            return Vec::new();
        };
        if radius.is_nan() || radius < 0.0 {
            return Vec::new();
        }
        if radius.is_infinite() {
            // An unbounded query touches everything anyway; the grid
            // cannot help.
            return self.neighbours_within_scan(device, radius);
        }
        let mut cache = self.grid.borrow_mut();
        // Cells far narrower or wider than the query radius degrade the
        // scan back towards O(n); resize when out of proportion. A
        // caller querying one radius builds only after positions change.
        let unsuitable = |g: &SpatialGrid| {
            radius > 0.0 && (g.cell_m() < radius / 8.0 || g.cell_m() > radius * 8.0)
        };
        if cache.as_ref().is_none_or(unsuitable) {
            *cache = Some(SpatialGrid::build(
                radius.max(1.0),
                self.tracks.iter().map(|(id, m)| (*id, m.position())),
            ));
        }
        cache
            .as_ref()
            .expect("grid cache was just populated")
            .neighbours_within(device, centre, radius)
    }

    /// Reference implementation of [`neighbours_within`](Field::neighbours_within)
    /// as a full linear scan. Kept for equivalence tests and as the
    /// baseline the `bench_neighbours` bench measures the grid against.
    pub fn neighbours_within_scan(&self, device: DeviceId, radius: f64) -> Vec<(DeviceId, f64)> {
        let Some(centre) = self.position(device) else {
            return Vec::new();
        };
        let mut out: Vec<(DeviceId, f64)> = self
            .tracks
            .iter()
            .filter(|(id, _)| **id != device)
            .map(|(id, m)| (*id, centre.distance_to(m.position())))
            .filter(|(_, d)| *d <= radius)
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterates over `(device, position)` pairs in device-id order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, Position)> + '_ {
        self.tracks.iter().map(|(id, m)| (*id, m.position()))
    }
}

impl Snap for Field {
    /// The spatial-grid cache, the stepper list and the work counter are
    /// derived state: none is serialised. Each track is written as
    /// stepping it through every advance would have left it, so the
    /// bytes do not depend on which tracks the field skips.
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.tracks.len());
        for (id, mobility) in &self.tracks {
            id.snap(w);
            match self.settled(*id, mobility) {
                Some(settled) => settled.snap(w),
                None => mobility.snap(w),
            }
        }
        self.now.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut field = Field {
            tracks: BTreeMap::unsnap(r)?,
            now: SimTime::unsnap(r)?,
            ..Field::default()
        };
        field.steppers = field
            .tracks
            .iter()
            .filter(|(_, mobility)| field.steps(mobility))
            .map(|(id, _)| *id)
            .collect();
        Ok(field)
    }
}

impl Extend<(DeviceId, Mobility)> for Field {
    fn extend<T: IntoIterator<Item = (DeviceId, Mobility)>>(&mut self, iter: T) {
        for (id, m) in iter {
            self.insert(id, m);
        }
    }
}

impl FromIterator<(DeviceId, Mobility)> for Field {
    fn from_iter<T: IntoIterator<Item = (DeviceId, Mobility)>>(iter: T) -> Self {
        let mut f = Field::new();
        f.extend(iter);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId::new(i)
    }

    fn static_field(positions: &[(u32, f64, f64)]) -> Field {
        positions
            .iter()
            .map(|&(i, x, y)| (dev(i), Mobility::stationary(Position::new(x, y))))
            .collect()
    }

    #[test]
    fn positions_and_distances() {
        let field = static_field(&[(0, 0.0, 0.0), (1, 3.0, 4.0)]);
        assert_eq!(field.position(dev(0)), Some(Position::ORIGIN));
        assert_eq!(field.distance(dev(0), dev(1)), Some(5.0));
        assert_eq!(field.distance(dev(0), dev(9)), None);
        assert_eq!(field.position(dev(9)), None);
    }

    #[test]
    fn neighbours_sorted_and_filtered() {
        let field = static_field(&[
            (0, 0.0, 0.0),
            (1, 10.0, 0.0),
            (2, 5.0, 0.0),
            (3, 100.0, 0.0),
        ]);
        let n = field.neighbours_within(dev(0), 20.0);
        assert_eq!(n, vec![(dev(2), 5.0), (dev(1), 10.0)]);
        assert!(field.neighbours_within(dev(9), 20.0).is_empty());
    }

    #[test]
    fn neighbour_ties_break_by_id() {
        let field = static_field(&[(0, 0.0, 0.0), (2, 1.0, 0.0), (1, -1.0, 0.0)]);
        let n = field.neighbours_within(dev(0), 5.0);
        assert_eq!(n, vec![(dev(1), 1.0), (dev(2), 1.0)]);
    }

    #[test]
    fn advance_moves_walkers() {
        let mut field = Field::new();
        field.insert(dev(0), Mobility::linear(Position::ORIGIN, (1.0, 0.0)));
        field.insert(dev(1), Mobility::stationary(Position::new(50.0, 0.0)));
        let mut rng = SimRng::seed_from(1);
        field.advance_to(SimTime::from_secs(30), &mut rng);
        assert_eq!(field.position(dev(0)), Some(Position::new(30.0, 0.0)));
        assert_eq!(field.distance(dev(0), dev(1)), Some(20.0));
        assert_eq!(field.now(), SimTime::from_secs(30));
    }

    #[test]
    fn advance_steps_only_the_walkers() {
        let bounds = crate::model::Bounds::square(200.0);
        let mut field: Field = (0..200)
            .map(|i| {
                let start = Position::new(f64::from(i), 100.0);
                let mobility = if i % 10 == 0 {
                    Mobility::random_waypoint(start, bounds, 0.5, 1.5, 10.0)
                } else {
                    Mobility::stationary(start)
                };
                (dev(i), mobility)
            })
            .collect();
        let mut rng = SimRng::seed_from(5);
        field.advance_to(SimTime::from_secs(1), &mut rng);
        assert_eq!(field.tracks_advanced(), 20);
        // A no-op advance steps nothing.
        field.advance_to(SimTime::from_secs(1), &mut rng);
        assert_eq!(field.tracks_advanced(), 20);
    }

    #[test]
    fn remove_and_len() {
        let mut field = static_field(&[(0, 0.0, 0.0), (1, 1.0, 1.0)]);
        assert_eq!(field.len(), 2);
        assert!(field.remove(dev(0)).is_some());
        assert!(field.remove(dev(0)).is_none());
        assert_eq!(field.len(), 1);
        assert!(!field.is_empty());
    }

    #[test]
    fn grid_and_scan_agree_across_mutations() {
        let mut field = static_field(&[(0, 0.0, 0.0), (1, 3.0, 0.0), (2, 9.0, 9.0)]);
        field.insert(
            dev(3),
            Mobility::linear(Position::new(20.0, 0.0), (-1.0, 0.0)),
        );
        for radius in [0.0, 2.0, 10.0, 50.0] {
            assert_eq!(
                field.neighbours_within(dev(0), radius),
                field.neighbours_within_scan(dev(0), radius),
                "radius {radius} before advancing"
            );
        }
        // Moving devices must invalidate (and rebuild) the cached index.
        let mut rng = SimRng::seed_from(4);
        field.advance_to(SimTime::from_secs(15), &mut rng);
        assert_eq!(
            field.neighbours_within(dev(0), 10.0),
            field.neighbours_within_scan(dev(0), 10.0),
        );
        assert!(field
            .neighbours_within(dev(0), 10.0)
            .iter()
            .any(|&(id, _)| id == dev(3)));
        // So must removal.
        field.remove(dev(1));
        assert_eq!(
            field.neighbours_within(dev(0), 10.0),
            field.neighbours_within_scan(dev(0), 10.0),
        );
    }

    #[test]
    fn degenerate_radii_are_safe() {
        let field = static_field(&[(0, 0.0, 0.0), (1, 1.0, 0.0)]);
        assert!(field.neighbours_within(dev(0), f64::NAN).is_empty());
        assert!(field.neighbours_within(dev(0), -1.0).is_empty());
        assert_eq!(field.neighbours_within(dev(0), f64::INFINITY).len(), 1);
    }

    #[test]
    fn iter_is_in_id_order() {
        let field = static_field(&[(2, 0.0, 0.0), (0, 1.0, 0.0), (1, 2.0, 0.0)]);
        let ids: Vec<_> = field.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
