//! Property tests for mobility invariants.

use std::collections::BTreeMap;

use hbr_mobility::model::Bounds;
use hbr_mobility::{Field, Mobility, PathLoss, Position};
use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// A field that steps every track on every advance — what [`Field`]
/// did before it skipped stationary tracks, and the bytes its snapshot
/// wrote then.
struct SteppingEveryTrack {
    tracks: BTreeMap<DeviceId, Mobility>,
    now: SimTime,
}

impl SteppingEveryTrack {
    fn advance_to(&mut self, now: SimTime, rng: &mut SimRng) {
        if now <= self.now {
            return;
        }
        for mobility in self.tracks.values_mut() {
            mobility.advance_to(now, rng);
        }
        self.now = now;
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.tracks.snap(&mut w);
        self.now.snap(&mut w);
        w.into_bytes()
    }
}

fn field_snapshot(field: &Field) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    field.snap(&mut w);
    w.into_bytes()
}

/// One of the track kinds a field holds, built at `(x, y)` inside a
/// 100 m square; `now` lets some start mid-run, ahead of or behind the
/// field clock.
fn track(model: u8, x: f64, y: f64, now: SimTime) -> Mobility {
    let start = Position::new(x, y);
    let area = Bounds::square(100.0);
    match model {
        0 => Mobility::stationary(start),
        1 => Mobility::stationary(start).started_at(now + SimDuration::from_secs(7)),
        2 => Mobility::stationary(start).started_at(now),
        3 => Mobility::random_waypoint(start, area, 0.5, 1.5, 4.0),
        4 => {
            Mobility::linear_bounded(start, (x / 50.0 - 1.0, 1.0 - y / 50.0), area).started_at(now)
        }
        _ => Mobility::waypoint_path(
            start,
            vec![
                (Position::new(y, x), 1.2, 3.0),
                (Position::new(50.0, 50.0), 0.8, 0.0),
            ],
        ),
    }
}

proptest! {
    /// Random-waypoint devices never leave their bounds, whatever the
    /// sequence of advance instants.
    #[test]
    fn waypoint_confined(
        seed in any::<u64>(),
        steps in proptest::collection::vec(1u64..600, 1..60),
    ) {
        let bounds = Bounds::square(80.0);
        let mut m = Mobility::random_waypoint(
            Position::new(40.0, 40.0), bounds, 0.5, 1.5, 10.0,
        );
        let mut rng = SimRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        for s in steps {
            t += hbr_sim::SimDuration::from_secs(s);
            m.advance_to(t, &mut rng);
            prop_assert!(bounds.contains(m.position()));
        }
    }

    /// Total displacement never exceeds max speed × elapsed time.
    #[test]
    fn speed_limit_respected(seed in any::<u64>(), secs in 1u64..2000) {
        let start = Position::new(50.0, 50.0);
        let max_speed = 1.5;
        let mut m = Mobility::random_waypoint(
            start, Bounds::square(100.0), 0.5, max_speed, 0.0,
        );
        let mut rng = SimRng::seed_from(seed);
        m.advance_to(SimTime::from_secs(secs), &mut rng);
        let travelled = m.position().distance_to(start);
        prop_assert!(travelled <= max_speed * secs as f64 + 1e-6);
    }

    /// Distance estimation from a clean RSSI is exact for any geometry.
    #[test]
    fn rssi_inversion_exact(d in 1.0f64..400.0) {
        let ch = PathLoss::indoor_wifi();
        let est = ch.estimate_distance(ch.rssi_at(d));
        prop_assert!((est - d).abs() / d < 1e-9);
    }

    /// Neighbour lists are sorted by distance and contain only in-range ids.
    #[test]
    fn neighbours_sorted(points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..30)) {
        let field: Field = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (DeviceId::new(i as u32), Mobility::stationary(Position::new(x, y))))
            .collect();
        let centre = DeviceId::new(0);
        let radius = 40.0;
        let ns = field.neighbours_within(centre, radius);
        let mut last = 0.0;
        for (id, d) in &ns {
            prop_assert!(*id != centre);
            prop_assert!(*d <= radius);
            prop_assert!(*d >= last);
            last = *d;
        }
    }

    /// The grid-indexed `neighbours_within` is exactly the brute-force
    /// scan for any random cloud, query radius and centre — including
    /// after `advance_to` moves walkers (which drops the cached index
    /// for the next query to rebuild), and for untracked devices (both return nothing).
    #[test]
    fn grid_equals_scan(
        points in proptest::collection::vec((0.0f64..200.0, 0.0f64..200.0), 1..60),
        radius in 0.0f64..90.0,
        seed in any::<u64>(),
        advance_secs in 0u64..180,
    ) {
        let mut field: Field = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (DeviceId::new(i as u32), Mobility::stationary(Position::new(x, y))))
            .collect();
        // A walker and a drifting device so advancing genuinely moves
        // positions (stationary clouds would never exercise the rebuild).
        let walker = DeviceId::new(10_000);
        field.insert(
            walker,
            Mobility::random_waypoint(Position::new(100.0, 100.0), Bounds::square(200.0), 0.5, 1.5, 5.0),
        );
        field.insert(DeviceId::new(10_001), Mobility::linear(Position::new(0.0, 0.0), (1.3, 0.7)));
        if advance_secs > 0 {
            let mut rng = SimRng::seed_from(seed);
            field.advance_to(SimTime::from_secs(advance_secs), &mut rng);
        }
        for i in 0..points.len() {
            let id = DeviceId::new(i as u32);
            prop_assert_eq!(
                field.neighbours_within(id, radius),
                field.neighbours_within_scan(id, radius)
            );
        }
        prop_assert_eq!(
            field.neighbours_within(walker, radius),
            field.neighbours_within_scan(walker, radius)
        );
        // Untracked devices: both paths agree on "no neighbours".
        let untracked = DeviceId::new(99_999);
        prop_assert!(field.neighbours_within(untracked, radius).is_empty());
        prop_assert!(field.neighbours_within_scan(untracked, radius).is_empty());
    }

    /// Exact-tie distances (lattice clouds put many devices at equal
    /// range) break by ascending id identically in both paths, and the
    /// grid honours a radius far smaller or larger than its cell.
    #[test]
    fn grid_tie_breaking_matches_scan(
        n in 2usize..30,
        radius in 0.0f64..12.0,
    ) {
        // A 3×3-spaced lattice with duplicated cells: ids i and i+n sit
        // on the same point, so every distance appears at least twice.
        let field: Field = (0..2 * n)
            .map(|i| {
                let k = i % n;
                let pos = Position::new((k % 3) as f64 * 3.0, ((k / 3) % 3) as f64 * 3.0);
                (DeviceId::new(i as u32), Mobility::stationary(pos))
            })
            .collect();
        for i in 0..2 * n {
            let id = DeviceId::new(i as u32);
            let grid = field.neighbours_within(id, radius);
            prop_assert_eq!(&grid, &field.neighbours_within_scan(id, radius));
            // Ties are ordered by id: any equal-distance run ascends.
            for w in grid.windows(2) {
                if w[0].1 == w[1].1 {
                    prop_assert!(w[0].0 < w[1].0);
                }
            }
        }
    }

    /// Skipping stationary tracks is invisible: under any sequence of
    /// inserts, removals, advances and snapshot round trips over mixed
    /// track kinds, the field agrees with one that steps every track on
    /// every position, every removed track, its snapshot bytes and the
    /// shared RNG's next draw — and its grid still answers exactly as
    /// the scan does.
    #[test]
    fn skipping_stationary_tracks_is_invisible(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..6, 0u32..10, 0u64..90, 0u8..6, 0.0f64..100.0, 0.0f64..100.0),
            1..40,
        ),
    ) {
        let mut field = Field::new();
        let mut reference = SteppingEveryTrack { tracks: BTreeMap::new(), now: SimTime::ZERO };
        let mut rng = SimRng::seed_from(seed);
        let mut reference_rng = SimRng::seed_from(seed);
        for (op, id, secs, model, x, y) in ops {
            let id = DeviceId::new(id);
            match op {
                0 | 1 => {
                    let mobility = track(model, x, y, field.now());
                    field.insert(id, mobility.clone());
                    reference.tracks.insert(id, mobility);
                }
                2 => prop_assert_eq!(field.remove(id), reference.tracks.remove(&id)),
                3 | 4 => {
                    let to = field.now() + SimDuration::from_secs(secs);
                    field.advance_to(to, &mut rng);
                    reference.advance_to(to, &mut reference_rng);
                    prop_assert_eq!(rng.unit(), reference_rng.unit());
                }
                _ => {
                    let bytes = field_snapshot(&field);
                    field = Field::unsnap(&mut SnapshotReader::new(&bytes)).expect("field round-trips");
                }
            }
            prop_assert_eq!(field.now(), reference.now);
            let positions: Vec<_> = field.iter().collect();
            let expected: Vec<_> = reference.tracks.iter().map(|(id, m)| (*id, m.position())).collect();
            prop_assert_eq!(positions, expected);
            prop_assert_eq!(field_snapshot(&field), reference.snapshot());
            for (id, _) in field.iter() {
                prop_assert_eq!(field.neighbours_within(id, 30.0), field.neighbours_within_scan(id, 30.0));
            }
        }
        prop_assert_eq!(rng.unit(), reference_rng.unit());
    }
}
