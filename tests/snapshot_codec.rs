//! Codec goldens: the exact bytes the snapshot codec writes, pinned
//! independently of how the codec is implemented.
//!
//! `snapshot_format` pins one crowd checkpoint, but its run has no
//! trace ring, no pushes, no battery and only two of the fault kinds,
//! so whole branches of the codec never reach its hash. The tests here
//! close that gap:
//!
//! - a *maximal* scenario snapshot — trace ring, pushes, batteries,
//!   every fault kind, every mobility kind, telemetry, spans and
//!   reliable delivery — hashed and pinned;
//! - the golden bytes of one value of every variant of every public
//!   snapshotted enum (the private ones, `world::Event` and the
//!   invariant checker's heartbeat fate, are pinned by unit tests next
//!   to them).
//!
//! Round-trip tests cannot catch a layout change made symmetrically to
//! both directions; these can. A last test feeds every post-read check
//! of the codec the input it exists to refuse. A change here is a wire-format change:
//! bump `FORMAT_VERSION` and re-pin `snapshot_format` with it.

use d2d_heartbeat::apps::{AppProfile, HeartbeatSchedule, ImServer};
use d2d_heartbeat::cellular::{BaseStation, L3Message, RrcState};
use d2d_heartbeat::core::world::{DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::core::{BackoffPolicy, DeliveryState, FeedbackTracker, MessageScheduler};
use d2d_heartbeat::d2d::LinkState;
use d2d_heartbeat::energy::{Battery, MicroAmpHours, MilliAmps, Phase};
use d2d_heartbeat::mobility::{Bounds, Mobility, Position};
use d2d_heartbeat::sim::fault::FaultKind;
use d2d_heartbeat::sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use d2d_heartbeat::sim::telemetry::{Histogram, TelemetryEvent};
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime, Tracer};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A scenario that reaches every branch of the scenario codec.
fn maximal_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::new(SimDuration::from_secs(3 * 3600), 2017);
    config.mode = Mode::D2dFramework;
    config.trace_capacity = 64;
    config.push_interval = Some(SimDuration::from_secs(600));
    config.telemetry = true;
    config.spans = true;
    config.reliable_delivery = true;
    // The checker's ledger is part of the bytes and its default differs
    // between debug and release builds: pin it on.
    config.check_invariants = Some(true);

    let area = Bounds::new(Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let apps = vec![AppProfile::wechat(), AppProfile::qq()];
    let mut add = |role: Role, mobility: Mobility, battery_mah: Option<f64>| {
        config.add_device(DeviceSpec {
            role,
            apps: apps.clone(),
            mobility,
            battery_mah,
        });
    };
    // Relays: a battery-powered stationary one and a walker.
    add(
        Role::Relay,
        Mobility::stationary(Position::new(20.0, 20.0)),
        Some(3000.0),
    );
    add(
        Role::Relay,
        Mobility::random_waypoint(Position::new(40.0, 40.0), area, 0.5, 1.5, 30.0),
        None,
    );
    add(
        Role::Relay,
        Mobility::stationary(Position::new(45.0, 15.0)),
        None,
    );
    // UEs: one per mobility kind, plus stationary ones on batteries.
    add(
        Role::Ue,
        Mobility::stationary(Position::new(22.0, 18.0)),
        Some(2500.0),
    );
    add(
        Role::Ue,
        Mobility::random_waypoint(Position::new(30.0, 30.0), area, 0.5, 1.2, 60.0),
        None,
    );
    add(
        Role::Ue,
        Mobility::linear(Position::new(10.0, 10.0), (0.002, 0.001)),
        None,
    );
    add(
        Role::Ue,
        Mobility::linear_bounded(Position::new(35.0, 35.0), (0.3, -0.2), area),
        None,
    );
    add(
        Role::Ue,
        Mobility::waypoint_path(
            Position::new(5.0, 50.0),
            vec![
                (Position::new(25.0, 45.0), 0.01, 120.0),
                (Position::new(50.0, 50.0), 0.02, 0.0),
            ],
        ),
        None,
    );
    add(
        Role::Ue,
        Mobility::stationary(Position::new(43.0, 17.0)),
        Some(2000.0),
    );
    add(
        Role::Ue,
        Mobility::stationary(Position::new(41.0, 38.0)),
        None,
    );

    // Every fault kind; the late ones are still open at the snapshot.
    let faults = [
        (
            900,
            FaultKind::LinkDrop {
                device: DeviceId::new(3),
                d2d_down_for: SimDuration::from_secs(300),
            },
        ),
        (
            1_200,
            FaultKind::RelayDeparture {
                device: DeviceId::new(2),
                rejoin_after: Some(SimDuration::from_secs(900)),
            },
        ),
        (
            1_800,
            FaultKind::DiscoveryBlackout {
                duration: SimDuration::from_secs(90),
            },
        ),
        (
            2_400,
            FaultKind::BoundaryChurn {
                device: DeviceId::new(9),
                half_span_m: 8.0,
                speed_mps: 1.0,
            },
        ),
        (
            4_800,
            FaultKind::CellularOutage {
                duration: SimDuration::from_secs(900),
            },
        ),
        (
            5_000,
            FaultKind::LinkDegrade {
                device: DeviceId::new(8),
                extra_loss: 0.5,
                duration: SimDuration::from_secs(1_200),
            },
        ),
        (
            5_100,
            FaultKind::PayloadLoss {
                device: DeviceId::new(3),
                probability: 0.25,
                duration: SimDuration::from_secs(1_200),
            },
        ),
    ];
    for (at, kind) in faults {
        config.faults.schedule(SimTime::from_secs(at), kind);
    }
    config
}

#[test]
fn maximal_scenario_snapshot_is_pinned() {
    let config = maximal_config();
    let mut world = Scenario::new(config.clone());
    world.run_until(SimTime::from_secs(5_400));
    let bytes = world.snapshot();

    // The snapshot must restore and re-serialize to itself.
    let restored = Scenario::restore(config, &bytes).expect("restore");
    assert_eq!(restored.snapshot(), bytes, "restore is lossless");

    // The snapshot really holds what makes it maximal.
    let report = world.complete();
    let mut kinds: Vec<&str> = report.events.iter().map(|r| r.event.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut faults: Vec<&str> = report
        .events
        .iter()
        .filter_map(|r| match r.event {
            TelemetryEvent::FaultInjected { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    faults.sort_unstable();
    faults.dedup();
    assert_eq!(
        kinds,
        ["depart", "energy", "fallback", "fault", "flush", "handover", "match", "retry", "rrc"]
    );
    assert_eq!(faults.len(), 7, "every fault kind fired: {faults:?}");
    assert!(report.trace_dropped > 0, "the trace ring wrapped");
    assert!(report.pushes_delivered > 0 && !report.spans.is_empty());
    assert!(report.delivery.is_some());

    let hash = fnv1a(&bytes);
    println!(
        "maximal snapshot hash: {hash:#018x} ({} bytes)",
        bytes.len()
    );
    assert_eq!(
        (hash, bytes.len()),
        (0xdfb5_b90a_ce27_30d9, 154_744),
        "the scenario snapshot bytes changed: a wire-format change needs \
         a FORMAT_VERSION bump and a re-pin of snapshot_format too"
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Encodes `value`, checks that it decodes back to an identical
/// encoding, and returns the bytes as hex.
fn golden<T: Snap>(value: &T) -> String {
    let mut w = SnapshotWriter::new();
    value.snap(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapshotReader::new(&bytes);
    let back = T::unsnap(&mut r).expect("golden value decodes");
    r.finish().expect("golden value is fully consumed");
    let mut again = SnapshotWriter::new();
    back.snap(&mut again);
    assert_eq!(again.into_bytes(), bytes, "decode/encode is lossless");
    hex(&bytes)
}

/// Compares the `(label, hex)` table against its pins; on a mismatch
/// prints the whole actual table in pin form.
fn check(actual: &[(&str, String)], pins: &[(&str, &str)]) {
    let same = actual.len() == pins.len()
        && actual
            .iter()
            .zip(pins)
            .all(|((label, hex), (pin_label, pin_hex))| label == pin_label && hex == pin_hex);
    let table: Vec<String> = actual
        .iter()
        .map(|(label, hex)| format!("(\"{label}\", \"{hex}\"),"))
        .collect();
    assert!(same, "golden bytes changed:\n{}", table.join("\n"));
}

#[test]
fn every_telemetry_event_variant_has_pinned_bytes() {
    let events = [
        TelemetryEvent::Flush {
            device: 7,
            reason: "capacity",
            buffered: 3,
            own: 1,
            bytes: 222,
        },
        TelemetryEvent::RrcTransition {
            device: 7,
            from: "IDLE",
            to: "DCH",
            dwell_secs: 1.5,
        },
        TelemetryEvent::RelayMatch {
            device: 7,
            relay: 2,
        },
        TelemetryEvent::RelayDepart {
            device: 7,
            relay: 2,
        },
        TelemetryEvent::Fallback {
            device: 7,
            cause: "no-relay",
            span: Some(9),
        },
        TelemetryEvent::Retry {
            device: 7,
            cause: "feedback-timeout",
            attempt: 2,
        },
        TelemetryEvent::Handover {
            device: 7,
            from_relay: 2,
            to_relay: 4,
        },
        TelemetryEvent::FaultInjected {
            index: 5,
            kind: "link-drop",
            device: Some(7),
        },
        TelemetryEvent::EnergyPhase {
            device: 7,
            group: "cellular",
            uah: 12.25,
        },
        TelemetryEvent::Migrate {
            device: 7,
            from_cell: 3,
            to_cell: 4,
        },
        TelemetryEvent::FleetPulse {
            epoch: 2,
            cells: 9,
            forwards: 10,
            fallbacks: 11,
            outage_queued: 12,
            l3: 13,
            delivered: 14,
            retries: 15,
            migrations: Some(16),
            lte_handovers: None,
        },
    ];
    let actual: Vec<(&str, String)> = events.iter().map(|e| (e.kind(), golden(e))).collect();
    check(
        &actual,
        &[
            ("flush", "00070000000800000000000000636170616369747903000000000000000100000000000000de00000000000000"),
            ("rrc", "0107000000040000000000000049444c450300000000000000444348000000000000f83f"),
            ("match", "020700000002000000"),
            ("depart", "030700000002000000"),
            ("fallback", "040700000008000000000000006e6f2d72656c6179010900000000000000"),
            ("retry", "05070000001000000000000000666565646261636b2d74696d656f757402000000"),
            ("handover", "06070000000200000004000000"),
            ("fault", "07050000000000000009000000000000006c696e6b2d64726f700107000000"),
            ("energy", "0807000000080000000000000063656c6c756c61720000000000802840"),
            ("migrate", "090700000003000000000000000400000000000000"),
            ("pulse", "0a02000000090000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f0000000000000001100000000000000000"),
        ],
    );
}

#[test]
fn every_fault_kind_variant_has_pinned_bytes() {
    let device = DeviceId::new(7);
    let kinds = [
        FaultKind::LinkDrop {
            device,
            d2d_down_for: SimDuration::from_secs(300),
        },
        FaultKind::LinkDegrade {
            device,
            extra_loss: 0.5,
            duration: SimDuration::from_secs(60),
        },
        FaultKind::RelayDeparture {
            device,
            rejoin_after: Some(SimDuration::from_secs(600)),
        },
        FaultKind::DiscoveryBlackout {
            duration: SimDuration::from_secs(90),
        },
        FaultKind::CellularOutage {
            duration: SimDuration::from_secs(120),
        },
        FaultKind::PayloadLoss {
            device,
            probability: 0.25,
            duration: SimDuration::from_secs(30),
        },
        FaultKind::BoundaryChurn {
            device,
            half_span_m: 8.0,
            speed_mps: 1.5,
        },
    ];
    let actual: Vec<(&str, String)> = kinds.iter().map(|k| (k.label(), golden(k))).collect();
    check(
        &actual,
        &[
            ("link-drop", "000700000000a3e11100000000"),
            ("link-degrade", "0107000000000000000000e03f0087930300000000"),
            ("relay-departure", "0207000000010046c32300000000"),
            ("discovery-blackout", "03804a5d0500000000"),
            ("cellular-outage", "04000e270700000000"),
            ("payload-loss", "0507000000000000000000d03f80c3c90100000000"),
            (
                "boundary-churn",
                "06070000000000000000002040000000000000f83f",
            ),
        ],
    );
}

#[test]
fn every_mobility_kind_has_pinned_bytes() {
    let area = Bounds::new(Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let kinds = [
        ("stationary", Mobility::stationary(Position::new(1.0, 2.0))),
        (
            "random-waypoint",
            Mobility::random_waypoint(Position::new(3.0, 4.0), area, 0.5, 1.5, 30.0),
        ),
        (
            "linear",
            Mobility::linear(Position::new(5.0, 6.0), (0.25, -0.5)),
        ),
        (
            "linear-bounded",
            Mobility::linear_bounded(Position::new(7.0, 8.0), (0.75, 1.0), area)
                .started_at(SimTime::from_secs(10)),
        ),
        (
            "path",
            Mobility::waypoint_path(
                Position::new(9.0, 10.0),
                vec![
                    (Position::new(11.0, 12.0), 1.25, 5.0),
                    (Position::new(13.0, 14.0), 0.5, 0.0),
                ],
            ),
        ),
    ];
    let actual: Vec<(&str, String)> = kinds.iter().map(|(label, m)| (*label, golden(m))).collect();
    check(
        &actual,
        &[
            ("stationary", "000000000000f03f0000000000000040000000000000000000"),
            ("random-waypoint", "00000000000008400000000000001040000000000000000001000000000000000000000000000000000000000000004e400000000000004e40000000000000e03f000000000000f83f0000000000003e40000000000000000000"),
            ("linear", "00000000000014400000000000001840000000000000000002000000000000d03f000000000000e0bf"),
            ("linear-bounded", "0000000000001c400000000000002040809698000000000003000000000000e83f000000000000f03f000000000000000000000000000000000000000000004e400000000000004e40"),
            ("path", "00000000000022400000000000002440000000000000000004020000000000000000000000000026400000000000002840000000000000f43f00000000000014400000000000002a400000000000002c40000000000000e03f000000000000000000000000000000000000000000000000"),
        ],
    );
}

#[test]
fn every_unit_enum_variant_has_pinned_bytes() {
    let mut actual: Vec<(&str, String)> = Vec::new();
    let link_states = [
        LinkState::Establishing {
            ready_at: SimTime::from_secs(3),
        },
        LinkState::Connected,
        LinkState::Closed,
    ];
    for state in &link_states {
        actual.push(("link state", golden(state)));
    }
    let rrc = [RrcState::Idle, RrcState::CellDch, RrcState::CellFach];
    for state in &rrc {
        actual.push(("rrc state", golden(state)));
    }
    for role in &[Role::Relay, Role::Ue] {
        actual.push(("role", golden(role)));
    }
    let modes = [Mode::D2dFramework, Mode::OriginalCellular];
    for mode in &modes {
        actual.push(("mode", golden(mode)));
    }
    let delivery = [
        DeliveryState::Sent,
        DeliveryState::D2dAcked,
        DeliveryState::FeedbackConfirmed,
    ];
    for state in &delivery {
        actual.push(("delivery state", golden(state)));
    }
    for phase in &Phase::ALL {
        actual.push(("phase", golden(phase)));
    }
    let l3 = [
        L3Message::RrcConnectionRequest,
        L3Message::RrcConnectionSetup,
        L3Message::RrcConnectionSetupComplete,
        L3Message::RadioBearerSetup,
        L3Message::RadioBearerSetupComplete,
        L3Message::RadioBearerReconfiguration,
        L3Message::TransportChannelReconfiguration,
        L3Message::CellUpdate,
        L3Message::CellUpdateConfirm,
        L3Message::RrcConnectionRelease,
        L3Message::RrcConnectionReleaseComplete,
        L3Message::PagingType1,
    ];
    for message in &l3 {
        actual.push(("l3 message", golden(message)));
    }
    check(
        &actual,
        &[
            ("link state", "00c0c62d0000000000"),
            ("link state", "01"),
            ("link state", "02"),
            ("rrc state", "00"),
            ("rrc state", "01"),
            ("rrc state", "02"),
            ("role", "00"),
            ("role", "01"),
            ("mode", "00"),
            ("mode", "01"),
            ("delivery state", "00"),
            ("delivery state", "01"),
            ("delivery state", "02"),
            ("phase", "00"),
            ("phase", "01"),
            ("phase", "02"),
            ("phase", "03"),
            ("phase", "04"),
            ("phase", "05"),
            ("phase", "06"),
            ("phase", "07"),
            ("phase", "08"),
            ("l3 message", "00"),
            ("l3 message", "01"),
            ("l3 message", "02"),
            ("l3 message", "03"),
            ("l3 message", "04"),
            ("l3 message", "05"),
            ("l3 message", "06"),
            ("l3 message", "07"),
            ("l3 message", "08"),
            ("l3 message", "09"),
            ("l3 message", "0a"),
            ("l3 message", "0b"),
        ],
    );
}

fn encode<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    value.snap(&mut w);
    w.into_bytes()
}

/// Decodes `bytes` as a `T` and returns the `Corrupt` reason.
fn refusal<T: Snap>(bytes: &[u8]) -> String {
    match T::unsnap(&mut SnapshotReader::new(bytes)) {
        Err(SnapshotError::Corrupt(why)) => why,
        Err(other) => panic!("expected a Corrupt error, got {other:?}"),
        Ok(_) => panic!("expected a Corrupt error, the value decoded"),
    }
}

/// `bytes` with the 8 bytes at `at` replaced by `value`.
fn patched(mut bytes: Vec<u8>, at: usize, value: [u8; 8]) -> Vec<u8> {
    bytes[at..at + 8].copy_from_slice(&value);
    bytes
}

#[test]
fn every_post_read_check_refuses_its_case() {
    let zero = 0u64.to_le_bytes();
    let nan = f64::NAN.to_le_bytes();
    let f64s =
        |values: &[f64]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    let wechat = AppProfile::wechat();
    let app_len = encode(&wechat).len();

    let mut full_tracer = Tracer::with_capacity(1);
    full_tracer.record(SimTime::from_secs(1), "flush", "one entry");
    let scheduler = MessageScheduler::new(
        4,
        SimDuration::from_secs(270),
        SimDuration::ZERO,
        SimTime::ZERO,
    );
    let jittery = BackoffPolicy {
        jitter_frac: f64::NAN,
        ..BackoffPolicy::default()
    };

    let cases = [
        (refusal::<MilliAmps>(&f64s(&[-1.0])), "current -1 mA"),
        (refusal::<MicroAmpHours>(&nan), "charge NaN µAh"),
        (
            refusal::<Battery>(&f64s(&[0.0, 0.0])),
            "battery capacity 0.00µAh",
        ),
        (
            refusal::<Battery>(&f64s(&[1.0, 2.0])),
            "battery drained 2.00µAh past capacity 1.00µAh",
        ),
        (
            // The heartbeat period follows the id and the name.
            refusal::<AppProfile>(&patched(encode(&wechat), 12 + wechat.name.len(), zero)),
            "app profile \"WeChat\" out of range",
        ),
        (
            refusal::<ImServer>(&patched(
                encode(&ImServer::new(SimDuration::from_secs(270))),
                0,
                zero,
            )),
            "zero server expiration",
        ),
        (
            // The jitter fraction follows the device id and the app.
            refusal::<HeartbeatSchedule>(&patched(
                encode(&HeartbeatSchedule::new(
                    DeviceId::new(1),
                    wechat.clone(),
                    0.1,
                )),
                4 + app_len,
                nan,
            )),
            "jitter fraction NaN",
        ),
        (
            refusal::<BaseStation>(&{
                let bytes = encode(&BaseStation::new(10.0));
                let at = bytes.len() - 8;
                patched(bytes, at, zero)
            }),
            "control-channel capacity 0",
        ),
        (
            refusal::<Bounds>(&f64s(&[5.0, 5.0, 0.0, 0.0])),
            "bounds min (5.00m, 5.00m) above max (0.00m, 0.00m)",
        ),
        (refusal::<Position>(&f64s(&[f64::NAN, 0.0])), "NaN position"),
        (
            refusal::<FeedbackTracker>(&patched(
                encode(&FeedbackTracker::new(SimDuration::from_secs(60))),
                0,
                zero,
            )),
            "zero feedback timeout",
        ),
        (
            refusal::<BackoffPolicy>(&encode(&jittery)),
            "backoff jitter fraction NaN",
        ),
        (
            refusal::<MessageScheduler>(&patched(encode(&scheduler), 0, zero)),
            "scheduler capacity/period must be positive",
        ),
        (
            refusal::<Tracer>(&patched(encode(&full_tracer), 0, zero)),
            "tracer holds 1 entries with capacity 0",
        ),
        (
            refusal::<Histogram>(&encode(&Histogram::new(&[1.0, 2.0]))),
            "histogram bounds [1.0, 2.0] match no schema",
        ),
        (refusal::<Phase>(&[9]), "phase tag 9"),
        (refusal::<LinkState>(&[3]), "link state tag 3"),
    ];
    for (why, expected) in cases {
        assert_eq!(why, expected);
    }
}
