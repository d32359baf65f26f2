//! Every metric the benchmark reports: the end-to-end ones a user of
//! `hbr crowd` sees, and the per-layer ones the traced run splits them
//! into, each with the end-to-end metric and workloads it should move.

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Listed in `BENCHMARK.json` with a regression bound. The two
    /// others are zero on a healthy run, so they are printed but not
    /// bounded: `failed_frac` travels as the result's `failed` ÷
    /// `attempted`, and `false_dead_s` is zero on `sparse20`.
    pub bounded: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bounded: true,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("sim_rate", "phone-s/s", "higher"),
    e2e("setup_s", "s", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("l3_per_phone_hour", "msg/phone/h", "lower"),
    e2e("rrc_per_phone_hour", "conn/phone/h", "lower"),
    e2e("uah_per_delivered_hb", "uAh/hb", "lower"),
    e2e("delivery_ratio", "ratio", "higher"),
    EndToEnd {
        bounded: false,
        ..e2e("false_dead_s", "s", "lower")
    },
    EndToEnd {
        bounded: false,
        ..e2e("failed_frac", "ratio", "lower")
    },
];

/// A per-layer metric and what it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(end-to-end metric, workloads)` this layer metric should move.
    pub moves: &'static [(&'static str, &'static [&'static str])],
}

const ALL: &[&str] = &["dense200", "sparse20"];
const DENSE: &[&str] = &["dense200"];
const SPARSE: &[&str] = &["sparse20"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static [&'static str])],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &[(&str, &[&str])] = &[("setup_s", ALL)];
const RATE_DENSE: &[(&str, &[&str])] = &[("sim_rate", DENSE)];
const RATE_RSS_SPARSE: &[(&str, &[&str])] = &[("sim_rate", SPARSE), ("peak_rss_mb", SPARSE)];
const L3: &[(&str, &[&str])] = &[("l3_per_phone_hour", ALL)];
const RRC: &[(&str, &[&str])] = &[("rrc_per_phone_hour", ALL)];
const UAH: &[(&str, &[&str])] = &[("uah_per_delivered_hb", ALL)];
const DELIVERY: &[(&str, &[&str])] = &[("delivery_ratio", ALL), ("false_dead_s", ALL)];
const RATE_ALL: &[(&str, &[&str])] = &[("sim_rate", ALL)];

/// Per-layer metrics the traced run does not report, and why; it
/// prints these as notes.
pub const ABSENT: [&str; 2] = [
    "world.emigrate_s, world.immigrate_s, world.migrations, crowd.barrier_stall_frac, \
     telemetry.*, spans.*, snapshot.* and invariant.overhead_frac are absent: only the \
     city100_observed workload (roaming, 2 shards, every plane, checkpoints, the checker) \
     exercises them, and the program fails on it (perfbench/README.md, Findings)",
    "delivery.false_dead_s is absent: it is the end-to-end false_dead_s, printed by --trace 0",
];

pub const PER_LAYER: [PerLayer; 34] = [
    layer("fleet.build_s", "s", "lower", SETUP),
    layer("world.new_s", "s", "lower", SETUP),
    layer("world.step_us.p50", "us", "lower", RATE_DENSE),
    layer("world.step_us.p99", "us", "lower", RATE_DENSE),
    layer("world.events", "count", "lower", RATE_DENSE),
    layer("world.ns_per_event", "ns", "lower", RATE_DENSE),
    layer("world.max_queue_depth", "count", "lower", RATE_DENSE),
    layer("world.pulse_us", "us", "lower", RATE_RSS_SPARSE),
    layer("world.complete_s", "s", "lower", RATE_RSS_SPARSE),
    layer("crowd.other_s", "s", "lower", RATE_ALL),
    layer("mobility.advance_us", "us", "lower", RATE_DENSE),
    layer("mobility.query_us", "us", "lower", RATE_DENSE),
    layer(
        "mobility.cell_population.mean",
        "count",
        "lower",
        RATE_DENSE,
    ),
    layer("mobility.cell_population.max", "count", "lower", RATE_DENSE),
    layer("matcher.forwards", "count", "higher", L3),
    layer("matcher.fallbacks_no_relay", "count", "lower", L3),
    layer("matcher.match_ratio", "ratio", "higher", L3),
    layer("scheduler.flushes.capacity", "count", "lower", L3),
    layer("scheduler.flushes.period", "count", "lower", L3),
    layer("scheduler.flushes.expiration", "count", "lower", L3),
    layer("scheduler.mean_batch", "hb/flush", "higher", L3),
    layer("delivery.retries", "count", "lower", DELIVERY),
    layer("delivery.handovers", "count", "lower", DELIVERY),
    layer("cellular.l3", "count", "lower", L3),
    layer("cellular.rrc_establish", "count", "lower", RRC),
    layer("d2d.link_setups", "count", "lower", UAH),
    layer("d2d.transfers_ok", "count", "higher", UAH),
    layer("d2d.transfers_lost", "count", "lower", UAH),
    layer("energy.uah.cellular", "uAh", "lower", UAH),
    layer("energy.uah.discovery", "uAh", "lower", UAH),
    layer("energy.uah.forwarding", "uAh", "lower", UAH),
    layer("energy.uah.connection", "uAh", "lower", UAH),
    layer("trace.overhead_frac", "ratio", "lower", RATE_ALL),
    layer("trace.sim_rate", "phone-s/s", "higher", RATE_ALL),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name} must match [A-Za-z0-9_.-]+");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are used once");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn every_per_layer_target_names_an_existing_metric_and_workload() {
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
            for (target, workloads) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *target),
                    "{} targets unknown end-to-end metric {target}",
                    m.name
                );
                assert!(!workloads.is_empty());
                for w in *workloads {
                    assert!(
                        WORKLOADS.iter().any(|x| x.name == *w),
                        "{} targets unknown workload {w}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = |name: &str, unit: &str, better: &str| {
            text.contains(&format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
            ))
        };
        for m in END_TO_END {
            assert_eq!(
                listed(m.name, m.unit, m.better),
                m.bounded,
                "{} in BENCHMARK.json",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(
                listed(m.name, m.unit, m.better),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)),
                "workload {}",
                w.name
            );
        }
        let declared = text.matches("\"name\": ").count();
        let expected =
            END_TO_END.iter().filter(|m| m.bounded).count() + PER_LAYER.len() + WORKLOADS.len();
        assert_eq!(declared, expected, "BENCHMARK.json declares nothing else");
    }
}
