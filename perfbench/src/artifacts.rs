//! What one crowd run leaves behind, written the way `hbr crowd` writes
//! it, plus the fidelity figures and correctness checks read from the
//! merged report.
//!
//! Every run writes all five artifacts (metrics JSON and Prometheus
//! text, events JSONL, spans JSONL, SLO line). The workloads run with
//! the planes off, so metrics, events and spans are empty and cost next
//! to nothing.

use std::fmt::Write as _;
use std::path::Path;

use hbr_core::world::{DeliveryReport, ScenarioReport};

use crate::tracer::Lane;

/// The CI delivery SLO.
pub const MIN_DELIVERY_RATIO: f64 = 0.995;

/// The run label `hbr crowd` stamps on every JSONL line of a d2d run.
const RUN_LABEL: &str = "d2d-framework";

/// The SLO line `hbr crowd --slo-out` writes for a complete run.
pub fn slo_line(report: &ScenarioReport, d: &DeliveryReport) -> String {
    format!(
        "{{\"generated\":{},\"delivered\":{},\"duplicates\":{},\"expired\":{},\
         \"dropped_dead\":{},\"in_flight\":{},\"retries\":{},\"handovers\":{},\
         \"requeued\":{},\"migrations\":{},\"lte_handovers\":{},\
         \"delivery_ratio\":{:.6},\"false_dead_seconds\":{:.3}}}\n",
        d.generated,
        d.delivered,
        report.duplicates,
        d.expired,
        d.dropped_dead,
        d.in_flight,
        d.retries,
        d.handovers,
        d.requeued,
        report.migrations,
        report.lte_handovers,
        d.ratio(),
        d.false_dead_secs,
    )
}

/// 64-bit FNV-1a.
pub fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs `f`, as a span on `lane` when one is given.
fn timed<R>(lane: &mut Option<&mut Lane>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match lane {
        Some(lane) => lane.time(name, None, f),
        None => f(),
    }
}

/// Writes the run's artifacts into `dir` and returns their digest, the
/// FNV-1a of the SLO line followed by the metrics JSON; serialisation
/// is timed on `lane` when given.
pub fn write(dir: &Path, report: &ScenarioReport, mut lane: Option<&mut Lane>) -> u64 {
    let d = report
        .delivery
        .expect("crowd runs carry the delivery ledger");
    let (metrics_json, prom, events) = timed(&mut lane, "telemetry.serialize", || {
        let mut json = report.metrics.to_json();
        json.push('\n');
        let mut events = String::new();
        for record in &report.events {
            let line = record.to_jsonl();
            let _ = writeln!(events, "{{\"run\":\"{RUN_LABEL}\",{}", &line[1..]);
        }
        (json, report.metrics.to_prometheus(), events)
    });
    let spans = timed(&mut lane, "spans.serialize", || {
        let mut out = String::new();
        for line in report.spans.to_jsonl().lines() {
            let _ = writeln!(out, "{{\"run\":\"{RUN_LABEL}\",{}", &line[1..]);
        }
        out
    });
    let slo = slo_line(report, &d);
    timed(&mut lane, "artifacts.write", || {
        let files: [(&str, &str); 5] = [
            ("metrics.json", &metrics_json),
            ("metrics.prom", &prom),
            ("events.jsonl", &events),
            ("spans.jsonl", &spans),
            ("slo.json", &slo),
        ];
        for (name, text) in files {
            std::fs::write(dir.join(name), text).expect("artifact written");
        }
    });
    fnv1a(&[slo.as_bytes(), metrics_json.as_bytes()])
}

/// The paper-level figures of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    pub l3_per_phone_hour: f64,
    pub rrc_per_phone_hour: f64,
    pub uah_per_delivered_hb: f64,
    pub delivery_ratio: f64,
    pub false_dead_s: f64,
}

impl Fidelity {
    pub fn of(report: &ScenarioReport, phones: usize, hours: u64) -> Self {
        let d = report.delivery.unwrap_or_default();
        let phone_hours = (phones as u64 * hours) as f64;
        Fidelity {
            l3_per_phone_hour: report.total_l3 as f64 / phone_hours,
            rrc_per_phone_hour: report.total_rrc as f64 / phone_hours,
            uah_per_delivered_hb: report.total_energy_uah / d.delivered.max(1) as f64,
            delivery_ratio: d.ratio(),
            false_dead_s: d.false_dead_secs,
        }
    }
}

/// The per-run delivery checks, by name; `true` means passed.
pub fn delivery_checks(report: &ScenarioReport) -> Vec<(&'static str, bool)> {
    let Some(d) = report.delivery else {
        return vec![("delivery_ledger_present", false)];
    };
    vec![
        (
            "conservation",
            d.generated == d.delivered + d.expired + d.dropped_dead + d.in_flight,
        ),
        ("expired_zero", d.expired == 0),
        ("delivery_ratio_slo", d.ratio() >= MIN_DELIVERY_RATIO),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(&[b""]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&[b"fo", b"obar"]), fnv1a(&[b"foobar"]));
    }
}
