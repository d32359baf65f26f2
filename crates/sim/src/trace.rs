//! Bounded execution tracing.
//!
//! Scenario debugging needs to answer "what happened around t = 812 s?"
//! without drowning in events. [`Tracer`] is a bounded, explicitly
//! enabled event log: subsystems record one-line entries, the ring
//! evicts the oldest beyond the capacity, and the result renders as
//! plain text.

use std::collections::VecDeque;
use std::fmt;

use crate::snap_struct;
use crate::time::SimTime;

/// One recorded trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When it happened.
    pub time: SimTime,
    /// A short static category, e.g. `"flush"`, `"fallback"`.
    pub label: &'static str,
    /// Free-form detail.
    pub detail: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.3}s] {:<10} {}",
            self.time.as_secs_f64(),
            self.label,
            self.detail
        )
    }
}

/// A bounded ring of [`TraceEntry`]s. A capacity of zero disables
/// recording entirely (and makes [`Tracer::record`] free).
///
/// # Examples
///
/// ```
/// use hbr_sim::{SimTime, Tracer};
///
/// let mut tracer = Tracer::with_capacity(2);
/// tracer.record(SimTime::from_secs(1), "a", "first");
/// tracer.record(SimTime::from_secs(2), "b", "second");
/// tracer.record(SimTime::from_secs(3), "c", "third");
/// // The ring kept only the newest two entries.
/// assert_eq!(tracer.len(), 2);
/// assert_eq!(tracer.iter().next().unwrap().label, "b");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    capacity: usize,
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

impl Tracer {
    /// A disabled tracer (capacity zero).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer keeping at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// `true` if recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one entry (a no-op when disabled).
    ///
    /// Stored times are clamped to nondecreasing order — the event loop
    /// only moves forward, but a handler may stamp a completion instant
    /// a hair ahead of still-queued events — which is what lets
    /// [`between`](Self::between) binary-search the ring.
    pub fn record(&mut self, time: SimTime, label: &'static str, detail: impl Into<String>) {
        if self.capacity == 0 {
            return;
        }
        // Entries arrive in *event* order, which is almost — but not
        // exactly — time order: a handler acting at a transfer's
        // completion instant (e.g. a capacity flush at packet arrival)
        // stamps a time slightly ahead of events still queued before
        // that instant. Clamp to nondecreasing so `between` can keep
        // binary-searching; the skew is bounded by one transfer.
        let time = self.entries.back().map_or(time, |last| last.time.max(time));
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            time,
            label,
            detail: detail.into(),
        });
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries the ring evicted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Entries whose time lies in `[from, to)`.
    ///
    /// The ring is time-sorted (see [`record`](Self::record)), so both
    /// window edges are found by binary search and the iterator walks
    /// only the matching slice — O(log n) to locate a window instead of
    /// scanning the whole ring.
    pub fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &TraceEntry> {
        let start = self.entries.partition_point(|e| e.time < from);
        let end = self.entries.partition_point(|e| e.time < to);
        self.entries.range(start..end.max(start))
    }

    /// Renders the retained entries as text, one per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("… {} earlier entries evicted …\n", self.dropped));
        }
        for entry in &self.entries {
            out.push_str(&entry.to_string());
            out.push('\n');
        }
        out
    }
}

snap_struct!(TraceEntry {
    time,
    label,
    detail
});

snap_struct!(Tracer { capacity, dropped, entries }
    reject |t| t.entries.len() > t.capacity
        => format!("tracer holds {} entries with capacity {}", t.entries.len(), t.capacity));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(SimTime::ZERO, "x", "ignored");
        assert!(t.is_empty());
        assert_eq!(t.to_text(), "");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Tracer::with_capacity(3);
        for i in 0..5u64 {
            t.record(SimTime::from_secs(i), "tick", format!("#{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let labels: Vec<_> = t.iter().map(|e| e.detail.clone()).collect();
        assert_eq!(labels, vec!["#2", "#3", "#4"]);
        assert!(t.to_text().starts_with("… 2 earlier entries evicted …"));
    }

    #[test]
    fn between_filters_by_time() {
        let mut t = Tracer::with_capacity(10);
        for i in 0..10u64 {
            t.record(SimTime::from_secs(i), "tick", "");
        }
        let window: Vec<_> = t
            .between(SimTime::from_secs(3), SimTime::from_secs(6))
            .collect();
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].time, SimTime::from_secs(3));
    }

    #[test]
    fn between_handles_edges_and_duplicates() {
        let mut t = Tracer::with_capacity(16);
        for secs in [1u64, 2, 2, 2, 5, 8] {
            t.record(SimTime::from_secs(secs), "tick", "");
        }
        // All duplicates at t=2 are included; the half-open end excludes
        // the entry sitting exactly at `to`.
        assert_eq!(
            t.between(SimTime::from_secs(2), SimTime::from_secs(5))
                .count(),
            3
        );
        // Windows before, after and between entries are empty.
        assert_eq!(t.between(SimTime::ZERO, SimTime::from_secs(1)).count(), 0);
        assert_eq!(
            t.between(SimTime::from_secs(3), SimTime::from_secs(5))
                .count(),
            0
        );
        assert_eq!(
            t.between(SimTime::from_secs(9), SimTime::from_secs(99))
                .count(),
            0
        );
        // A reversed window is empty rather than a panic.
        assert_eq!(
            t.between(SimTime::from_secs(5), SimTime::from_secs(2))
                .count(),
            0
        );
        // The whole-ring window matches iter().
        assert_eq!(
            t.between(SimTime::ZERO, SimTime::from_secs(100)).count(),
            t.len()
        );
    }

    #[test]
    fn out_of_order_entry_is_clamped_to_keep_the_ring_sorted() {
        let mut t = Tracer::with_capacity(8);
        // A handler acting at a transfer-completion instant stamps a
        // time ahead of events still queued before it.
        t.record(SimTime::from_secs(10), "flush", "at completion");
        t.record(SimTime::from_secs(9), "tick", "queued earlier");
        let times: Vec<_> = t.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![SimTime::from_secs(10), SimTime::from_secs(10)]);
        // The clamped ring stays binary-searchable.
        assert_eq!(
            t.between(SimTime::from_secs(10), SimTime::from_secs(11))
                .count(),
            2
        );
    }

    #[test]
    fn display_is_readable() {
        let mut t = Tracer::with_capacity(1);
        t.record(SimTime::from_millis(1500), "flush", "relay dev#0, 3 hbs");
        let text = t.to_text();
        assert!(text.contains("1.500s"));
        assert!(text.contains("flush"));
        assert!(text.contains("3 hbs"));
    }
}
