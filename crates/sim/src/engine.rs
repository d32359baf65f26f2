//! The discrete-event engine: a virtual clock plus a stable priority queue.
//!
//! Two properties matter for reproducibility and are guaranteed here:
//!
//! 1. **Total, stable ordering.** Events fire in non-decreasing time order;
//!    events scheduled for the same instant fire in the order they were
//!    scheduled (FIFO), never in heap-internal order.
//! 2. **Lazy cancellation.** [`Simulation::cancel`] marks an event dead in
//!    O(log n) amortised without disturbing the heap; dead events are
//!    skipped at pop time. This is how timers (feedback timeouts, RRC tail
//!    timers, scheduler deadlines) are retracted.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::snap_struct;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};

/// Opaque handle to a scheduled event, used to [`cancel`](Simulation::cancel)
/// it before it fires.
///
/// # Examples
///
/// ```
/// use hbr_sim::{SimDuration, Simulation};
///
/// let mut sim = Simulation::new();
/// let id = sim.schedule_after(SimDuration::from_secs(5), "timeout");
/// assert!(sim.cancel(id));
/// assert!(sim.pop().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

/// An event returned by [`Simulation::pop`]: the payload plus the instant
/// and handle it fired with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredEvent<E> {
    /// The instant the event fired; equals [`Simulation::now`] right after
    /// the pop.
    pub time: SimTime,
    /// The handle the event was scheduled under.
    pub id: EventId,
    /// The scheduled payload.
    pub event: E,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed so that the `BinaryHeap` (a max-heap) pops the earliest
    /// event first, with the lowest sequence number breaking ties.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulation: virtual clock + event queue.
///
/// The engine is generic over the event payload `E`; each subsystem defines
/// its own event enum and drives the loop itself via [`Simulation::pop`],
/// which keeps the borrow of the simulation short so handlers can schedule
/// follow-up events freely.
///
/// # Examples
///
/// ```
/// use hbr_sim::{SimDuration, SimTime, Simulation};
///
/// let mut sim = Simulation::new();
/// sim.schedule_at(SimTime::from_secs(2), 2u32);
/// sim.schedule_at(SimTime::from_secs(1), 1u32);
///
/// let first = sim.pop().expect("an event is queued");
/// assert_eq!((first.time, first.event), (SimTime::from_secs(1), 1));
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    next_id: u64,
    /// Ids currently sitting in `queue`, so `cancel` is O(1).
    live: HashSet<EventId>,
    cancelled: HashSet<EventId>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            next_id: 0,
            live: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    /// The current virtual time. Advances only when events are popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events ever scheduled, including already-fired ones — a
    /// monotone activity counter (the wall-clock shard profiler reads
    /// deltas of it to estimate events/sec).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// `true` when no live events remain.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Schedules `event` to fire at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Simulation::now`]: scheduling in
    /// the past is always a logic error in a discrete-event model.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} before the current time {now}",
            now = self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            time,
            seq,
            id,
            event,
        });
        self.live.insert(id);
        id
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        let time = self.now.saturating_add(delay);
        self.schedule_at(time, event)
    }

    /// Schedules `event` to fire at the current instant, after every event
    /// already queued for this instant.
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule_at(self.now, event)
    }

    /// Cancels a scheduled event. Returns `true` if the event was still
    /// pending (and is now guaranteed never to fire), `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// The firing time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.queue.peek().map(|s| s.time)
    }

    /// Pops the next live event, advancing the clock to its firing time.
    /// Returns [`None`] when the queue is exhausted (the clock then stays
    /// where it is).
    pub fn pop(&mut self) -> Option<FiredEvent<E>> {
        self.skip_cancelled();
        let scheduled = self.queue.pop()?;
        debug_assert!(scheduled.time >= self.now);
        self.live.remove(&scheduled.id);
        self.now = scheduled.time;
        Some(FiredEvent {
            time: scheduled.time,
            id: scheduled.id,
            event: scheduled.event,
        })
    }

    /// Pops the next live event only if it fires at or before `limit`.
    ///
    /// Unlike [`Simulation::pop`], this never advances the clock past
    /// `limit`: when the next event is later (or absent) the clock is moved
    /// exactly to `limit` and [`None`] is returned, which makes bounded
    /// `while let` loops natural:
    ///
    /// ```
    /// use hbr_sim::{SimDuration, SimTime, Simulation};
    ///
    /// let mut sim = Simulation::new();
    /// sim.schedule_after(SimDuration::from_secs(1), ());
    /// sim.schedule_after(SimDuration::from_secs(10), ());
    ///
    /// let mut fired = 0;
    /// while let Some(_ev) = sim.pop_until(SimTime::from_secs(5)) {
    ///     fired += 1;
    /// }
    /// assert_eq!(fired, 1);
    /// assert_eq!(sim.now(), SimTime::from_secs(5));
    /// assert_eq!(sim.pending(), 1);
    /// ```
    pub fn pop_until(&mut self, limit: SimTime) -> Option<FiredEvent<E>> {
        self.skip_cancelled();
        match self.queue.peek() {
            Some(s) if s.time <= limit => self.pop(),
            _ => {
                if limit > self.now {
                    self.now = limit;
                }
                None
            }
        }
    }

    /// Runs the event loop until `limit`, dispatching each event to
    /// `handler`. The handler receives the simulation itself, so it can
    /// schedule or cancel follow-up events.
    pub fn run_until<F>(&mut self, limit: SimTime, mut handler: F)
    where
        F: FnMut(&mut Self, FiredEvent<E>),
    {
        while let Some(fired) = self.pop_until(limit) {
            handler(self, fired);
        }
    }

    /// Live queue entries in deterministic (time, seq) order — the order
    /// they would fire in. Cancelled entries are omitted, so a snapshot
    /// never resurrects a retracted timer.
    fn live_in_fire_order(&self) -> Vec<&Scheduled<E>> {
        let mut entries: Vec<&Scheduled<E>> = self
            .queue
            .iter()
            .filter(|s| self.live.contains(&s.id))
            .collect();
        entries.sort_by_key(|s| (s.time, s.seq));
        entries
    }

    /// Drops cancelled entries sitting at the top of the heap so `peek`/
    /// `pop` always observe a live event.
    fn skip_cancelled(&mut self) {
        while let Some(top) = self.queue.peek() {
            if self.cancelled.remove(&top.id) {
                self.queue.pop();
            } else {
                break;
            }
        }
    }
}

snap_struct!(EventId { 0 });

impl<E: Snap> Snap for Simulation<E> {
    /// Serializes the clock, the id/seq counters and the live entries in
    /// fire order. Cancelled events are dropped (they can never fire), so
    /// the restored heap is the semantic queue, not the physical one.
    fn snap(&self, w: &mut SnapshotWriter) {
        self.now.snap(w);
        w.put_u64(self.next_seq);
        w.put_u64(self.next_id);
        let entries = self.live_in_fire_order();
        w.put_usize(entries.len());
        for s in entries {
            s.time.snap(w);
            w.put_u64(s.seq);
            s.id.snap(w);
            s.event.snap(w);
        }
    }

    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let now = SimTime::unsnap(r)?;
        let next_seq = r.take_u64()?;
        let next_id = r.take_u64()?;
        let len = r.take_usize()?;
        if len > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "queue length {len} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut sim = Simulation::new();
        sim.now = now;
        sim.next_seq = next_seq;
        sim.next_id = next_id;
        for _ in 0..len {
            let time = SimTime::unsnap(r)?;
            let seq = r.take_u64()?;
            let id = EventId::unsnap(r)?;
            let event = E::unsnap(r)?;
            if time < now || seq >= next_seq || id.0 >= next_id {
                return Err(SnapshotError::Corrupt(
                    "queued event outside clock/counter bounds".to_string(),
                ));
            }
            if !sim.live.insert(id) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate queued event id {}",
                    id.0
                )));
            }
            sim.queue.push(Scheduled {
                time,
                seq,
                id,
                event,
            });
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(3), "c");
        sim.schedule_at(SimTime::from_secs(1), "a");
        sim.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|f| f.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|f| f.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops_only() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.pop();
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.pop().is_none());
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut sim = Simulation::new();
        let keep = sim.schedule_at(SimTime::from_secs(1), "keep");
        let drop = sim.schedule_at(SimTime::from_secs(2), "drop");
        assert!(sim.cancel(drop));
        assert!(!sim.cancel(drop), "double cancel reports false");
        let fired = sim.pop().unwrap();
        assert_eq!(fired.id, keep);
        assert!(sim.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut sim = Simulation::new();
        let id = sim.schedule_at(SimTime::from_secs(1), ());
        sim.pop();
        assert!(!sim.cancel(id));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Simulation<()> = Simulation::new();
        assert!(!sim.cancel(EventId(42)));
    }

    #[test]
    fn pending_counts_live_events() {
        let mut sim = Simulation::new();
        let a = sim.schedule_at(SimTime::from_secs(1), ());
        sim.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert!(!sim.is_idle());
        sim.pop();
        assert!(sim.is_idle());
    }

    #[test]
    fn pop_until_respects_limit_and_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(9), 9);
        assert_eq!(sim.pop_until(SimTime::from_secs(5)).unwrap().event, 1);
        assert!(sim.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The later event is still live and fires once the limit allows.
        assert_eq!(sim.pop_until(SimTime::from_secs(10)).unwrap().event, 9);
    }

    #[test]
    fn run_until_dispatches_and_allows_rescheduling() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), 0u32);
        let mut fired = Vec::new();
        sim.run_until(SimTime::from_secs(10), |sim, ev| {
            fired.push((ev.time, ev.event));
            if ev.event < 3 {
                sim.schedule_after(SimDuration::from_secs(2), ev.event + 1);
            }
        });
        assert_eq!(
            fired,
            vec![
                (SimTime::from_secs(1), 0),
                (SimTime::from_secs(3), 1),
                (SimTime::from_secs(5), 2),
                (SimTime::from_secs(7), 3),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        sim.pop();
        sim.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim = Simulation::new();
        let first = sim.schedule_at(SimTime::from_secs(1), ());
        sim.schedule_at(SimTime::from_secs(2), ());
        sim.cancel(first);
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(2)));
    }
}
