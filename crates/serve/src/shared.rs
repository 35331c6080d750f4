//! The shared device: one GPU timeline for N streams, with measured
//! occupancy feeding back into each stream's contention.
//!
//! Every stream runs its own `DeviceSim` (its own local virtual clock
//! and noise stream), but all GPU demand is registered here. A stream
//! about to run a GoF asks for its *slowdown*: the processor-sharing
//! stretch `1 / (1 - rho)` where `rho` is the GPU occupancy that the
//! **other** streams' measured demand puts on the device over a recent
//! window of virtual time. This replaces the paper's static
//! `contention_pct` with an endogenous, load-derived signal.

use std::collections::VecDeque;

/// One recorded burst of GPU demand from a stream's GoF.
#[derive(Debug, Clone, Copy)]
struct UsageRecord {
    /// GoF start, stream-local virtual ms.
    start_ms: f64,
    /// GoF end, stream-local virtual ms.
    end_ms: f64,
    /// GPU cycles demanded during the GoF (ms of device time, excluding
    /// contention stretch).
    gpu_demand_ms: f64,
}

/// Sliding-window GPU occupancy accounting across streams.
///
/// Streams advance on nearly synchronized local clocks (the dispatcher
/// always steps the stream that is furthest behind), so windows indexed
/// by one stream's local time are directly comparable with the others'
/// records.
#[derive(Debug)]
pub(crate) struct SharedDevice {
    window_ms: f64,
    max_occupancy: f64,
    streams: Vec<VecDeque<UsageRecord>>,
    /// One in-flight reservation per stream: the demand the stream is
    /// *expected* to put on the device during the round currently being
    /// stepped (estimated from its previous GoF). Without it, a round's
    /// members would be mutually invisible — their demand is only
    /// recorded after the round — and the blind spot grows with the
    /// round's wall-span, which makes measured contention *drop* under
    /// heavy load. Reservations close that hole so occupancy is
    /// monotone in the number of co-scheduled streams.
    reservations: Vec<Option<UsageRecord>>,
}

impl SharedDevice {
    /// Creates a shared device measuring occupancy over `window_ms` of
    /// virtual time, capping effective occupancy at `max_occupancy`
    /// (< 1) so the implied slowdown stays finite.
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is not positive or `max_occupancy` is
    /// outside `(0, 1)`.
    pub(crate) fn new(window_ms: f64, max_occupancy: f64) -> Self {
        assert!(
            window_ms.is_finite() && window_ms > 0.0,
            "bad window {window_ms}"
        );
        assert!(
            (0.0..1.0).contains(&max_occupancy) && max_occupancy > 0.0,
            "max occupancy {max_occupancy} outside (0, 1)"
        );
        Self {
            window_ms,
            max_occupancy,
            streams: Vec::new(),
            reservations: Vec::new(),
        }
    }

    /// Registers a stream; returns its slot index.
    pub(crate) fn register(&mut self) -> usize {
        self.streams.push(VecDeque::new());
        self.reservations.push(None);
        self.streams.len() - 1
    }

    /// Records a GoF's GPU demand for a stream.
    ///
    /// # Panics
    ///
    /// Panics on an unknown slot, a negative-length interval, or
    /// negative demand.
    pub(crate) fn record(&mut self, slot: usize, start_ms: f64, end_ms: f64, gpu_demand_ms: f64) {
        assert!(end_ms >= start_ms, "interval {start_ms}..{end_ms} reversed");
        assert!(gpu_demand_ms >= 0.0, "negative demand {gpu_demand_ms}");
        let q = &mut self.streams[slot];
        q.push_back(UsageRecord {
            start_ms,
            end_ms,
            gpu_demand_ms,
        });
        // Prune records that can no longer intersect any plausible
        // window. Local clocks stay within ~one GoF of each other, so
        // two windows of slack is comfortably conservative.
        let horizon = end_ms - 2.0 * self.window_ms;
        while q.front().is_some_and(|r| r.end_ms < horizon) {
            q.pop_front();
        }
    }

    /// Announces a stream's expected demand for the GoF it is about to
    /// run, replacing any previous reservation for the slot. Other
    /// streams' occupancy queries count it like a recorded burst until
    /// [`SharedDevice::clear_reservation`] retires it (normally when
    /// the actual demand is [`SharedDevice::record`]ed).
    ///
    /// # Panics
    ///
    /// Panics on an unknown slot, a negative-length interval, or
    /// negative demand.
    pub(crate) fn reserve(&mut self, slot: usize, start_ms: f64, end_ms: f64, gpu_demand_ms: f64) {
        assert!(end_ms >= start_ms, "interval {start_ms}..{end_ms} reversed");
        assert!(gpu_demand_ms >= 0.0, "negative demand {gpu_demand_ms}");
        self.reservations[slot] = Some(UsageRecord {
            start_ms,
            end_ms,
            gpu_demand_ms,
        });
    }

    /// Retires `slot`'s in-flight reservation, if any.
    pub(crate) fn clear_reservation(&mut self, slot: usize) {
        self.reservations[slot] = None;
    }

    /// The GPU occupancy (fraction of device cycles, `0..=max`) that
    /// streams *other than* `slot` put on the device over the window
    /// ending at `now_ms`. Demand is spread uniformly over each
    /// record's interval; partial overlaps count proportionally.
    pub(crate) fn occupancy_excluding(&self, slot: usize, now_ms: f64) -> f64 {
        let lo = now_ms - self.window_ms;
        let in_window = |r: &UsageRecord| {
            let overlap = (r.end_ms.min(now_ms) - r.start_ms.max(lo)).max(0.0);
            if overlap <= 0.0 {
                return 0.0;
            }
            let span = (r.end_ms - r.start_ms).max(1e-9);
            r.gpu_demand_ms * (overlap / span).min(1.0)
        };
        let mut demand = 0.0;
        for (j, q) in self.streams.iter().enumerate() {
            if j == slot {
                continue;
            }
            for r in q {
                demand += in_window(r);
            }
            if let Some(r) = &self.reservations[j] {
                demand += in_window(r);
            }
        }
        (demand / self.window_ms).min(self.max_occupancy)
    }

    /// The processor-sharing slowdown factor stream `slot` observes at
    /// `now_ms`: `1 / (1 - rho_others)`, the same stretch the paper's
    /// CG applies for a g% contender — but with `rho` *measured* from
    /// the co-scheduled streams instead of configured.
    pub(crate) fn slowdown_for(&self, slot: usize, now_ms: f64) -> f64 {
        1.0 / (1.0 - self.occupancy_excluding(slot, now_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_other_streams_means_no_slowdown() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        d.record(a, 0.0, 500.0, 400.0);
        // A stream never contends with itself.
        assert_eq!(d.occupancy_excluding(a, 500.0), 0.0);
        assert_eq!(d.slowdown_for(a, 500.0), 1.0);
    }

    #[test]
    fn occupancy_measures_other_streams_demand() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        // Stream b demanded 500 GPU-ms over the last 1000 ms: rho = 0.5,
        // slowdown = 2x — the paper's 50% CG, but measured.
        d.record(b, 0.0, 1000.0, 500.0);
        let rho = d.occupancy_excluding(a, 1000.0);
        assert!((rho - 0.5).abs() < 1e-9, "rho {rho}");
        assert!((d.slowdown_for(a, 1000.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_counts_proportionally() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        // Record spans 500..1500; window at now=1000 is 0..1000 → half
        // the record's 400 GPU-ms lands in-window.
        d.record(b, 500.0, 1500.0, 400.0);
        let rho = d.occupancy_excluding(a, 1000.0);
        assert!((rho - 0.2).abs() < 1e-9, "rho {rho}");
    }

    #[test]
    fn more_streams_mean_more_slowdown() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let me = d.register();
        let mut prev = d.slowdown_for(me, 1000.0);
        for _ in 0..6 {
            let other = d.register();
            d.record(other, 0.0, 1000.0, 120.0);
            let s = d.slowdown_for(me, 1000.0);
            assert!(s > prev, "slowdown {s} not increasing");
            prev = s;
        }
    }

    #[test]
    fn occupancy_is_capped() {
        let mut d = SharedDevice::new(1000.0, 0.9);
        let a = d.register();
        let b = d.register();
        d.record(b, 0.0, 1000.0, 5000.0); // overload
        assert_eq!(d.occupancy_excluding(a, 1000.0), 0.9);
        assert!((d.slowdown_for(a, 1000.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reservations_count_for_others_until_cleared() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        d.reserve(b, 500.0, 1000.0, 250.0);
        // b's in-flight work is visible to a...
        let rho = d.occupancy_excluding(a, 1000.0);
        assert!((rho - 0.25).abs() < 1e-9, "rho {rho}");
        // ...but never to b itself.
        assert_eq!(d.occupancy_excluding(b, 1000.0), 0.0);
        d.clear_reservation(b);
        assert_eq!(d.occupancy_excluding(a, 1000.0), 0.0);
    }

    #[test]
    fn reservation_is_replaced_not_accumulated() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        d.reserve(b, 0.0, 1000.0, 900.0);
        d.reserve(b, 0.0, 1000.0, 100.0);
        let rho = d.occupancy_excluding(a, 1000.0);
        assert!((rho - 0.1).abs() < 1e-9, "rho {rho}");
    }

    #[test]
    fn record_straddling_window_boundary_counts_inside_share_only() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        // Window at now=2000 is 1000..2000; the record spans 600..1400,
        // so 400 of its 800 ms interval (half of 300 GPU-ms) is inside.
        d.record(b, 600.0, 1400.0, 300.0);
        let rho = d.occupancy_excluding(a, 2000.0);
        assert!((rho - 0.15).abs() < 1e-9, "rho {rho}");
        // The same proportional rule applies to a reservation on the
        // boundary: 1700..2300 overlaps the window for half its span.
        d.reserve(b, 1700.0, 2300.0, 200.0);
        let rho = d.occupancy_excluding(a, 2000.0);
        assert!((rho - 0.25).abs() < 1e-9, "rho {rho}");
    }

    #[test]
    fn stale_reservation_outside_window_adds_nothing() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        // A reservation that was never cleared but whose interval has
        // aged fully out of the query window must contribute zero, not
        // linger as phantom load.
        d.reserve(b, 0.0, 400.0, 350.0);
        assert!(d.occupancy_excluding(a, 400.0) > 0.0);
        assert_eq!(d.occupancy_excluding(a, 5000.0), 0.0);
        assert_eq!(d.slowdown_for(a, 5000.0), 1.0);
    }

    #[test]
    fn slowdown_is_exactly_one_at_zero_co_stream_load() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        // Registered but idle co-streams impose no stretch, including a
        // zero-demand record and a zero-length interval.
        d.record(b, 500.0, 500.0, 0.0);
        assert_eq!(d.occupancy_excluding(a, 1000.0), 0.0);
        assert_eq!(d.slowdown_for(a, 1000.0), 1.0);
    }

    #[test]
    fn old_records_age_out_of_the_window() {
        let mut d = SharedDevice::new(1000.0, 0.95);
        let a = d.register();
        let b = d.register();
        d.record(b, 0.0, 100.0, 90.0);
        assert!(d.occupancy_excluding(a, 100.0) > 0.0);
        // 2000 ms later the burst is outside the window.
        assert_eq!(d.occupancy_excluding(a, 2100.0), 0.0);
    }
}
