//! The virtual clock all latencies are charged against.

/// A monotonically increasing virtual clock measured in milliseconds.
///
/// Nothing in the workspace reads wall-clock time for experiment results;
/// every latency number in the reproduced tables comes from charges against
/// a `VirtualClock`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct VirtualClock {
    now_ms: f64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The current virtual time in milliseconds.
    pub(crate) fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Advances the clock by `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or non-finite — a negative charge would
    /// silently corrupt every downstream latency statistic.
    pub(crate) fn advance(&mut self, ms: f64) {
        assert!(ms.is_finite() && ms >= 0.0, "invalid clock advance: {ms}");
        self.now_ms += ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now_ms(), 0.0);
    }

    #[test]
    fn advances_accumulate() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(2.5);
        assert_eq!(c.now_ms(), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid clock advance")]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid clock advance")]
    fn nan_advance_panics() {
        VirtualClock::new().advance(f64::NAN);
    }
}
