//! Unified-memory model for OOM reproduction.
//!
//! Table 3 of the paper shows several heavyweight models (MEGA-ResNet-101,
//! REPP-over-FGFA, ...) failing with out-of-memory errors on the TX2's
//! 8 GB unified memory. The memory model tracks resident model footprints
//! against the board's capacity.

use crate::profile::DeviceProfile;

/// Tracks resident memory against a device's capacity.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    capacity_gb: f64,
    /// Memory reserved by the OS, display pipeline, and CUDA context; the
    /// full 8 GB of a TX2 is never available to the application.
    system_reserved_gb: f64,
    resident: Vec<(String, f64)>,
}

impl MemoryModel {
    /// Creates a memory model for a device.
    pub fn new(profile: &DeviceProfile) -> Self {
        Self {
            capacity_gb: profile.memory_gb,
            system_reserved_gb: 1.0,
            resident: Vec::new(),
        }
    }

    /// Usable capacity in GiB.
    pub(crate) fn usable_gb(&self) -> f64 {
        self.capacity_gb - self.system_reserved_gb
    }

    /// Currently resident application memory in GiB.
    pub(crate) fn resident_gb(&self) -> f64 {
        self.resident.iter().map(|(_, gb)| gb).sum()
    }

    /// Attempts to load a model of `footprint_gb`; returns `Err` with the
    /// shortfall if it would exceed usable memory (an OOM).
    pub fn try_load(&mut self, name: &str, footprint_gb: f64) -> Result<(), OomError> {
        assert!(footprint_gb >= 0.0, "negative footprint");
        let after = self.resident_gb() + footprint_gb;
        if after > self.usable_gb() {
            return Err(OomError {
                model: name.to_string(),
                requested_gb: footprint_gb,
                available_gb: self.usable_gb() - self.resident_gb(),
            });
        }
        self.resident.push((name.to_string(), footprint_gb));
        Ok(())
    }
}

/// An out-of-memory failure.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// Name of the model that failed to load.
    pub model: String,
    /// Requested footprint in GiB.
    pub requested_gb: f64,
    /// Memory that was actually available in GiB.
    pub available_gb: f64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OOM loading {}: requested {:.2} GiB, {:.2} GiB available",
            self.model, self.requested_gb, self.available_gb
        )
    }
}

impl std::error::Error for OomError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceKind;

    #[test]
    fn tx2_cannot_hold_a_10gb_model() {
        let mut mem = MemoryModel::new(&DeviceKind::JetsonTx2.profile());
        assert!(mem.try_load("REPP-over-FGFA", 10.02).is_err());
    }

    #[test]
    fn xavier_can_hold_what_tx2_cannot() {
        let mut mem = MemoryModel::new(&DeviceKind::AgxXavier.profile());
        assert!(mem.try_load("REPP-over-FGFA", 10.02).is_ok());
    }

    #[test]
    fn cumulative_loads_can_oom() {
        let mut mem = MemoryModel::new(&DeviceKind::JetsonTx2.profile());
        assert!(mem.try_load("a", 3.0).is_ok());
        assert!(mem.try_load("b", 3.0).is_ok());
        let err = mem.try_load("c", 3.0).unwrap_err();
        assert_eq!(err.model, "c");
        assert!(err.available_gb < 3.0);
    }

    #[test]
    fn oom_error_displays_useful_message() {
        let e = OomError {
            model: "MEGA".into(),
            requested_gb: 9.38,
            available_gb: 6.8,
        };
        let s = e.to_string();
        assert!(s.contains("MEGA") && s.contains("9.38"));
    }
}
