//! Byte-level digests of the program's virtual outputs, and the ledger
//! that checks each operation against the committed reference.
//!
//! The digest is 64-bit FNV-1a over a canonical byte stream: integers
//! and float bit patterns in little-endian order, strings
//! length-prefixed. Each FNV-1a step (`h = (h ^ byte) * prime`, prime
//! odd) is a bijection of the state for a fixed input byte, so two
//! streams of equal length that differ in exactly one byte always hash
//! differently: the check catches every one-byte change, not merely most.

use std::collections::BTreeMap;

use litereconfig::offline::OfflineDataset;
use litereconfig::{GofStep, RunResult, TrainedScheduler};
use lr_eval::LatencyStats;
use lr_serve::ServeReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a count.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Feeds a float's exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a slice of `f32` bit patterns, length first.
    pub fn f32s(&mut self, vs: &[f32]) -> &mut Self {
        self.usize(vs.len());
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Feeds a slice of `f64` bit patterns, length first.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// Feeds a string, length first.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One GoF as the pipeline reported it: the exact per-frame latency
/// samples of a run are `per_frame_ms` repeated `frames` times.
pub fn gof_step(d: &mut Digest, s: &GofStep) {
    d.usize(s.video_idx)
        .usize(s.start_frame)
        .usize(s.frames)
        .f64(s.gof_ms)
        .f64(s.per_frame_ms)
        .f64(s.gpu_demand_ms)
        .usize(s.faults)
        .u64(u64::from(s.degraded));
}

/// Summary statistics of a latency collector (its samples are private;
/// single-stream runs digest the exact samples through [`gof_step`]).
fn latency(d: &mut Digest, l: &LatencyStats) {
    d.usize(l.count()).f64(l.mean()).f64(l.max());
    for q in [0.5, 0.95, 0.99] {
        d.f64(l.percentile(q));
    }
}

/// A run's result: mAP, latency, breakdown, decisions, and switches.
pub fn run_result(d: &mut Digest, r: &RunResult) {
    d.f64(r.map);
    latency(d, &r.latency);
    let b = &r.breakdown;
    d.f64(b.detector_ms)
        .f64(b.tracker_ms)
        .f64(b.scheduler_ms)
        .f64(b.switch_ms)
        .f64(b.overhead_ms)
        .usize(b.frames);
    d.usize(r.branches_used.len());
    for &k in &r.branches_used {
        d.u64(k);
    }
    d.usize(r.branch_decisions.len());
    for (&k, &n) in &r.branch_decisions {
        d.u64(k).usize(n);
    }
    d.usize(r.switches.len());
    for s in &r.switches {
        d.u64(s.src_key).u64(s.dst_key).f64(s.cost_ms);
    }
    d.usize(r.decisions)
        .usize(r.infeasible_decisions)
        .usize(r.degrade_events.len())
        .usize(r.faults)
        .usize(r.degraded_gofs);
}

/// A serve report: both rendered tables plus every per-stream field.
pub fn serve_report(d: &mut Digest, r: &ServeReport) {
    d.u64(u64::from(r.admission_enabled))
        .str(&r.format_table())
        .str(&r.format_fault_table());
    for s in &r.streams {
        d.str(&s.name)
            .str(s.class.label())
            .str(&format!("{:?}", s.decision))
            .u64(u64::from(s.degraded_midrun))
            .f64(s.map);
        latency(d, &s.latency);
        d.f64(s.violation_rate)
            .usize(s.frames)
            .usize(s.gofs)
            .f64(s.mean_slowdown)
            .usize(s.faults)
            .usize(s.degraded_gofs)
            .usize(s.evictions)
            .u64(u64::from(s.terminal_evicted))
            .f64(s.recovery_ms_total);
    }
}

/// The offline build: every profiled record, and the trained scheduler
/// probed through its public predictors on the first records.
pub fn offline_build(d: &mut Digest, ds: &OfflineDataset, t: &TrainedScheduler) {
    d.usize(ds.catalog.len());
    for b in &ds.catalog {
        d.str(&b.name());
    }
    d.usize(ds.records.len());
    for r in &ds.records {
        d.u64(u64::from(r.video_id))
            .usize(r.start_frame)
            .usize(r.len)
            .f32s(&r.light);
        for (kind, v) in &r.heavy {
            d.str(kind.name()).f32s(v);
        }
        d.f32s(&r.branch_map)
            .f64s(&r.branch_det_ms)
            .f64s(&r.branch_trk_ms);
    }

    d.str(t.family.name()).f64s(&t.det_inference_ms);
    for b in &t.catalog {
        d.u64(b.key());
    }
    for (kind, model) in &t.accuracy {
        d.str(kind.name()).f32s(&[model.train_mse()]);
        for r in ds.records.iter().take(4) {
            let heavy = r.heavy.get(kind).map(Vec::as_slice);
            d.f32s(&model.predict(&r.light, heavy));
        }
    }
    if let Some(r) = ds.records.first() {
        for b in 0..t.latency.num_branches() {
            let (det, trk) = t.latency.predict_parts(b, &r.light);
            d.f64(det).f64(trk);
        }
    }
    for kind in lr_features::HEAVY_FEATURE_KINDS {
        for slo in [20.0, 33.3, 50.0, 100.0] {
            d.f32s(&[t.ben.single(kind, slo)]);
        }
    }
}

/// The committed reference: operation key -> expected digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference(BTreeMap<String, u64>);

impl Reference {
    /// Parses `key hexdigest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(key), Some(hex), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("reference line {}: expected `key digest`", i + 1));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("reference line {}: {e}", i + 1))?;
            if map.insert(key.to_string(), digest).is_some() {
                return Err(format!("reference line {}: duplicate key {key}", i + 1));
            }
        }
        Ok(Self(map))
    }

    /// Renders the table in the format [`Reference::parse`] reads.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (key, digest) in &self.0 {
            out.push_str(&format!("{key} {digest:016x}\n"));
        }
        out
    }

    /// The expected digest of one operation.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(key).copied()
    }

    /// Number of operations covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no operation is covered.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Counts operations and checks each one's digest. In recording mode
/// (used to regenerate the reference) it stores digests instead.
#[derive(Debug)]
pub struct Ledger {
    reference: Reference,
    recording: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that panicked or whose digest differs from the
    /// reference (or has no reference entry).
    pub failed: usize,
}

impl Ledger {
    /// A ledger checking against `reference`.
    pub fn checking(reference: Reference) -> Self {
        Self {
            reference,
            recording: false,
            attempted: 0,
            failed: 0,
        }
    }

    /// A ledger that records every digest it is shown.
    pub fn recording() -> Self {
        Self {
            recording: true,
            ..Self::checking(Reference::default())
        }
    }

    /// Books one operation: `None` means it panicked. Returns whether it
    /// passed.
    pub fn book(&mut self, key: &str, digest: Option<u64>) -> bool {
        self.attempted += 1;
        let ok = match digest {
            None => false,
            Some(got) if self.recording => match self.reference.0.insert(key.to_string(), got) {
                Some(prev) => prev == got,
                None => true,
            },
            Some(got) => self.reference.get(key) == Some(got),
        };
        if !ok {
            self.failed += 1;
            let expected = self
                .reference
                .get(key)
                .map_or("none".to_string(), |e| format!("{e:016x}"));
            let got = digest.map_or("panic".to_string(), |g| format!("{g:016x}"));
            eprintln!("[hostbench] FAILED {key}: expected {expected}, got {got}");
        }
        ok
    }

    /// The recorded (or loaded) reference.
    pub fn into_reference(self) -> Reference {
        self.reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litereconfig::pipeline::{Breakdown, SwitchEvent};
    use std::collections::BTreeSet;

    fn recorded_result() -> RunResult {
        let mut latency = LatencyStats::new();
        for ms in [12.5, 30.25, 31.0, 18.75] {
            latency.record(ms);
        }
        RunResult {
            map: 0.6125,
            latency,
            breakdown: Breakdown {
                detector_ms: 61.0,
                tracker_ms: 20.5,
                scheduler_ms: 8.0,
                switch_ms: 3.0,
                overhead_ms: 0.0,
                frames: 4,
            },
            branches_used: BTreeSet::from([7, 9]),
            branch_decisions: BTreeMap::from([(7, 1), (9, 1)]),
            switches: vec![SwitchEvent {
                src_key: 0,
                dst_key: 7,
                cost_ms: 3.0,
            }],
            decisions: 2,
            infeasible_decisions: 0,
            degrade_events: Vec::new(),
            faults: 0,
            degraded_gofs: 0,
        }
    }

    fn result_digest(r: &RunResult) -> u64 {
        let mut d = Digest::default();
        run_result(&mut d, r);
        d.finish()
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Digest::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn every_one_byte_change_to_a_recorded_output_is_caught() {
        // The canonical byte stream of a recorded run result.
        let r = recorded_result();
        let mut stream = Vec::new();
        for b in r.map.to_bits().to_le_bytes() {
            stream.push(b);
        }
        stream.extend_from_slice(&r.latency.mean().to_bits().to_le_bytes());
        stream.extend_from_slice(&r.breakdown.detector_ms.to_bits().to_le_bytes());
        let base = Digest::default().bytes(&stream).finish();
        for pos in 0..stream.len() {
            for flip in 1..=255u8 {
                let mut changed = stream.clone();
                changed[pos] ^= flip;
                assert_ne!(
                    Digest::default().bytes(&changed).finish(),
                    base,
                    "byte {pos} xor {flip:#x} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn ledger_fails_an_output_that_moved_by_one_byte() {
        let r = recorded_result();
        let mut reference = Ledger::recording();
        assert!(reference.book("cell/a/v0", Some(result_digest(&r))));
        let text = reference.into_reference().render("test");
        let mut ledger = Ledger::checking(Reference::parse(&text).unwrap());

        assert!(ledger.book("cell/a/v0", Some(result_digest(&r))));
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));

        // Flip one byte of the mAP's bit pattern (its lowest byte).
        let mut moved = r.clone();
        moved.map = f64::from_bits(moved.map.to_bits() ^ 0x01);
        assert!(!ledger.book("cell/a/v0", Some(result_digest(&moved))));
        // One more switch cost, one byte higher in its mantissa.
        let mut moved = r.clone();
        moved.switches[0].cost_ms = f64::from_bits(moved.switches[0].cost_ms.to_bits() ^ 0x100);
        assert!(!ledger.book("cell/a/v0", Some(result_digest(&moved))));
        // A panic and an unknown operation also fail.
        assert!(!ledger.book("cell/a/v0", None));
        assert!(!ledger.book("cell/b/v0", Some(result_digest(&r))));
        assert_eq!((ledger.attempted, ledger.failed), (5, 4));
    }

    #[test]
    fn recording_flags_a_nondeterministic_operation() {
        let mut ledger = Ledger::recording();
        assert!(ledger.book("op", Some(1)));
        assert!(ledger.book("op", Some(1)));
        assert!(!ledger.book("op", Some(2)));
    }

    #[test]
    fn reference_round_trips_and_rejects_garbage() {
        let mut ledger = Ledger::recording();
        ledger.book("a/b/v1", Some(0xdead_beef));
        ledger.book("c/d/v2", Some(u64::MAX));
        let reference = ledger.into_reference();
        let parsed = Reference::parse(&reference.render("two ops\nsecond line")).unwrap();
        assert_eq!(parsed, reference);
        assert_eq!(parsed.len(), 2);
        assert!(Reference::parse("a/b 12 extra").is_err());
        assert!(Reference::parse("a/b zz").is_err());
        assert!(Reference::parse("a 1\na 2").is_err());
    }
}
