//! Host-time benchmark of the LiteReconfig reproduction.
//!
//! The program reports virtual milliseconds; this package measures what
//! the program costs to run on the host. It drives the system only
//! through its public entry points and times the calls it makes itself.
//! See `README.md` next to this package for the workloads and metrics.

pub mod digest;
pub mod hostclock;
pub mod replay;
pub mod stats;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The one-line JSON result the benchmark prints last. Non-finite
/// values have no JSON form and are reported as `null`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 20.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 20.5, \"unit\": \"s\"}}}"
        );
        // Display never switches to exponent notation, which JSON allows
        // but some readers mishandle; all digits are kept.
        assert!(result_json(true, 1, 0, &[Metric::new("x", 1e-7, "s")]).contains("0.0000001"));
        assert!(result_json(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]).contains("null"));
    }
}
