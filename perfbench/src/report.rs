//! The result line the benchmark ends with.

/// Named metrics with units, in the order they are printed.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut body = tpi_obs::JsonObject::new();
    for (name, value, unit) in &metrics.0 {
        let mut m = tpi_obs::JsonObject::new();
        m.field_raw("value", &number(*value)).field_str("unit", unit);
        body.field_object(name, m);
    }
    let mut o = tpi_obs::JsonObject::new();
    o.field_bool("correct", correct)
        .field_u64("attempted", attempted as u64)
        .field_u64("failed", failed as u64)
        .field_object("metrics", body);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        m.push("bad", f64::NAN, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_p50_ms":{"value":1.25,"unit":"ms"},"bad":{"value":0,"unit":"ms"}}}"#
        );
    }
}
