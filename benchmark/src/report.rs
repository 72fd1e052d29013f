//! Named measurements, their human-readable listing, and the result line.

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    /// `None` when there is nothing to report: a refused percentile
    /// (`n/a`) or a layer the workload never enters (`bypassed`); the note
    /// says which. The result line carries 0 then, because its schema is
    /// the same for every workload.
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Where the value came from (sample count, definition reminder).
    pub note: String,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
        note: note.into(),
    }
}

fn absent(name: &'static str, unit: &'static str, why: &str) -> Metric {
    Metric {
        name,
        value: None,
        unit,
        note: why.into(),
    }
}

/// A layer this workload never enters.
pub fn bypassed(name: &'static str, unit: &'static str) -> Metric {
    absent(name, unit, "bypassed")
}

/// A statistic that may have been refused for want of samples.
pub fn guarded(
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    match value {
        Some(value) => metric(name, value, unit, note),
        None => absent(name, unit, "n/a"),
    }
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("## {title}");
    for m in metrics {
        match m.value {
            Some(value) => println!("{:<40} {value:>16.4} {:<8} {}", m.name, m.unit, m.note),
            None => println!("{:<40} {:>16} {:<8}", m.name, m.note, m.unit),
        }
    }
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = m.value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contracts_json() {
        let metrics = [
            metric("lat_p50_us", 1.2034, "us", "n=7"),
            bypassed("data.probe_hit_ns", "ns"),
            metric("broken", f64::NAN, "s", ""),
        ];
        assert_eq!(
            result_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"lat_p50_us\": {\"value\": 1.2034, \"unit\": \"us\"}, \
             \"data.probe_hit_ns\": {\"value\": 0, \"unit\": \"ns\"}, \
             \"broken\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
