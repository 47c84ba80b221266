//! Metric names and units (the same lists `BENCHMARK.json` declares),
//! the result line, and the small derived quantities the report shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("frame_latency_p50_s", "s"),
    ("cpu_s_per_frame", "s"),
    ("peak_rss_mib", "MiB"),
    ("psnr_db", "dB"),
    ("bits_per_pixel", "bit/px"),
    ("recovered_fraction", "ratio"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sensor.capture_s", "s"),
    ("sensor.tile_capture_s", "s"),
    ("sensor.pulses", "count"),
    ("sensor.queued_pulses", "count"),
    ("sensor.missed_pulses", "count"),
    ("sensor.overflows", "count"),
    ("sensor.ns_per_pulse", "ns"),
    ("ca.patterns_s", "s"),
    ("imaging.split_s", "s"),
    ("imaging.stitch_s", "s"),
    ("core.stream.serialize_s", "s"),
    ("core.stream.wire_bytes", "bytes"),
    ("core.stream.parse_s", "s"),
    ("core.stream.bytes_skipped", "bytes"),
    ("core.stream.corrupt_events", "count"),
    ("core.session.push_s", "s"),
    ("core.session.frames_recovered", "count"),
    ("core.session.frames_degraded", "count"),
    ("core.session.frames_lost", "count"),
    ("core.session.tiles_erased", "count"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.redundant_builds", "count"),
    ("core.cache.cold_frame_s", "s"),
    ("core.cache.warm_frame_s", "s"),
    ("core.cache.resident_bytes", "bytes"),
    ("recovery.solve_s", "s"),
    ("recovery.iterations", "count"),
    ("cs.apply_s", "s"),
    ("cs.adjoint_s", "s"),
    ("cs.kernel_share", "ratio"),
    ("util.pool.spawns_per_frame", "count"),
    ("util.pool.parallel_efficiency", "ratio"),
    ("util.pool.serial_frames_per_s", "frames/s"),
    ("core.batch.stream_s", "s"),
    ("core.batch.straggler_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.frames_per_s", "frames/s"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name` (which must be declared in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The JSON `metrics` object for `table`, or the names that are
    /// missing or not finite.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let bad: Vec<&str> = table
            .iter()
            .filter(|(n, _)| !self.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| *n)
            .collect();
        if !bad.is_empty() {
            return Err(format!("missing or non-finite metrics: {}", bad.join(", ")));
        }
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.0[name];
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite float as a JSON number with all its digits.
pub fn json_number(value: f64) -> String {
    // `{:?}` prints the shortest round-tripping form and always keeps a
    // fraction or exponent, both of which JSON accepts.
    format!("{value:?}")
}

/// The final stdout line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// Operator builds the cache performed beyond the one per distinct key
/// the workload touched — wasted work (the same-key build race).
pub fn redundant_builds(misses: u64, distinct_keys: u64) -> u64 {
    misses.saturating_sub(distinct_keys)
}

/// Σ serial unit times ÷ (threads × wall): how much of the available
/// cores' time a parallel phase turned into useful work.
pub fn parallel_efficiency(serial_unit_s: f64, threads: usize, wall_s: f64) -> f64 {
    serial_unit_s / (threads.max(1) as f64 * wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // a copy of the benchmark without the manifest
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_is_complete_or_refused() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        assert!(m.to_json(END_TO_END).unwrap_err().contains("frames_per_s"));
        for (name, _) in END_TO_END {
            m.set(name, 1.25);
        }
        m.set("psnr_db", f64::NAN);
        assert!(m.to_json(END_TO_END).unwrap_err().contains("psnr_db"));
        m.set("psnr_db", 30.0);
        let json = m.to_json(END_TO_END).unwrap();
        assert!(json.contains("\"psnr_db\": {\"value\": 30.0, \"unit\": \"dB\"}"));
        let line = result_line(true, 3, 0, &json);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert_eq!(json_number(1e-9), "1e-9");
    }

    #[test]
    fn redundant_builds_and_efficiency() {
        assert_eq!(redundant_builds(2, 1), 1);
        assert_eq!(redundant_builds(12, 12), 0);
        assert_eq!(redundant_builds(0, 3), 0);
        assert!((parallel_efficiency(1.8, 2, 1.0) - 0.9).abs() < 1e-12);
    }
}
