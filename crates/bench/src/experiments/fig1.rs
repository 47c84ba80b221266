//! Fig. 1: pixel node waveforms and the column event protocol.

use crate::report::section;
use tepics_sensor::column::ColumnArbiter;
use tepics_sensor::pixel::NodeTrace;
use tepics_sensor::tdc::{Conversion, GlobalCounter};
use tepics_sensor::SensorConfig;

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Fig. 1 — elementary pixel, behavioral waveforms\n");
    let config = SensorConfig::paper_prototype();

    out.push_str(&section("Single selected pixel (intensity 0.35)"));
    let t_flip =
        tepics_sensor::photodiode::crossing_time(&config, 0.35) + config.comparator_delay();
    let trace = NodeTrace::simulate(&config, 0.35, true, t_flip, 100);
    out.push_str(&trace.to_ascii());
    out.push_str(&format!(
        "time axis 0 .. {:.2} us; comparator flips at {:.3} us; event lasts {:.0} ns\n",
        config.window_end() * 1e6,
        trace.t_flip * 1e6,
        config.event_duration() * 1e9
    ));

    out.push_str(&section(
        "Unselected pixel (S_i = S_j): V2 stuck high, no pulse",
    ));
    let quiet = NodeTrace::simulate(&config, 0.35, false, t_flip, 100);
    out.push_str(&quiet.to_ascii());

    out.push_str(&section(
        "Column protocol: near-simultaneous flips serialize",
    ));
    let arbiter = ColumnArbiter::new(&config);
    let counter = GlobalCounter::new(&config);
    let outcome = arbiter.arbitrate(&[(12, 2.0e-6), (40, 2.000002e-6), (3, 2.000004e-6)]);
    out.push_str("row | flip (us) | grant (us) | queued | ideal code | actual code\n");
    for e in &outcome.events {
        let fmt = |c: Conversion| match c {
            Conversion::Code(v) => v.to_string(),
            Conversion::Missed => "missed".into(),
        };
        out.push_str(&format!(
            " {:2} | {:9.6} | {:10.6} | {:6} | {:>10} | {:>11}\n",
            e.row,
            e.t_flip * 1e6,
            e.t_grant * 1e6,
            if e.queued { "yes" } else { "no" },
            fmt(counter.convert(e.t_flip)),
            fmt(counter.convert(e.t_grant)),
        ));
    }
    out.push_str(
        "\nBlocking is parallel (both later pixels wait immediately); release is\n\
         sequential top-down (row 3 fires before row 40 despite flipping later),\n\
         reproducing Sect. II.E exactly.\n",
    );
    out
}
