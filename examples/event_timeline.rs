//! Signal-level walkthrough of the pixel and the column bus (Fig. 1).
//!
//! ```text
//! cargo run --release --example event_timeline
//! ```
//!
//! Renders the node waveforms of one pixel (`V_pix`, `V1..V5`, `Q′`,
//! `V_o`) and then replays a three-pixel column where two pixels flip
//! almost simultaneously — showing the token protocol serialize the
//! pulses with a top-down release, exactly as Sect. II.C–II.E describe.

use tepics::sensor::column::ColumnArbiter;
use tepics::sensor::pixel::NodeTrace;
use tepics::sensor::tdc::{Conversion, GlobalCounter};
use tepics::sensor::SensorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SensorConfig::builder(64, 64).build()?;

    // --- Single pixel: the Fig. 1 timeline -------------------------
    let intensity = 0.35;
    let t_flip =
        tepics::sensor::photodiode::crossing_time(&config, intensity) + config.comparator_delay();
    println!(
        "single pixel at intensity {intensity}: comparator flips at {:.3} us",
        t_flip * 1e6
    );
    let trace = NodeTrace::simulate(&config, intensity, true, t_flip, 120);
    println!("{}", trace.to_ascii());
    println!("(time axis: 0 .. {:.2} us)\n", config.window_end() * 1e6);

    // --- Three-pixel column: arbitration in action -----------------
    // Pixels at rows 5, 20, 41. Rows 20 and 41 flip 2 ns apart — far
    // closer than the 5 ns event duration — so the bus must serialize
    // them; row 5 flips later, alone.
    let arbiter = ColumnArbiter::new(&config);
    let pulses = [(20usize, 1.000e-6), (41usize, 1.002e-6), (5usize, 3.0e-6)];
    let outcome = arbiter.arbitrate(&pulses);
    let counter = GlobalCounter::new(&config);

    println!(
        "column arbitration ({} ns events):",
        config.event_duration() * 1e9
    );
    println!("row | flip (us) | grant (us) | queued | code(ideal) | code(actual)");
    println!("----+-----------+------------+--------+-------------+-------------");
    for e in &outcome.events {
        let ideal = match counter.convert(e.t_flip) {
            Conversion::Code(c) => c.to_string(),
            Conversion::Missed => "missed".into(),
        };
        let actual = match counter.convert(e.t_grant) {
            Conversion::Code(c) => c.to_string(),
            Conversion::Missed => "missed".into(),
        };
        println!(
            " {:2} |  {:8.4} |  {:9.4} |   {}    |     {:>5}   |     {:>5}",
            e.row,
            e.t_flip * 1e6,
            e.t_grant * 1e6,
            if e.queued { "yes" } else { " no" },
            ideal,
            actual
        );
    }
    println!(
        "max queue depth {}; worst delay {:.1} ns — codes agree unless the \
         delay crosses a {:.1} ns clock edge (the paper's 1 LSB case)",
        outcome.max_queue_depth,
        outcome.max_delay() * 1e9,
        config.t_clk() * 1e9
    );

    // --- The release-order subtlety --------------------------------
    // Row 50 takes the bus; rows 30 and 10 flip during its pulse (30
    // first). The chain releases TOP-DOWN: row 10 fires before row 30
    // even though it flipped later.
    let outcome = arbiter.arbitrate(&[(50, 2.0e-6), (30, 2.001e-6), (10, 2.003e-6)]);
    let order: Vec<usize> = outcome.events.iter().map(|e| e.row).collect();
    println!("\nrelease order for flips (50 @2.000us, 30 @2.001us, 10 @2.003us): {order:?}");
    println!("(sequential top-down release: the topmost waiting pixel wins)");

    // --- VCD export for a real waveform viewer ----------------------
    // The same traces, in the format post-layout simulation uses: open
    // them in GTKWave next to actual silicon dumps.
    let pixel_vcd = tepics::sensor::vcd::node_trace_to_vcd(&trace);
    let column_vcd = tepics::sensor::vcd::column_outcome_to_vcd(&outcome, config.event_duration());
    std::fs::write("tepics_pixel.vcd", pixel_vcd)?;
    std::fs::write("tepics_column.vcd", column_vcd)?;
    println!("\nwaveforms dumped: tepics_pixel.vcd, tepics_column.vcd (IEEE-1364 VCD)");
    Ok(())
}
