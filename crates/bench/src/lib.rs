//! Experiment harness reproducing the paper's tables, figures and
//! numeric claims.
//!
//! Each module under [`experiments`] regenerates one artifact of the
//! DATE 2018 paper (or one in-text claim) and returns a self-contained
//! text report with paper-vs-measured columns. The `experiments` binary
//! runs them:
//!
//! ```text
//! cargo run --release -p tepics-bench --bin experiments -- all          # fast tier
//! cargo run --release -p tepics-bench --bin experiments -- all --full   # + nightly sweeps
//! cargo run --release -p tepics-bench --bin experiments -- table2 overlap
//! ```
//!
//! DESIGN.md §5 is the index mapping experiment ids to paper artifacts;
//! EXPERIMENTS.md records the outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Timing is this crate's job: the clippy.toml wall-clock bans do not apply here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod experiments;
pub mod report;

/// Cost tier of an experiment: which CI lane runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Seconds-scale: runs on every PR (`experiments all`).
    Fast,
    /// The full-size (64×64 class) sweeps: nightly only; `experiments
    /// all --full` includes them, or name them explicitly.
    Full,
}

/// An experiment: an id, the paper artifact it reproduces, its cost
/// tier, and a runner producing a text report.
pub struct Experiment {
    /// Command-line id.
    pub id: &'static str,
    /// The paper artifact this regenerates.
    pub artifact: &'static str,
    /// Which CI lane runs it.
    pub tier: Tier,
    /// Runs the experiment, returning a printable report.
    pub run: fn() -> String,
}

/// The registry of all experiments, in the order DESIGN.md lists them.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            tier: Tier::Fast,
            artifact: "Table I — Rule 30 truth table + Fig. 3 gate cell",
            run: experiments::table1::run,
        },
        Experiment {
            id: "table2",
            tier: Tier::Fast,
            artifact: "Table II — chip feature summary",
            run: experiments::table2::run,
        },
        Experiment {
            id: "fig1",
            tier: Tier::Full,
            artifact: "Fig. 1 — pixel node waveforms and event protocol",
            run: experiments::fig1::run,
        },
        Experiment {
            id: "fig2",
            tier: Tier::Fast,
            artifact: "Fig. 2 — conceptual floorplan and CA ring",
            run: experiments::fig2::run,
        },
        Experiment {
            id: "fig45",
            tier: Tier::Fast,
            artifact: "Figs. 4/5 — die and pixel area budgets",
            run: experiments::fig45::run,
        },
        Experiment {
            id: "eq1",
            tier: Tier::Fast,
            artifact: "Eq. (1) — compressed-sample dynamic range",
            run: experiments::eq1::run,
        },
        Experiment {
            id: "eq2",
            tier: Tier::Fast,
            artifact: "Eq. (2) — compressed-sample rate (≈50 kHz point)",
            run: experiments::eq2::run,
        },
        Experiment {
            id: "overlap",
            tier: Tier::Full,
            artifact: "Sect. III.B — event-overlap probability (6.25% claim)",
            run: experiments::overlap::run,
        },
        Experiment {
            id: "lsb",
            tier: Tier::Full,
            artifact: "Sect. III.B — 1 LSB error, system-level verification",
            run: experiments::lsb::run,
        },
        Experiment {
            id: "breakeven",
            tier: Tier::Fast,
            artifact: "Sect. III.B — R < 0.4 compression break-even",
            run: experiments::breakeven::run,
        },
        Experiment {
            id: "ffvb",
            tier: Tier::Full,
            artifact: "Conclusions — full-frame vs block-based CS",
            run: experiments::ffvb::run,
        },
        Experiment {
            id: "matrices",
            tier: Tier::Full,
            artifact: "Sect. I/III.A — measurement-matrix quality (RIP proxies)",
            run: experiments::matrices::run,
        },
        Experiment {
            id: "ca_spectrum",
            tier: Tier::Full,
            artifact: "Sect. III.A / ref. [10] — Rule 30 aperiodicity",
            run: experiments::ca_spectrum::run,
        },
        Experiment {
            id: "noise",
            tier: Tier::Full,
            artifact: "Sect. IV — comparator offset/auto-zero, jitter, FPN",
            run: experiments::noise::run,
        },
        Experiment {
            id: "progressive",
            tier: Tier::Full,
            artifact: "Sect. III.B — sequential samples ⇒ prefix reconstruction",
            run: experiments::progressive::run,
        },
        Experiment {
            id: "warmup",
            tier: Tier::Full,
            artifact: "(ablation) CA warm-up and step-per-sample knobs",
            run: experiments::warmup::run,
        },
        Experiment {
            id: "batch",
            tier: Tier::Full,
            artifact: "(infrastructure) parallel batch engine — scaling & determinism",
            run: experiments::batch::run,
        },
        Experiment {
            id: "hotpaths",
            tier: Tier::Full,
            artifact: "(infrastructure) hot-path timings — DCT, Φ apply/adjoint, warm decode",
            run: experiments::hotpaths::run,
        },
        Experiment {
            id: "solvers",
            tier: Tier::Full,
            artifact: "(infrastructure) solver shootout — every SolverKind, PSNR + wall-time",
            run: experiments::solvers::run,
        },
        Experiment {
            id: "tiled",
            tier: Tier::Full,
            artifact: "(infrastructure) tiled decode — stitched PSNR + block-parallel scaling",
            run: experiments::tiled::run,
        },
        Experiment {
            id: "throughput",
            tier: Tier::Full,
            artifact:
                "(infrastructure) streaming decode throughput — persistent pool vs thread count",
            run: experiments::throughput::run,
        },
        Experiment {
            id: "resilience",
            tier: Tier::Fast,
            artifact: "(infrastructure) resilient wire v3 — corruption rate vs PSNR/recovery",
            run: experiments::resilience::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    /// Smoke: every fast-tier experiment must run and produce a
    /// non-empty report. (The full-tier sweeps run nightly via the
    /// binary's `--full` flag.)
    #[test]
    fn fast_experiments_produce_reports() {
        let fast: Vec<Experiment> = registry()
            .into_iter()
            .filter(|e| e.tier == Tier::Fast)
            .collect();
        assert!(fast.len() >= 7, "fast tier shrank unexpectedly");
        for exp in fast {
            let report = (exp.run)();
            assert!(report.len() > 100, "{} report suspiciously short", exp.id);
        }
    }
}
