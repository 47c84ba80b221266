//! Ablation of TEPICS's two added knobs (documented in DESIGN.md §4):
//! the CA warm-up before the first pattern and the steps taken between
//! patterns. The paper starts sampling immediately and steps once per
//! sample; this experiment shows what those choices cost.

use std::sync::Arc;

use crate::report::{section, Table};
use tepics_core::batch::BatchRunner;
use tepics_core::pipeline::evaluate_with_cache;
use tepics_core::prelude::*;

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Ablation — CA warm-up and steps-per-sample\n");
    let side = 32;
    let scene = Scene::gaussian_blobs(3).render(side, side, 5);

    out.push_str(&section(
        "Early-pattern balance (single-one seed, no warm-up pathology)",
    ));
    // With a *sparse* seed the early CA states are visibly structured —
    // show the selected-pixel fraction of the first patterns.
    let mut t = Table::new(&["pattern #", "warmup 0", "warmup 16", "warmup 128"]);
    let fraction_of = |warmup: u16, idx: usize| -> f64 {
        let strategy = StrategyKind::CellularAutomaton {
            rule: 30,
            warmup,
            steps_per_sample: 1,
        };
        // A single-one style sparse seed: low entropy start.
        let mut src = strategy.build_source(2 * side, 1).unwrap();
        let mut pattern = src.next_pattern();
        for _ in 0..idx {
            pattern = src.next_pattern();
        }
        pattern.balance()
    };
    for idx in [0usize, 1, 2, 4, 8] {
        t.row_owned(vec![
            idx.to_string(),
            format!("{:.2}", fraction_of(0, idx)),
            format!("{:.2}", fraction_of(16, idx)),
            format!("{:.2}", fraction_of(128, idx)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&section("Reconstruction PSNR vs warm-up (R = 0.3)"));
    // Each (warmup, steps) point is an independent capture→recover
    // loop; fan them out as one batch and read the input-ordered
    // reports back.
    let grid: Vec<(u16, u8)> = [0u16, 8, 64, 256]
        .into_iter()
        .flat_map(|warmup| [1u8, 2].map(|steps| (warmup, steps)))
        .collect();
    let runner = BatchRunner::new();
    let (scene, cache) = (Arc::new(scene), runner.cache().clone());
    let outcome = runner
        .run_jobs(grid.clone(), move |(warmup, steps)| {
            let strategy = StrategyKind::CellularAutomaton {
                rule: 30,
                warmup,
                steps_per_sample: steps,
            };
            let imager = CompressiveImager::builder(side, side)
                .ratio(0.3)
                .seed(1) // sparse-ish seed on purpose
                .strategy(strategy)
                .fidelity(Fidelity::Functional)
                .build()?;
            // Each grid point is its own cache key (the strategy is the
            // knob under test); the shared cache still dedups dictionaries.
            evaluate_with_cache(&cache, &imager, |_| {}, &scene)
        })
        .expect("warmup sweep pipeline");
    let mut t = Table::new(&["warmup", "steps/sample", "PSNR (dB)", "SSIM"]);
    for ((warmup, steps), report) in grid.iter().zip(&outcome.reports) {
        t.row_owned(vec![
            warmup.to_string(),
            steps.to_string(),
            format!("{:.1}", report.psnr_code_db),
            format!("{:.3}", report.ssim_code),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nWith a dense random seed (the library default expands 64 seed bits\n\
         into all 128 cells) the warm-up matters little — Rule 30 mixes in a\n\
         few steps. It exists for the sparse-seed case and as a documented\n\
         deviation knob; steps-per-sample > 1 buys nothing measurable, so\n\
         the paper's one-step-per-sample choice stands.\n",
    );
    out
}
