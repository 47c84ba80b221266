//! Experiment runner: regenerates the paper's tables, figures and
//! numeric claims.
//!
//! ```text
//! experiments               # list available experiments
//! experiments all           # run the fast tier
//! experiments all --full    # include the slow full-size sweeps (nightly)
//! experiments table2 lsb    # run a subset (named ids always run)
//! experiments all --out results.md
//! experiments --smoke       # tiny end-to-end batch; exit 1 on regression
//! ```

// Timing is this crate's job: the clippy.toml wall-clock bans do not apply here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
use std::io::Write as _;
use tepics_bench::{registry, Tier};

/// CI smoke: a tiny 16×16 batch through the full capture→wire→recover
/// pipeline on the parallel batch engine. Fails loudly (non-zero exit)
/// if reconstruction quality, wire saving, or cross-thread determinism
/// regress — so pipeline breakage fails CI even when no unit test
/// covers it.
fn smoke() {
    use tepics_core::batch::BatchRunner;
    use tepics_core::prelude::*;

    let side = 16;
    let imager = CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(42)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("smoke imager config");
    let scenes: Vec<ImageF64> = (0..8)
        .map(|i| Scene::gaussian_blobs(3).render(side, side, i))
        .collect();

    let serial = BatchRunner::with_threads(1)
        .run(&imager, &scenes)
        .expect("smoke batch (1 thread)");
    let parallel = BatchRunner::new()
        .run(&imager, &scenes)
        .expect("smoke batch (N threads)");
    let summary = parallel.summary();
    eprintln!(
        "smoke: {} frames, mean PSNR {:.1} dB (min {:.1}), wire saving {:.1}%, {:.1} frames/s",
        summary.frames,
        summary.mean_psnr_db,
        summary.min_psnr_db,
        summary.wire_saving() * 100.0,
        summary.frames_per_sec,
    );
    let mut failures = Vec::new();
    // Fast tidy pass: the workspace invariant linter (alloc-free
    // regions, determinism, panic-freedom, meta-lints) must stay clean.
    // It scans ~100 source files in milliseconds, so it rides in the
    // smoke tier; skipped with a note when the sources are not present
    // (e.g. an installed binary run outside the repo).
    let tidy_root = std::env::current_dir()
        .ok()
        .and_then(|d| tepics_tidy::find_workspace_root(&d));
    match tidy_root {
        Some(root) => match tepics_tidy::run_workspace(&root, &[]) {
            Ok(report) if report.is_clean() => eprintln!(
                "smoke: tidy OK ({} files across {} crates)",
                report.files_scanned,
                report.crates_scanned.len()
            ),
            Ok(report) => {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                failures.push(format!("tidy found {} violations", report.violations.len()));
            }
            Err(e) => failures.push(format!("tidy scan failed: {e}")),
        },
        None => eprintln!("smoke: tidy skipped (no workspace root above cwd)"),
    }
    if serial.reports != parallel.reports {
        failures.push("parallel batch reports differ from serial".to_string());
    }
    if summary.mean_psnr_db < 15.0 {
        failures.push(format!("mean PSNR {:.1} dB < 15.0", summary.mean_psnr_db));
    }
    if summary.min_psnr_db < 10.0 {
        failures.push(format!("min PSNR {:.1} dB < 10.0", summary.min_psnr_db));
    }
    if summary.wire_saving() <= 0.0 {
        failures.push(format!(
            "wire saving {:.3} not positive",
            summary.wire_saving()
        ));
    }
    // Session stream path: the same scenes as one contiguous wire
    // stream, decoded incrementally with a shared operator cache.
    let mut enc = EncodeSession::new(imager.clone()).expect("smoke encode session");
    let mut frame_codec_bits = 0usize;
    for scene in &scenes {
        let records = enc.capture(scene).expect("smoke stream capture");
        frame_codec_bits += records.iter().map(|f| f.wire_bits()).sum::<usize>();
    }
    let mut dec = DecodeSession::new();
    let decoded = dec
        .push_bytes(&enc.to_bytes())
        .expect("smoke stream decode");
    if decoded.len() != scenes.len() {
        failures.push(format!(
            "stream decoded {} of {} frames",
            decoded.len(),
            scenes.len()
        ));
    }
    let stats = dec.cache().stats();
    if stats.misses != 1 || stats.hits != scenes.len() as u64 - 1 {
        failures.push(format!(
            "operator cache expected 1 miss / {} hits, saw {} / {}",
            scenes.len() - 1,
            stats.misses,
            stats.hits
        ));
    }
    if enc.wire_bits() >= frame_codec_bits {
        failures.push(format!(
            "stream container {} bits not smaller than {} bits of per-frame headers",
            enc.wire_bits(),
            frame_codec_bits
        ));
    }
    eprintln!(
        "smoke: stream {} frames in {} bits (frame codec {} bits), cache hit rate {:.0}%",
        decoded.len(),
        enc.wire_bits(),
        frame_codec_bits,
        stats.hit_rate() * 100.0
    );
    // Hot-path kernels (DCT, Φ apply/adjoint, warm decode) in smoke
    // mode: exercises the fast operator paths end to end on every PR.
    match tepics_bench::experiments::hotpaths::smoke() {
        Ok(summary) => eprintln!("{summary}"),
        Err(hotpath_failures) => failures.extend(hotpath_failures),
    }
    // Solver roster in smoke mode: every SolverKind decodes one frame
    // (warm ≡ cold asserted per solver), plus the greedy column-view
    // consistency contracts — so a solver-stack regression fails CI
    // even when no unit test covers it.
    match tepics_bench::experiments::solvers::smoke() {
        Ok(summary) => eprintln!("{summary}"),
        Err(solver_failures) => failures.extend(solver_failures),
    }
    // Tiled path in smoke mode: a non-square frame in shifted uniform
    // tiles — geometry-first capture, v2 wire records, stitched decode,
    // one Φ build across all tiles, serial ≡ threaded.
    match tepics_bench::experiments::tiled::smoke() {
        Ok(summary) => eprintln!("{summary}"),
        Err(tiled_failures) => failures.extend(tiled_failures),
    }
    // Resilient wire v3 in smoke mode: clean v3 decodes bit-identical
    // to v2, and a 0.1%-corrupted v3 stream still recovers ≥90% of its
    // frames — the graceful-degradation contract on every PR.
    match tepics_bench::experiments::resilience::smoke() {
        Ok(summary) => eprintln!("{summary}"),
        Err(resilience_failures) => failures.extend(resilience_failures),
    }
    // Persistent decode pool in smoke mode: a multi-frame tiled stream
    // through threads(4) pooled ≡ serial, and the warm pooled decode
    // must spawn zero threads — the amortization contract on every PR.
    match tepics_bench::experiments::throughput::smoke() {
        Ok(summary) => eprintln!("{summary}"),
        Err(pool_failures) => failures.extend(pool_failures),
    }
    if failures.is_empty() {
        eprintln!("smoke: OK");
    } else {
        for f in &failures {
            eprintln!("smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let registry = registry();
    let mut out_path: Option<String> = None;
    let mut full = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            out_path = it.next();
            if out_path.is_none() {
                eprintln!("--out requires a path");
                std::process::exit(2);
            }
        } else if arg == "--full" {
            full = true;
        } else {
            ids.push(arg);
        }
    }

    if ids.is_empty() {
        println!(
            "usage: experiments <id>... | all [--full] [--out <path>]\n\navailable experiments:"
        );
        for e in &registry {
            let tier = match e.tier {
                Tier::Fast => "",
                Tier::Full => " [full tier]",
            };
            println!("  {:<12} {}{tier}", e.id, e.artifact);
        }
        return;
    }

    let run_all = ids.iter().any(|i| i == "all");
    // `all` expands to the fast tier on PR lanes; `--full` (nightly)
    // pulls in the slow full-size sweeps. Explicitly named ids always
    // run, whatever their tier.
    let selected: Vec<_> = registry
        .iter()
        .filter(|e| (run_all && (full || e.tier == Tier::Fast)) || ids.iter().any(|i| i == e.id))
        .collect();
    if run_all && !full {
        let skipped: Vec<&str> = registry
            .iter()
            .filter(|e| e.tier == Tier::Full && !selected.iter().any(|s| s.id == e.id))
            .map(|e| e.id)
            .collect();
        if !skipped.is_empty() {
            eprintln!(
                "skipping full-tier sweeps (pass --full to include): {}",
                skipped.join(" ")
            );
        }
    }
    if selected.is_empty() {
        eprintln!("no matching experiments; run without arguments to list ids");
        std::process::exit(2);
    }
    for id in ids.iter().filter(|i| *i != "all") {
        if !registry.iter().any(|e| e.id == *id) {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
    }

    let mut combined = String::new();
    for e in selected {
        eprintln!(">>> running {} — {}", e.id, e.artifact);
        let started = std::time::Instant::now();
        let report = (e.run)();
        eprintln!("    done in {:.1}s", started.elapsed().as_secs_f64());
        println!("{report}");
        println!("{}", "=".repeat(78));
        combined.push_str(&report);
        combined.push_str("\n\n");
    }
    if let Some(path) = out_path {
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        file.write_all(combined.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("combined report written to {path}");
    }
}
