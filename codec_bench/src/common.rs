//! What every workload shares: the run configuration, the outcome it
//! reports, seed derivation, and output-check bookkeeping.

use std::time::Instant;

use tepics_core::prelude::*;
use tepics_util::parallel::thread_spawn_count;
use tepics_util::SplitMix64;

use crate::metrics::Metrics;
use crate::stats;
use crate::trace::Tracer;

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny sizes for self-tests.
    pub smoke: bool,
    /// Threads the workload may use (`nproc`).
    pub threads: usize,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (frames or streams).
    pub attempted: u64,
    /// Operations that errored, were lost or failed a check.
    pub failed: u64,
    /// Every failed check, in words.
    pub failures: Vec<String>,
    /// End-to-end and (traced) per-layer metrics.
    pub metrics: Metrics,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check; returns whether it held.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Seed-derivation domains, so the inputs of different roles never
/// share a random stream. Scene and fault seeds derive from the
/// workload seed; sensor seeds derive from [`domain::DEVICES`] instead
/// (see [`device_seed`]).
pub mod domain {
    /// Root seed of the fixed set of simulated devices.
    pub const DEVICES: u64 = 0xDE71CE;
    /// Camera sensor seed.
    pub const CAMERA_SENSOR: u64 = 0xCA01;
    /// Camera scene seeds.
    pub const CAMERA_SCENE: u64 = 0xCA02;
    /// Live stream sensor seed.
    pub const LIVE_SENSOR: u64 = 0x1101;
    /// Live stream scene seeds.
    pub const LIVE_SCENE: u64 = 0x1102;
    /// Fleet sensor seeds.
    pub const FLEET_SENSOR: u64 = 0xF101;
    /// Fleet scene seeds.
    pub const FLEET_SCENE: u64 = 0xF102;
    /// Fleet fault-injection seeds.
    pub const FLEET_FAULT: u64 = 0xF103;
}

/// A 64-bit seed derived from the workload seed for role `domain`,
/// item `index`.
pub fn derive(seed: u64, domain: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ domain.rotate_left(32) ^ index.wrapping_mul(0x9E37));
    rng.next_u64()
}

/// The strategy seed of simulated device `index` in role `domain`. A
/// device keeps its seed whatever the workload seed: the seed fixes the
/// CA selection sequence Φ, and capture and decode cost depend on Φ
/// (event queueing, solver convergence) by tens of percent, so a
/// seed-dependent device would make throughput swing with the workload
/// seed. The workload seed picks what the devices see — every scene —
/// and the fault pattern.
pub fn device_seed(domain: u64, index: u64) -> u64 {
    derive(domain::DEVICES, domain, index)
}

/// A square `natural_like` scene.
pub fn scene(side: usize, seed: u64) -> ImageF64 {
    Scene::natural_like().render(side, side, seed)
}

/// Captures every scene with `imager` (`capture_tiles`), `threads`
/// scenes at a time: input generation, not a measured phase.
pub fn capture_all(
    imager: &CompressiveImager,
    scenes: &[ImageF64],
    threads: usize,
) -> Vec<Vec<CompressedFrame>> {
    let threads = threads.clamp(1, scenes.len().max(1));
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    scenes
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|scene| imager.capture_tiles(scene))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut per_thread: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("capture thread panicked").into_iter())
            .collect();
        (0..scenes.len())
            .map(|i| {
                per_thread[i % threads]
                    .next()
                    .expect("one capture per scene")
            })
            .collect()
    })
}

/// Digest of a decoded frame's code image: equal digests mean
/// bit-identical frames.
pub fn frame_digest(frame: &DecodedFrame) -> u64 {
    stats::image_digest(frame.reconstruction.code_image().as_slice())
}

/// PSNR of a decoded code image against the ideal codes (peak 255).
pub fn psnr_db(truth: &ImageF64, decoded: &ImageF64) -> f64 {
    psnr(truth, decoded, 255.0)
}

/// The set-up measurement: `samples` timings of `per_sample` calls of
/// `f` each; returns the last value built and the median seconds per
/// call. Every value passes through `black_box`, so no construction is
/// optimized away.
pub fn median_setup<T>(samples: usize, per_sample: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let per_sample = per_sample.max(1);
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        for _ in 0..per_sample {
            last = Some(std::hint::black_box(f()));
        }
        times.push(t.elapsed().as_secs_f64() / per_sample as f64);
    }
    (last.expect("at least one call"), stats::median(&times))
}

/// Process-level counters sampled around a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStart {
    /// Tracer clock at the start (ns).
    pub at_ns: u64,
    started: Instant,
    cpu_s: f64,
    spawns: u64,
}

/// What the process did during a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseEnd {
    /// Tracer clock at the end (ns).
    pub at_ns: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Worker threads spawned.
    pub spawns: u64,
}

impl PhaseStart {
    /// Starts a timed phase.
    pub fn now(tr: &Tracer) -> PhaseStart {
        PhaseStart {
            cpu_s: stats::process_cpu_s().unwrap_or(f64::NAN),
            spawns: thread_spawn_count(),
            at_ns: tr.now_ns(),
            started: Instant::now(),
        }
    }

    /// Seconds since the phase started.
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Ends the phase.
    pub fn end(&self, tr: &Tracer) -> PhaseEnd {
        let wall_s = self.elapsed();
        PhaseEnd {
            at_ns: tr.now_ns(),
            wall_s,
            cpu_s: stats::process_cpu_s().unwrap_or(f64::NAN) - self.cpu_s,
            spawns: thread_spawn_count() - self.spawns,
        }
    }
}

/// Whether a closed loop should run another iteration: at least `min`
/// iterations, then until `seconds` have passed.
pub fn keep_going(done: usize, min: usize, phase: &PhaseStart, seconds: f64) -> bool {
    done < min || phase.elapsed() < seconds
}

/// The end-to-end metrics every workload reports the same way.
pub fn common_metrics(out: &mut Outcome, setup_s: f64, frames: usize, phase: &PhaseEnd) {
    let frames_f = frames.max(1) as f64;
    out.metrics.set("setup_s", setup_s);
    out.metrics
        .set("frames_per_s", frames as f64 / phase.wall_s);
    out.metrics.set("cpu_s_per_frame", phase.cpu_s / frames_f);
    out.metrics
        .set("peak_rss_mib", stats::peak_rss_mib().unwrap_or(f64::NAN));
}

/// Splits a compact (version 1/2) stream into its header and
/// `frames` equal, frame-aligned chunks.
pub fn frame_chunks(bytes: &[u8], header_len: usize, frames: usize) -> Option<Vec<&[u8]>> {
    let body = bytes.get(header_len..)?;
    if frames == 0 || body.len() % frames != 0 {
        return None;
    }
    let per = body.len() / frames;
    let mut chunks = vec![&bytes[..header_len]];
    chunks.extend(body.chunks(per));
    Some(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_domain_and_index() {
        let a = derive(1, domain::CAMERA_SCENE, 0);
        assert_eq!(a, derive(1, domain::CAMERA_SCENE, 0));
        assert_ne!(a, derive(1, domain::CAMERA_SCENE, 1));
        assert_ne!(a, derive(1, domain::LIVE_SCENE, 0));
        assert_ne!(a, derive(2, domain::CAMERA_SCENE, 0));
    }

    #[test]
    fn chunks_are_frame_aligned() {
        let bytes: Vec<u8> = (0..10).collect();
        let chunks = frame_chunks(&bytes, 4, 3).unwrap();
        assert_eq!(chunks, vec![&[0, 1, 2, 3][..], &[4, 5], &[6, 7], &[8, 9]]);
        assert!(frame_chunks(&bytes, 4, 4).is_none());
        assert!(frame_chunks(&bytes, 11, 1).is_none());
    }

    #[test]
    fn loops_run_a_minimum_then_until_the_deadline() {
        let tr = Tracer::new(false);
        let phase = PhaseStart::now(&tr);
        assert!(keep_going(0, 2, &phase, 0.0));
        assert!(keep_going(1, 2, &phase, 0.0));
        assert!(!keep_going(2, 2, &phase, 0.0));
        assert!(keep_going(5, 2, &phase, 3600.0));
    }
}
