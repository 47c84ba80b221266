#![forbid(unsafe_code)]
//! `tepics-tidy` — the workspace invariant linter.
//!
//! The reproduction rests on three invariants that ordinary tests
//! cannot guard by construction:
//!
//! 1. **alloc-free** — warm decode hot paths (`solve_with` bodies, the
//!    measurement/dictionary kernels) perform no heap allocation;
//! 2. **determinism** — results never depend on wall-clock time or on
//!    hash-map iteration order;
//! 3. **panic-freedom** — library code surfaces errors instead of
//!    panicking, so hostile wire input can never abort a service.
//!
//! This crate makes them machine-checked: a string/comment/`cfg(test)`-
//! aware source scanner walks every workspace crate and enforces the
//! invariants as named, individually-silenceable checks (run
//! `cargo run -p tepics-tidy` from the workspace root). It is the
//! static half of the enforcement harness; the dynamic half is the
//! counting-allocator test in `tests/zero_alloc.rs` at the workspace
//! root, which asserts the alloc-free invariant at runtime.
//!
//! # Checks
//!
//! | name            | meaning                                                        |
//! |-----------------|----------------------------------------------------------------|
//! | `alloc-free`    | no allocating calls inside `// tidy:alloc-free` regions        |
//! | `wall-clock`    | no `Instant::now`/`SystemTime` outside the bench harness       |
//! | `hash-iter`     | no unjustified `HashMap`/`HashSet` in result-affecting crates  |
//! | `panic`         | no `unwrap`/`expect`/`panic!`/… in non-test library code       |
//! | `unsafe-forbid` | every crate root keeps `#![forbid(unsafe_code)]`               |
//! | `debug-print`   | no `dbg!`/stray `eprintln!`/`println!` in library code         |
//! | `todo-issue`    | no `TODO`/`FIXME` comment without an issue reference (`#123`)  |
//! | `marker`        | every `tidy:` marker parses and carries a non-empty reason     |
//!
//! # Markers
//!
//! * `// tidy:alloc-free` — the next braced block (typically the
//!   following function body) must be allocation-free.
//! * `// tidy:allow(<check>: <reason>)` — silences `<check>` on the
//!   same line and on the next code line. The reason is mandatory; a
//!   missing or empty reason is itself a violation (`marker`).
//!
//! Markers are recognized only in plain `//` (or `/* … */`) comments.
//! Doc comments (`///`, `//!`) are prose *about* the code — mentioning
//! a marker there documents it without activating it.
//!
//! # Scope
//!
//! The scanner reads every `.rs` file under each member crate's `src/`
//! tree (integration tests, examples, and fixtures are governed by the
//! test suite, not the linter). `cfg(test)` modules, `#[test]` items,
//! comments, string literals, and doctests never trigger code checks.
//! Crates are classified as *product* (all checks) or *harness*
//! (`tepics-bench`: the experiments harness, measurement/reporting code
//! where panicking loudly and reading the clock are the point — only
//! the meta checks apply).

pub mod checks;
pub mod mask;
pub mod model;
pub mod runner;

pub use model::{CheckId, CrateClass, SourceFile, Violation};
pub use runner::{find_workspace_root, run_workspace, Report, TidyError};
