//! # ftspm-bench — benchmark harness
//!
//! Two faces:
//!
//! * the **`repro` binary** (`cargo run --release -p ftspm-bench --bin
//!   repro -- all`) regenerates every table and figure of the paper's
//!   evaluation from live simulation, printing human-readable tables and
//!   writing CSV into `results/`;
//! * the **benches** (`cargo bench -p ftspm-bench`, timed by
//!   `ftspm_testkit::bench`) measure the reproduction's own moving
//!   parts: the MDA mapper, the SEC-DED codec, raw and fault-injected
//!   simulator throughput, the end-to-end pipeline, the repro-scale
//!   sweeps, the multi-core hub, and the server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweeps;

use std::path::{Path, PathBuf};
use std::{fs, io};

/// Writes `contents` into `results/<name>`, creating the directory, and
/// returns the path written. Filesystem refusals surface as `Err` so the
/// caller (the `repro` binary) can report them instead of panicking.
pub fn write_result(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}
