//! # ftspm-workloads — the MiBench-substitute kernel suite
//!
//! The FTSPM paper evaluates on the MiBench embedded benchmark suite plus
//! a hand-written case-study program (its Algorithm 2). MiBench binaries
//! cannot run on our simulator (and matter to FTSPM only through their
//! block structure and memory profiles — see DESIGN.md §2), so this crate
//! re-implements the same algorithms as *block-structured kernels* over
//! the simulator's memory API:
//!
//! | kernel | MiBench counterpart | memory character |
//! |---|---|---|
//! | `case_study` | paper §IV Algorithm 2 | mixed; reproduces Tables I–II |
//! | `qsort` | qsort | in-place sort: write-heavy buffer |
//! | `bitcount` | bitcount | read-only scan |
//! | `basicmath` | basicmath | read input, write results |
//! | `crc32` | CRC32 | table + stream, read-dominated |
//! | `sha` | sha | hot small write-heavy schedule array |
//! | `dijkstra` | dijkstra | large matrix (off-chip), hot small arrays |
//! | `stringsearch` | stringsearch | read-only text, small tables |
//! | `fft` | FFT | two write-heavy working arrays |
//! | `susan` | susan (smoothing) | image in/out |
//! | `jpeg` | jpeg (DCT) | block transform, LUT |
//! | `adpcm` | adpcm | stream encode, step tables |
//! | `rijndael` | rijndael | AES-128: hot byte tables, streaming state |
//! | `patricia` | patricia | pointer-chasing trie lookups |
//!
//! Every kernel computes its result **for real** through simulated
//! memory, and `new()` computes the same result natively on the host; the
//! two checksums must agree, which is what the crate's tests assert on
//! every structure. All inputs are generated from seeded RNGs, so every
//! run is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case_study;
mod kernels;
pub mod multicore;
pub mod registry;
mod synthetic;
mod util;

pub use case_study::CaseStudy;
pub use kernels::adpcm::Adpcm;
pub use kernels::basicmath::BasicMath;
pub use kernels::bitcount::BitCount;
pub use kernels::crc32::Crc32;
pub use kernels::dijkstra::Dijkstra;
pub use kernels::fft::Fft;
pub use kernels::jpeg::JpegDct;
pub use kernels::patricia::Patricia;
pub use kernels::qsort::QSort;
pub use kernels::rijndael::Rijndael;
pub use kernels::sha::Sha1;
pub use kernels::stream::StreamPipeline;
pub use kernels::stringsearch::StringSearch;
pub use kernels::susan::Susan;
pub use multicore::{
    find_multicore, multicore_names, multicore_registry, run_lockstep, FalseSharing,
    MultiKernelEntry, MultiWorkload, ProducerConsumer, Reduction, StepOutcome,
};
pub use registry::{evaluation_set, find, kernel_names, registry, KernelEntry};
pub use synthetic::{Synthetic, SyntheticConfig};
pub use util::{checksum_block, fnv1a64, Checksum};

use ftspm_sim::{Cpu, Dram, Program, SimError};

/// A block-structured benchmark program runnable on the simulator.
///
/// `Send` is a supertrait so whole workload sets can shard across the
/// deterministic parallel executor (`ftspm_testkit::par`); kernels are
/// plain owned data, so every implementor satisfies it automatically.
pub trait Workload: Send {
    /// Workload name (MiBench-style, e.g. `"crc32"`).
    fn name(&self) -> &str;

    /// The program's block structure.
    fn program(&self) -> &Program;

    /// Writes the input data into off-chip memory (call once, before the
    /// first [`Workload::run`] on a machine).
    fn init(&mut self, dram: &mut Dram);

    /// Executes the kernel, returning its output checksum.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (none occur for in-bounds kernels).
    fn run(&mut self, cpu: &mut Cpu<'_, '_>) -> Result<u64, SimError>;

    /// The checksum the kernel must produce, computed natively on the
    /// host at construction time.
    fn expected_checksum(&self) -> u64;
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn suite_has_thirteen_distinct_kernels() {
        let suite: Vec<_> = registry().iter().filter(|e| e.in_suite()).collect();
        assert_eq!(suite.len(), 13);
        let mut names: Vec<String> = suite
            .iter()
            .map(|e| e.build(None).name().to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn evaluation_set_leads_with_the_case_study() {
        let all = evaluation_set();
        assert_eq!(all.len(), 14);
        assert_eq!(all[0].name(), "case_study");
    }

    #[test]
    fn every_program_declares_a_stack() {
        for w in evaluation_set() {
            assert!(
                w.program().stack_block().is_some(),
                "{} lacks a stack block",
                w.name()
            );
        }
    }

    #[test]
    fn every_program_has_code_and_data() {
        for w in evaluation_set() {
            assert!(!w.program().code_blocks().is_empty(), "{}", w.name());
            assert!(w.program().data_blocks().len() >= 2, "{}", w.name());
        }
    }
}
