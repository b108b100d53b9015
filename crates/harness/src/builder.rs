//! [`RunBuilder`]: the chainable front door to the harness.
//!
//! Everything the pipeline needs — structure, mapping, profile, fault
//! options, thread count, observability sink — is an optional chainable
//! setter with a sensible default; missing inputs are computed
//! (profiling pass, MDA/baseline mapping) rather than demanded.
//!
//! ```no_run
//! use ftspm_harness::{LiveFaultOptions, RunBuilder};
//! # let mut workload = ftspm_workloads::evaluation_set().remove(0);
//! let faults = LiveFaultOptions::builder(0xF00D, 10_000.0)
//!     .scrub_interval(50_000)
//!     .build()
//!     .expect("valid options");
//! let metrics = RunBuilder::new()
//!     .workload(workload.as_mut())
//!     .faults(faults)
//!     .run();
//! ```

use std::num::NonZeroUsize;

use ftspm_core::mda::MdaOutput;
use ftspm_core::{OptimizeFor, SpmStructure};
use ftspm_obs::Recorder;
use ftspm_profile::Profile;
use ftspm_sim::{NullObserver, Observer};
use ftspm_workloads::multicore::MultiWorkload;
use ftspm_workloads::Workload;

use crate::metrics::{MultiRunMetrics, RunMetrics, StructureKind, WorkloadEvaluation};
use crate::pipeline::{
    compute_mapping, evaluate_workload_observed, mapped_run, try_profile_multi_workload,
    LiveFaultOptions, ProfilePass, RunError, SingleCore,
};

/// The builder's workload slot: absent, borrowed from the caller, or
/// owned outright (the deserialized-job-spec path used by
/// `ftspm-serve`, where no longer-lived owner exists to borrow from).
/// A single-core workload sits here wrapped as a 1-core
/// [`MultiWorkload`].
enum WorkloadSlot<'a> {
    None,
    Borrowed(&'a mut dyn MultiWorkload),
    Owned(Box<dyn MultiWorkload + 'a>),
}

/// Chainable configuration for a harness run.
///
/// Terminal methods: [`run`](Self::run) measures one workload on one
/// structure; [`run_suite`](Self::run_suite) evaluates a workload set on
/// FTSPM plus both baselines, sharded over `ftspm_testkit::par`.
///
/// Observability is opt-in: attach an [`ftspm_obs::Recorder`]
/// ([`recorder`](Self::recorder)) to record the run's counters and
/// trace, its `profile → mda → run → report` phase spans, and its final
/// `FaultStats` as `faults.*` counters. Without one the run uses
/// [`NullObserver`] — the near-zero-cost disabled path the
/// `injected_run` bench pins.
pub struct RunBuilder<'a> {
    workload: WorkloadSlot<'a>,
    cores: Option<usize>,
    structure: Option<(SpmStructure, StructureKind)>,
    mapping: Option<MdaOutput>,
    /// A borrowed profiling pass, with its sharer counts when known.
    profile: Option<(&'a Profile, Option<&'a [u32]>)>,
    optimize: OptimizeFor,
    faults: Option<LiveFaultOptions>,
    deadline_cycles: Option<u64>,
    threads: Option<NonZeroUsize>,
    recorder: Option<&'a mut Recorder>,
}

impl Default for RunBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> RunBuilder<'a> {
    /// A builder with nothing attached: FTSPM structure, computed
    /// profile and mapping, reliability-optimised MDA, no faults, no
    /// observability, `FTSPM_THREADS` parallelism.
    pub fn new() -> Self {
        Self {
            workload: WorkloadSlot::None,
            cores: None,
            structure: None,
            mapping: None,
            profile: None,
            optimize: OptimizeFor::Reliability,
            faults: None,
            deadline_cycles: None,
            threads: None,
            recorder: None,
        }
    }

    /// The workload to run ([`run`](Self::run) only; suites take their
    /// workloads as a terminal argument). It runs as a 1-core workload.
    #[must_use]
    pub fn workload(mut self, workload: &'a mut dyn Workload) -> Self {
        self.workload = WorkloadSlot::Owned(Box::new(SingleCore::new(workload)));
        self
    }

    /// Like [`workload`](Self::workload), but the builder takes
    /// ownership — the natural shape when the workload was just
    /// constructed from a deserialized job spec (`ftspm-serve`) and has
    /// no other owner to outlive the builder.
    #[must_use]
    pub fn workload_boxed(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = WorkloadSlot::Owned(Box::new(SingleCore::new(workload)));
        self
    }

    /// An N-core workload; its core count fixes the machine's. It
    /// replaces any [`workload`](Self::workload) attached before.
    #[must_use]
    pub fn workload_multi(mut self, workload: &'a mut dyn MultiWorkload) -> Self {
        self.workload = WorkloadSlot::Borrowed(workload);
        self
    }

    /// Like [`workload_multi`](Self::workload_multi), but the builder
    /// takes ownership (the deserialized-job-spec path).
    #[must_use]
    pub fn workload_multi_boxed(mut self, workload: Box<dyn MultiWorkload>) -> Self {
        self.workload = WorkloadSlot::Owned(workload);
        self
    }

    /// Asserts the run's core count: the value must match the attached
    /// workload's own core count, which is fixed at construction (1 for
    /// a [`workload`](Self::workload)).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// The SPM structure to run on and how to label it in metrics.
    /// Defaults to [`SpmStructure::ftspm`] / [`StructureKind::Ftspm`].
    #[must_use]
    pub fn structure(mut self, structure: &SpmStructure, kind: StructureKind) -> Self {
        self.structure = Some((structure.clone(), kind));
        self
    }

    /// A precomputed mapping. Without one, [`run`](Self::run) maps the
    /// program itself: MDA for [`StructureKind::Ftspm`], the baseline
    /// mapper otherwise.
    #[must_use]
    pub fn mapping(mut self, mapping: MdaOutput) -> Self {
        self.mapping = Some(mapping);
        self
    }

    /// A precomputed profile of the same workload, borrowed for the run.
    /// Without one, [`run`](Self::run) profiles the workload first. A
    /// bare profile carries no sharer counts, so a computed FTSPM
    /// mapping is plain MDA; hand an N-core run its whole pass with
    /// [`profile_pass`](Self::profile_pass) instead.
    #[must_use]
    pub fn profile(mut self, profile: &'a Profile) -> Self {
        self.profile = Some((profile, None));
        self
    }

    /// A precomputed profiling pass of the same workload — the profile
    /// plus its per-block sharer counts, as
    /// [`try_profile_multi_workload`] returns it — borrowed for the run.
    /// A computed FTSPM mapping is then sharer-weighted exactly as if
    /// the run had profiled for itself.
    #[must_use]
    pub fn profile_pass(mut self, pass: &'a ProfilePass) -> Self {
        self.profile = Some((&pass.0, Some(&pass.1)));
        self
    }

    /// The MDA optimisation target used when the builder computes a
    /// mapping ([`run`](Self::run)) or evaluates a suite
    /// ([`run_suite`](Self::run_suite)).
    #[must_use]
    pub fn optimize(mut self, optimize: OptimizeFor) -> Self {
        self.optimize = optimize;
        self
    }

    /// Enables live fault injection with `options` (build them with
    /// [`LiveFaultOptions::builder`]).
    #[must_use]
    pub fn faults(mut self, options: LiveFaultOptions) -> Self {
        self.faults = Some(options);
        self
    }

    /// A cycle budget for the run: the machine refuses the access that
    /// would execute at or past `deadline` cycles, and
    /// [`try_run`](Self::try_run) returns
    /// [`RunError::DeadlineExceeded`]. The budget covers the profiling
    /// pass too (a runaway workload loops there first), and the cut
    /// lands at a deterministic cycle, so the same spec times out
    /// identically on every run. Costs one cached `u64` compare per
    /// access when set; nothing when not.
    #[must_use]
    pub fn deadline_cycles(mut self, deadline: u64) -> Self {
        self.deadline_cycles = Some(deadline);
        self
    }

    /// Explicit suite parallelism; defaults to the `FTSPM_THREADS`
    /// knob. Single runs are always sequential.
    #[must_use]
    pub fn threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches an [`ftspm_obs::Recorder`]: counters and trace from the
    /// run, plus phase spans and fault-stat counters.
    #[must_use]
    pub fn recorder(mut self, recorder: &'a mut Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs the configured workload on the configured structure and
    /// returns its metrics.
    ///
    /// Missing inputs are computed in pipeline order — profiling pass,
    /// then MDA (or baseline) mapping — and, when a recorder is
    /// attached, show up as `profile` and `mda` phase spans ahead of
    /// the `run` span.
    ///
    /// # Panics
    ///
    /// Panics if no workload was attached, on simulator errors
    /// (workloads and MDA mappings are trusted fixtures), or when a
    /// [`deadline_cycles`](Self::deadline_cycles) budget runs out — use
    /// [`try_run`](Self::try_run) to handle cancellation as a value.
    pub fn run(self) -> RunMetrics {
        self.try_run().unwrap_or_else(|e| panic!("run failed: {e}"))
    }

    /// [`run`](Self::run), but deadline exhaustion is an `Err` instead
    /// of a panic — the entry point the serving layer uses so a
    /// cancelled job becomes a typed 504 body, not a dead worker. This
    /// is [`try_run_multi`](Self::try_run_multi) projected to
    /// [`MultiRunMetrics::base`].
    ///
    /// # Errors
    ///
    /// [`RunError::DeadlineExceeded`] when a
    /// [`deadline_cycles`](Self::deadline_cycles) budget is exhausted
    /// during the profiling pass or the mapped run.
    ///
    /// # Panics
    ///
    /// As [`try_run_multi`](Self::try_run_multi).
    pub fn try_run(self) -> Result<RunMetrics, RunError> {
        self.try_run_multi().map(|m| m.base)
    }

    /// Runs the configured workload in deterministic lockstep and
    /// returns its metrics plus the coherence-side measurements.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run) — use [`try_run_multi`](Self::try_run_multi)
    /// to handle deadline cancellation as a value.
    pub fn run_multi(self) -> MultiRunMetrics {
        self.try_run_multi()
            .unwrap_or_else(|e| panic!("run failed: {e}"))
    }

    /// [`run_multi`](Self::run_multi), with deadline exhaustion as an
    /// `Err`.
    ///
    /// The profiling pass also measures per-block *sharer counts*, and a
    /// computed FTSPM mapping uses
    /// [`run_mda_multicore`](ftspm_core::mda::run_mda_multicore) so
    /// blocks shared across cores weigh their cross-core fault exposure
    /// in the eviction and ECC/parity splits. A 1-core run has no
    /// sharers, which makes that plain MDA; so does a bare
    /// [`profile`](Self::profile), which carries no sharer counts (a
    /// [`profile_pass`](Self::profile_pass) does).
    ///
    /// With a recorder attached, the run's fault stats land as
    /// `faults.*` counters and, at 2 or more cores, its coherence
    /// counters as `coh.*` rows.
    ///
    /// # Errors
    ///
    /// [`RunError::DeadlineExceeded`] as [`try_run`](Self::try_run).
    ///
    /// # Panics
    ///
    /// Panics if no workload was attached, if [`cores`](Self::cores)
    /// disagrees with the workload's own core count, or on simulator
    /// errors.
    pub fn try_run_multi(self) -> Result<MultiRunMetrics, RunError> {
        let mut slot = self.workload;
        let workload: &mut dyn MultiWorkload = match &mut slot {
            WorkloadSlot::None => panic!("RunBuilder::run requires .workload(..)"),
            WorkloadSlot::Borrowed(w) => *w,
            WorkloadSlot::Owned(b) => b.as_mut(),
        };
        if let Some(cores) = self.cores {
            assert_eq!(
                cores,
                workload.cores(),
                "RunBuilder::cores({cores}) disagrees with the workload's core count"
            );
        }
        let (structure, kind) = self
            .structure
            .unwrap_or_else(|| (StructureKind::Ftspm.structure(), StructureKind::Ftspm));

        let (computed, no_sharers);
        let (profile, sharers): (&Profile, &[u32]) = match self.profile {
            Some((profile, Some(sharers))) => (profile, sharers),
            Some((profile, None)) => {
                no_sharers = vec![0; workload.program().len()];
                (profile, &no_sharers)
            }
            None => {
                computed = try_profile_multi_workload(workload, self.deadline_cycles)?;
                (&computed.0, &computed.1)
            }
        };
        let mapping = self.mapping.unwrap_or_else(|| {
            compute_mapping(
                workload.program(),
                profile,
                sharers,
                &structure,
                kind,
                self.optimize,
            )
        });

        let mut recorder = self.recorder;
        if let Some(recorder) = recorder.as_deref_mut() {
            recorder.phase("profile", profile.total_cycles);
            recorder.phase("mda", 1);
            // The run span's length is only known afterwards: align
            // events now, append the span once cycles are in.
            recorder.align_to_phases();
        }
        let mut null = NullObserver;
        let observer: &mut dyn Observer = match recorder.as_deref_mut() {
            Some(recorder) => recorder,
            None => &mut null,
        };
        let metrics = mapped_run(
            workload,
            &structure,
            kind,
            mapping,
            profile,
            self.faults.as_ref(),
            self.deadline_cycles,
            observer,
        )?;
        if let Some(recorder) = recorder {
            recorder.phase("run", metrics.base.cycles);
            if let Some(stats) = &metrics.base.recovery {
                recorder.record_fault_stats(stats);
            }
            if metrics.cores >= 2 {
                recorder.record_coherence(&metrics.coherence, &metrics.per_core);
            }
            recorder.phase("report", 1);
        }
        Ok(metrics)
    }

    /// Evaluates every workload on FTSPM and both baselines, one
    /// workload per executor task (`ftspm_testkit::par`, honouring
    /// [`threads`](Self::threads) / the `FTSPM_THREADS` knob).
    ///
    /// Each evaluation is an independent deterministic simulation and
    /// results return in input order, so the output is identical at
    /// every thread count, including 1. With a recorder attached, each
    /// shard records into a private registry and the registries merge
    /// into the recorder **in input order** — so the merged counters
    /// are bit-identical at every thread count too. Shard traces are
    /// discarded (interleaving them has no single timeline); suite
    /// observability is counters-only.
    ///
    /// # Panics
    ///
    /// Panics if fault options are attached: live injection is a
    /// single-run feature.
    pub fn run_suite(
        self,
        workloads: Vec<Box<dyn Workload>>,
        optimize: OptimizeFor,
    ) -> Vec<WorkloadEvaluation> {
        assert!(
            self.faults.is_none(),
            "RunBuilder::run_suite does not support fault injection; use .faults(..).run() per workload"
        );
        let threads = self
            .threads
            .unwrap_or_else(ftspm_testkit::par::thread_count);
        match self.recorder {
            None => ftspm_testkit::par::par_map_threads(threads, workloads, |mut w| {
                evaluate_workload_observed(w.as_mut(), optimize, &mut NullObserver)
            }),
            Some(recorder) => {
                let config = recorder.config();
                let sharded = ftspm_testkit::par::par_map_threads(threads, workloads, |mut w| {
                    let mut shard = Recorder::new(config);
                    let eval = evaluate_workload_observed(w.as_mut(), optimize, &mut shard);
                    let (registry, _trace) = shard.into_parts();
                    (eval, registry)
                });
                let mut evals = Vec::with_capacity(sharded.len());
                for (eval, registry) in sharded {
                    recorder.registry_mut().merge(&registry);
                    evals.push(eval);
                }
                evals
            }
        }
    }
}
