//! [`WorkloadSource`]: the one way a job, builder, or tool names a
//! workload.
//!
//! Before this type existed, every entry point hand-rolled its own
//! two-variant naming scheme (a kernel name or a synthetic config).
//! `WorkloadSource` unifies those with the two trace-backed forms —
//! replay an uploaded trace, or regenerate a synthetic fitted to one —
//! behind a single buildable, canonicalisable value. HTTP job specs,
//! the CLI, and the harness all parse *into* this type and build *out*
//! of it, so a new workload form lands everywhere by adding one
//! variant here.

use std::sync::Arc;

use ftspm_workloads::{registry, Synthetic, SyntheticConfig, Workload};

use crate::extract::FittedWorkload;
use crate::format::{Trace, TraceId};
use crate::replay::TraceWorkload;

/// Where a workload comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// A registry kernel by stable name, optionally reseeded.
    Named {
        /// Registry name (see [`registry::kernel_names`]).
        name: String,
        /// Seed override; `None` means the registry default.
        seed: Option<u64>,
    },
    /// The standard synthetic workload with explicit dials.
    Synthetic(SyntheticConfig),
    /// Replay an uploaded trace, byte-identically.
    Trace(TraceId),
    /// A synthetic workload fitted to an uploaded trace's model.
    Fitted(TraceId),
}

/// Resolves trace ids to decoded traces — the seam between
/// [`WorkloadSource`] and whatever store holds uploaded traces.
pub trait TraceResolver {
    /// The trace behind `id`, if the store holds it.
    fn resolve(&self, id: TraceId) -> Option<Arc<Trace>>;
}

/// A resolver that holds nothing: for contexts (CLI defaults, tests)
/// where trace-backed sources are out of scope.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTraces;

impl TraceResolver for NoTraces {
    fn resolve(&self, _id: TraceId) -> Option<Arc<Trace>> {
        None
    }
}

/// Why a [`WorkloadSource`] could not produce a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The name matches no registry kernel.
    UnknownWorkload {
        /// The rejected name.
        name: String,
    },
    /// A seed was supplied for a seedless kernel.
    SeededSeedless {
        /// The seedless kernel's name.
        name: String,
    },
    /// The resolver holds no trace under this id.
    UnknownTrace(TraceId),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownWorkload { name } => {
                write!(f, "unknown workload `{name}`; valid names: ")?;
                for (i, n) in registry::kernel_names().iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(n)?;
                }
                Ok(())
            }
            Self::SeededSeedless { name } => {
                write!(f, "`{name}` is seedless; omit `seed`")
            }
            Self::UnknownTrace(id) => write!(f, "unknown trace `{id}`"),
        }
    }
}

impl std::error::Error for SourceError {}

impl WorkloadSource {
    /// A named source, unvalidated; [`WorkloadSource::build`] validates.
    #[must_use]
    pub fn named(name: impl Into<String>, seed: Option<u64>) -> Self {
        Self::Named {
            name: name.into(),
            seed,
        }
    }

    /// Validates the source against the registry without building: the
    /// cheap check entry points run at decode time.
    ///
    /// # Errors
    ///
    /// [`SourceError::UnknownWorkload`] or
    /// [`SourceError::SeededSeedless`]; trace existence is *not*
    /// checked (that needs a resolver).
    pub fn validate(&self) -> Result<(), SourceError> {
        match self {
            Self::Named { name, seed } => match registry::find(name) {
                None => Err(SourceError::UnknownWorkload { name: name.clone() }),
                Some(entry) if entry.seedless() && seed.is_some() => {
                    Err(SourceError::SeededSeedless { name: name.clone() })
                }
                Some(_) => Ok(()),
            },
            Self::Synthetic(_) | Self::Trace(_) | Self::Fitted(_) => Ok(()),
        }
    }

    /// Builds the workload, resolving trace-backed sources through
    /// `resolver`.
    ///
    /// # Errors
    ///
    /// Everything [`WorkloadSource::validate`] rejects, plus
    /// [`SourceError::UnknownTrace`] when the resolver cannot produce a
    /// referenced trace.
    pub fn build(&self, resolver: &dyn TraceResolver) -> Result<Box<dyn Workload>, SourceError> {
        self.validate()?;
        match self {
            Self::Named { name, seed } => {
                let entry = registry::find(name).expect("validated above");
                Ok(entry.build(*seed))
            }
            Self::Synthetic(config) => Ok(Box::new(Synthetic::new(*config))),
            Self::Trace(id) => {
                let trace = resolver
                    .resolve(*id)
                    .ok_or(SourceError::UnknownTrace(*id))?;
                Ok(Box::new(TraceWorkload::new(trace)))
            }
            Self::Fitted(id) => {
                let trace = resolver
                    .resolve(*id)
                    .ok_or(SourceError::UnknownTrace(*id))?;
                Ok(Box::new(FittedWorkload::new(&trace)))
            }
        }
    }

    /// Renders the source's canonical fragment — the `w=...` prefix of
    /// a job's content address. Byte-compatible with the historical
    /// two-variant rendering for `Named` and `Synthetic`, so existing
    /// cache lines and goldens stay valid.
    #[must_use]
    pub fn canonical_fragment(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(48);
        match self {
            Self::Named { name, seed } => {
                let default = registry::find(name).and_then(|e| e.default_seed());
                match seed.or(default) {
                    Some(seed) => {
                        let _ = write!(s, "w=named:{name}:{seed}");
                    }
                    None => {
                        let _ = write!(s, "w=named:{name}:-");
                    }
                }
            }
            Self::Synthetic(c) => {
                let _ = write!(
                    s,
                    "w=synthetic:{:?}:{}:{}:{}:{}",
                    c.write_fraction, c.buffer_words, c.accesses, c.run_length, c.seed
                );
            }
            Self::Trace(id) => {
                let _ = write!(s, "w=trace:{id}");
            }
            Self::Fitted(id) => {
                let _ = write!(s, "w=fitted:{id}");
            }
        }
        s
    }
}
