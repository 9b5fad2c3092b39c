//! The object-safe [`Construction`] trait and its error/capability types.

use crate::api::{BuildConfig, BuildOutput};
use crate::error::ParamError;
use usnae_congest::CongestError;
use usnae_graph::{Graph, MappedGraph};

/// What a [`Construction`] consumes from the [`BuildConfig`] and what its
/// output provides — the capability sheet generic consumers branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supports {
    /// Reads `rho` (the §3/§4 schedules).
    pub uses_rho: bool,
    /// Reads `order` (Algorithm 1's center processing order).
    pub uses_order: bool,
    /// Reads `seed` (randomized constructions).
    pub uses_seed: bool,
    /// Honors `traced` by returning a [`Trace`](crate::api::Trace).
    pub traced: bool,
    /// Runs on the CONGEST simulator and reports
    /// [`CongestStats`](crate::api::CongestStats).
    pub congest: bool,
    /// Shards its per-center explorations across `BuildConfig::threads`
    /// (constructions without this flag accept the knob but run
    /// sequentially; output is identical either way).
    pub parallel: bool,
    /// Output is a unit-weight subgraph of `G` (a spanner).
    pub subgraph: bool,
    /// Output carries a certified `(α, β)` stretch pair.
    pub certified: bool,
}

impl Supports {
    /// Baseline defaults: centralized, deterministic, untraced emulator with
    /// no certification. Constructions override what they add.
    pub const fn none() -> Self {
        Supports {
            uses_rho: false,
            uses_order: false,
            uses_seed: false,
            traced: false,
            congest: false,
            parallel: false,
            subgraph: false,
            certified: false,
        }
    }
}

/// Failure modes of [`Construction::build`].
#[derive(Debug)]
pub enum BuildError {
    /// Parameter validation failed.
    Param(ParamError),
    /// A CONGEST simulation violated its contract or budget.
    Congest(CongestError),
    /// A registry lookup named no known construction.
    UnknownAlgorithm(String),
    /// The construction cache could not store a fresh snapshot (see
    /// [`build_cached`](crate::cache::build_cached); load-side problems
    /// degrade to a rebuild instead of erroring).
    Cache(crate::cache::SnapshotError),
    /// A worker-pool build (`BuildConfig::transport` =
    /// channel/socket) failed: the pool could not be spawned, a
    /// worker died or sent a
    /// corrupt frame mid-build, or shutdown was unclean. The phases fall
    /// back in-process, but the requested worker build did not happen, so
    /// the build fails loudly instead of silently reporting one.
    Worker(usnae_workers::WorkerError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Param(e) => write!(f, "invalid parameters: {e}"),
            BuildError::Congest(e) => write!(f, "CONGEST simulation failed: {e}"),
            BuildError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            BuildError::Cache(e) => write!(f, "construction cache failed: {e}"),
            BuildError::Worker(e) => write!(f, "worker transport failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Param(e) => Some(e),
            BuildError::Congest(e) => Some(e),
            BuildError::UnknownAlgorithm(_) => None,
            BuildError::Cache(e) => Some(e),
            BuildError::Worker(e) => Some(e),
        }
    }
}

impl From<ParamError> for BuildError {
    fn from(e: ParamError) -> Self {
        BuildError::Param(e)
    }
}

impl From<CongestError> for BuildError {
    fn from(e: CongestError) -> Self {
        BuildError::Congest(e)
    }
}

impl From<usnae_workers::WorkerError> for BuildError {
    fn from(e: usnae_workers::WorkerError) -> Self {
        BuildError::Worker(e)
    }
}

/// Guard for constructions that run in-process only (the CONGEST
/// simulations and whole-graph baselines have no shardable exploration
/// fan-out): a worker transport request is rejected with a typed
/// [`ParamError::TransportUnsupported`] instead of being silently
/// ignored, so a requested worker build never quietly reports an
/// in-process one.
pub fn require_inproc(algorithm: &'static str, cfg: &BuildConfig) -> Result<(), BuildError> {
    match cfg.transport {
        usnae_workers::TransportKind::Inproc => Ok(()),
        other => Err(BuildError::Param(ParamError::TransportUnsupported {
            algorithm,
            transport: other.name(),
        })),
    }
}

/// One emulator/spanner algorithm behind the unified API.
///
/// Implemented by the five paper constructions
/// ([`constructions`](crate::api::constructions)) and, through the adapter
/// in `usnae-baselines`, by the EP01/TZ06/EN17a/EM19 lineages. Object-safe:
/// registries hand out `Box<dyn Construction>`.
pub trait Construction {
    /// Stable registry name (`"centralized"`, `"ep01"`, …).
    fn name(&self) -> &'static str;

    /// One-line human description for `usnae list` and reports.
    fn description(&self) -> &'static str;

    /// Capability sheet: which config fields matter, what the output has.
    fn supports(&self) -> Supports;

    /// The certified `(α, β)` stretch for `cfg`, when this construction
    /// certifies one (`None` for the baselines).
    fn certified_stretch(&self, cfg: &BuildConfig) -> Option<(f64, f64)>;

    /// A provable upper bound on the output's edge count on an `n`-vertex
    /// input, when one is known (`None` for expected-size-only baselines).
    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64>;

    /// Runs the construction on `g`.
    ///
    /// # Errors
    ///
    /// [`BuildError::Param`] on invalid configuration,
    /// [`BuildError::Congest`] on simulator contract violations.
    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError>;

    /// Runs the construction over a mapped (out-of-core) CSR file graph.
    ///
    /// The provided default materializes `g` onto the heap and delegates to
    /// [`Construction::build`], which is correct — and byte-identical by
    /// definition — for every algorithm. The sequential/parallel paper
    /// constructions override this to run the execution engine directly
    /// over the mapped adjacency arrays, so the input graph is never copied
    /// onto the heap; overrides must stay byte-identical to the heap path
    /// (the out-of-core conformance suite enforces this registry-wide).
    ///
    /// # Errors
    ///
    /// Same contract as [`Construction::build`].
    fn build_mapped(&self, g: &MappedGraph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build(&g.to_heap(), cfg)
    }
}
