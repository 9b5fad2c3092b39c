//! Distributed CONGEST-model construction (§3) — module root.
//!
//! The full pipeline per phase `i`:
//!
//! 1. **Task 1** ([`popular`]): capped Bellman-Ford exploration (Algorithm 2)
//!    detects popular clusters and teaches unpopular centers their
//!    neighborhoods.
//! 2. **Task 2** ([`ruling`]): deterministic min-id ball-carving ruling set
//!    over the popular centers (substitution S1 for \[SEW13, KMW18\]).
//! 3. **Task 3** ([`supercluster`]): BFS ruling forest plus backtracking
//!    with *hub-vertex splitting*, so no vertex ever forwards more than
//!    `2·deg_i + 2` messages per stride and both endpoints of every
//!    emulator edge learn of it.
//! 4. **Interconnection** ([`popular`] re-run from `U_i`): unclustered
//!    centers connect to all neighboring centers; bidirectional knowledge
//!    comes from combining both runs (§3.1.3).
//!
//! [`driver`] orchestrates the phases on a [`usnae_congest::Simulator`],
//! accumulating an honest round count, and assembles the emulator from the
//! *per-node* knowledge maps — asserting the paper's headline distributed
//! property: for every emulator edge `(u, v)`, **both** `u` and `v` know it.
//!
//! The whole pipeline is deterministic end to end: the simulator schedules
//! messages in a defined order (see `usnae_congest::simulator` docs), all
//! per-node state here is index-keyed (`Vec`) or id-ordered (`BTreeMap`),
//! and both drivers emit their emulator/spanner edges in ascending
//! center/neighbor id — so the built edge *stream* is identical run to
//! run, which the registry-wide parity suite certifies exactly.

pub mod driver;
pub mod forest;
pub mod popular;
pub mod ruling;
pub mod spanner_driver;
pub mod supercluster;

pub use driver::{DistributedBuild, DistributedPhaseTrace};
