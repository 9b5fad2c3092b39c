//! [`Construction`] implementations for the paper's own algorithms.

use crate::api::construction::require_inproc;
use crate::api::{
    BuildConfig, BuildError, BuildOutput, CongestStats, Construction, Supports, Trace,
};
use crate::centralized::build_centralized_exec;
use crate::distributed::driver::build_distributed;
use crate::distributed::spanner_driver::build_spanner_congest;
use crate::engine::build_on_engine;
use crate::exec::BuildStats;
use crate::sai::{run_phases, EdgeForm};
use std::time::Instant;
use usnae_graph::{AdjStorage, Graph, GraphCore, MappedGraph};

/// Algorithm 1 (§2): sequential superclustering with buffer sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Centralized;

impl Centralized {
    fn build_impl<S: AdjStorage>(
        &self,
        g: &GraphCore<S>,
        cfg: &BuildConfig,
    ) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        let params = cfg.centralized_params()?;
        let n = g.num_vertices();
        build_on_engine(
            g,
            cfg,
            self.name(),
            Some(params.certified_stretch()),
            Some(params.size_bound(n)),
            |engine| {
                let (emulator, trace, phases) =
                    build_centralized_exec(g, &params, cfg.order, engine);
                (emulator, phases, Some(Trace::Centralized(trace)))
            },
        )
    }
}

impl Construction for Centralized {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn description(&self) -> &'static str {
        "Algorithm 1 (§2): sequential SAI with buffer sets; ≤ n^(1+1/κ) edges, constant exactly 1"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_order: true,
            traced: true,
            parallel: true,
            certified: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, cfg: &BuildConfig) -> Option<(f64, f64)> {
        cfg.centralized_params().ok().map(|p| p.certified_stretch())
    }

    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64> {
        Some(cfg.size_bound(n))
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build_impl(g, cfg)
    }

    fn build_mapped(&self, g: &MappedGraph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build_impl(g, cfg)
    }
}

/// The fast centralized simulation (§3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastCentralized;

impl FastCentralized {
    fn build_impl<S: AdjStorage>(
        &self,
        g: &GraphCore<S>,
        cfg: &BuildConfig,
    ) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        let params = cfg.distributed_params()?;
        let n = g.num_vertices();
        build_on_engine(
            g,
            cfg,
            self.name(),
            Some(params.certified_stretch()),
            Some(params.size_bound(n)),
            |engine| {
                let phases = params.phase_numbers(n);
                let (emulator, trace, timings) = run_phases(g, &phases, EdgeForm::Weighted, engine);
                (emulator, timings, Some(Trace::Sai(trace)))
            },
        )
    }
}

impl Construction for FastCentralized {
    fn name(&self) -> &'static str {
        "fast-centralized"
    }

    fn description(&self) -> &'static str {
        "Fast centralized simulation of the distributed pipeline (§3.3), O(|E|·β·n^ρ) time"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_rho: true,
            traced: true,
            parallel: true,
            certified: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, cfg: &BuildConfig) -> Option<(f64, f64)> {
        cfg.distributed_params().ok().map(|p| p.certified_stretch())
    }

    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64> {
        Some(cfg.size_bound(n))
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build_impl(g, cfg)
    }

    fn build_mapped(&self, g: &MappedGraph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build_impl(g, cfg)
    }
}

/// The deterministic CONGEST-model construction (§3).
#[derive(Debug, Clone, Copy, Default)]
pub struct Distributed;

impl Construction for Distributed {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn description(&self) -> &'static str {
        "Deterministic CONGEST construction (§3): O(β·n^ρ) rounds, both endpoints know every edge"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_rho: true,
            traced: true,
            congest: true,
            certified: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, cfg: &BuildConfig) -> Option<(f64, f64)> {
        cfg.distributed_params().ok().map(|p| p.certified_stretch())
    }

    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64> {
        Some(cfg.size_bound(n))
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        require_inproc(self.name(), cfg)?;
        let params = cfg.distributed_params()?;
        let t0 = Instant::now();
        let build = build_distributed(g, &params)?;
        Ok(BuildOutput {
            emulator: build.emulator,
            certified: Some(params.certified_stretch()),
            size_bound: Some(params.size_bound(g.num_vertices())),
            trace: cfg.traced.then_some(Trace::Distributed(build.phases)),
            congest: Some(CongestStats {
                metrics: build.metrics,
                knowledge_checked: build.knowledge_checked,
                knowledge_violations: build.knowledge_violations,
            }),
            stats: BuildStats {
                threads: cfg.threads,
                total: t0.elapsed(),
                phases: build.timings,
                ..BuildStats::default()
            },
            algorithm: self.name(),
        })
    }
}

/// The §4 subgraph spanner (centralized).
#[derive(Debug, Clone, Copy, Default)]
pub struct Spanner;

/// Hidden-constant allowance for the §4 `O(n^(1+1/κ))` spanner bound
/// (eq. 39): the registry parity suite checks against
/// `SPANNER_SIZE_CONSTANT · n^(1+1/κ) + n` on every family it runs.
pub const SPANNER_SIZE_CONSTANT: f64 = 4.0;

impl Spanner {
    fn build_impl<S: AdjStorage>(
        &self,
        g: &GraphCore<S>,
        cfg: &BuildConfig,
    ) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        let params = cfg.spanner_params()?;
        let n = g.num_vertices();
        build_on_engine(
            g,
            cfg,
            self.name(),
            Some(params.certified_stretch()),
            Some(SPANNER_SIZE_CONSTANT * params.size_bound(n) + n as f64),
            |engine| {
                let phases = params.phase_numbers(n);
                let (emulator, trace, timings) = run_phases(g, &phases, EdgeForm::Path, engine);
                (emulator, timings, Some(Trace::Sai(trace)))
            },
        )
    }
}

impl Construction for Spanner {
    fn name(&self) -> &'static str {
        "spanner"
    }

    fn description(&self) -> &'static str {
        "§4 near-additive spanner: a subgraph of G with O(n^(1+1/κ)) edges (no O(β) factor)"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_rho: true,
            traced: true,
            parallel: true,
            subgraph: true,
            certified: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, cfg: &BuildConfig) -> Option<(f64, f64)> {
        cfg.spanner_params().ok().map(|p| p.certified_stretch())
    }

    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64> {
        Some(SPANNER_SIZE_CONSTANT * cfg.size_bound(n) + n as f64)
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build_impl(g, cfg)
    }

    fn build_mapped(&self, g: &MappedGraph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        self.build_impl(g, cfg)
    }
}

/// The §4 spanner built in the CONGEST simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedSpanner;

impl Construction for DistributedSpanner {
    fn name(&self) -> &'static str {
        "distributed-spanner"
    }

    fn description(&self) -> &'static str {
        "§4 spanner in the CONGEST model: forest edges added locally, no hub splitting"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_rho: true,
            traced: true,
            congest: true,
            subgraph: true,
            certified: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, cfg: &BuildConfig) -> Option<(f64, f64)> {
        cfg.spanner_params().ok().map(|p| p.certified_stretch())
    }

    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64> {
        Some(SPANNER_SIZE_CONSTANT * cfg.size_bound(n) + n as f64)
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        require_inproc(self.name(), cfg)?;
        let params = cfg.spanner_params()?;
        let t0 = Instant::now();
        let build = build_spanner_congest(g, &params)?;
        let n = g.num_vertices();
        Ok(BuildOutput {
            emulator: build.spanner,
            certified: Some(params.certified_stretch()),
            size_bound: Some(SPANNER_SIZE_CONSTANT * params.size_bound(n) + n as f64),
            trace: cfg
                .traced
                .then_some(Trace::DistributedSpanner(build.phases)),
            congest: Some(CongestStats {
                metrics: build.metrics,
                knowledge_checked: 0,
                knowledge_violations: 0,
            }),
            stats: BuildStats {
                threads: cfg.threads,
                total: t0.elapsed(),
                phases: build.timings,
                ..BuildStats::default()
            },
            algorithm: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;

    #[test]
    fn names_match_supports() {
        let g = generators::gnp_connected(60, 0.1, 1).unwrap();
        let cfg = BuildConfig::default();
        let list: Vec<Box<dyn Construction>> = vec![
            Box::new(Centralized),
            Box::new(FastCentralized),
            Box::new(Distributed),
            Box::new(Spanner),
            Box::new(DistributedSpanner),
        ];
        for c in list {
            let out = c.build(&g, &cfg).unwrap();
            assert_eq!(out.algorithm, c.name());
            let s = c.supports();
            assert_eq!(out.congest.is_some(), s.congest, "{}", c.name());
            assert_eq!(out.certified.is_some(), s.certified, "{}", c.name());
            if s.subgraph {
                assert!(
                    crate::verify::is_subgraph_spanner(&g, out.emulator.graph()),
                    "{}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn congest_constructions_refuse_worker_transports() {
        let g = generators::grid2d(5, 5).unwrap();
        for c in [&Distributed as &dyn Construction, &DistributedSpanner] {
            for transport in [
                usnae_workers::TransportKind::Channel,
                usnae_workers::TransportKind::Socket,
            ] {
                let cfg = BuildConfig {
                    shards: 2,
                    transport,
                    ..BuildConfig::default()
                };
                match c.build(&g, &cfg) {
                    Err(BuildError::Param(crate::ParamError::TransportUnsupported {
                        algorithm,
                        transport: t,
                    })) => {
                        assert_eq!(algorithm, c.name());
                        assert_eq!(t, transport.name());
                    }
                    other => panic!(
                        "{} must refuse the {} transport, got {other:?}",
                        c.name(),
                        transport.name()
                    ),
                }
            }
            // The explicit in-process default still builds.
            assert!(c.build(&g, &BuildConfig::default()).is_ok(), "{}", c.name());
        }
    }

    #[test]
    fn traced_flag_respected() {
        let g = generators::grid2d(7, 7).unwrap();
        let cfg = BuildConfig {
            traced: true,
            ..BuildConfig::default()
        };
        let out = Spanner.build(&g, &cfg).unwrap();
        assert!(out.trace.is_some());
        let untraced = Spanner.build(&g, &BuildConfig::default()).unwrap();
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn mapped_builds_match_heap_builds() {
        let g = generators::gnp_connected(70, 0.09, 4).unwrap();
        let dir = std::env::temp_dir().join(format!("usnae-ctor-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        g.write_csr_file(&path).unwrap();
        let mg = MappedGraph::open(&path).unwrap();
        let cfg = BuildConfig {
            traced: true,
            ..BuildConfig::default()
        };
        let list: Vec<Box<dyn Construction>> = vec![
            Box::new(Centralized),
            Box::new(FastCentralized),
            Box::new(Distributed),
            Box::new(Spanner),
            Box::new(DistributedSpanner),
        ];
        for c in list {
            let heap = c.build(&g, &cfg).unwrap();
            let mapped = c.build_mapped(&mg, &cfg).unwrap();
            assert_eq!(
                heap.emulator.provenance(),
                mapped.emulator.provenance(),
                "{}: mapped build diverged from heap build",
                c.name()
            );
            assert_eq!(heap.certified, mapped.certified, "{}", c.name());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn certified_stretch_matches_build_output() {
        let g = generators::gnp_connected(80, 0.08, 2).unwrap();
        let cfg = BuildConfig::default();
        for c in [&Centralized as &dyn Construction, &FastCentralized] {
            let pre = c.certified_stretch(&cfg).unwrap();
            let out = c.build(&g, &cfg).unwrap();
            assert_eq!(Some(pre), out.certified, "{}", c.name());
        }
    }
}
