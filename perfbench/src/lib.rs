//! Support code of the `perfbench` benchmark: metric catalogue, order
//! statistics, host-speed reference, `/proc` probes and the in-memory
//! span recorder. The workloads themselves live in the binary.

pub mod host;
pub mod metrics;
pub mod stats;
pub mod sys;
pub mod trace;
