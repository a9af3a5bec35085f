//! Graph partitioning for spectral-element meshes (the METIS substitute).
//!
//! The paper partitions each patch with `METIS_PartGraphRecursive`, feeding
//! it "the full adjacency list including elements sharing only one vertex"
//! with edge weights "scaled with respect to the number of shared degrees of
//! freedom per link" (§3.5, Table 2). METIS has no Rust implementation, so
//! this crate provides a from-scratch partitioner with the same interface
//! contract:
//!
//! * [`Graph`] — weighted undirected graphs in CSR form, built from the
//!   adjacency lists produced by `nkg-mesh`;
//! * [`recursive_bisect`] — recursive bisection: BFS-grown (greedy graph
//!   growing) initial halves refined by Kernighan–Lin boundary swaps;
//! * [`PartitionQuality`] — balance and edge-cut metrics, plus the
//!   communication-volume summaries consumed by the Table-2 performance
//!   model.

#![forbid(unsafe_code)]

pub mod graph;
pub mod kl;
pub mod quality;
pub mod recursive;

pub use graph::Graph;
pub use quality::PartitionQuality;
pub use recursive::{recursive_bisect, slab_partition};
