//! # qgtc-graph
//!
//! Sparse graph substrate for the QGTC reproduction.
//!
//! The QGTC evaluation runs on six real-world graphs (Table 1 of the paper): Proteins,
//! artist, BlogCatalog, PPI, ogbn-arxiv and ogbn-products.  Those datasets are not
//! available offline, so this crate provides
//!
//! * [`csr::CsrGraph`] / [`coo::CooGraph`] — compressed sparse row and coordinate
//!   storage with conversions, validation and symmetrisation;
//! * [`generate`] — the stochastic-block-model generator that produces graphs whose
//!   node count, edge count and community structure match each dataset profile, plus
//!   a regular ring lattice for tests;
//! * [`datasets`] — the Table-1 profiles themselves plus scaled-down variants for
//!   tests, and a loader that materialises a profile into a concrete graph, feature
//!   matrix and labels;
//! * [`subgraph`] — induced-subgraph extraction and 1-bit adjacency materialisation
//!   (the form consumed by the Tensor Core kernels);
//! * [`stats`] — the intra/inter-part edge split behind the partitioner's quality
//!   report.
//!
//! All generators are deterministic given a seed, so every experiment binary can be
//! re-run bit-for-bit.

pub mod coo;
pub mod csr;
pub mod datasets;
pub mod generate;
pub mod stats;
pub mod subgraph;

pub use coo::CooGraph;
pub use csr::{CsrGraph, GraphError};
pub use datasets::{DatasetProfile, LoadedDataset};
pub use subgraph::{adjacency_degrees, DenseSubgraph, SubgraphScratch};
