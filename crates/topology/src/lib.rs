//! WAN topology substrate for the Public Option for the Core (POC).
//!
//! The paper ("A Public Option for the Core", SIGCOMM 2020, §3.3) evaluates
//! its bandwidth auction on a network derived from TopologyZoo: small
//! networks are merged into 20 Bandwidth Providers (BPs), POC routers are
//! placed wherever four or more BPs are closely colocated, and each BP
//! offers *logical links* (which may traverse several physical links)
//! between POC routers. The resulting instance has 4674 logical links, with
//! individual BPs contributing between roughly 2% and 12% of them.
//!
//! TopologyZoo itself is an external dataset, so this crate provides a
//! deterministic synthetic generator ([`zoo`]) that reproduces the *derived*
//! artifact the auction actually consumes — the router set, logical links,
//! BP ownership shares, capacities, and lease costs — with the same summary
//! statistics. Everything downstream (feasibility, auction, simulation) is
//! agnostic to whether the topology came from the generator or was built by
//! hand via [`builder::TopologyBuilder`].

pub mod builder;
pub mod cost;
pub mod geo;
pub mod ids;
pub mod model;
pub mod stats;
pub mod zoo;

pub use builder::TopologyBuilder;
pub use cost::CostModel;
pub use geo::Point;
pub use ids::{BpId, LinkId, PopId, RouterId};
pub use model::{BpNetwork, City, LinkOwner, LogicalLink, PocRouter, PocTopology};
pub use stats::TopologyStats;
pub use zoo::{ZooConfig, ZooGenerator};
