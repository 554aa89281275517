//! Shared fixtures for the benchmark harness.
//!
//! Every bench target regenerates one experiment from DESIGN.md's index:
//! it prints the table/series the paper reports (on a laptop-scale
//! instance by default; set `POC_PAPER_SCALE=1` for the full §3.3
//! instance) and then times the computational kernel behind it.

use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};

pub mod report;

/// Whether to run experiment prints at the paper's full scale.
pub fn paper_scale() -> bool {
    std::env::var_os("POC_PAPER_SCALE").is_some()
}

/// Whether a `bench_*` bin runs its CI smoke sizes (`POC_BENCH_QUICK`)
/// rather than the sizes of its committed artifact.
pub fn quick() -> bool {
    std::env::var_os("POC_BENCH_QUICK").is_some()
}

/// How much counter `name` grew between two registry snapshots.
pub fn counter_delta(
    after: &poc_obs::MetricsSnapshot,
    before: &poc_obs::MetricsSnapshot,
    name: &str,
) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// The generated benchmark instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Laptop scale ([`ZooConfig::small`]), 2.5 Tbps of demand.
    Small,
    /// The paper's §3.3 instance ([`ZooConfig::paper`]), 24 Tbps.
    Paper,
    /// The stress instance: 100+ BPs offering 10k+ links
    /// ([`ZooConfig::scale`]), 24 Tbps.
    Scale,
}

impl Preset {
    pub fn name(self) -> &'static str {
        match self {
            Preset::Small => "small",
            Preset::Paper => "paper",
            Preset::Scale => "scale",
        }
    }

    /// The preset's topology plus the default external ISPs, and a
    /// gravity matrix of the preset's aggregate demand.
    pub fn build(self) -> (PocTopology, TrafficMatrix) {
        let (zoo, total_gbps) = match self {
            Preset::Small => (ZooConfig::small(), 2500.0),
            Preset::Paper => (ZooConfig::paper(), 24000.0),
            Preset::Scale => (ZooConfig::scale(), 24000.0),
        };
        let mut topo = ZooGenerator::new(zoo).generate();
        attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
        let tm = TrafficScenario { total_gbps, ..TrafficScenario::paper_default() }.generate(&topo);
        (topo, tm)
    }
}

/// The criterion benches' instance: small by default, the paper's with
/// `POC_PAPER_SCALE` set.
pub fn instance() -> (PocTopology, TrafficMatrix) {
    if paper_scale() { Preset::Paper } else { Preset::Small }.build()
}
