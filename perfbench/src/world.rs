//! The instances the workloads run on, and the host they run on.

use crate::trace::Tracer;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, PocTopology, RouterId, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};

/// Which instance a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The paper's §3.3 instance: 50 routers, 4593 links, 20 BPs, with
    /// the paper's 24 Tbps gravity matrix.
    Paper,
    /// A mid-size market: `ZooConfig::scale()` with 40 BPs over 100
    /// cities (26 routers, 1608 links), 24 Tbps.
    Mid,
    /// `ZooConfig::small()` (6 BPs over 24 cities) at 2.5 Tbps: a VCG
    /// round takes tens of milliseconds, so the control plane dominates.
    Small,
}

/// A generated instance plus the members that will use it.
pub struct World {
    pub topo: PocTopology,
    pub tm: TrafficMatrix,
    /// Router of each LMP to attach, in attach order.
    pub lmp_routers: Vec<RouterId>,
}

/// LMPs attached on the small world, spread round-robin over its routers.
const SMALL_LMPS: usize = 64;

/// The paper's canonical topology seed. The instance is always generated
/// from it; the run seed varies only what the instance carries.
pub const CANONICAL_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn zoo(preset: Preset) -> ZooConfig {
    match preset {
        Preset::Paper => ZooConfig::paper(),
        Preset::Mid => {
            ZooConfig { n_bps: 40, n_cities: 100, colocation_threshold: 12, ..ZooConfig::scale() }
        }
        Preset::Small => ZooConfig::small(),
    }
    .with_seed(CANONICAL_SEED)
}

/// Generate `preset`, timing topology and traffic generation as two
/// spans under `parent`.
pub fn build(preset: Preset, tracer: &Tracer, parent: Option<u64>) -> World {
    let topo = {
        let _s = tracer.span("topology.generate", parent);
        let mut topo = ZooGenerator::new(zoo(preset)).generate();
        attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
        topo
    };
    let _s = tracer.span("traffic.generate", parent);
    let total_gbps = if preset == Preset::Small { 2500.0 } else { 24000.0 };
    let tm = TrafficScenario { total_gbps, ..TrafficScenario::paper_default() }.generate(&topo);
    let n = topo.n_routers() as u32;
    let sources: Vec<RouterId> =
        (0..n).map(RouterId).filter(|&r| (0..n).any(|d| tm.demand(r, RouterId(d)) > 0.0)).collect();
    // One LMP per source router; the small world cycles through them
    // until it has `SMALL_LMPS`.
    let lmp_routers = match preset {
        Preset::Small => sources.iter().copied().cycle().take(SMALL_LMPS).collect(),
        _ => sources,
    };
    World { topo, tm, lmp_routers }
}

/// Host and build facts printed with every result.
pub fn host_info(state_dir: &std::path::Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![
        ("nproc", nproc.to_string()),
        ("profile", profile.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ("state_dir_fs", filesystem_of(state_dir).unwrap_or_else(|| "unknown".into())),
        ("transport", "loopback TCP (127.0.0.1)".to_string()),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
            }),
    }
}

/// Filesystem type and device of the mount holding `path`.
fn filesystem_of(path: &std::path::Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} ({})", f[2], f[0])))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
