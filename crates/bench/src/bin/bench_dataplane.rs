//! Packet-engine event throughput, emitting `BENCH_dataplane.json`.
//!
//! The data plane's cost is the event loop: every packet is an
//! injection, per-hop departure/pipe-exit events, and a delivery,
//! through the hybrid scheduler (link-event heap merged with per-slice
//! generated injections). This bin measures exactly that kernel — a traffic matrix
//! expanded into persistent sources on the full fabric, run to the
//! horizon — and reports events/sec and packets/sec from the median of
//! independent trials, so a single scheduler hiccup cannot set the
//! headline in either direction. Results land in a schema-validated JSON
//! artifact so CI and the ROADMAP's perf trajectory can diff runs.
//!
//! Sizes (`POC_BENCH_QUICK=1` selects the CI smoke column):
//!
//! | | full | quick |
//! |---|---|---|
//! | instance | `paper` (the full §3.3 instance) | `small` |
//! | simulated horizon | 20 ms | 5 ms |
//! | independent trials | 3 | 3 |
//!
//! `POC_BENCH_OUT=path` overrides the artifact path (default
//! `BENCH_dataplane.json`).
//!
//! Usage: `bench_dataplane` to measure, `bench_dataplane --validate
//! <path>` to re-read an artifact of any bench and check it (exit 1 on
//! failure, naming the failing check).

use poc_bench::report::{
    validate_cli, BenchArtifact, DataplaneBench, DataplaneTrial, Payload, ScaleInfo,
};
use poc_bench::{quick, Preset};
use poc_flow::LinkSet;
use poc_netsim::engine::{Engine, EngineConfig, SourceKind};
use poc_topology::PocTopology;
use poc_traffic::{TrafficMatrix, UserFlowModel};
use std::time::Instant;

/// Independent trials; the median one sets the headline.
const TRIALS: usize = 3;

fn build_engine<'t>(topo: &'t PocTopology, tm: &TrafficMatrix, horizon_ns: u64) -> Engine<'t> {
    let all = LinkSet::full(topo.n_links());
    let cfg = EngineConfig { horizon_ns, ..Default::default() };
    let mut eng = Engine::new(topo, &all, cfg).expect("valid bench config");
    // Alternate billing owners/classes by source router, the same split
    // the `poc dataplane` loop uses, so the bench exercises the owner and
    // tag accounting paths too.
    eng.add_traffic_matrix(tm, &UserFlowModel::default(), SourceKind::Persistent, |src| {
        (
            Some(poc_core::entity::EntityId(src.0 % 4)),
            if src.index().is_multiple_of(2) {
                "suspect".to_string()
            } else {
                "control".to_string()
            },
        )
    })
    .expect("full fabric routes the matrix");
    eng
}

fn main() {
    validate_cli("dataplane");
    let (preset, horizon_ms) = if quick() { (Preset::Small, 5) } else { (Preset::Paper, 20) };
    let horizon_ns: u64 = horizon_ms * 1_000_000;
    let (topo, tm) = preset.build();
    let scale = ScaleInfo::of(preset.name(), &topo);
    println!(
        "instance: preset={} routers={} links={} bps={} horizon={horizon_ms}ms",
        scale.preset, scale.n_routers, scale.n_links, scale.n_bps
    );

    // Probe run for the workload shape (every trial rebuilds identically —
    // the engine is deterministic, only wall time varies).
    let probe = build_engine(&topo, &tm, horizon_ns);
    let (n_sources, n_user_flows) = (probe.n_sources(), probe.n_user_flows());
    drop(probe);
    println!("workload: {n_sources} sources standing in for {n_user_flows} user flows");

    let mut trials: Vec<(DataplaneTrial, f64)> = Vec::with_capacity(TRIALS);
    for i in 0..TRIALS {
        let eng = build_engine(&topo, &tm, horizon_ns);
        let start = Instant::now();
        let report = eng.run();
        let elapsed = start.elapsed().as_secs_f64();
        let trial = DataplaneTrial {
            events: report.events,
            packets_injected: report.packets_injected,
            packets_delivered: report.packets_delivered,
            packets_dropped: report.packets_dropped,
            elapsed_s: elapsed,
            events_per_sec: report.events as f64 / elapsed,
            packets_per_sec: report.packets_injected as f64 / elapsed,
        };
        println!(
            "trial {}/{TRIALS}: {} events in {:.3}s = {:.1}M events/sec",
            i + 1,
            trial.events,
            trial.elapsed_s,
            trial.events_per_sec / 1e6
        );
        trials.push((trial, report.overall_availability()));
    }

    // Median trial by event throughput sets the headline.
    trials.sort_by(|a, b| a.0.events_per_sec.total_cmp(&b.0.events_per_sec));
    let (median, availability) = trials[trials.len() / 2].clone();
    let dp = DataplaneBench {
        horizon_ns,
        n_sources,
        n_user_flows,
        trials: trials.into_iter().map(|(t, _)| t).collect(),
        events_per_sec: median.events_per_sec,
        packets_per_sec: median.packets_per_sec,
        availability,
    };
    BenchArtifact::new(scale, Payload::Dataplane(dp)).emit();
}
