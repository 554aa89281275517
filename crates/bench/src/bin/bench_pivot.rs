//! Warm-vs-cold Clarke-pivot re-selections, emitting `BENCH_pivot.json`.
//!
//! The auction's dominant cost is the per-BP pivot runs (`SL_−α`). This
//! bin measures exactly that kernel: one initial selection over the full
//! offer, then a sample of BP withdrawals re-selected twice — cold (a
//! from-scratch [`FeasibilityOracle`]) and warm (a [`WarmOracle`] seeded
//! with the accepted routing, as [`poc_auction::run_auction`] seeds its
//! pivots). Results land in a
//! schema-validated JSON artifact so CI and the ROADMAP's perf trajectory
//! can diff runs.
//!
//! Sizes (`POC_BENCH_QUICK=1` selects the CI smoke column):
//!
//! | | full | quick |
//! |---|---|---|
//! | instance | `scale` (100 BPs, 10k+ links) | `small` |
//! | BP withdrawals sampled | 4 | 2 |
//! | greedy prune budget | 8 | 16 |
//!
//! `POC_BENCH_OUT=path` overrides the artifact path (default
//! `BENCH_pivot.json`).
//!
//! Usage: `bench_pivot` to measure, `bench_pivot --validate <path>` to
//! re-read an artifact of any bench and check it (exit 1 on failure,
//! naming the failing check).

use poc_auction::{GreedySelector, Market, Selector};
use poc_bench::report::{validate_cli, BenchArtifact, Payload, PivotBench, PivotSample, ScaleInfo};
use poc_bench::{counter_delta, quick, Preset};
use poc_flow::{Constraint, FeasibilityOracle, WarmOracle};
use std::time::Instant;

fn main() {
    validate_cli("pivot");
    let (preset, n_pivots, prune_budget) =
        if quick() { (Preset::Small, 2, 16) } else { (Preset::Scale, 4, 8) };
    let (topo, tm) = preset.build();
    let scale = ScaleInfo::of(preset.name(), &topo);
    println!(
        "instance: preset={} routers={} links={} bps={}",
        scale.preset, scale.n_routers, scale.n_links, scale.n_bps
    );

    let market = Market::truthful(&topo, 3.0);
    let constraint = Constraint::BaseLoad;
    let selector = GreedySelector::with_prune_budget(prune_budget);

    // The round's initial selection; the cold pivots reuse its oracle.
    let oracle = FeasibilityOracle::new(&topo, &tm, constraint);
    let t0 = Instant::now();
    let sl = selector
        .select(&market, &oracle, market.offered())
        .expect("bench instance must be feasible over the full offer");
    println!(
        "initial selection: {} links, cost {:.0}, {:.1}s",
        sl.links.len(),
        sl.cost,
        t0.elapsed().as_secs_f64()
    );

    // Warm pivots start from the accepted routing, exactly as the auction
    // seeds them.
    let seed = oracle.route(&sl.links).expect("selector accepted SL, so SL re-routes");

    // Sample the first N participating BPs (ascending id) that actually
    // have links in SL — the ones whose withdrawal forces a real pivot.
    let sampled: Vec<_> = market
        .participants()
        .into_iter()
        .filter(|&bp| {
            let owned = market.links_of(bp).expect("participant owns links");
            !sl.links.intersection(owned).is_empty()
        })
        .take(n_pivots)
        .collect();
    if sampled.is_empty() {
        eprintln!("no participating BP has links in SL; nothing to pivot");
        std::process::exit(2);
    }

    let mut samples = Vec::new();
    let (mut total_cold_ms, mut total_warm_ms) = (0.0f64, 0.0f64);
    for bp in sampled {
        let without = market.offered_without(bp);

        let t = Instant::now();
        let cold = selector.select(&market, &oracle, &without);
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let mid = poc_obs::global().snapshot();

        let warm_oracle = WarmOracle::new(&topo, &tm, constraint);
        warm_oracle.seed(seed.clone());
        let t = Instant::now();
        let warm = selector.select(&market, &warm_oracle, &without);
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = poc_obs::global().snapshot();

        let (cold_cost, warm_cost) = (
            cold.as_ref().map_or(f64::NAN, |s| s.cost),
            warm.as_ref().map_or(f64::NAN, |s| s.cost),
        );
        let sample = PivotSample {
            bp: bp.0,
            cold_ms,
            warm_ms,
            speedup: cold_ms / warm_ms,
            reused_flows: counter_delta(&after, &mid, "flow.warm.reused_flows"),
            rerouted_flows: counter_delta(&after, &mid, "flow.warm.rerouted_flows"),
            fallbacks: counter_delta(&after, &mid, "flow.warm.fallbacks"),
        };
        println!(
            "pivot -{bp}: cold {cold_ms:.0}ms (cost {cold_cost:.0}) vs warm {warm_ms:.0}ms \
             (cost {warm_cost:.0}) — {:.2}x, reused {} rerouted {} fallbacks {}",
            sample.speedup, sample.reused_flows, sample.rerouted_flows, sample.fallbacks
        );
        total_cold_ms += cold_ms;
        total_warm_ms += warm_ms;
        samples.push(sample);
    }

    BenchArtifact::new(
        scale,
        Payload::Pivot(PivotBench {
            constraint: "#1".into(),
            samples,
            total_cold_ms,
            total_warm_ms,
            speedup: total_cold_ms / total_warm_ms,
        }),
    )
    .emit();
}
