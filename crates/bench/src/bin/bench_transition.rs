//! Safe-migration planning and execution cost, emitting
//! `BENCH_transition.json`.
//!
//! Each sample picks a target by re-running the auction under scaled
//! ("headroom") demand, plans a per-step-verified walk from the live
//! selection, and executes it through the netsim transition drill —
//! which independently re-verifies every applied intermediate state and
//! counts violations. The artifact's validation doubles as the safety
//! gate: a sample with any rejected intermediate is an invalid artifact,
//! so CI fails if the executor ever applies an unsafe set. The drill
//! sample additionally cuts and recalls target links mid-walk, so the
//! replan path is measured, not just the quiet one.
//!
//! Sizes (`POC_BENCH_QUICK=1` selects the CI smoke column):
//!
//! | | full | quick |
//! |---|---|---|
//! | instance | `scale` (100 BPs, 10k+ links) | `small` |
//! | demand headrooms | x1.5, x2, x3 | x1.5 |
//!
//! Each headroom yields three samples: expand, a drill with one cut and
//! one recall, and contract. The `paper` preset is not offered: its
//! oracle accepts the full offer, but greedy selection finds no subset
//! (see `auction/examples/smoke_paper_scale.rs`), so there is nothing to
//! migrate between.
//!
//! `POC_BENCH_OUT=path` overrides the artifact path (default
//! `BENCH_transition.json`).
//!
//! Usage: `bench_transition` to measure, `bench_transition --validate
//! <path>` to re-read an artifact of any bench and check it (exit 1 on
//! failure, naming the failing check).

use poc_auction::{run_auction, GreedySelector, Market};
use poc_bench::report::{
    validate_cli, BenchArtifact, Payload, ScaleInfo, TransitionBench, TransitionSample,
};
use poc_bench::{quick, Preset};
use poc_flow::{Constraint, LinkSet};
use poc_netsim::{run_transition_drill, TransitionDrillSpec};
use poc_topology::PocTopology;
use poc_traffic::TrafficMatrix;
use poc_transition::{plan_transition, PlanConfig};
use std::time::Instant;

/// The auction's selection under `tm` scaled by `headroom`, or `None`
/// when no acceptable set exists at that demand (the caller skips the
/// headroom and says so — a silently absent sample would read as
/// coverage).
fn selection_at(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    constraint: Constraint,
    headroom: f64,
) -> Option<LinkSet> {
    let mut scaled = tm.clone();
    scaled.scale(headroom);
    let market = Market::truthful(topo, 3.0);
    let selector = GreedySelector::with_prune_budget(16);
    match run_auction(&market, &scaled, constraint, &selector) {
        Ok(out) => Some(out.selected),
        Err(e) => {
            eprintln!("skipping headroom x{headroom}: auction failed ({e})");
            None
        }
    }
}

/// The fixed measurement context: one instance, one constraint.
struct Bench<'a> {
    topo: &'a PocTopology,
    tm: &'a TrafficMatrix,
    constraint: Constraint,
}

impl Bench<'_> {
    /// Plan (timed alone), then run the full drill (timed end to end).
    fn sample(
        &self,
        label: &str,
        headroom: f64,
        from: &LinkSet,
        to: &LinkSet,
        spec: &TransitionDrillSpec,
    ) -> Option<TransitionSample> {
        let (topo, tm, constraint) = (self.topo, self.tm, self.constraint);
        let cfg = PlanConfig::default();
        let start = Instant::now();
        let plan = match plan_transition(topo, tm, constraint, from, to, &cfg) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("skipping {label}: no plan ({e:?})");
                return None;
            }
        };
        let plan_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let rep = match run_transition_drill(topo, tm, constraint, from, to, spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("skipping {label}: drill failed ({e})");
                return None;
            }
        };
        let run_ms = start.elapsed().as_secs_f64() * 1e3;

        let s = TransitionSample {
            label: label.into(),
            headroom,
            n_from: from.len(),
            n_to: to.len(),
            plan_steps: plan.steps.len(),
            plan_probes: plan.probes as u64,
            plan_ms,
            run_ms,
            steps_applied: rep.steps_applied,
            replans: rep.replans,
            rollbacks: rep.rollbacks,
            outcome: format!("{:?}", rep.outcome)
                .chars()
                .flat_map(|c| {
                    // CamelCase -> snake_case to match the wire summary.
                    if c.is_uppercase() {
                        vec!['_', c.to_ascii_lowercase()]
                    } else {
                        vec![c]
                    }
                })
                .skip(1)
                .collect(),
            unsafe_intermediates: rep.unsafe_intermediates as u64,
        };
        println!(
            "{label}: {} -> {} links, plan {} steps ({} probes, {:.1}ms), \
             ran {} steps / {} replans in {:.1}ms -> {}",
            s.n_from,
            s.n_to,
            s.plan_steps,
            s.plan_probes,
            s.plan_ms,
            s.steps_applied,
            s.replans,
            s.run_ms,
            s.outcome
        );
        Some(s)
    }
}

fn main() {
    validate_cli("transition");
    let (preset, headrooms): (_, &[f64]) =
        if quick() { (Preset::Small, &[1.5]) } else { (Preset::Scale, &[1.5, 2.0, 3.0]) };
    let (topo, tm) = preset.build();
    let constraint = Constraint::BaseLoad;
    let scale = ScaleInfo::of(preset.name(), &topo);
    println!(
        "instance: preset={} routers={} links={} bps={} constraint={}",
        scale.preset,
        scale.n_routers,
        scale.n_links,
        scale.n_bps,
        constraint.label()
    );

    let Some(live) = selection_at(&topo, &tm, constraint, 1.0) else {
        eprintln!("preset {:?} has no live selection: nothing to migrate", preset.name());
        std::process::exit(2);
    };
    let quiet = TransitionDrillSpec { n_cuts: 0, n_recalls: 0, at_poll: 0 };
    // Faults land at the second round boundary (after the adds round, an
    // adds-first plan's midpoint), so the sample times the mid-flight
    // replan path rather than an instant unwind.
    let faulty = TransitionDrillSpec { n_cuts: 1, n_recalls: 1, at_poll: 1 };

    let bench = Bench { topo: &topo, tm: &tm, constraint };
    let mut samples = Vec::new();
    for &h in headrooms {
        let Some(target) = selection_at(&topo, &tm, constraint, h) else {
            continue;
        };
        samples.extend(bench.sample(&format!("expand x{h}"), h, &live, &target, &quiet));
        samples.extend(bench.sample(
            &format!("drill x{h} cut=1 recall=1"),
            h,
            &live,
            &target,
            &faulty,
        ));
        // And back down: contraction interleaves removes with the oracle
        // holding the floor up.
        samples.extend(bench.sample(&format!("contract x{h}"), h, &target, &live, &quiet));
    }

    let tb = TransitionBench {
        constraint: constraint.label().into(),
        total_plan_ms: samples.iter().map(|s| s.plan_ms).sum(),
        total_run_ms: samples.iter().map(|s| s.run_ms).sum(),
        samples,
    };
    BenchArtifact::new(scale, Payload::Transition(tb)).emit();
}
