//! One POC epoch, driven through the public API: a round on live demand,
//! a forecast round, the lease migration between them, traffic on the
//! installed set, usage reports to a durable server, and billing.

use crate::ctrl::{self, Ledger};
use crate::report::{Checks, Tally};
use crate::trace::Tracer;
use crate::world::World;
use poc_auction::AuctionOutcome;
use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig, PocState};
use poc_ctrlplane::FsyncPolicy;
use poc_flow::{FeasibilityOracle, LinkSet};
use poc_netsim::{detect_throttling_packets, Engine, EngineConfig, SourceKind, ThrottleSpec};
use poc_topology::{PocTopology, RouterId};
use poc_traffic::{TrafficMatrix, UserFlowModel};
use poc_transition::{
    execute_transition, plan_transition, PlanConfig, TransitionHooks, TransitionOp,
    TransitionOutcome,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Demand the forecast round plans for, as a multiple of live demand.
pub const FORECAST_SCALE: f64 = 1.2;

/// One auction round.
#[derive(Clone, Debug)]
pub struct RoundRec {
    pub secs: f64,
    pub ok: bool,
    /// For a failed round: whether a cold oracle accepts every offered
    /// link (`OL`) at the same demand.
    pub ol_feasible: Option<bool>,
}

/// One planned and executed migration.
#[derive(Clone, Debug)]
pub struct TransitionRec {
    pub plan_s: f64,
    pub exec_s: f64,
    /// Time inside the hooks' `apply_step`.
    pub apply_s: f64,
    pub plan_steps: usize,
    pub plan_rounds: usize,
    pub probes: usize,
    pub steps_applied: usize,
    pub replans: u32,
    pub rollbacks: u32,
    pub committed: bool,
}

/// One packet-engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineRec {
    pub build_s: f64,
    pub run_s: f64,
    pub events: u64,
    pub injected: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub sources: usize,
    pub user_flows: u64,
    /// Delivered ÷ offered bytes over the horizon.
    pub delivered_frac: f64,
}

/// What an epoch measured.
#[derive(Clone, Debug, Default)]
pub struct EpochRec {
    pub wall_s: f64,
    pub rounds: Vec<RoundRec>,
    /// The live round's outcome.
    pub live: Option<AuctionOutcome>,
    pub transition: Option<TransitionRec>,
    pub engine: Option<EngineRec>,
    pub usage_report_s: f64,
    pub billing_s: f64,
    pub discrim_s: f64,
    /// The state right after the live round and the forecast outcome, for
    /// repeating the migration.
    pub repeat: Option<(PocState, AuctionOutcome)>,
}

/// What a finished epoch leaves for the load phase.
pub struct Done {
    /// The state the epoch's server booted from: members attached, the
    /// forecast set installed.
    pub boot_state: PocState,
    pub entities: Vec<EntityId>,
    /// The LMP billed for each source router's traffic.
    pub owners: BTreeMap<RouterId, EntityId>,
}

/// Everything an epoch needs besides the world.
pub struct Ctx<'a> {
    pub world: &'a World,
    pub seed: u64,
    pub horizon_ns: u64,
    pub tracer: &'a Tracer,
    pub tally: &'a mut Tally,
    pub checks: &'a mut Checks,
}

/// Whether a cold oracle accepts the full offered set at `tm`.
pub fn ol_feasible(topo: &PocTopology, tm: &TrafficMatrix) -> bool {
    let oracle = FeasibilityOracle::new(topo, tm, PocConfig::default().constraint);
    oracle.evaluate(&LinkSet::full(topo.n_links())).is_ok()
}

/// Attach one LMP per entry of `world.lmp_routers`; returns the entities
/// and the LMP that owns each source router's traffic.
pub fn attach(poc: &mut Poc, world: &World) -> (Vec<EntityId>, BTreeMap<RouterId, EntityId>) {
    let mut owners = BTreeMap::new();
    let entities = world
        .lmp_routers
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let e = poc.attach_lmp(&format!("lmp-{i}"), r).expect("fresh LMP names attach");
            owners.entry(r).or_insert(e);
            e
        })
        .collect();
    (entities, owners)
}

/// Build the engine on `active` with each source billed to its router's
/// LMP and tagged alternately `suspect` / `control` by router, as the
/// `poc dataplane` loop splits them.
pub fn build_engine<'t>(
    topo: &'t PocTopology,
    tm: &TrafficMatrix,
    active: &LinkSet,
    owners: &BTreeMap<RouterId, EntityId>,
    horizon_ns: u64,
    seed: u64,
) -> Result<Engine<'t>, poc_netsim::EngineError> {
    let cfg = EngineConfig { horizon_ns, seed, ..EngineConfig::default() };
    let mut eng = Engine::new(topo, active, cfg)?;
    eng.add_traffic_matrix(tm, &UserFlowModel::default(), SourceKind::Persistent, |src| {
        let tag = if src.index() % 2 == 0 { "suspect" } else { "control" };
        (owners.get(&src).copied(), tag.to_string())
    })?;
    Ok(eng)
}

/// Run a built engine and summarise it.
pub fn run_engine(eng: Engine<'_>, build_s: f64) -> (EngineRec, poc_netsim::EngineReport) {
    let (sources, user_flows) = (eng.n_sources(), eng.n_user_flows());
    let t = Instant::now();
    let rep = eng.run();
    let rec = EngineRec {
        build_s,
        run_s: t.elapsed().as_secs_f64(),
        events: rep.events,
        injected: rep.packets_injected,
        delivered: rep.packets_delivered,
        dropped: rep.packets_dropped,
        sources,
        user_flows,
        delivered_frac: rep.overall_availability(),
    };
    (rec, rep)
}

/// Applies each step to the `Poc` the way the control plane's journaling
/// hooks do, minus the journal: adds are priced from the outcome that
/// selected the link (the new one, or the current one for a rollback
/// re-add), removes expire the lease.
struct PocHooks<'a> {
    poc: &'a mut Poc,
    outcome: &'a AuctionOutcome,
    tracer: &'a Tracer,
    parent: Option<u64>,
    apply_s: f64,
}

impl TransitionHooks for PocHooks<'_> {
    fn apply_step(&mut self, _: usize, op: TransitionOp, _: &LinkSet) -> Result<(), String> {
        let _s = self.tracer.span("transition.apply", self.parent);
        let t = Instant::now();
        let link = op.link();
        let r = if !op.is_add() {
            self.poc.transition_remove_link(link)
        } else if self.outcome.selected.contains(link) {
            self.poc.transition_add_link(self.outcome, link)
        } else {
            let current = self.poc.last_outcome().cloned();
            self.poc.transition_add_link(current.as_ref().unwrap_or(self.outcome), link)
        };
        self.apply_s += t.elapsed().as_secs_f64();
        r.map_err(|e| e.to_string())
    }

    fn force_restore(&mut self, links: &LinkSet) -> Result<(), String> {
        self.poc.force_install(links);
        Ok(())
    }
}

/// Plan and execute the migration of `poc`'s installed set onto
/// `target`, verified against live demand `tm`. On `Committed` the target
/// outcome becomes current. `None` when no plan exists or a hook failed.
pub fn migrate(
    poc: &mut Poc,
    tm: &TrafficMatrix,
    target: &AuctionOutcome,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Option<TransitionRec> {
    let topo = poc.topo().clone();
    let constraint = poc.config().constraint;
    let from = poc.installed_links()?.clone();
    let cfg = PlanConfig::default();
    let t = Instant::now();
    let plan = {
        let _s = tracer.span("transition.plan", parent);
        plan_transition(&topo, tm, constraint, &from, &target.selected, &cfg).ok()?
    };
    let plan_s = t.elapsed().as_secs_f64();
    let (plan_steps, plan_rounds, probes) = (plan.steps.len(), plan.rounds().len(), plan.probes);
    let span = tracer.span("transition.exec", parent);
    let t = Instant::now();
    let mut hooks = PocHooks { poc, outcome: target, tracer, parent: span.id(), apply_s: 0.0 };
    let report = execute_transition(&topo, tm, constraint, &cfg, plan, &mut hooks).ok()?;
    let apply_s = hooks.apply_s;
    let committed = report.outcome == TransitionOutcome::Committed;
    if committed {
        poc.commit_transition(target.clone());
    }
    let exec_s = t.elapsed().as_secs_f64();
    drop(span);
    Some(TransitionRec {
        plan_s,
        exec_s,
        apply_s,
        plan_steps,
        plan_rounds,
        probes,
        steps_applied: report.steps_applied,
        replans: report.replans,
        rollbacks: report.rollbacks,
        committed,
    })
}

/// One auction round on `poc` at `tm`, tallied; a failure records the
/// oracle's verdict on `OL` next to it.
fn round(
    ctx: &mut Ctx<'_>,
    parent: Option<u64>,
    f: impl FnOnce() -> Option<AuctionOutcome>,
    tm: &TrafficMatrix,
) -> (RoundRec, Option<AuctionOutcome>) {
    let t = Instant::now();
    let out = {
        let _s = ctx.tracer.span("auction.round", parent);
        f()
    };
    let secs = t.elapsed().as_secs_f64();
    ctx.tally.one("auction_rounds", out.is_some());
    let ol = out.is_none().then(|| {
        let _s = ctx.tracer.span("flow.ol_check", parent);
        ol_feasible(&ctx.world.topo, tm)
    });
    (RoundRec { secs, ok: out.is_some(), ol_feasible: ol }, out)
}

/// Run one epoch, journaling to `dir`. Returns its record and, when it
/// got as far as booting the server, what the load phase starts from.
pub fn run(ctx: &mut Ctx<'_>, dir: &Path) -> (EpochRec, Option<Done>) {
    let world = ctx.world;
    let tracer = ctx.tracer;
    let mut rec = EpochRec::default();
    let start = Instant::now();
    let root = tracer.span("epoch", None);
    let p = root.id();

    let (mut poc, entities, owners) = {
        let _s = tracer.span("core.attach", p);
        let mut poc = Poc::new(world.topo.clone(), PocConfig::default());
        let (entities, owners) = attach(&mut poc, world);
        (poc, entities, owners)
    };

    // 1. The round on live demand installs the fabric.
    let (r, live) = round(ctx, p, || poc.run_auction_round(&world.tm).ok().cloned(), &world.tm);
    rec.rounds.push(r);
    let Some(live) = live else {
        rec.wall_s = start.elapsed().as_secs_f64();
        return (rec, None);
    };
    let leased: f64 = poc.leases().payments_due(poc.period()).iter().map(|(_, p)| p).sum();
    let paid: f64 = live.settlements.iter().map(|s| s.payment).sum();
    ctx.checks.check(
        "auction.leases_equal_round_payments",
        (leased - paid).abs() <= 1e-9 * paid.abs().max(1.0),
        format!("leases {leased} vs payments {paid}"),
    );
    let live_state = poc.export_state();
    rec.live = Some(live);

    // 2. The forecast round picks the set to migrate to.
    let mut forecast_tm = world.tm.clone();
    forecast_tm.scale(FORECAST_SCALE);
    let (r, forecast) =
        round(ctx, p, || poc.compute_auction_outcome(&forecast_tm).ok(), &forecast_tm);
    rec.rounds.push(r);

    // 3. Migrate live -> forecast, verified against live demand.
    let mut target = None;
    if let Some(forecast) = forecast {
        rec.repeat = Some((live_state, forecast.clone()));
        let tr = migrate(&mut poc, &world.tm, &forecast, tracer, p);
        ctx.tally.one("transitions", tr.as_ref().is_some_and(|t| t.committed));
        if tr.as_ref().is_some_and(|t| t.committed) {
            target = Some(forecast.selected.clone());
        }
        rec.transition = tr;
    }

    // 4. Traffic on whatever set is installed now.
    let installed = poc.installed_links().expect("a round installed the fabric").clone();
    let t = Instant::now();
    let built = {
        let _s = tracer.span("netsim.engine_build", p);
        build_engine(&world.topo, &world.tm, &installed, &owners, ctx.horizon_ns, ctx.seed)
    };
    let build_s = t.elapsed().as_secs_f64();
    ctx.tally.one("engine_runs", built.is_ok());
    let engine = built.ok().map(|eng| {
        let _s = tracer.span("netsim.engine_run", p);
        run_engine(eng, build_s)
    });

    // 5. Boot the durable server on this Poc and report usage over one
    // connection.
    let boot_state = poc.export_state();
    let server = {
        let _s = tracer.span("ctrlplane.boot", p);
        ctrl::boot(poc, world.tm.clone(), dir, FsyncPolicy::Always)
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            ctx.checks.check("ctrlplane.boot", false, e.to_string());
            rec.wall_s = start.elapsed().as_secs_f64();
            return (rec, None);
        }
    };
    let mut client = ctrl::connect(server.addr).expect("connect to the server just booted");
    let mut ledger = Ledger::default();
    let usage = engine.as_ref().map(|(_, rep)| rep.usage_by_owner.clone()).unwrap_or_default();
    let t = Instant::now();
    {
        let _s = tracer.span("ctrlplane.usage_report", p);
        for &(entity, gbps) in &usage {
            let ok = client.report_usage(entity, gbps).is_ok();
            ctx.tally.one("ctrl_requests", ok);
            if ok {
                ledger.record_ack(entity, gbps);
            }
        }
    }
    rec.usage_report_s = t.elapsed().as_secs_f64();

    // 6. Close the period, then audit the traffic classes.
    let t = Instant::now();
    let bill = {
        let _s = tracer.span("core.billing", p);
        client.run_billing()
    };
    rec.billing_s = t.elapsed().as_secs_f64();
    ctx.tally.one("ctrl_requests", bill.is_ok());
    let t = Instant::now();
    let finding = {
        let _s = tracer.span("netsim.discrim", p);
        engine.as_ref().map(|(_, rep)| detect_throttling_packets(rep, &ThrottleSpec::default()))
    };
    rec.discrim_s = t.elapsed().as_secs_f64();
    rec.wall_s = start.elapsed().as_secs_f64();
    drop(root);
    drop(client);
    server.stop();

    // Output checks, outside the timed epoch.
    if let Ok(b) = &bill {
        let charged: f64 = b.charges.iter().map(|(_, c)| c).sum();
        let tol = 1e-9 * b.total_outlay.abs().max(1.0);
        ctx.checks.check(
            "billing.charges_sum_to_outlay",
            (charged - b.total_outlay).abs() <= tol,
            format!("charges {charged} vs outlay {}", b.total_outlay),
        );
        ctx.checks.check(
            "billing.poc_net_zero",
            b.poc_net.abs() <= tol,
            format!("poc_net {}", b.poc_net),
        );
        let leased: f64 = boot_state.leases.payments_due(b.period).iter().map(|(_, p)| p).sum();
        let installed_outcome = boot_state.last_outcome.as_ref().expect("a round ran");
        let market =
            poc_auction::Market::truthful(&world.topo, PocConfig::default().virtual_price_factor);
        let expected = leased + market.virtual_cost(&installed_outcome.selected);
        ctx.checks.check(
            "billing.outlay_equals_lease_payments",
            (b.total_outlay - expected).abs() <= tol,
            format!("outlay {} vs lease payments + contracts {expected}", b.total_outlay),
        );
        ledger.billings.push(b.clone());
    } else {
        ledger.billing_failures += 1;
    }
    let billed = ctrl::billed_matches_acked(&ledger);
    ctx.checks.check(
        "billing.billed_equals_reported",
        billed.is_ok(),
        billed.err().unwrap_or_default(),
    );
    if let Some(target) = &target {
        let on_target = boot_state.last_outcome.as_ref().is_some_and(|o| &o.selected == target);
        ctx.checks.check("transition.committed_on_target", on_target, "installed set differs");
        ctx.checks.check(
            "transition.target_cold_feasible",
            FeasibilityOracle::new(&world.topo, &world.tm, PocConfig::default().constraint)
                .evaluate(target)
                .is_ok(),
            "a cold oracle rejects the committed set",
        );
    }
    if let Some((e, _)) = &engine {
        ctx.checks.check(
            "netsim.packets_conserved",
            e.delivered + e.dropped <= e.injected,
            format!("{} delivered + {} dropped > {} injected", e.delivered, e.dropped, e.injected),
        );
    }
    ctx.checks.check(
        "netsim.throttle_audit_has_both_classes",
        finding.is_some_and(|f| f.is_some()),
        "no finding for the suspect/control split",
    );
    rec.engine = engine.map(|(e, _)| e);
    (rec, Some(Done { boot_state, entities, owners }))
}

/// A repeat of the epoch's migration from a fresh copy of the post-round
/// state, so one run can time several.
pub fn transition_sample(
    world: &World,
    live_state: &PocState,
    target: &AuctionOutcome,
    tracer: &Tracer,
) -> Option<TransitionRec> {
    let mut poc = Poc::new(world.topo.clone(), PocConfig::default());
    poc.restore_state(live_state.clone());
    migrate(&mut poc, &world.tm, target, tracer, None)
}
