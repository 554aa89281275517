//! Workloads, passes, and the metrics derived from them.
//!
//! A *pass* is one go through a workload: set-up (repeated), then batches
//! of epochs interleaved with load rounds, each round on a fresh server
//! booted from the last epoch's state and restarted on its journal. An
//! untraced run makes one pass sized by `--seconds` and reports
//! end-to-end metrics. A traced run makes two short passes of
//! identical shape, the first untraced and the second traced, checks that
//! both computed the same outcome, and reports per-layer metrics from the
//! traced one.

use crate::ctrl::{self, LoadRound, Mix};
use crate::epoch::{self, Ctx, EngineRec, EpochRec, TransitionRec};
use crate::load::Sample;
use crate::report::{Checks, Metric, Tally};
use crate::stats::{self, interquartile_mean, median};
use crate::trace::{self, Tracer};
use crate::world::{self, Preset};
use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig, PocState};
use poc_ctrlplane::FsyncPolicy;
use poc_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Journal sync policy of the servers the load and set-up run on. The
/// epoch's own server syncs every append (`FsyncPolicy::Always`); the
/// load does not, because fsync latency on a shared virtual disk swings
/// by two orders of magnitude from minute to minute, which no bound on
/// request latency could absorb. See README.md.
const LOAD_FSYNC: FsyncPolicy = FsyncPolicy::Never;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper,
    EpochMid,
    CtrlMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(Self::Paper),
            "epoch-mid" => Some(Self::EpochMid),
            "ctrl-mixed" => Some(Self::CtrlMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::EpochMid => "epoch-mid",
            Self::CtrlMixed => "ctrl-mixed",
        }
    }

    fn preset(self) -> Preset {
        match self {
            Self::Paper => Preset::Paper,
            Self::EpochMid => Preset::Mid,
            Self::CtrlMixed => Preset::Small,
        }
    }

    /// Packet-engine horizon.
    fn horizon_ns(self) -> u64 {
        match self {
            Self::Paper => 20_000_000,
            Self::EpochMid | Self::CtrlMixed => 5_000_000,
        }
    }
}

/// How much a pass does.
#[derive(Clone, Debug)]
pub struct Shape {
    pub setups: usize,
    /// Epochs in the whole pass, at most.
    pub max_epochs: usize,
    /// Each batch keeps starting epochs until it is this old (at least
    /// one epoch per batch); a batch precedes every load round.
    pub epoch_batch: Duration,
    /// Extra migrations before each load round, from a fresh copy of the
    /// last epoch's post-round state. Spread over the pass, so one slow
    /// stretch of the host cannot move their median.
    pub transition_repeats: usize,
    /// Extra engine runs before each load round, on the set the last
    /// epoch left installed.
    pub engine_repeats: usize,
    /// Keep starting batches and load rounds until the pass is this old.
    pub until: Duration,
    /// Length of each load round's reference phase.
    pub ref_dur: Duration,
    /// Whether load rounds end with the ladder (traced runs only: the top
    /// rate it finds swings by half from run to run on a shared 2-vCPU
    /// host, so it is a per-layer number, and leaving it out keeps the
    /// untraced runs' request volume, and so their memory, fixed).
    pub ladder: bool,
    /// Shortest ladder rung.
    pub rung_dur: Duration,
    /// Restarts per load round, right after it closes. Once a round has
    /// closed, one more restart on its journal also follows every epoch,
    /// migration and engine repeat of the next batch, so that the
    /// recovery samples are spread over the pass like the others.
    pub restarts: usize,
}

impl Shape {
    /// The pass an untraced run makes in `seconds`.
    pub fn measured(w: Workload, seconds: f64) -> Self {
        let until = Duration::from_secs_f64(seconds);
        match w {
            Workload::Paper => Self::single(),
            Workload::EpochMid => Self {
                setups: 15,
                transition_repeats: 4,
                engine_repeats: 1,
                until,
                ladder: false,
                restarts: 3,
                ..Self::single()
            },
            Workload::CtrlMixed => Self {
                setups: 15,
                max_epochs: usize::MAX,
                epoch_batch: Duration::from_millis(1500),
                until,
                ladder: false,
                restarts: 3,
                ..Self::single()
            },
        }
    }

    /// The smallest pass that still runs every layer once: what a traced
    /// run makes twice.
    pub fn single() -> Self {
        Self {
            setups: 1,
            max_epochs: 1,
            epoch_batch: Duration::ZERO,
            transition_repeats: 0,
            engine_repeats: 0,
            until: Duration::ZERO,
            ref_dur: Duration::from_secs(3),
            ladder: true,
            rung_dur: Duration::from_millis(300),
            restarts: 1,
        }
    }
}

/// Everything a pass measured.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    pub setup_boot_s: Vec<f64>,
    pub epochs: Vec<EpochRec>,
    pub transitions: Vec<TransitionRec>,
    pub loads: Vec<LoadRound>,
    /// Seconds from each restart until the server answered.
    pub recovery_s: Vec<f64>,
    pub tally: Tally,
    /// Control-plane requests refused with `Busy` / timed out (both are
    /// also among the failed `ctrl_requests`).
    pub ctrl_busy: u64,
    pub ctrl_timed_out: u64,
    pub checks: Checks,
    /// Engine runs outside the epochs: the paper workload's, and the
    /// extra runs on the last installed set.
    pub extra_engines: Vec<EngineRec>,
}

/// Fresh state directories under `<root>/state-<pid>`, removed on drop.
pub struct StateDirs {
    root: PathBuf,
    next: u64,
}

impl StateDirs {
    pub fn new(root: &Path) -> std::io::Result<Self> {
        let root = root.join(format!("state-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: 0 })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        let d = self.root.join(self.next.to_string());
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

impl Drop for StateDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A closed load round's state directory, kept so that later restarts can
/// replay its journal; removed on drop.
struct Journal {
    dir: PathBuf,
    boot_state: PocState,
    entities: Vec<EntityId>,
    /// Every balance as read before the first restart (`None` when that
    /// read failed); each restart must read the same.
    balances: Option<BTreeMap<EntityId, f64>>,
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Restart a server on `j`'s journal, time it until it answers, and
/// check that it reads the balances `j` closed with. Returns the server,
/// still running, and the records it replayed.
fn restart(
    world: &world::World,
    j: &Journal,
    tracer: &Tracer,
    parent: Option<u64>,
    pass: &mut Pass,
) -> Option<(ctrl::Server, u64)> {
    let _s = tracer.span("ctrlplane.restart", parent);
    let mut poc = Poc::new(world.topo.clone(), PocConfig::default());
    poc.restore_state(j.boot_state.clone());
    match ctrl::restart(poc, world.tm.clone(), &j.dir, LOAD_FSYNC) {
        Ok((server, secs, info, mut client)) => {
            pass.recovery_s.push(secs);
            let after = ctrl::read_balances(&mut client, &j.entities);
            pass.checks.check(
                "ctrlplane.balances_survive_restart",
                j.balances.is_some() && after.as_ref().ok() == j.balances.as_ref(),
                format!("before {:?}, after {after:?}", j.balances),
            );
            Some((server, info.map_or(0, |i| i.replayed_records)))
        }
        Err(e) => {
            pass.checks.check("ctrlplane.restart", false, e.to_string());
            None
        }
    }
}

/// One restart on the last closed round's journal, when there is one.
fn probe_restart(world: &world::World, last: Option<&Journal>, tracer: &Tracer, pass: &mut Pass) {
    if let Some((server, _)) = last.and_then(|j| restart(world, j, tracer, None, pass)) {
        server.stop();
    }
}

/// One pass of `w`.
pub fn run_pass(
    w: Workload,
    seed: u64,
    shape: &Shape,
    tracer: &Tracer,
    dirs: &mut StateDirs,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    if w == Workload::Paper {
        paper_pass(seed, tracer, &mut pass);
        pass.wall_s = start.elapsed().as_secs_f64();
        return pass;
    }

    // Set-up: generate the instance, boot a durable server on it and
    // attach its members over the wire.
    let mut world = None;
    for _ in 0..shape.setups.max(1) {
        let root = tracer.span("setup", None);
        let t = Instant::now();
        let wld = world::build(w.preset(), tracer, root.id());
        let dir = dirs.fresh();
        let tb = Instant::now();
        let server = {
            let _s = tracer.span("ctrlplane.boot", root.id());
            let poc = Poc::new(wld.topo.clone(), PocConfig::default());
            ctrl::boot(poc, wld.tm.clone(), &dir, LOAD_FSYNC)
        };
        let boot_s = tb.elapsed().as_secs_f64();
        let attached = server.as_ref().map_err(|e| e.to_string()).and_then(|s| {
            let _s = tracer.span("ctrlplane.attach", root.id());
            ctrl::attach_all(s.addr, &wld.lmp_routers)
        });
        pass.setup_s.push(t.elapsed().as_secs_f64());
        drop(root);
        pass.tally.one("ctrl_setups", attached.is_ok());
        if let Err(e) = attached {
            pass.checks.check("ctrlplane.setup", false, e);
        }
        if let Ok(s) = server {
            s.stop();
        }
        let _ = std::fs::remove_dir_all(&dir);
        pass.setup_boot_s.push(boot_s);
        world = Some(wld);
    }
    let world = world.expect("at least one set-up");

    // Epoch batches interleaved with load rounds, so that a slow stretch
    // of a shared host lands on a share of each kind of sample rather
    // than on all of one kind.
    let mut done: Option<epoch::Done> = None;
    let mut last: Option<Journal> = None;
    for round in 0.. {
        let batch_start = Instant::now();
        while pass.epochs.len() < shape.max_epochs {
            let dir = dirs.fresh();
            let mut ctx = Ctx {
                world: &world,
                seed,
                horizon_ns: w.horizon_ns(),
                tracer,
                tally: &mut pass.tally,
                checks: &mut pass.checks,
            };
            let (rec, d) = epoch::run(&mut ctx, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            // Only the last epoch's post-round state is repeated from.
            if let Some(prev) = pass.epochs.last_mut() {
                prev.repeat = None;
            }
            pass.transitions.extend(rec.transition.clone());
            pass.epochs.push(rec);
            let failed = d.is_none();
            done = d.or(done);
            probe_restart(&world, last.as_ref(), tracer, &mut pass);
            if failed || batch_start.elapsed() >= shape.epoch_batch {
                break;
            }
        }
        let Some(done) = &done else { break };
        repeat_transitions(&world, shape, last.as_ref(), tracer, &mut pass);
        repeat_engine(&world, done, shape, seed, w.horizon_ns(), last.as_ref(), tracer, &mut pass);
        let span = tracer.span("ctrlplane.load", None);
        let mix = Mix::new(seed, done.entities.clone());
        let j = Journal {
            dir: dirs.fresh(),
            boot_state: done.boot_state.clone(),
            entities: done.entities.clone(),
            balances: None,
        };
        let (r, j) = load_round(&world, &mix, round, shape, j, tracer, span.id(), &mut pass);
        drop(span);
        pass.loads.push(r);
        last = Some(j);
        if start.elapsed() >= shape.until {
            break;
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Extra migrations from a fresh copy of the last epoch's post-round
/// state, each followed by a restart on `last`.
fn repeat_transitions(
    world: &world::World,
    shape: &Shape,
    last: Option<&Journal>,
    tracer: &Tracer,
    pass: &mut Pass,
) {
    let Some((state, target)) = pass.epochs.last().and_then(|e| e.repeat.clone()) else {
        return;
    };
    for _ in 0..shape.transition_repeats {
        let tr = epoch::transition_sample(world, &state, &target, tracer);
        pass.tally.one("transitions", tr.as_ref().is_some_and(|t| t.committed));
        pass.transitions.extend(tr);
        probe_restart(world, last, tracer, pass);
    }
}

/// Extra engine runs on the set the last epoch left installed, each
/// followed by a restart on `last`.
#[allow(clippy::too_many_arguments)]
fn repeat_engine(
    world: &world::World,
    done: &epoch::Done,
    shape: &Shape,
    seed: u64,
    horizon_ns: u64,
    last: Option<&Journal>,
    tracer: &Tracer,
    pass: &mut Pass,
) {
    let Some(installed) = done.boot_state.last_outcome.as_ref().map(|o| &o.selected) else {
        return;
    };
    for _ in 0..shape.engine_repeats {
        let t = Instant::now();
        let built = {
            let _s = tracer.span("netsim.engine_build", None);
            epoch::build_engine(&world.topo, &world.tm, installed, &done.owners, horizon_ns, seed)
        };
        let build_s = t.elapsed().as_secs_f64();
        pass.tally.one("engine_runs", built.is_ok());
        if let Ok(eng) = built {
            let _s = tracer.span("netsim.engine_run", None);
            pass.extra_engines.push(epoch::run_engine(eng, build_s).0);
        }
        probe_restart(world, last, tracer, pass);
    }
}

/// One load round on a server booted from `j`'s state into its
/// directory: the reference phase; close the period and read every
/// balance; restart on the same journal and read them again; then, when
/// `shape` asks for it, the ladder on the restarted server. Returns the
/// round and `j` with the balances it closed with.
#[allow(clippy::too_many_arguments)]
fn load_round(
    world: &world::World,
    mix: &Mix,
    round: u64,
    shape: &Shape,
    mut j: Journal,
    tracer: &Tracer,
    parent: Option<u64>,
    pass: &mut Pass,
) -> (LoadRound, Journal) {
    let mut out = LoadRound::default();
    let mut ledger = ctrl::Ledger::default();
    let phase_base = round * 1000;
    let fail = |pass: &mut Pass, what: &str, e: String| pass.checks.check(what, false, e);

    let mut poc = Poc::new(world.topo.clone(), PocConfig::default());
    poc.restore_state(j.boot_state.clone());
    let server = match ctrl::boot(poc, world.tm.clone(), &j.dir, LOAD_FSYNC) {
        Ok(s) => s,
        Err(e) => {
            fail(pass, "ctrlplane.boot", e.to_string());
            return (out, j);
        }
    };
    match ctrl::open_conns(server.addr) {
        Ok(mut conns) => {
            out.reference = ctrl::reference(
                &mut conns,
                mix,
                phase_base,
                shape.ref_dur,
                &mut ledger,
                tracer,
                parent,
            )
        }
        Err(e) => fail(pass, "ctrlplane.load_connects", e.to_string()),
    }
    let before = ctrl::close_and_read(server.addr, &j.entities, &mut ledger);
    server.stop();
    let billed = ctrl::billed_matches_acked(&ledger);
    pass.checks.check(
        "ctrlplane.billed_equals_acknowledged",
        billed.is_ok(),
        billed.err().unwrap_or_default(),
    );
    match before {
        Ok(b) => j.balances = Some(b),
        Err(e) => fail(pass, "ctrlplane.balances_read", format!("{e:?}")),
    }

    let mut last = None;
    for i in 0..shape.restarts.max(1) {
        if let Some((server, replayed)) = restart(world, &j, tracer, parent, pass) {
            out.replayed_records = replayed;
            if shape.ladder && i + 1 == shape.restarts.max(1) {
                last = Some(server);
            } else {
                server.stop();
            }
        }
    }

    if let Some(server) = last {
        match ctrl::open_conns(server.addr) {
            Ok(mut conns) => {
                let t = Instant::now();
                (out.ladder, out.max_ok_rate) = ctrl::ladder(
                    &mut conns,
                    mix,
                    phase_base + 1,
                    shape.rung_dur,
                    &mut ledger,
                    tracer,
                    parent,
                );
                out.ladder_s = t.elapsed().as_secs_f64();
            }
            Err(e) => fail(pass, "ctrlplane.load_connects", e.to_string()),
        }
        server.stop();
    }
    pass.tally.add(
        "ctrl_requests",
        ledger.attempted,
        ledger.busy + ledger.timed_out + ledger.failed,
    );
    pass.ctrl_busy += ledger.busy;
    pass.ctrl_timed_out += ledger.timed_out;
    (out, j)
}

/// The paper instance: a cold oracle check on `OL`, one VCG round, and
/// the packet engine over the full offered set.
fn paper_pass(seed: u64, tracer: &Tracer, pass: &mut Pass) {
    let root = tracer.span("setup", None);
    let t = Instant::now();
    let world = world::build(Preset::Paper, tracer, root.id());
    let mut poc = Poc::new(world.topo.clone(), PocConfig::default());
    let (_, owners) = epoch::attach(&mut poc, &world);
    let full = poc_flow::LinkSet::full(world.topo.n_links());
    let tb = Instant::now();
    let built = {
        let _s = tracer.span("netsim.engine_build", root.id());
        epoch::build_engine(
            &world.topo,
            &world.tm,
            &full,
            &owners,
            Workload::Paper.horizon_ns(),
            seed,
        )
    };
    let build_s = tb.elapsed().as_secs_f64();
    pass.setup_s.push(t.elapsed().as_secs_f64());
    drop(root);

    let root = tracer.span("epoch", None);
    let start = Instant::now();
    let ol = {
        let _s = tracer.span("flow.ol_check", root.id());
        epoch::ol_feasible(&world.topo, &world.tm)
    };
    pass.checks.check("paper.cold_oracle_accepts_ol", ol, "the cold oracle rejects OL");
    let t = Instant::now();
    let out = {
        let _s = tracer.span("auction.round", root.id());
        poc.run_auction_round(&world.tm).ok().cloned()
    };
    let secs = t.elapsed().as_secs_f64();
    pass.tally.one("auction_rounds", out.is_some());
    let rec = EpochRec {
        rounds: vec![epoch::RoundRec { secs, ok: out.is_some(), ol_feasible: Some(ol) }],
        live: out,
        ..EpochRec::default()
    };
    pass.tally.one("engine_runs", built.is_ok());
    if let Ok(eng) = built {
        let _s = tracer.span("netsim.engine_run", root.id());
        let (e, _) = epoch::run_engine(eng, build_s);
        pass.checks.check(
            "netsim.packets_conserved",
            e.delivered + e.dropped <= e.injected,
            "more packets delivered or dropped than injected",
        );
        pass.extra_engines.push(e);
    }
    pass.epochs.push(EpochRec { wall_s: start.elapsed().as_secs_f64(), ..rec });
}

fn engines(pass: &Pass) -> Vec<&EngineRec> {
    pass.epochs.iter().filter_map(|e| e.engine.as_ref()).chain(&pass.extra_engines).collect()
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Mean of the middle half of `xs`, NaN when empty.
fn iqm(xs: impl IntoIterator<Item = f64>) -> f64 {
    interquartile_mean(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Successful rounds per minute of round wall time, with the
/// interquartile mean round standing for every round so one preempted
/// round cannot move it.
fn rounds_per_min(pass: &Pass) -> f64 {
    let rounds: Vec<_> = pass.epochs.iter().flat_map(|e| &e.rounds).collect();
    let ok = rounds.iter().filter(|r| r.ok).count() as f64;
    60.0 * ok / rounds.len() as f64 / iqm(rounds.iter().map(|r| r.secs))
}

fn reference_samples(pass: &Pass) -> impl Iterator<Item = &(ctrl::Kind, Sample)> {
    pass.loads.iter().flat_map(|l| &l.reference)
}

/// Reference-phase latencies (µs) cut into windows of
/// [`ctrl::REF_WINDOW_NS`] by due time, each sorted ascending. A stall
/// then lifts the tail of the window it falls in, not of the whole phase.
fn ref_windows(pass: &Pass) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for l in &pass.loads {
        let mut by_window: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for (_, s) in &l.reference {
            by_window.entry(s.due_ns / ctrl::REF_WINDOW_NS).or_default().push(s.latency_us());
        }
        for (_, mut lat) in by_window {
            lat.sort_by(f64::total_cmp);
            out.push(lat);
        }
    }
    out
}

/// Percentile `p` of the reference phase per window, median over windows.
fn window_quantile(pass: &Pass, p: f64) -> f64 {
    med(ref_windows(pass).iter().map(|lat| stats::percentile(lat, p).unwrap_or(f64::NAN)))
}

/// End-to-end metrics of an untraced pass. The paper workload reports
/// the subset its stages produce.
pub fn end_to_end(w: Workload, pass: &Pass) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let eng = engines(pass);
    let mut out = vec![
        m("setup_s", med(pass.setup_s.iter().copied()), "s"),
        m("peak_rss_mb", world::peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        m("auction_rounds_per_min", rounds_per_min(pass), "1/min"),
        m(
            "dp_mevents_per_s",
            med(eng.iter().map(|e| e.events as f64 / e.run_s / 1e6)),
            "Mevents/s",
        ),
        m("dp_delivered_frac", med(eng.iter().map(|e| e.delivered_frac)), "frac"),
    ];
    if w == Workload::Paper {
        return out;
    }
    out.extend([
        m("epoch_s", med(pass.epochs.iter().map(|e| e.wall_s)), "s"),
        m(
            "auction_cost_usd",
            med(pass.epochs.iter().filter_map(|e| e.live.as_ref()).map(|o| o.total_cost)),
            "usd/mo",
        ),
        m("transition_s", med(pass.transitions.iter().map(|t| t.plan_s + t.exec_s)), "s"),
        m("ctrl_p50_us", window_quantile(pass, 50.0), "us"),
        m("recovery_s", iqm(pass.recovery_s.iter().copied()), "s"),
    ]);
    out
}

/// A pass's wall time without its ladders, whose length follows the top
/// rate each finds: what tracing overhead is judged on.
pub fn timed_s(pass: &Pass) -> f64 {
    pass.wall_s - pass.loads.iter().map(|l| l.ladder_s).sum::<f64>()
}

fn delta_count(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    (a.counter(name).unwrap_or(0) - b.counter(name).unwrap_or(0)) as f64
}

/// `(count, busy seconds)` recorded by a library span between `b` and `a`.
fn delta_hist(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let ((ca, sa), (cb, sb)) = (get(a), get(b));
    ((ca - cb) as f64, (sa - sb) as f64 / 1e9)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced pass, from its records, the library's
/// registry deltas across it, and the bench spans it recorded.
pub fn per_layer(
    traced: &Pass,
    untraced_timed_s: f64,
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    spans: &[trace::SpanRec],
) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let sum = |xs: &mut dyn Iterator<Item = f64>| xs.sum::<f64>();
    let (cold_n, cold_s) = delta_hist(after, before, "flow.oracle.evaluate");
    let (warm_n, warm_s) = delta_hist(after, before, "flow.warm.evaluate");
    let (_, route_s) = delta_hist(after, before, "flow.route_tm");
    let (pivots, pivot_s) = delta_hist(after, before, "auction.pivot");
    let (_, verify_s) = delta_hist(after, before, "transition.verify");
    let (_, verify_seq_s) = delta_hist(after, before, "transition.verify.sequential");
    let (_, fsync_s) = delta_hist(after, before, "ctrl.journal.fsync");
    let reused = delta_count(after, before, "flow.warm.reused_flows");
    let rerouted = delta_count(after, before, "flow.warm.rerouted_flows");
    let hits = delta_count(after, before, "flow.cache.hit");
    let misses = delta_count(after, before, "flow.cache.miss");
    let appends = delta_count(after, before, "ctrl.journal.appends");
    let fsyncs = delta_count(after, before, "ctrl.journal.fsyncs");

    let rounds: Vec<_> = traced.epochs.iter().flat_map(|e| &e.rounds).collect();
    let failed_rounds = rounds.iter().filter(|r| !r.ok).count() as f64;
    let failed_feasible = rounds.iter().filter(|r| !r.ok && r.ol_feasible == Some(true)).count();
    let tr = traced.transitions.first();
    let t = |f: fn(&TransitionRec) -> f64| tr.map_or(0.0, f);
    let eng = engines(traced);
    let e = |f: fn(&EngineRec) -> f64| eng.first().map_or(0.0, |x| f(x));
    let epoch = traced.epochs.first();
    let ep = |f: fn(&EpochRec) -> f64| epoch.map_or(0.0, f);

    let refs: Vec<&(ctrl::Kind, Sample)> = reference_samples(traced).collect();
    let lat = |kind: ctrl::Kind| -> Option<stats::Summary> {
        let xs: Vec<f64> =
            refs.iter().filter(|(k, _)| *k == kind).map(|(_, s)| s.latency_us()).collect();
        stats::summarize(&xs)
    };
    let (w, r) = (lat(ctrl::Kind::Write), lat(ctrl::Kind::Read));
    let lags: Vec<f64> = refs.iter().map(|(_, s)| s.lag_us()).collect();
    let lag = stats::summarize(&lags);

    let by_name = trace::by_name(spans);
    let epoch_span = by_name.get("epoch").copied().unwrap_or_default();
    let span_mean = |name: &str| by_name.get(name).map_or(0.0, |s| s.mean_s());

    vec![
        m("topology.generate_s", span_mean("topology.generate"), "s"),
        m("traffic.generate_s", span_mean("traffic.generate"), "s"),
        m("flow.cold_probes", cold_n, "count"),
        m("flow.cold_busy_s", cold_s, "s"),
        m("flow.warm_probes", warm_n, "count"),
        m("flow.warm_busy_s", warm_s, "s"),
        m("flow.route_tm_busy_s", route_s, "s"),
        m("flow.warm_fallbacks", delta_count(after, before, "flow.warm.fallbacks"), "count"),
        m("flow.warm_reuse_frac", ratio(reused, reused + rerouted), "frac"),
        m("flow.cache_hit_frac", ratio(hits, hits + misses), "frac"),
        m("flow.maxflow_runs", delta_count(after, before, "flow.maxflow.runs"), "count"),
        m(
            "auction.round_s",
            ratio(sum(&mut rounds.iter().map(|r| r.secs)), rounds.len() as f64),
            "s",
        ),
        m("auction.pivots", pivots, "count"),
        m("auction.pivot_busy_s", pivot_s, "s"),
        m("auction.rounds_failed", failed_rounds, "count"),
        m("auction.failed_with_feasible_ol", failed_feasible as f64, "count"),
        m(
            "auction.sl_links",
            epoch.and_then(|e| e.live.as_ref()).map_or(0.0, |o| o.selected.len() as f64),
            "count",
        ),
        m("transition.plan_s", t(|t| t.plan_s), "s"),
        m(
            "transition.plan_probes_per_step",
            t(|t| ratio(t.probes as f64, t.plan_steps as f64)),
            "count",
        ),
        m("transition.exec_s", t(|t| t.exec_s), "s"),
        m("transition.exec_plan_ratio", t(|t| ratio(t.exec_s, t.plan_s)), "ratio"),
        m("transition.apply_s", t(|t| t.apply_s), "s"),
        m("transition.rounds", t(|t| t.plan_rounds as f64), "count"),
        m("transition.steps", t(|t| t.steps_applied as f64), "count"),
        m("transition.replans", t(|t| t.replans as f64), "count"),
        m("transition.rollbacks", t(|t| t.rollbacks as f64), "count"),
        m(
            "transition.verify_retries",
            delta_count(after, before, "transition.verify.retries"),
            "count",
        ),
        m("transition.verify_busy_s", verify_s + verify_seq_s, "s"),
        m("netsim.engine_build_s", e(|e| e.build_s), "s"),
        m("netsim.engine_run_s", e(|e| e.run_s), "s"),
        m("netsim.ns_per_event", e(|e| ratio(e.run_s * 1e9, e.events as f64)), "ns"),
        m("netsim.events", e(|e| e.events as f64), "count"),
        m("netsim.packets_injected", e(|e| e.injected as f64), "count"),
        m("netsim.packets_delivered", e(|e| e.delivered as f64), "count"),
        m("netsim.packets_dropped", e(|e| e.dropped as f64), "count"),
        m(
            "netsim.in_flight_frac",
            e(|e| {
                ratio(e.injected as f64 - e.delivered as f64 - e.dropped as f64, e.injected as f64)
            }),
            "frac",
        ),
        m("netsim.sources", e(|e| e.sources as f64), "count"),
        m("netsim.user_flows", e(|e| e.user_flows as f64), "count"),
        m("netsim.discrim_s", ep(|e| e.discrim_s), "s"),
        m("core.billing_s", ep(|e| e.billing_s), "s"),
        m("ctrlplane.boot_s", med(traced.setup_boot_s.iter().copied()), "s"),
        m("ctrlplane.usage_report_s", ep(|e| e.usage_report_s), "s"),
        m("ctrlplane.write_p50_us", w.as_ref().map_or(0.0, |s| s.p50), "us"),
        m("ctrlplane.write_p99_us", w.as_ref().and_then(|s| s.p99).unwrap_or(0.0), "us"),
        m("ctrlplane.read_p50_us", r.as_ref().map_or(0.0, |s| s.p50), "us"),
        m("ctrlplane.read_p99_us", r.as_ref().and_then(|s| s.p99).unwrap_or(0.0), "us"),
        m("ctrlplane.ref_samples", refs.len() as f64, "count"),
        m("ctrl_p99_us", window_quantile(traced, 99.0), "us"),
        m("ctrl_max_req_per_s", med(traced.loads.iter().map(|l| l.max_ok_rate)), "req/s"),
        m("ctrlplane.busy_rejections", traced.ctrl_busy as f64, "count"),
        m("ctrlplane.errors", traced.tally.get("ctrl_requests").1 as f64, "count"),
        m("ctrlplane.journal_appends", appends, "count"),
        m("ctrlplane.journal_fsyncs", fsyncs, "count"),
        m("ctrlplane.appends_per_fsync", ratio(appends, fsyncs), "ratio"),
        m("ctrlplane.fsync_busy_s", fsync_s, "s"),
        m(
            "ctrlplane.recovery_replayed_records",
            traced.loads.first().map_or(0.0, |l| l.replayed_records as f64),
            "count",
        ),
        m("obs.trace_overhead_frac", timed_s(traced) / untraced_timed_s - 1.0, "frac"),
        m(
            "bench.unattributed_frac",
            ratio(epoch_span.self_ns as f64, epoch_span.total_ns as f64),
            "frac",
        ),
        m("bench.gen_lag_p99_us", lag.and_then(|s| s.p99).unwrap_or(0.0), "us"),
    ]
}

/// One line per failed auction round, with the cold oracle's verdict on
/// `OL` at the same demand.
pub fn failed_round_lines(pass: &Pass) -> Vec<String> {
    let rounds = pass.epochs.iter().flat_map(|e| e.rounds.iter().zip(["live", "forecast"]));
    rounds
        .filter(|(r, _)| !r.ok)
        .map(|(r, which)| {
            let verdict = match r.ol_feasible {
                Some(true) => "accepts",
                Some(false) => "rejects",
                None => "was not asked about",
            };
            format!("# failed {which} round after {:.3} s; a cold oracle {verdict} OL", r.secs)
        })
        .collect()
}

/// One line per ladder rung of every load round.
pub fn ladder_lines(pass: &Pass) -> Vec<String> {
    let mut out = Vec::new();
    for (i, l) in pass.loads.iter().enumerate() {
        for r in &l.ladder {
            out.push(format!(
                "# ladder round {i} rate {} req/s: {} samples, p99 {:.0} us, backlog {}, \
                 achieved {:.1} req/s -> {}",
                r.rate,
                r.samples,
                r.p99_us,
                if r.backlog_grew { "grew" } else { "steady" },
                r.achieved,
                if r.pass { "pass" } else { "over limit" }
            ));
        }
    }
    out
}

/// What must agree between the untraced and traced pass of a traced run.
pub fn outcome_key(pass: &Pass) -> String {
    let epoch = pass.epochs.first();
    let live = epoch.and_then(|e| e.live.as_ref());
    let selected: Vec<u32> =
        live.map(|o| o.selected.iter().map(|l| l.0).collect()).unwrap_or_default();
    let payments: Vec<String> = live
        .map(|o| o.settlements.iter().map(|s| format!("{:?}", s.payment)).collect())
        .unwrap_or_default();
    let events: Vec<u64> = engines(pass).iter().map(|e| e.events).collect();
    format!("selected={selected:?} payments={payments:?} events={events:?}")
}
