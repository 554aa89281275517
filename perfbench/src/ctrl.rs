//! The durable control plane under open-loop load, and its restart.

use crate::load::{self, Outcome, Sample};
use crate::stats;
use crate::trace::Tracer;
use poc_core::entity::EntityId;
use poc_core::poc::Poc;
use poc_ctrlplane::proto::BillingSummaryWire;
use poc_ctrlplane::server::ServerConfig;
use poc_ctrlplane::{
    ClientConfig, ClientError, DurabilityConfig, FsyncPolicy, PocClient, PocServer, RecoveryInfo,
    ServerHandle,
};
use poc_traffic::TrafficMatrix;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections the load runs over. Two connections (one per vCPU of a
/// 2-vCPU box) made the ladder's top rate swing between 15k and 45k
/// req/s from run to run, as two client and two server threads contended
/// for two CPUs; one keeps it to one thread on each side.
pub const CONNECTIONS: usize = 1;
/// Width of the windows the reference phase's latency is summarised in.
pub const REF_WINDOW_NS: u64 = 1_000_000_000;
/// Offered rate at which `ctrl_p50_us` / `ctrl_p99_us` are measured.
pub const REF_RATE: f64 = 4000.0;
/// Latency limit on p99 for a ladder rung to pass, µs. Stalls on a shared
/// 2-vCPU virtual machine put p99 in the low milliseconds even at 1000
/// req/s, so the limit sits above that floor and below the tens of
/// milliseconds a growing queue reaches.
pub const P99_LIMIT_US: f64 = 10_000.0;
/// The ladder's first offered rate and its ceiling, req/s.
const LADDER_START: f64 = 1000.0;
const LADDER_MAX: f64 = 100_000.0;
/// Rate steps of the ladder's coarse and fine passes.
const COARSE_STEP: f64 = 1.5;
const FINE_STEP: f64 = 1.05;
/// Requests a rung offers at least, so p99 has ten samples beyond it.
const RUNG_SAMPLES: f64 = 1000.0;
/// A rung's backlog counts as growing when the generator's median lag
/// rises by more than this from its first to its last quarter, µs.
const LAG_SLACK_US: f64 = 250.0;

/// A running durable server and the thread serving it.
pub struct Server {
    handle: ServerHandle,
    join: std::thread::JoinHandle<()>,
    pub addr: SocketAddr,
}

/// Boot a server on `poc` that journals every mutation to `dir` under
/// `fsync` and never checkpoints, so a restart replays every record.
pub fn boot(
    poc: Poc,
    tm: TrafficMatrix,
    dir: &Path,
    fsync: FsyncPolicy,
) -> std::io::Result<Server> {
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            state_dir: dir.to_path_buf(),
            fsync,
            snapshot_every: 0,
        }),
        ..ServerConfig::default()
    };
    let (server, handle) = PocServer::bind_with("127.0.0.1:0", poc, tm, config)?;
    let addr = handle.local_addr;
    let join = std::thread::spawn(move || server.run());
    Ok(Server { handle, join, addr })
}

impl Server {
    /// Stop accepting, wait for every connection thread to end.
    pub fn stop(self) {
        self.handle.shutdown();
        self.join.join().expect("server thread panicked");
    }
}

/// A client that surfaces `Busy` and timeouts instead of retrying them.
pub fn connect(addr: SocketAddr) -> std::io::Result<PocClient> {
    let config = ClientConfig { read_timeout: Duration::from_secs(2), ..ClientConfig::default() };
    PocClient::connect_with(addr, config.no_retry())
}

fn outcome_of<T>(r: &Result<T, ClientError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Ok,
        Err(ClientError::Busy { .. }) => Outcome::Busy,
        Err(ClientError::TimedOut) => Outcome::TimedOut,
        Err(_) => Outcome::Failed,
    }
}

/// Request kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ReportUsage`: a journaled write.
    Write,
    /// `GetBalance`: a read.
    Read,
    /// `RunBilling`: period close.
    Billing,
}

/// Requests per block of the mix: each block of this many consecutive
/// requests holds exactly 75 writes, 24 reads and 1 billing.
const BLOCK: u64 = 100;

/// Strides coprime to [`BLOCK`]; each block orders its kinds by one.
const STRIDES: [u64; 8] = [1, 3, 7, 9, 11, 13, 17, 19];

/// The fixed request mix: 75% writes, 24% reads, 1% billing in every
/// block of 100 requests, their order within the block, the entities and
/// the usage drawn from the seed. The shares are exact rather than drawn
/// per request because a restart's cost follows the number of periods
/// its journal closes: with 1% drawn per request, the reference phases of
/// one run closed between 97 and 137 periods.
pub struct Mix {
    /// The seed, hashed: request indices are small, so XORed into a small
    /// seed they would draw nearly the same values under every seed.
    key: u64,
    entities: Vec<EntityId>,
}

impl Mix {
    pub fn new(seed: u64, entities: Vec<EntityId>) -> Self {
        Self { key: load::splitmix(seed), entities }
    }

    /// Request `k` of phase `phase`: its kind, entity and reported Gbit/s.
    pub fn op(&self, phase: u64, k: u64) -> (Kind, EntityId, f64) {
        let h = load::splitmix(self.key ^ load::splitmix(phase) ^ k);
        let b = load::splitmix(!self.key ^ load::splitmix(phase) ^ (k / BLOCK));
        let stride = STRIDES[(b % STRIDES.len() as u64) as usize];
        let kind = match (stride * (k % BLOCK) + (b >> 8)) % BLOCK {
            0..75 => Kind::Write,
            75..99 => Kind::Read,
            _ => Kind::Billing,
        };
        let entity = self.entities[((h >> 16) % self.entities.len() as u64) as usize];
        (kind, entity, 0.001 * (1 + (h >> 48) % 10) as f64)
    }
}

/// One load connection and what it saw acknowledged.
pub struct Conn {
    client: PocClient,
    acked: BTreeMap<EntityId, f64>,
    billings: Vec<BillingSummaryWire>,
    billing_failures: u64,
}

/// What the load did, across every phase it ran.
#[derive(Default)]
pub struct Ledger {
    /// Acknowledged usage per entity, Gbit/s summed over reports.
    pub acked: BTreeMap<EntityId, f64>,
    /// Every billing summary returned.
    pub billings: Vec<BillingSummaryWire>,
    /// Billing requests that did not return a summary.
    pub billing_failures: u64,
    pub attempted: u64,
    pub busy: u64,
    pub timed_out: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn record_ack(&mut self, entity: EntityId, gbps: f64) {
        *self.acked.entry(entity).or_insert(0.0) += gbps;
    }

    fn absorb(&mut self, conns: &mut [Conn], samples: &[Sample]) {
        for c in conns {
            for (e, g) in std::mem::take(&mut c.acked) {
                self.record_ack(e, g);
            }
            self.billings.append(&mut c.billings);
            self.billing_failures += std::mem::take(&mut c.billing_failures);
        }
        self.attempted += samples.len() as u64;
        for s in samples {
            match s.outcome {
                Outcome::Ok => {}
                Outcome::Busy => self.busy += 1,
                Outcome::TimedOut => self.timed_out += 1,
                Outcome::Failed => self.failed += 1,
            }
        }
    }
}

/// One rung of the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    pub rate: f64,
    pub samples: usize,
    pub p99_us: f64,
    pub backlog_grew: bool,
    /// Requests that succeeded per second of the rung.
    pub achieved: f64,
    pub pass: bool,
}

/// One load round on a fresh server: the reference phase, restarts on
/// its journal, then the ladder.
#[derive(Default)]
pub struct LoadRound {
    /// Samples of the reference phase with the kind of each request.
    pub reference: Vec<(Kind, Sample)>,
    pub ladder: Vec<Rung>,
    /// Achieved rate of the highest rung that passed (0 when none did).
    pub max_ok_rate: f64,
    /// Wall time the ladder took.
    pub ladder_s: f64,
    /// Journal records the last restart replayed.
    pub replayed_records: u64,
}

/// Run `phase` of the mix at `rate` for `dur` over `conns`.
#[allow(clippy::too_many_arguments)]
fn phase(
    conns: &mut [Conn],
    mix: &Mix,
    phase: u64,
    rate: f64,
    dur: Duration,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<Sample> {
    load::run_phase(conns, rate, dur, |c, k| {
        let (kind, entity, gbps) = mix.op(phase, k);
        let name = match kind {
            Kind::Write => "ctrlplane.write",
            Kind::Read => "ctrlplane.read",
            Kind::Billing => "core.billing_request",
        };
        let _s = tracer.span(name, parent);
        match kind {
            Kind::Write => {
                let r = c.client.report_usage(entity, gbps);
                if r.is_ok() {
                    *c.acked.entry(entity).or_insert(0.0) += gbps;
                }
                outcome_of(&r)
            }
            Kind::Read => outcome_of(&c.client.balance(entity)),
            Kind::Billing => {
                let r = c.client.run_billing();
                match &r {
                    Ok(b) => c.billings.push(b.clone()),
                    Err(_) => c.billing_failures += 1,
                }
                outcome_of(&r)
            }
        }
    })
}

/// Open the load's connections to `addr`.
pub fn open_conns(addr: SocketAddr) -> std::io::Result<Vec<Conn>> {
    (0..CONNECTIONS)
        .map(|_| {
            Ok(Conn {
                client: connect(addr)?,
                acked: BTreeMap::new(),
                billings: Vec::new(),
                billing_failures: 0,
            })
        })
        .collect()
}

/// The reference phase: `dur` at [`REF_RATE`], each sample with its kind.
pub fn reference(
    conns: &mut [Conn],
    mix: &Mix,
    phase_id: u64,
    dur: Duration,
    ledger: &mut Ledger,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<(Kind, Sample)> {
    let s = tracer.span("ctrlplane.reference", parent);
    let samples = phase(conns, mix, phase_id, REF_RATE, dur, tracer, s.id());
    ledger.absorb(conns, &samples);
    samples.into_iter().map(|s| (mix.op(phase_id, s.k).0, s)).collect()
}

/// Step the offered rate up: ×1.5 from 1000 req/s until a rung misses,
/// then ×1.05 from the last rung that passed. A rung that misses is run
/// up to twice more before it counts as a miss, so a passing stall
/// cannot end the ladder. Returns every rung run and the achieved rate of the highest
/// that passed (0 when none did).
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    conns: &mut [Conn],
    mix: &Mix,
    phase_base: u64,
    rung_dur: Duration,
    ledger: &mut Ledger,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Vec<Rung>, f64) {
    let mut rungs: Vec<Rung> = Vec::new();
    let mut best = 0.0;
    let mut passes = |rate: f64, rungs: &mut Vec<Rung>| {
        for _ in 0..3 {
            let dur = rung_dur.max(Duration::from_secs_f64(RUNG_SAMPLES / rate));
            let s = tracer.span("ctrlplane.rung", parent);
            let phase_id = phase_base + rungs.len() as u64;
            let samples = phase(conns, mix, phase_id, rate, dur, tracer, s.id());
            ledger.absorb(conns, &samples);
            let lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
            let p99_us = stats::summarize(&lat).and_then(|s| s.p99).unwrap_or(f64::INFINITY);
            let backlog_grew = load::backlog_grew(&samples, LAG_SLACK_US);
            let ok = samples.iter().filter(|s| s.outcome == Outcome::Ok).count();
            let end_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
            let achieved = ok as f64 / dur.as_secs_f64().max(end_ns as f64 / 1e9);
            let pass = p99_us <= P99_LIMIT_US && !backlog_grew;
            rungs.push(Rung { rate, samples: samples.len(), p99_us, backlog_grew, achieved, pass });
            if pass {
                best = achieved;
                return true;
            }
        }
        false
    };
    let mut last_pass = None;
    let mut rate = LADDER_START;
    while rate <= LADDER_MAX && passes(rate, &mut rungs) {
        last_pass = Some(rate);
        rate = (rate * COARSE_STEP).round();
    }
    if let Some(p) = last_pass {
        let mut rate = (p * FINE_STEP).round();
        while rate < p * COARSE_STEP && passes(rate, &mut rungs) {
            rate = (rate * FINE_STEP).round();
        }
    }
    (rungs, best)
}

/// Attach one LMP per router in `routers` over the wire.
pub fn attach_all(addr: SocketAddr, routers: &[poc_topology::RouterId]) -> Result<(), String> {
    let mut c = connect(addr).map_err(|e| e.to_string())?;
    for (i, &router) in routers.iter().enumerate() {
        c.attach(&format!("lmp-{i}"), poc_ctrlplane::AttachRole::Lmp { router })
            .map_err(|e| format!("attach lmp-{i}: {e:?}"))?;
    }
    Ok(())
}

/// Close the period and read every entity's balance.
pub fn close_and_read(
    addr: SocketAddr,
    entities: &[EntityId],
    ledger: &mut Ledger,
) -> Result<BTreeMap<EntityId, f64>, ClientError> {
    let mut c = connect(addr).map_err(|_| ClientError::TimedOut)?;
    ledger.billings.push(c.run_billing()?);
    read_balances(&mut c, entities)
}

pub fn read_balances(
    c: &mut PocClient,
    entities: &[EntityId],
) -> Result<BTreeMap<EntityId, f64>, ClientError> {
    entities.iter().map(|&e| Ok((e, c.balance(e)?))).collect()
}

/// Restart a server on `dir` from the state it first booted with, and
/// time it until it answers a request with its journal replayed.
pub fn restart(
    poc: Poc,
    tm: TrafficMatrix,
    dir: &Path,
    fsync: FsyncPolicy,
) -> std::io::Result<(Server, f64, Option<RecoveryInfo>, PocClient)> {
    let t = Instant::now();
    let server = boot(poc, tm, dir, fsync)?;
    let mut client = connect(server.addr)?;
    client.ping().map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    let secs = t.elapsed().as_secs_f64();
    let info = client.recovery_info().map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    Ok((server, secs, info, client))
}

/// Check that billing accounts for every acknowledged write: per entity,
/// the usage implied by its charges (charge / unit price) summed over
/// every billing summary equals the usage it had acknowledged.
pub fn billed_matches_acked(ledger: &Ledger) -> Result<(), String> {
    if ledger.billing_failures > 0 {
        return Err(format!("{} billing requests failed", ledger.billing_failures));
    }
    let mut billed: BTreeMap<EntityId, f64> = BTreeMap::new();
    for b in &ledger.billings {
        for &(e, charge) in &b.charges {
            if b.unit_price <= 0.0 {
                return Err(format!(
                    "period {} billed usage at unit price {}",
                    b.period, b.unit_price
                ));
            }
            *billed.entry(e).or_insert(0.0) += charge / b.unit_price;
        }
    }
    for (e, &acked) in &ledger.acked {
        let got = billed.get(e).copied().unwrap_or(0.0);
        if (got - acked).abs() > 1e-9 * acked.max(1.0) {
            return Err(format!("entity {e:?}: acknowledged {acked} Gbit/s, billed {got}"));
        }
    }
    match billed.keys().find(|e| !ledger.acked.contains_key(e)) {
        Some(e) => Err(format!("entity {e:?} billed without an acknowledged write")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_exact_in_every_block() {
        let mix = Mix::new(7, (0..64).map(EntityId).collect());
        let ops: Vec<_> = (0..100_000).map(|k| mix.op(3, k)).collect();
        assert_eq!(ops[..50], (0..50).map(|k| mix.op(3, k)).collect::<Vec<_>>()[..]);
        for block in ops.chunks(BLOCK as usize) {
            let n = |kind| block.iter().filter(|o| o.0 == kind).count();
            assert_eq!((n(Kind::Write), n(Kind::Read), n(Kind::Billing)), (75, 24, 1));
        }
        let billing_at: std::collections::BTreeSet<_> = ops
            .chunks(BLOCK as usize)
            .map(|b| b.iter().position(|o| o.0 == Kind::Billing))
            .collect();
        assert!(billing_at.len() > 50, "the billing's place varies between blocks");
        assert_ne!(mix.op(4, 0), mix.op(3, 0), "phases draw different stretches");
        let other = Mix::new(8, (0..64).map(EntityId).collect());
        let same = (0..1000).filter(|&k| other.op(3, k) == mix.op(3, k ^ 15)).count();
        assert!(same < 100, "seeds draw different stretches, {same} of 1000 alike");
    }

    #[test]
    fn billed_usage_must_cover_every_acknowledged_write() {
        let mut ledger = Ledger::default();
        ledger.record_ack(EntityId(1), 2.0);
        ledger.record_ack(EntityId(2), 1.0);
        let bill = |charges: Vec<(EntityId, f64)>| BillingSummaryWire {
            period: 0,
            total_outlay: 30.0,
            unit_price: 10.0,
            poc_net: 0.0,
            charges,
        };
        ledger.billings.push(bill(vec![(EntityId(1), 20.0), (EntityId(2), 10.0)]));
        assert_eq!(billed_matches_acked(&ledger), Ok(()));
        ledger.billings[0] = bill(vec![(EntityId(1), 20.0)]);
        assert!(billed_matches_acked(&ledger).is_err());
    }
}
