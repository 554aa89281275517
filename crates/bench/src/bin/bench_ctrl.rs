//! Sustained durable throughput of the control plane, emitting
//! `BENCH_ctrl.json`.
//!
//! The bin boots a live [`PocServer`] with durability on (write-ahead
//! journal, `FsyncPolicy::Always`) and drives it end to end over TCP
//! with a fleet of concurrent clients reporting usage — the mutation the
//! control plane serves at the highest rate. Two phases:
//!
//! * **sharded** — the PR's pipeline: usage state sharded by entity,
//!   concurrent mutations journaled through the group-commit protocol
//!   (K appends coalesce behind one fsync);
//! * **baseline** — `shards = 1`: every mutation takes the single state
//!   lock and journals+fsyncs under it, which is exactly the pre-sharding
//!   serialization — one fsync per mutation, no coalescing.
//!
//! Same world, same client count, same fsync policy, same filesystem;
//! the only variable is the pipeline. The artifact reports sustained
//! acknowledged-mutation throughput with client-observed p50/p99, the
//! realized group-commit batch-size distribution, and the headline
//! `sharded / baseline` speedup.
//!
//! The sharded phase runs *first* so the process-global
//! `ctrl.journal.batch_size` histogram it reads is untouched by the
//! baseline's singleton batches. The baseline's batch quantiles are its
//! measured mean (`appends / fsyncs`, ≈ 1 by construction): a serialized
//! journal commits one mutation per fsync, so the distribution is
//! degenerate and needs no histogram.
//!
//! Throughput on a shared box is noisy — the dominant jitter is the
//! device-side cost of fsync, which drifts run to run. Each phase
//! therefore runs independent trials (fresh server, fresh state dir) and
//! reports the **median trial by `req_per_sec`**, so one lucky or unlucky
//! disk draw cannot set the headline in either direction.
//!
//! The world is the `two_bp_square` fixture with one external ISP.
//! Sizes (`POC_BENCH_QUICK=1` selects the CI smoke column):
//!
//! | | full | quick |
//! |---|---|---|
//! | concurrent clients (= sharded phase's shards) | 96 | 8 |
//! | timed mutations per client | 300 | 100 |
//! | trials per phase | 3 | 1 |
//!
//! Paths (env): `POC_BENCH_OUT` overrides the artifact path (default
//! `BENCH_ctrl.json`); `POC_BENCH_STATE` is the parent of the per-phase
//! state directories (default: the system temp dir).
//!
//! Usage: `bench_ctrl` to measure, `bench_ctrl --validate <path>` to
//! re-read an artifact of any bench and check it (exit 1 on failure,
//! naming the failing check).

use poc_bench::report::{validate_cli, BenchArtifact, CtrlBench, CtrlPhase, Payload, ScaleInfo};
use poc_bench::{counter_delta, quick};
use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::server::ServerConfig;
use poc_ctrlplane::{
    AttachRole, DurabilityConfig, FsyncPolicy, PocClient, PocServer, ServerHandle,
};
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, RouterId};
use poc_traffic::TrafficMatrix;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn build_world() -> (poc_topology::PocTopology, TrafficMatrix) {
    let mut topo = two_bp_square();
    attach_external_isps(
        &mut topo,
        &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
        &CostModel::default(),
    );
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(1), RouterId(2), 5.0);
    (topo, tm)
}

fn start_server(state_dir: &Path, shards: usize) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let _ = std::fs::remove_dir_all(state_dir);
    let (topo, tm) = build_world();
    let poc = Poc::new(topo, PocConfig::default());
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            state_dir: state_dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
        }),
        shards,
        ..ServerConfig::default()
    };
    let (server, handle) = PocServer::bind_with("127.0.0.1:0", poc, tm, config).unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// Percentile of a sorted sample by nearest-rank, microseconds.
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Drive one phase: boot a durable server with `shards`, attach one LMP
/// per client, warm up, then measure `requests` usage reports per client
/// wall-to-wall across `clients` concurrent connections.
fn run_phase(
    label: &str,
    state_dir: &Path,
    shards: usize,
    clients: usize,
    requests: usize,
    warmup: usize,
    trial: usize,
) -> (CtrlPhase, poc_obs::MetricsSnapshot) {
    let (handle, join) = start_server(state_dir, shards);
    let addr = handle.local_addr;

    let mut setup = PocClient::connect(addr).unwrap();
    let entities: Vec<_> = (0..clients)
        .map(|i| {
            setup
                .attach(&format!("lmp-{i}"), AttachRole::Lmp { router: RouterId(i as u32 % 4) })
                .unwrap()
        })
        .collect();

    let before = poc_obs::global().snapshot();
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = entities
            .iter()
            .map(|&entity| {
                s.spawn(move || {
                    let mut client = PocClient::connect(addr).unwrap();
                    for _ in 0..warmup {
                        client.report_usage(entity, 0.001).unwrap();
                    }
                    let mut lat = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let t = Instant::now();
                        client.report_usage(entity, 0.001).unwrap();
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    lat
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let after = poc_obs::global().snapshot();
    handle.shutdown();
    let _ = join.join();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total = (clients * requests) as u64;
    let appends = counter_delta(&after, &before, "ctrl.journal.appends");
    let fsyncs = counter_delta(&after, &before, "ctrl.journal.fsyncs");
    let phase = CtrlPhase {
        label: label.into(),
        shards,
        clients,
        requests: total,
        elapsed_s,
        req_per_sec: total as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 50.0),
        p99_us: percentile(&latencies_us, 99.0),
        busy_rejections: counter_delta(&after, &before, "ctrl.admission.rejected"),
        appends,
        fsyncs,
        group_commits: counter_delta(&after, &before, "ctrl.journal.group_commits"),
        // Placeholder quantiles; the caller fills them from the
        // batch-size histogram (sharded) or the measured mean (baseline).
        batch_p50: 1.0,
        batch_p99: 1.0,
        batch_mean: if fsyncs == 0 { 1.0 } else { appends as f64 / fsyncs as f64 },
    };
    println!(
        "{label}[{trial}]: {} req in {:.2}s — {:.0} req/s, p50 {:.0}us p99 {:.0}us, \
         {} appends / {} fsyncs (batch mean {:.2})",
        phase.requests,
        phase.elapsed_s,
        phase.req_per_sec,
        phase.p50_us,
        phase.p99_us,
        phase.appends,
        phase.fsyncs,
        phase.batch_mean
    );
    (phase, after)
}

/// Run `trials` independent repetitions of a phase and keep the median
/// trial by throughput. Returns that trial's phase record plus the
/// metrics snapshot taken after the *last* trial (the process-global
/// registry accumulates across trials, so histogram reads must happen
/// after all repetitions of the phase of interest and before any other
/// phase runs).
fn run_trials(
    label: &str,
    state_dir: &Path,
    shards: usize,
    clients: usize,
    requests: usize,
    warmup: usize,
    trials: usize,
) -> (CtrlPhase, poc_obs::MetricsSnapshot) {
    let mut runs: Vec<(CtrlPhase, poc_obs::MetricsSnapshot)> = (0..trials)
        .map(|t| run_phase(label, state_dir, shards, clients, requests, warmup, t))
        .collect();
    runs.sort_by(|a, b| a.0.req_per_sec.partial_cmp(&b.0.req_per_sec).unwrap());
    let last_snapshot = runs.last().map(|(_, s)| s.clone()).unwrap();
    let (median, _) = runs.swap_remove(runs.len() / 2);
    (median, last_snapshot)
}

fn main() {
    validate_cli("ctrl");
    let (clients, requests, trials) = if quick() { (8, 100, 1) } else { (96, 300, 3) };
    let warmup = (requests / 10).max(5);
    let state_root = std::env::var("POC_BENCH_STATE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    let dir =
        |phase: &str| state_root.join(format!("poc-bench-ctrl-{}-{phase}", std::process::id()));
    println!(
        "bench_ctrl: {clients} clients x {requests} requests (+{warmup} warmup) x {trials} \
         trials, durable, state under {}",
        state_root.display()
    );

    // Sharded phase first: the global batch-size histogram then holds
    // exactly this phase's group-commit batches. One shard per client:
    // a usage report waits for its group commit *holding its shard
    // lock*, so the number of shards bounds how many mutations can sit
    // in one batch — shards must scale with the expected concurrency
    // (`poc serve --shards`).
    let (mut sharded, after_sharded) =
        run_trials("sharded", &dir("sharded"), clients, clients, requests, warmup, trials);
    if let Some(h) = after_sharded.histogram("ctrl.journal.batch_size") {
        if h.count > 0 {
            sharded.batch_p50 = h.p50 as f64;
            sharded.batch_p99 = h.p99 as f64;
        }
    }

    let (mut baseline, _) =
        run_trials("baseline", &dir("baseline"), 1, clients, requests, warmup, trials);
    // Serialized commits are singleton batches; report the measured mean
    // as the (degenerate) distribution.
    baseline.batch_p50 = baseline.batch_mean.max(1.0);
    baseline.batch_p99 = baseline.batch_mean.max(1.0);
    baseline.batch_mean = baseline.batch_mean.max(1.0);

    let speedup = sharded.req_per_sec / baseline.req_per_sec;
    let ctrl = CtrlBench { trials, speedup, phases: vec![sharded, baseline] };
    BenchArtifact::new(ScaleInfo::of("two_bp_square", &build_world().0), Payload::Ctrl(ctrl))
        .emit();
    let _ = std::fs::remove_dir_all(dir("sharded"));
    let _ = std::fs::remove_dir_all(dir("baseline"));
}
