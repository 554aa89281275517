//! End-to-end causal tracing over a live server: one trace id sent in a
//! client's `Request::Traced` envelope must come back — via the
//! `Request::Trace` scrape — as a single span tree covering the request
//! handler, the journal append/fsync, the auction round, and every
//! Clarke pivot, with correct parentage across the parallel pivot
//! thread boundary. The same scrape must export to valid Chrome
//! trace-event JSON.
//!
//! The server runs in-process, so the test enables the process-global
//! flight recorder itself (the `poc serve` binary does the same at
//! startup) and leaves it on — disabling it could race another test's
//! open span in this binary.

use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::server::ServerConfig;
use poc_ctrlplane::{DurabilityConfig, FsyncPolicy, PocClient, PocServer};
use poc_obs::TraceWire;
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, RouterId};
use poc_traffic::TrafficMatrix;
use std::thread::JoinHandle;

fn start_durable_server(tag: &str) -> (poc_ctrlplane::ServerHandle, JoinHandle<()>) {
    let mut topo = two_bp_square();
    attach_external_isps(
        &mut topo,
        &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
        &CostModel::default(),
    );
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(1), RouterId(2), 5.0);
    let poc = Poc::new(topo, PocConfig::default());
    let state_dir = std::env::temp_dir().join(format!("poc-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            state_dir,
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
        }),
        ..ServerConfig::default()
    };
    let (server, handle) = PocServer::bind_with("127.0.0.1:0", poc, tm, config).unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn span_ids_named<'t>(trace: &'t TraceWire, name: &str) -> Vec<&'t poc_obs::TraceEventWire> {
    trace.events.iter().filter(|e| e.name == name).collect()
}

#[test]
fn traced_auction_round_reconstructs_end_to_end() {
    poc_obs::trace::recorder().set_enabled(true);
    let (handle, join) = start_durable_server("e2e");
    let mut client = PocClient::connect(handle.local_addr).unwrap();

    let trace_id = poc_obs::trace::new_trace_id();
    client.set_trace(Some(trace_id));
    let outcome = client.run_auction().unwrap();
    assert!(!outcome.settlements.is_empty(), "round settled at least one BP");

    // Scrape by id over the wire — same client, same envelope.
    let traces = client.traces(Some(trace_id), None).unwrap();
    assert_eq!(traces.len(), 1, "exactly one trace under the sent id");
    let trace = &traces[0];
    assert_eq!(trace.trace_id, trace_id);
    assert!(trace.events.iter().all(|e| e.trace_id == trace_id));

    // Root: the request-handler span, parented to the trace root.
    let roots = span_ids_named(trace, "ctrl.request.run_auction");
    assert_eq!(roots.len(), 1, "one handler span: {trace:?}");
    let root = roots[0];
    assert_eq!(root.parent_id, 0);

    // The journal persisted the round under the handler span; with
    // `FsyncPolicy::Always` the append's durability wait runs the
    // group-commit protocol, so the fsync span parents to the
    // commit-leader's `ctrl.journal.group_commit` span (this request is
    // alone, so it *is* the leader), which in turn sits under root next
    // to the buffered append.
    let appends = span_ids_named(trace, "ctrl.journal.append");
    assert!(!appends.is_empty(), "missing journal append: {trace:?}");
    assert!(appends.iter().all(|s| s.parent_id == root.span_id), "appends under root");
    let commits = span_ids_named(trace, "ctrl.journal.group_commit");
    assert!(!commits.is_empty(), "missing group commit: {trace:?}");
    assert!(commits.iter().all(|s| s.parent_id == root.span_id), "group commits under root");
    let commit_ids: Vec<u64> = commits.iter().map(|s| s.span_id).collect();
    let fsyncs = span_ids_named(trace, "ctrl.journal.fsync");
    assert!(!fsyncs.is_empty(), "missing journal fsync: {trace:?}");
    assert!(
        fsyncs.iter().all(|s| commit_ids.contains(&s.parent_id)),
        "fsyncs under their group commits: {trace:?}"
    );

    // The auction round span sits under the handler; every Clarke pivot
    // parents to the round across the parallel thread scope — one span
    // per settlement at least (withdrawn-BP re-selections).
    let rounds = span_ids_named(trace, "auction.round");
    assert_eq!(rounds.len(), 1, "one round span: {trace:?}");
    let round = rounds[0];
    assert_eq!(round.parent_id, root.span_id);
    // BPs with no links in SL settle trivially without a pivot run, so
    // the expected span count is the settlements that actually paid for
    // a re-selection (payment > 0 implies a pivot ran).
    let real_pivots = outcome.settlements.iter().filter(|(_, payment, _)| *payment > 0.0).count();
    let pivots = span_ids_named(trace, "auction.pivot");
    assert!(real_pivots >= 1, "fixture must exercise at least one real pivot");
    assert!(
        pivots.len() >= real_pivots,
        "≥1 pivot span per Clarke pivot ({real_pivots} real pivots, {} pivot spans)",
        pivots.len()
    );
    assert!(pivots.iter().all(|p| p.parent_id == round.span_id), "pivots under the round");

    // The flow layer under the pivots: at least one oracle evaluation,
    // parented inside this trace.
    assert!(
        trace.events.iter().any(|e| e.name.starts_with("flow.")),
        "flow-layer spans recorded: {trace:?}"
    );

    // The Chrome export of this scrape is valid trace-event JSON and
    // keeps the shared trace id on every event.
    let json = poc_obs::chrome::chrome_trace_json(&traces);
    let back: poc_obs::chrome::ChromeTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back.traceEvents.len(), trace.events.len());
    assert!(back.traceEvents.iter().all(|e| e.ph == "X" && e.args.trace_id == trace_id));
    assert!(back.traceEvents.iter().any(|e| e.name == "auction.round"));

    handle.shutdown();
    let _ = join.join();
}

#[test]
fn untraced_requests_get_a_server_assigned_trace() {
    poc_obs::trace::recorder().set_enabled(true);
    let (handle, join) = start_durable_server("auto");
    let mut client = PocClient::connect(handle.local_addr).unwrap();

    // No envelope: an old client. The server assigns an id of its own,
    // so the request still shows up in the recorder.
    client.ping().unwrap();
    let traces = client.traces(None, None).unwrap();
    let ping = traces
        .iter()
        .flat_map(|t| t.events.iter())
        .find(|e| e.name == "ctrl.request.ping")
        .expect("server-assigned trace covers the untraced ping");
    assert_ne!(ping.trace_id, 0);
    assert_eq!(ping.parent_id, 0, "the handler span roots its trace");

    // `last_n` trims the scrape from the oldest side.
    let all = client.traces(None, None).unwrap().len();
    let last = client.traces(None, Some(1)).unwrap();
    assert_eq!(last.len(), 1.min(all));

    handle.shutdown();
    let _ = join.join();
}
