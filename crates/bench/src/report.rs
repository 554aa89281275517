//! Machine-readable bench artifacts (`BENCH_*.json`).
//!
//! Every bench emits one [`BenchArtifact`]: a shared header (`mode` and
//! `scale`) plus a [`Payload`] whose variant names the bench. An artifact
//! is parsed once, and [`BenchArtifact::validate`] runs the header checks
//! and then the payload's own. Every bench bin's `--validate` goes through
//! [`validate_cli`], so each of them accepts the artifact of any bench.

use poc_topology::PocTopology;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Instance shape an artifact was measured on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleInfo {
    /// Instance name: a generator preset ("small", "paper", "scale") or
    /// a fixed fixture ("two_bp_square").
    pub preset: String,
    pub n_routers: usize,
    pub n_links: usize,
    pub n_bps: usize,
}

impl ScaleInfo {
    pub fn of(preset: &str, topo: &PocTopology) -> Self {
        ScaleInfo {
            preset: preset.into(),
            n_routers: topo.n_routers(),
            n_links: topo.n_links(),
            n_bps: topo.bps.len(),
        }
    }
}

/// One `BENCH_*.json` file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// "quick" (CI smoke) or "full".
    pub mode: String,
    pub scale: ScaleInfo,
    pub payload: Payload,
}

/// The bench-specific part of an artifact. The variant is the artifact's
/// one discriminator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Payload {
    Pivot(PivotBench),
    Ctrl(CtrlBench),
    Dataplane(DataplaneBench),
    Transition(TransitionBench),
}

impl Payload {
    /// The bench's name, as in `bench_<name>` and `BENCH_<name>.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Payload::Pivot(_) => "pivot",
            Payload::Ctrl(_) => "ctrl",
            Payload::Dataplane(_) => "dataplane",
            Payload::Transition(_) => "transition",
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            Payload::Pivot(p) => p.validate(),
            Payload::Ctrl(p) => p.validate(),
            Payload::Dataplane(p) => p.validate(),
            Payload::Transition(p) => p.validate(),
        }
    }

    /// One-line headline for logs.
    fn headline(&self) -> String {
        match self {
            Payload::Pivot(p) => format!(
                "{} samples, cold {:.0}ms vs warm {:.0}ms, {:.2}x warm speedup",
                p.samples.len(),
                p.total_cold_ms,
                p.total_warm_ms,
                p.speedup
            ),
            Payload::Ctrl(p) => format!(
                "{:.0} req/s sharded, {:.2}x over baseline, batch p50 {:.0}",
                p.phases[0].req_per_sec, p.speedup, p.phases[0].batch_p50
            ),
            Payload::Dataplane(p) => format!(
                "{:.1}M events/sec, {:.1}M packets/sec, {} user flows, availability {:.4}",
                p.events_per_sec / 1e6,
                p.packets_per_sec / 1e6,
                p.n_user_flows,
                p.availability
            ),
            Payload::Transition(p) => format!(
                "{} samples, plan {:.1}ms / run {:.1}ms total, all intermediates safe",
                p.samples.len(),
                p.total_plan_ms,
                p.total_run_ms
            ),
        }
    }
}

impl BenchArtifact {
    /// A freshly measured artifact; its mode follows `POC_BENCH_QUICK`.
    pub fn new(scale: ScaleInfo, payload: Payload) -> Self {
        let mode = if crate::quick() { "quick" } else { "full" };
        BenchArtifact { mode: mode.into(), scale, payload }
    }

    /// Structural validation: the header checks, then the payload's own.
    /// The error names the failing check.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.mode.as_str(), "quick" | "full") {
            return Err(format!("mode must be \"quick\" or \"full\", got {:?}", self.mode));
        }
        if self.scale.preset.is_empty() {
            return Err("scale info names no preset".into());
        }
        if self.scale.n_links == 0 || self.scale.n_routers == 0 || self.scale.n_bps == 0 {
            return Err("scale info has zero-sized instance".into());
        }
        self.payload.validate().map_err(|e| format!("{}: {e}", self.payload.name()))
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("artifact serializes"))
    }

    pub fn read(path: &Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {path:?}: {e}"))
    }

    /// Validate a freshly measured artifact, write it to `POC_BENCH_OUT`
    /// (default `BENCH_<bench>.json`), and print its headline.
    pub fn emit(&self) {
        self.validate().expect("freshly measured artifact must validate");
        let out = std::env::var("POC_BENCH_OUT")
            .unwrap_or_else(|_| format!("BENCH_{}.json", self.payload.name()));
        self.write(Path::new(&out)).expect("write artifact");
        println!("headline: {} -> {out}", self.payload.headline());
    }
}

/// The `--validate [path]` mode shared by every bench bin. Returns when
/// the command line does not ask for it. Otherwise reads the artifact
/// (default `BENCH_<bench>.json`), whichever bench emitted it, and exits
/// 0 if it is valid or 1 naming the failing check.
pub fn validate_cli(bench: &str) {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some("--validate") {
        return;
    }
    let path = args.get(2).cloned().unwrap_or_else(|| format!("BENCH_{bench}.json"));
    match BenchArtifact::read(Path::new(&path)).and_then(|a| a.validate().map(|()| a)) {
        Ok(a) => {
            println!(
                "{path}: valid {} artifact ({} mode, {} preset): {}",
                a.payload.name(),
                a.mode,
                a.scale.preset,
                a.payload.headline()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: INVALID artifact: {e}");
            std::process::exit(1);
        }
    }
}

/// One sampled Clarke-pivot re-selection, timed cold then warm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PivotSample {
    /// The withdrawn BP.
    pub bp: u32,
    /// Wall time of the from-scratch re-selection, milliseconds.
    pub cold_ms: f64,
    /// Wall time of the warm-started re-selection, milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
    /// Flows reused from the witness across the warm run's probes.
    pub reused_flows: u64,
    /// Flows re-routed incrementally across the warm run's probes.
    pub rerouted_flows: u64,
    /// Probes that fell back to a from-scratch evaluation.
    pub fallbacks: u64,
}

/// `bench_pivot`: warm-vs-cold pivot re-selections, each sample one
/// pivot re-selection run on its own.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PivotBench {
    /// Paper constraint label ("#1" / "#2" / "#3").
    pub constraint: String,
    pub samples: Vec<PivotSample>,
    pub total_cold_ms: f64,
    pub total_warm_ms: f64,
    /// `total_cold_ms / total_warm_ms` — the headline warm-start speedup.
    pub speedup: f64,
}

impl PivotBench {
    fn validate(&self) -> Result<(), String> {
        if self.samples.is_empty() {
            return Err("no pivot samples recorded".into());
        }
        for s in &self.samples {
            if !(s.cold_ms.is_finite()
                && s.cold_ms >= 0.0
                && s.warm_ms.is_finite()
                && s.warm_ms >= 0.0)
            {
                return Err(format!("non-finite sample timing for bp {}", s.bp));
            }
        }
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(format!("speedup must be finite and positive, got {}", self.speedup));
        }
        Ok(())
    }
}

/// One measured phase of the control-plane throughput bench: a client
/// fleet driving a live durable server end to end (TCP framing,
/// admission, sharded apply, group-commit journal).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CtrlPhase {
    /// "sharded" (the group-commit pipeline) or "baseline" (1 shard, the
    /// pre-sharding per-mutation-fsync serialization).
    pub label: String,
    /// Usage-ledger shards the server ran with.
    pub shards: usize,
    /// Concurrent client connections driving load.
    pub clients: usize,
    /// Mutations acknowledged across the phase.
    pub requests: u64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Sustained acknowledged-mutation throughput (`requests / elapsed_s`).
    pub req_per_sec: f64,
    /// Client-observed request latency percentiles, microseconds.
    pub p50_us: f64,
    pub p99_us: f64,
    /// `Response::Busy` rejections clients absorbed via retry.
    pub busy_rejections: u64,
    /// Journal records appended / fsync batches committed during the
    /// phase: `appends / fsyncs` is the realized group-commit ratio.
    pub appends: u64,
    pub fsyncs: u64,
    pub group_commits: u64,
    /// Group-commit batch-size distribution (mutations per fsync).
    pub batch_p50: f64,
    pub batch_p99: f64,
    pub batch_mean: f64,
}

/// `bench_ctrl`: sustained durable throughput of the sharded
/// group-commit control plane against the serialized baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CtrlBench {
    /// Independent repetitions per phase; each reported phase is the
    /// median trial by `req_per_sec`, so a single disk-mood outlier
    /// cannot set the headline in either direction.
    pub trials: usize,
    pub phases: Vec<CtrlPhase>,
    /// Sharded req/s over baseline req/s — the headline number.
    pub speedup: f64,
}

impl CtrlBench {
    fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("no phases recorded".into());
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".into());
        }
        for p in &self.phases {
            if p.shards == 0 || p.clients == 0 || p.requests == 0 {
                return Err(format!("phase {:?} measured nothing", p.label));
            }
            let timings = [p.elapsed_s, p.req_per_sec, p.p50_us, p.p99_us];
            if timings.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
                return Err(format!("non-finite or non-positive timing in phase {:?}", p.label));
            }
            if p.p99_us < p.p50_us {
                return Err(format!("p99 below p50 in phase {:?}", p.label));
            }
            if p.appends == 0 || p.fsyncs == 0 {
                return Err(format!("phase {:?} journaled nothing", p.label));
            }
            if p.fsyncs > p.appends {
                return Err(format!("phase {:?} fsynced more than it appended", p.label));
            }
            let batches = [p.batch_p50, p.batch_p99, p.batch_mean];
            if batches.iter().any(|b| !(b.is_finite() && *b >= 1.0)) {
                return Err(format!("batch sizes below 1 in phase {:?}", p.label));
            }
        }
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(format!("speedup must be finite and positive, got {}", self.speedup));
        }
        Ok(())
    }
}

/// One timed run of the packet engine on a fixed workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataplaneTrial {
    /// Events popped off the queue across the run.
    pub events: u64,
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub packets_dropped: u64,
    /// Wall time of the run, seconds.
    pub elapsed_s: f64,
    pub events_per_sec: f64,
    pub packets_per_sec: f64,
}

/// `bench_dataplane`: packet-engine event throughput. The headline
/// numbers are the median trial's, so one scheduler hiccup cannot set
/// them in either direction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataplaneBench {
    /// Simulated horizon, nanoseconds.
    pub horizon_ns: u64,
    /// Packet sources standing in for `n_user_flows` user flows.
    pub n_sources: usize,
    pub n_user_flows: u64,
    pub trials: Vec<DataplaneTrial>,
    /// Median-trial throughput — the headline numbers.
    pub events_per_sec: f64,
    pub packets_per_sec: f64,
    /// Median-trial delivered availability (delivered/offered bytes).
    pub availability: f64,
}

impl DataplaneBench {
    fn validate(&self) -> Result<(), String> {
        if self.trials.is_empty() {
            return Err("no trials recorded".into());
        }
        if self.horizon_ns == 0 {
            return Err("horizon must be positive".into());
        }
        if self.n_sources == 0 || self.n_user_flows < self.n_sources as u64 {
            return Err(format!(
                "sources/user-flows inconsistent: {} sources, {} user flows",
                self.n_sources, self.n_user_flows
            ));
        }
        for t in &self.trials {
            if t.events == 0 || t.packets_injected == 0 {
                return Err("a trial simulated nothing".into());
            }
            if t.packets_delivered + t.packets_dropped > t.packets_injected {
                return Err("delivered + dropped exceeds injected".into());
            }
            let rates = [t.elapsed_s, t.events_per_sec, t.packets_per_sec];
            if rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
                return Err("non-finite or non-positive trial timing".into());
            }
        }
        let headline = [self.events_per_sec, self.packets_per_sec];
        if headline.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
            return Err(format!(
                "headline throughput must be finite and positive, got {} ev/s {} pkt/s",
                self.events_per_sec, self.packets_per_sec
            ));
        }
        if !self.availability.is_finite() || !(0.0..=1.0 + 1e-9).contains(&self.availability) {
            return Err(format!("availability outside [0,1]: {}", self.availability));
        }
        Ok(())
    }
}

/// One planned-and-executed lease migration (optionally with faults
/// injected mid-walk), timed and safety-audited.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionSample {
    /// What the sample exercises, e.g. "expand x1.5" or "drill cut=1".
    pub label: String,
    /// Demand-forecast factor that picked the target set.
    pub headroom: f64,
    pub n_from: usize,
    pub n_to: usize,
    /// Steps of the initial plan.
    pub plan_steps: usize,
    /// Oracle probes the planner spent.
    pub plan_probes: u64,
    /// Wall time of planning alone, milliseconds.
    pub plan_ms: f64,
    /// Wall time of the full drill (plan + execute + any replans),
    /// milliseconds.
    pub run_ms: f64,
    /// Steps actually applied across the walk, replans included.
    pub steps_applied: usize,
    pub replans: u32,
    pub rollbacks: u32,
    /// "committed", "rolled_back", or "force_restored".
    pub outcome: String,
    /// Applied intermediate states an independent oracle rejected —
    /// the safety invariant; validation requires exactly zero.
    pub unsafe_intermediates: u64,
}

/// `bench_transition`: safe-migration planning and execution cost,
/// including a mid-transition failure drill. Validation doubles as the
/// safety gate: any sample with a rejected intermediate state makes the
/// artifact invalid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionBench {
    /// Paper constraint label ("#1" / "#2" / "#3").
    pub constraint: String,
    pub samples: Vec<TransitionSample>,
    pub total_plan_ms: f64,
    pub total_run_ms: f64,
}

impl TransitionBench {
    fn validate(&self) -> Result<(), String> {
        if self.samples.is_empty() {
            return Err("no transition samples recorded".into());
        }
        for s in &self.samples {
            if !(s.headroom.is_finite() && s.headroom > 0.0) {
                return Err(format!("sample {:?}: bad headroom {}", s.label, s.headroom));
            }
            if s.n_from == 0 || s.n_to == 0 {
                return Err(format!("sample {:?}: empty endpoint set", s.label));
            }
            let timings = [s.plan_ms, s.run_ms];
            if timings.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
                return Err(format!("sample {:?}: non-finite timing", s.label));
            }
            if !matches!(s.outcome.as_str(), "committed" | "rolled_back" | "force_restored") {
                return Err(format!("sample {:?}: unknown outcome {:?}", s.label, s.outcome));
            }
            if s.unsafe_intermediates != 0 {
                return Err(format!(
                    "sample {:?}: {} intermediate states failed verification — the safety \
                     invariant is broken",
                    s.label, s.unsafe_intermediates
                ));
            }
        }
        let totals = [self.total_plan_ms, self.total_run_ms];
        if totals.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err("non-finite total timing".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(preset: &str, payload: Payload) -> BenchArtifact {
        BenchArtifact {
            mode: "quick".into(),
            scale: ScaleInfo { preset: preset.into(), n_routers: 14, n_links: 220, n_bps: 10 },
            payload,
        }
    }

    /// Serialize, parse back, and validate: the path `--validate` takes.
    fn round_trip(a: &BenchArtifact) -> BenchArtifact {
        let back: BenchArtifact = serde_json::from_str(&serde_json::to_string(a).unwrap()).unwrap();
        back.validate().unwrap();
        back
    }

    fn sample_report() -> BenchArtifact {
        artifact(
            "scale",
            Payload::Pivot(PivotBench {
                constraint: "#1".into(),
                samples: vec![PivotSample {
                    bp: 3,
                    cold_ms: 100.0,
                    warm_ms: 40.0,
                    speedup: 2.5,
                    reused_flows: 1000,
                    rerouted_flows: 50,
                    fallbacks: 1,
                }],
                total_cold_ms: 100.0,
                total_warm_ms: 40.0,
                speedup: 2.5,
            }),
        )
    }

    fn pivot(a: &mut BenchArtifact) -> &mut PivotBench {
        match &mut a.payload {
            Payload::Pivot(p) => p,
            other => panic!("not a pivot payload: {}", other.name()),
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let r = sample_report();
        r.validate().unwrap();
        let mut back = round_trip(&r);
        assert_eq!(pivot(&mut back).samples.len(), 1);
        assert_eq!(back.scale.preset, "scale");
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        // An unknown discriminator does not parse.
        let json =
            serde_json::to_string(&sample_report()).unwrap().replace("\"Pivot\"", "\"Other\"");
        assert!(serde_json::from_str::<BenchArtifact>(&json).is_err());

        let mut r = sample_report();
        pivot(&mut r).samples.clear();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        pivot(&mut r).speedup = f64::NAN;
        assert!(r.validate().is_err());
    }

    #[test]
    fn header_validation_rejects_bad_mode_and_scale() {
        let mut r = sample_report();
        r.mode = "slow".into();
        assert!(r.validate().unwrap_err().contains("mode"));

        let mut r = sample_report();
        r.scale.n_links = 0;
        assert!(r.validate().unwrap_err().contains("zero-sized"));

        let mut r = sample_report();
        r.scale.preset.clear();
        assert!(r.validate().unwrap_err().contains("preset"));
    }

    fn sample_ctrl_report() -> BenchArtifact {
        let phase = |label: &str, shards, requests, fsyncs, batch: f64| CtrlPhase {
            label: label.into(),
            shards,
            clients: 8,
            requests,
            elapsed_s: 0.5,
            req_per_sec: requests as f64 / 0.5,
            p50_us: 700.0,
            p99_us: 2100.0,
            busy_rejections: 0,
            appends: requests,
            fsyncs,
            group_commits: fsyncs,
            batch_p50: batch,
            batch_p99: batch * 2.0,
            batch_mean: batch,
        };
        artifact(
            "two_bp_square",
            Payload::Ctrl(CtrlBench {
                trials: 1,
                phases: vec![
                    phase("sharded", 8, 4000, 900, 4.0),
                    phase("baseline", 1, 800, 800, 1.0),
                ],
                speedup: 6.0,
            }),
        )
    }

    fn ctrl(a: &mut BenchArtifact) -> &mut CtrlBench {
        match &mut a.payload {
            Payload::Ctrl(p) => p,
            other => panic!("not a ctrl payload: {}", other.name()),
        }
    }

    #[test]
    fn ctrl_report_round_trips_and_validates() {
        let r = sample_ctrl_report();
        r.validate().unwrap();
        let mut back = round_trip(&r);
        assert_eq!(ctrl(&mut back).phases.len(), 2);
        assert_eq!(ctrl(&mut back).phases[0].shards, 8);
    }

    #[test]
    fn ctrl_validation_rejects_malformed_reports() {
        let mut r = sample_ctrl_report();
        ctrl(&mut r).phases.clear();
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        ctrl(&mut r).phases[0].req_per_sec = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        let p = &mut ctrl(&mut r).phases[0];
        p.p99_us = p.p50_us / 2.0;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        let p = &mut ctrl(&mut r).phases[0];
        p.fsyncs = p.appends + 1;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        ctrl(&mut r).phases[1].batch_mean = 0.5;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        ctrl(&mut r).trials = 0;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        ctrl(&mut r).speedup = 0.0;
        assert!(r.validate().is_err());
    }

    fn sample_transition_report() -> BenchArtifact {
        artifact(
            "small",
            Payload::Transition(TransitionBench {
                constraint: "#1".into(),
                samples: vec![TransitionSample {
                    label: "expand x1.5".into(),
                    headroom: 1.5,
                    n_from: 23,
                    n_to: 29,
                    plan_steps: 34,
                    plan_probes: 40,
                    plan_ms: 12.0,
                    run_ms: 55.0,
                    steps_applied: 34,
                    replans: 0,
                    rollbacks: 0,
                    outcome: "committed".into(),
                    unsafe_intermediates: 0,
                }],
                total_plan_ms: 12.0,
                total_run_ms: 55.0,
            }),
        )
    }

    fn transition(a: &mut BenchArtifact) -> &mut TransitionBench {
        match &mut a.payload {
            Payload::Transition(p) => p,
            other => panic!("not a transition payload: {}", other.name()),
        }
    }

    #[test]
    fn transition_report_round_trips_and_validates() {
        let r = sample_transition_report();
        r.validate().unwrap();
        let mut back = round_trip(&r);
        assert_eq!(transition(&mut back).samples.len(), 1);
        assert_eq!(transition(&mut back).samples[0].plan_steps, 34);
    }

    #[test]
    fn transition_validation_rejects_malformed_reports() {
        let mut r = sample_transition_report();
        transition(&mut r).samples.clear();
        assert!(r.validate().is_err());

        let mut r = sample_transition_report();
        transition(&mut r).samples[0].headroom = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_transition_report();
        transition(&mut r).samples[0].outcome = "exploded".into();
        assert!(r.validate().is_err());

        // The safety gate: a rejected intermediate fails validation.
        let mut r = sample_transition_report();
        transition(&mut r).samples[0].unsafe_intermediates = 1;
        let err = r.validate().unwrap_err();
        assert!(err.starts_with("transition: ") && err.contains("safety invariant"), "{err}");

        let mut r = sample_transition_report();
        transition(&mut r).total_run_ms = f64::INFINITY;
        assert!(r.validate().is_err());
    }

    fn sample_dataplane_report() -> BenchArtifact {
        artifact(
            "small",
            Payload::Dataplane(DataplaneBench {
                horizon_ns: 20_000_000,
                n_sources: 72,
                n_user_flows: 624_318,
                trials: vec![DataplaneTrial {
                    events: 9_000_000,
                    packets_injected: 4_000_000,
                    packets_delivered: 1_400_000,
                    packets_dropped: 1_100_000,
                    elapsed_s: 0.5,
                    events_per_sec: 18_000_000.0,
                    packets_per_sec: 8_000_000.0,
                }],
                events_per_sec: 18_000_000.0,
                packets_per_sec: 8_000_000.0,
                availability: 0.33,
            }),
        )
    }

    fn dataplane(a: &mut BenchArtifact) -> &mut DataplaneBench {
        match &mut a.payload {
            Payload::Dataplane(p) => p,
            other => panic!("not a dataplane payload: {}", other.name()),
        }
    }

    #[test]
    fn dataplane_report_round_trips_and_validates() {
        let r = sample_dataplane_report();
        r.validate().unwrap();
        let mut back = round_trip(&r);
        assert_eq!(dataplane(&mut back).trials.len(), 1);
        assert_eq!(dataplane(&mut back).n_user_flows, 624_318);
    }

    #[test]
    fn dataplane_validation_rejects_malformed_reports() {
        let mut r = sample_dataplane_report();
        dataplane(&mut r).trials.clear();
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        let t = &mut dataplane(&mut r).trials[0];
        t.packets_delivered = t.packets_injected + 1;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        dataplane(&mut r).trials[0].events_per_sec = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        dataplane(&mut r).events_per_sec = 0.0;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        dataplane(&mut r).availability = 1.5;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        dataplane(&mut r).n_user_flows = 3;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.scale.n_bps = 0;
        assert!(r.validate().is_err());
    }
}
