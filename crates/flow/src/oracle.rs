//! The acceptability oracle `A(OL)` used by the bandwidth auction.
//!
//! An element of `A(OL)` is a link subset that carries the traffic matrix
//! under the configured [`Constraint`]. The oracle also exposes the routing
//! it found, which the auction's greedy selection reuses.

use crate::failure::{
    survives_all_pairs_backup, survives_single_path_failures, FailReason, ResilienceResult,
};
use crate::linkset::LinkSet;
use crate::route::{route_tm, RouteError, Routing};
use poc_topology::{PocTopology, RouterId};
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Why a candidate set was rejected (used by the auction's selector to
/// augment the set in a targeted way).
#[derive(Clone, Debug, PartialEq)]
pub enum Rejection {
    /// The base traffic matrix itself could not be routed.
    BaseRoute(RouteError),
    /// Base routing fits but a resilience scenario fails for this pair.
    /// The typed [`FailReason`] lets callers (the transition planner)
    /// branch on the cause; its `Display` renders the legacy message.
    Resilience { pair: (RouterId, RouterId), reason: FailReason },
}

/// The paper's three constraint levels (Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Constraint {
    /// #1 — the links handle the offered load.
    BaseLoad,
    /// #2 — and survive any single path failure. The stride controls
    /// deterministic scenario sampling (1 = exhaustive).
    SinglePathFailure { sample_every: usize },
    /// #3 — and can place every pair on a backup avoiding its primary path,
    /// all simultaneously.
    AllPairsBackup,
}

impl Constraint {
    /// The constraint's paper label ("#1", "#2", "#3").
    pub fn label(self) -> &'static str {
        match self {
            Constraint::BaseLoad => "#1",
            Constraint::SinglePathFailure { .. } => "#2",
            Constraint::AllPairsBackup => "#3",
        }
    }

    /// The three paper constraints with `sample_every` for #2.
    pub fn paper_suite(sample_every: usize) -> [Constraint; 3] {
        [
            Constraint::BaseLoad,
            Constraint::SinglePathFailure { sample_every },
            Constraint::AllPairsBackup,
        ]
    }
}

/// The interface the auction's selectors program against: an acceptability
/// oracle `A(OL)` over one `(topology, traffic matrix, constraint)`
/// instance. [`FeasibilityOracle`] is the from-scratch implementation;
/// [`crate::WarmOracle`] layers incremental re-routing on top of it for
/// the auction's Clarke pivots.
pub trait AcceptabilityOracle {
    fn topo(&self) -> &PocTopology;

    fn tm(&self) -> &TrafficMatrix;

    fn constraint(&self) -> Constraint;

    /// Whether `links ∈ A(OL)`: the subset carries the matrix under the
    /// constraint.
    fn acceptable(&self, links: &LinkSet) -> bool;

    /// Full evaluation: the base routing on success, or the reason the set
    /// was rejected.
    fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection>;

    /// Up to `max` failing resilience scenarios for `links` (empty when the
    /// set is acceptable).
    fn failing_scenarios(&self, links: &LinkSet, max: usize)
        -> Vec<((RouterId, RouterId), String)>;

    /// As [`Self::acceptable`], but returns the base routing on success.
    fn route(&self, links: &LinkSet) -> Option<Routing> {
        self.evaluate(links).ok()
    }

    /// A known-feasible routing the caller may warm-start from (the last
    /// accepted routing of a [`crate::WarmOracle`]), or `None` for
    /// stateless oracles. Any routing returned here is a genuine
    /// feasibility witness over *some* link set of this instance's traffic
    /// matrix; callers must still re-validate its paths against their own
    /// candidate set before reusing them.
    fn witness(&self) -> Option<Routing> {
        None
    }
}

/// Oracle binding a topology, a traffic matrix, and a constraint level.
pub struct FeasibilityOracle<'a> {
    topo: &'a PocTopology,
    tm: &'a TrafficMatrix,
    constraint: Constraint,
}

impl<'a> FeasibilityOracle<'a> {
    pub fn new(topo: &'a PocTopology, tm: &'a TrafficMatrix, constraint: Constraint) -> Self {
        assert_eq!(
            tm.n_routers(),
            topo.n_routers(),
            "traffic matrix and topology disagree on router count"
        );
        Self { topo, tm, constraint }
    }

    pub fn constraint(&self) -> Constraint {
        self.constraint
    }

    pub fn topo(&self) -> &'a PocTopology {
        self.topo
    }

    pub fn tm(&self) -> &'a TrafficMatrix {
        self.tm
    }

    /// Whether `links ∈ A(OL)`: the subset carries the matrix under the
    /// constraint. Every call counts toward the `flow.oracle.check`
    /// metric.
    pub fn acceptable(&self, links: &LinkSet) -> bool {
        poc_obs::counter!("flow.oracle.check").inc();
        self.evaluate(links).is_ok()
    }

    /// As [`Self::acceptable`], but returns the base routing on success.
    pub fn route(&self, links: &LinkSet) -> Option<Routing> {
        self.evaluate(links).ok()
    }

    /// Up to `max` failing resilience scenarios for `links` (empty when the
    /// set is acceptable). For [`Constraint::AllPairsBackup`] the
    /// simultaneous-routing check inherently stops at its first failure, so
    /// at most one scenario is returned. A base-routing failure is reported
    /// as a single pseudo-scenario on the offending pair.
    pub fn failing_scenarios(
        &self,
        links: &LinkSet,
        max: usize,
    ) -> Vec<((RouterId, RouterId), String)> {
        let base = match route_tm(self.topo, links, self.tm) {
            Ok(b) => b,
            Err(RouteError::Disconnected { src, dst }) => {
                return vec![((src, dst), "disconnected".into())]
            }
            Err(RouteError::Unroutable { src, dst, remaining_gbps }) => {
                return vec![(
                    (src, dst),
                    format!("{remaining_gbps:.2} Gbps unroutable at base load"),
                )]
            }
        };
        match self.constraint {
            Constraint::BaseLoad => Vec::new(),
            Constraint::SinglePathFailure { sample_every } => {
                crate::failure::failing_single_path_scenarios(
                    self.topo,
                    links,
                    self.tm,
                    &base,
                    sample_every,
                    max,
                )
                .into_iter()
                .map(|(pair, reason)| (pair, reason.to_string()))
                .collect()
            }
            Constraint::AllPairsBackup => {
                match survives_all_pairs_backup(self.topo, links, self.tm, &base) {
                    ResilienceResult::Survives => Vec::new(),
                    ResilienceResult::Fails { pair, reason } => vec![(pair, reason.to_string())],
                }
            }
        }
    }

    /// Full evaluation: the base routing on success, or the reason the set
    /// was rejected.
    pub fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection> {
        let _span = poc_obs::span!("flow.oracle.evaluate");
        let base = route_tm(self.topo, links, self.tm).map_err(Rejection::BaseRoute)?;
        let res = match self.constraint {
            Constraint::BaseLoad => ResilienceResult::Survives,
            Constraint::SinglePathFailure { sample_every } => {
                survives_single_path_failures(self.topo, links, self.tm, &base, sample_every)
            }
            Constraint::AllPairsBackup => {
                survives_all_pairs_backup(self.topo, links, self.tm, &base)
            }
        };
        match res {
            ResilienceResult::Survives => Ok(base),
            ResilienceResult::Fails { pair, reason } => Err(Rejection::Resilience { pair, reason }),
        }
    }
}

impl AcceptabilityOracle for FeasibilityOracle<'_> {
    fn topo(&self) -> &PocTopology {
        FeasibilityOracle::topo(self)
    }

    fn tm(&self) -> &TrafficMatrix {
        FeasibilityOracle::tm(self)
    }

    fn constraint(&self) -> Constraint {
        FeasibilityOracle::constraint(self)
    }

    fn acceptable(&self, links: &LinkSet) -> bool {
        FeasibilityOracle::acceptable(self, links)
    }

    fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection> {
        FeasibilityOracle::evaluate(self, links)
    }

    fn failing_scenarios(
        &self,
        links: &LinkSet,
        max: usize,
    ) -> Vec<((RouterId, RouterId), String)> {
        FeasibilityOracle::failing_scenarios(self, links, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use poc_topology::{LinkId, RouterId};

    fn tm_for(t: &PocTopology) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 10.0);
        tm
    }

    #[test]
    fn constraints_are_ordered_by_stringency_on_fixture() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let tree = LinkSet::from_links(t.n_links(), [LinkId(0), LinkId(1), LinkId(5)]);

        let o1 = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let o2 = FeasibilityOracle::new(&t, &tm, Constraint::SinglePathFailure { sample_every: 1 });
        let o3 = FeasibilityOracle::new(&t, &tm, Constraint::AllPairsBackup);

        // Full mesh passes everything.
        assert!(o1.acceptable(&full) && o2.acceptable(&full) && o3.acceptable(&full));
        // Tree passes #1 only.
        assert!(o1.acceptable(&tree));
        assert!(!o2.acceptable(&tree));
        assert!(!o3.acceptable(&tree));
    }

    #[test]
    fn route_returns_base_routing() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let routing = o.route(&full).unwrap();
        assert_eq!(routing.flows.len(), 2);
    }

    #[test]
    fn empty_set_unacceptable() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(!o.acceptable(&LinkSet::empty(t.n_links())));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Constraint::BaseLoad.label(), "#1");
        assert_eq!(Constraint::SinglePathFailure { sample_every: 1 }.label(), "#2");
        assert_eq!(Constraint::AllPairsBackup.label(), "#3");
        let suite = Constraint::paper_suite(4);
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[1], Constraint::SinglePathFailure { sample_every: 4 });
    }
}
