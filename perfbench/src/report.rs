//! What a run prints: metrics with units, failure counts by kind, and
//! output checks.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, by kind.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    by_kind: BTreeMap<&'static str, (u64, u64)>,
}

impl Tally {
    pub fn add(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        let e = self.by_kind.entry(kind).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    pub fn one(&mut self, kind: &'static str, ok: bool) {
        self.add(kind, 1, u64::from(!ok));
    }

    pub fn get(&self, kind: &str) -> (u64, u64) {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    pub fn totals(&self) -> (u64, u64) {
        self.by_kind.values().fold((0, 0), |(a, f), &(a2, f2)| (a + a2, f + f2))
    }

    pub fn merge(&mut self, other: &Tally) {
        for (&k, &(a, f)) in &other.by_kind {
            self.add(k, a, f);
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, (a, f))| format!("\"{k}\":{{\"attempted\":{a},\"failed\":{f}}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Output checks. A failed operation is tallied, not checked; a check
/// fails only when the program returned a wrong answer.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    items: Vec<(String, bool, String)>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.items.push((name.to_string(), ok, detail.into()));
    }

    pub fn all_pass(&self) -> bool {
        self.items.iter().all(|(_, ok, _)| *ok)
    }

    pub fn merge(&mut self, other: Checks) {
        self.items.extend(other.items);
    }

    /// One line per distinct check: how often it ran and failed, plus the
    /// first failure's detail.
    pub fn lines(&self) -> Vec<String> {
        let mut agg: BTreeMap<&str, (u64, u64, &str)> = BTreeMap::new();
        for (name, ok, detail) in &self.items {
            let e = agg.entry(name).or_insert((0, 0, ""));
            e.0 += 1;
            if !ok {
                e.1 += 1;
                if e.2.is_empty() {
                    e.2 = detail;
                }
            }
        }
        agg.into_iter()
            .map(|(name, (n, bad, detail))| {
                let verdict = if bad == 0 { "pass" } else { "FAIL" };
                let mut s = format!("# check {name}: {verdict} ({n} run, {bad} failed)");
                if bad > 0 {
                    let _ = write!(s, ": {detail}");
                }
                s
            })
            .collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// A finite number with every digit Rust's shortest round-trip form
/// gives; JSON has no infinities, so those become null.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric { name: "setup_s", value: 0.8127, unit: "s" }];
        assert_eq!(
            result_json(true, 3, 1, &m),
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn tally_sums_kinds() {
        let mut t = Tally::default();
        t.one("auction_rounds", false);
        t.one("auction_rounds", true);
        t.add("ctrl_requests", 10, 2);
        assert_eq!(t.totals(), (12, 3));
        assert_eq!(t.get("auction_rounds"), (2, 1));
    }
}
