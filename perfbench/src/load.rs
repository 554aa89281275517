//! Open-loop request generation.
//!
//! Request `k` of a phase is due `k / rate` seconds after the phase
//! starts, whatever happened to earlier requests. Connection `j` of `n`
//! sends requests `j, j + n, j + 2n, ...` in order, sleeping until each
//! is due; when a reply is slow the next request goes out late. Latency
//! is timed from the *due* time, so a stall also counts against the
//! requests queued behind it. Only the generator's own oversleep is left
//! out: time the connection sat free after a request was due because the
//! sending thread woke late (on a busy virtual machine, by a millisecond
//! or more) is the generator's fault, not the system's. How late the
//! generator sent each request is reported on its own as the send lag.

use std::time::{Duration, Instant};

/// What one request turned into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Refused at admission (`Busy`).
    Busy,
    TimedOut,
    Failed,
}

/// One request's timeline, nanoseconds since the phase started.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub k: u64,
    pub due_ns: u64,
    /// When the connection was free to send it: the later of its due
    /// time and the previous reply on the same connection.
    pub ready_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the due time less the generator's oversleep, µs: the
    /// wait for the connection plus the round trip. A request that did
    /// not succeed counts as infinitely late.
    pub fn latency_us(&self) -> f64 {
        match self.outcome {
            Outcome::Ok => {
                let wait = self.ready_ns.saturating_sub(self.due_ns);
                (wait + self.done_ns.saturating_sub(self.sent_ns)) as f64 / 1e3
            }
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent this request, µs.
    pub fn lag_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Due time of request `k` at `rate` requests per second, ns.
pub fn due_ns(k: u64, rate: f64) -> u64 {
    (k as f64 * 1e9 / rate) as u64
}

/// Run one open-loop phase of `duration` at `rate` over the connections
/// in `conns`; `send(conn, k)` issues request `k` and reports how it
/// ended. Returns every sample, ordered by `k`.
pub fn run_phase<C, S>(conns: &mut [C], rate: f64, duration: Duration, send: S) -> Vec<Sample>
where
    C: Send,
    S: Fn(&mut C, u64) -> Outcome + Sync,
{
    let n = conns.len() as u64;
    let end_ns = duration.as_nanos() as u64;
    let start = Instant::now();
    let send = &send;
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(0u64..)
            .map(|(conn, j)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = j;
                    let mut free_ns = 0;
                    loop {
                        let due = due_ns(k, rate);
                        if due >= end_ns {
                            break out;
                        }
                        let now = start.elapsed().as_nanos() as u64;
                        if due > now {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        let sent_ns = start.elapsed().as_nanos() as u64;
                        let outcome = send(conn, k);
                        let done_ns = start.elapsed().as_nanos() as u64;
                        let ready_ns = due.max(free_ns);
                        free_ns = done_ns;
                        out.push(Sample { k, due_ns: due, ready_ns, sent_ns, done_ns, outcome });
                        k += n;
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("load worker panicked")).collect()
    });
    samples.sort_by_key(|s| s.k);
    samples
}

/// Whether the generator fell further behind as the phase went on: the
/// median send lag of the last quarter of requests exceeds that of the
/// first quarter by more than `slack_us`.
pub fn backlog_grew(samples: &[Sample], slack_us: f64) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let lag = |part: &[Sample]| {
        crate::stats::median(&part.iter().map(Sample::lag_us).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    lag(&samples[samples.len() - q..]) > lag(&samples[..q]) + slack_us
}

/// SplitMix64: the benchmark's deterministic stream of choices.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_when_the_generator_falls_behind() {
        // One connection, one request due every 1 ms, each taking 3 ms:
        // request k is sent about 2k ms late, so its latency from the due
        // time is about 2k + 3 ms even though the service time is 3 ms.
        let service = Duration::from_millis(3);
        let mut conns = [()];
        let samples = run_phase(&mut conns, 1000.0, Duration::from_millis(12), |_, _| {
            std::thread::sleep(service);
            Outcome::Ok
        });
        assert_eq!(samples.len(), 12);
        let last = samples.last().unwrap();
        let service_us = (last.done_ns - last.sent_ns) as f64 / 1e3;
        assert!(service_us >= 3000.0);
        assert!(last.lag_us() >= 2.0 * 11.0 * 1000.0 * 0.9, "lag {}", last.lag_us());
        // Each request waited for the previous reply, so all of its send
        // lag is queueing and counts; only the µs between a reply and the
        // next send do not.
        assert!((last.latency_us() - (last.lag_us() + service_us)).abs() < 100.0);
        assert!(backlog_grew(&samples, 1000.0));
    }

    #[test]
    fn a_keeping_up_generator_has_no_backlog() {
        let mut conns = [(), ()];
        let samples = run_phase(&mut conns, 200.0, Duration::from_millis(100), |_, _| Outcome::Ok);
        assert_eq!(samples.len(), 20);
        assert!(samples.windows(2).all(|w| w[0].k + 1 == w[1].k));
        assert!(!backlog_grew(&samples, 5000.0));
    }

    #[test]
    fn failed_requests_are_infinitely_late() {
        let s = Sample {
            k: 0,
            due_ns: 0,
            ready_ns: 0,
            sent_ns: 10,
            done_ns: 20,
            outcome: Outcome::Busy,
        };
        assert_eq!(s.latency_us(), f64::INFINITY);
        assert_eq!(s.lag_us(), 0.01);
    }

    #[test]
    fn generator_oversleep_is_not_latency_but_queueing_is() {
        // Due at 0 on a free connection, sent 1 ms late by a slow wake-up,
        // answered 100 µs later: 100 µs of latency, 1 ms of send lag.
        let late = Sample {
            k: 0,
            due_ns: 0,
            ready_ns: 0,
            sent_ns: 1_000_000,
            done_ns: 1_100_000,
            outcome: Outcome::Ok,
        };
        assert_eq!(late.latency_us(), 100.0);
        assert_eq!(late.lag_us(), 1000.0);
        // Due at 0 while the previous reply only came at 2 ms: the 2 ms
        // wait counts.
        let queued = Sample {
            k: 1,
            due_ns: 0,
            ready_ns: 2_000_000,
            sent_ns: 2_000_000,
            done_ns: 2_100_000,
            outcome: Outcome::Ok,
        };
        assert_eq!(queued.latency_us(), 2100.0);
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        assert_eq!(due_ns(0, 4000.0), 0);
        assert_eq!(due_ns(4, 4000.0), 1_000_000);
    }
}
