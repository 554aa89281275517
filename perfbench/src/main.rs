//! The repository's benchmark: one POC operator loop, measured end to
//! end and, in a traced run, layer by layer.
//!
//! ```text
//! perfbench --workload <epoch-mid|ctrl-mixed|paper> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one `# ...` line per metric, host fact, failure kind and output
//! check, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports end-to-end
//! metrics; `--trace 1` reports per-layer metrics and writes the spans to
//! `.perfbench/trace-<workload>-<seed>.jsonl`. See README.md.

mod bench;
mod ctrl;
mod epoch;
mod load;
mod report;
mod stats;
mod trace;
mod world;

use bench::{Shape, StateDirs, Workload};
use report::Metric;
use std::path::Path;
use trace::Tracer;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::EpochMid,
        seed: world::CANONICAL_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                args.seed = parse_u64(&value).ok_or_else(|| format!("bad seed {value:?}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("# metric {} = {} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <epoch-mid|ctrl-mixed|paper> [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(".perfbench");
    let mut dirs = match StateDirs::new(out_dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    };
    let w = args.workload;
    println!(
        "# workload {} seed {:#x} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (k, v) in world::host_info(dirs.root()) {
        println!("# host {k}: {v}");
    }

    let (metrics, tally, checks, refused, failed_rounds) = if !args.trace {
        let shape = Shape::measured(w, args.seconds);
        let pass = bench::run_pass(w, args.seed, &shape, &Tracer::new(false), &mut dirs);
        let refused = (pass.ctrl_busy, pass.ctrl_timed_out);
        let failed_rounds = bench::failed_round_lines(&pass);
        (bench::end_to_end(w, &pass), pass.tally, pass.checks, refused, failed_rounds)
    } else {
        let shape = Shape::single();
        let plain = bench::run_pass(w, args.seed, &shape, &Tracer::new(false), &mut dirs);
        let tracer = Tracer::new(true);
        let before = poc_obs::global().snapshot();
        let traced = bench::run_pass(w, args.seed, &shape, &tracer, &mut dirs);
        let after = poc_obs::global().snapshot();
        let spans = tracer.spans();
        let metrics = bench::per_layer(&traced, bench::timed_s(&plain), &after, &before, &spans);

        for line in bench::ladder_lines(&traced) {
            println!("{line}");
        }
        for (name, s) in trace::by_name(&spans) {
            println!(
                "# span {name}: {} x, total {:.6} s, self {:.6} s",
                s.count,
                s.total_ns as f64 / 1e9,
                s.self_ns as f64 / 1e9
            );
        }
        let path = out_dir.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        match trace::write_jsonl(&path, w.name(), &spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }

        let failed_rounds = bench::failed_round_lines(&traced);
        let (a, b) = (bench::outcome_key(&plain), bench::outcome_key(&traced));
        let mut checks = plain.checks;
        checks.merge(traced.checks);
        checks.check("trace.outcome_identical", a == b, format!("untraced {a} vs traced {b}"));
        let mut tally = plain.tally;
        tally.merge(&traced.tally);
        let refused =
            (plain.ctrl_busy + traced.ctrl_busy, plain.ctrl_timed_out + traced.ctrl_timed_out);
        (metrics, tally, checks, refused, failed_rounds)
    };
    drop(dirs);

    for line in failed_rounds {
        println!("{line}");
    }
    print_metrics(&metrics);
    for line in checks.lines() {
        println!("{line}");
    }
    let (attempted, failed) = tally.totals();
    println!("# failures {}", tally.to_json());
    println!("# ctrl_requests refused busy {} timed out {}", refused.0, refused.1);
    println!("{}", report::result_json(checks.all_pass(), attempted, failed, &metrics));
}
