//! `tdxbench`: the workload benchmark of temporal data exchange.
//!
//! ```text
//! cargo run --release --manifest-path tdxbench/Cargo.toml -- \
//!     --workload <exchange|ingest|serve|cluster|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up, runs its closed loop until the operations
//! have taken `--seconds`, repeating the set-up between operations
//! ([`workloads::SETUP_REPS`] in all), checks every output, and prints a report
//! followed by one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced layer walk with `--trace 1`. See
//! `README.md` for the metric and workload tables.

mod inputs;
mod layers;
mod reference;
mod stats;
mod sys;
mod trace;
mod workloads;

use layers::Metric;
use stats::{median, sorted, tail, Ledger};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Probe, Run, Samples, Workload};

/// How the durable sessions flush, recorded with every result.
const FLUSH_POLICY: &str = "WAL fsync (sync_data) per committed batch; \
     state snapshot every 8 batches (library default), fsync'd and renamed";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: tdxbench --workload <exchange|ingest|serve|cluster|all> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                parsed.workload = match value.as_str() {
                    "all" => None,
                    w => Some(Workload::parse(w).ok_or_else(bad)?),
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if !workload_given {
        return Err(usage());
    }
    Ok(parsed)
}

/// The chase tuning variables among `names`: they would change what is
/// measured, so a run refuses to start under any of them.
fn chase_knobs(names: impl Iterator<Item = String>) -> Vec<String> {
    names.filter(|k| k.starts_with("TDX_CHASE_")).collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(ledger: &Ledger, values: &[Metric]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            // A run that produced no samples is already incorrect; keep the
            // line valid JSON anyway.
            let x = if v.value.is_finite() { v.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {x}, \"unit\": {}}}",
                json_str(&v.name),
                json_str(v.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    )
}

/// The end-to-end metrics, with their units, in `BENCHMARK.json` order.
/// Every workload reports all of them. An "op" is one exchange round: each
/// of the three sources exchanged once (exchange), one durable batch
/// (ingest, cluster), or one serve cycle: a batch with its publish and the
/// 20 queries after it (serve). Latencies are in units of the reference
/// kernel's median time in the same run ("ref"; see `reference.rs`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ref", "ref"),
    ("op_mean_ref", "ref"),
];

fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<Metric> {
    let s = &run.samples;
    let reference_ms = run.reference.median_ms();
    let values = [
        median(&run.setup_s),
        peak_rss_mb,
        median(&s.ops) / reference_ms,
        s.busy_s * 1e3 / s.ops.len() as f64 / reference_ms,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

fn tail_line(name: &str, samples: &[f64]) -> String {
    match tail(samples) {
        Some(t) => format!(
            "# e2e {name} = {:.4} ms (p{}; {} samples, {} beyond)",
            t.value, t.pct, t.samples, t.beyond
        ),
        None => format!(
            "# e2e {name} = n/a ({} samples leave fewer than 10 beyond p90)",
            samples.len()
        ),
    }
}

/// The report lines: every end-to-end metric the workload has, by name and
/// unit, including those the `BENCHMARK.json` list folds into `op_*`.
fn report(w: Workload, run: &Run, peak_rss_mb: f64) -> Vec<String> {
    let s: &Samples = &run.samples;
    let l = &run.ledger;
    let mut lines = vec![
        format!(
            "# e2e setup_s = {:.4} s (median of {:.4?})",
            median(&run.setup_s),
            run.setup_s
        ),
        format!(
            "# e2e failed_ops_ratio = {} ratio ({} of {} operations and checks)",
            l.ratio(),
            l.failed,
            l.attempted
        ),
        format!("# e2e peak_rss_mb = {peak_rss_mb:.1} MB (VmHWM)"),
        format!(
            "# reference kernel = {:.4} ms (median of {} runs, {:.4}..{:.4})",
            run.reference.median_ms(),
            run.reference.samples.len(),
            sorted(&run.reference.samples)
                .first()
                .copied()
                .unwrap_or(0.0),
            sorted(&run.reference.samples)
                .last()
                .copied()
                .unwrap_or(0.0),
        ),
        format!(
            "# e2e op_p50_ms = {:.4} ms, ops_per_s = {:.3} 1/s, facts_per_s = {:.1} facts/s",
            median(&s.ops),
            s.ops.len() as f64 / s.busy_s,
            s.facts as f64 / s.busy_s
        ),
    ];
    let per_s = |n: f64| n / s.busy_s;
    match w {
        Workload::Exchange => {
            lines.push(format!(
                "# e2e exchange_p50_ms = {:.4} ms ({} calls)",
                median(&s.exchanges),
                s.exchanges.len()
            ));
            lines.push(format!(
                "# e2e exchange_facts_per_s = {:.1} facts/s",
                per_s(s.facts as f64)
            ));
        }
        Workload::Ingest | Workload::Cluster => {
            lines.push(format!(
                "# e2e batch_p50_ms = {:.4} ms ({} insert batches)",
                median(&s.inserts),
                s.inserts.len()
            ));
            lines.push(tail_line("batch_tail_ms", &s.inserts));
            lines.push(format!(
                "# e2e batches_per_s = {:.2} 1/s ({} batches, {} passes)",
                per_s(s.batches as f64),
                s.batches,
                s.passes
            ));
            lines.push(format!(
                "# e2e closeout_p50_ms = {:.4} ms ({} close-outs)",
                median(&s.closeouts),
                s.closeouts.len()
            ));
            lines.push(format!(
                "# e2e write_bytes_per_user_byte = {:.3} ratio ({} bytes written / {} batch bytes)",
                s.written_bytes as f64 / s.user_bytes.max(1) as f64,
                s.written_bytes,
                s.user_bytes
            ));
            if w == Workload::Cluster {
                lines.push(format!(
                    "# cluster respawns = {}, quarantines = {}",
                    s.respawns, s.quarantines
                ));
            }
        }
        Workload::Serve => {
            lines.push(format!(
                "# e2e batch_p50_ms = {:.4} ms ({} batches, publish included)",
                median(&s.inserts),
                s.inserts.len()
            ));
            lines.push(format!(
                "# e2e query_p50_ms = {:.4} ms ({} queries)",
                median(&s.queries),
                s.queries.len()
            ));
            lines.push(tail_line("query_tail_ms", &s.queries));
            lines.push(format!(
                "# e2e queries_per_s = {:.1} 1/s",
                per_s(s.queries.len() as f64)
            ));
        }
    }
    let sorted_ops = sorted(&s.ops);
    if let (Some(lo), Some(hi)) = (sorted_ops.first(), sorted_ops.last()) {
        lines.push(format!(
            "# ops = {} operations, {:.4}..{:.4} ms, {:.3} s busy",
            s.ops.len(),
            lo,
            hi,
            s.busy_s
        ));
    }
    for e in &l.errors {
        lines.push(format!("# error: {e}"));
    }
    lines
}

fn env_line(seed: u64) -> String {
    format!(
        "{{\"available_parallelism\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {seed}, \
         \"flush_policy\": {}}}",
        sys::available_parallelism(),
        json_str(&sys::rustc_version()),
        json_str(&sys::commit()),
        json_str(FLUSH_POLICY)
    )
}

/// Runs one workload in this process and prints its report and result.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    println!(
        "# tdxbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let env = env_line(args.seed);
    println!("# env {env}");
    if let Err(e) = std::fs::create_dir_all(sys::out_dir()) {
        eprintln!("tdxbench: cannot create {}: {e}", sys::out_dir().display());
        return ExitCode::from(1);
    }
    let mut tracer = Tracer::default();
    let mut run = {
        let mut probe = Probe {
            tracer: args.trace.then_some(&mut tracer),
        };
        workloads::run(w, args.seed, args.seconds, &mut probe)
    };
    let values = if args.trace {
        let inputs = inputs::Inputs::generate(args.seed);
        let walked = sys::TempDir::new(&format!("{}-walk", w.name()))
            .map(|tmp| layers::walk(&inputs, &run.samples, &mut tracer, &mut run.ledger, &tmp));
        let metrics = match walked {
            Ok(m) => m,
            Err(e) => {
                run.ledger.op::<(), _>("walk dir", Err(e));
                Vec::new()
            }
        };
        let path = sys::out_dir().join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        match tracer.write_jsonl(&path, &env) {
            Ok(()) => println!(
                "# trace {} ({} spans)",
                path.display(),
                tracer.spans().len()
            ),
            Err(e) => eprintln!("tdxbench: cannot write {}: {e}", path.display()),
        }
        metrics
    } else {
        end_to_end(&run, sys::peak_rss_mb())
    };
    for line in report(w, &run, sys::peak_rss_mb()) {
        println!("{line}");
    }
    for v in &values {
        println!("# value {} {} {}", v.name, v.value, v.unit);
    }
    println!(
        "# result {} {} {}",
        run.ledger.failed == 0,
        run.ledger.attempted,
        run.ledger.failed
    );
    println!("{}", result_line(&run.ledger, &values));
    if run.ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload, each in its own process (so each reports its own
/// peak memory), and prints their reports and one combined result whose
/// metric names are prefixed with the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tdxbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ledger = Ledger::default();
    let mut values = Vec::new();
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                ledger.op::<(), _>(w.name(), Err(e));
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut reported = false;
        for line in text.lines() {
            if !line.starts_with('{') {
                println!("{line}");
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["#", "result", ok, attempted, failed] => {
                    reported = true;
                    ledger.attempted += attempted.parse::<u64>().unwrap_or(0);
                    let failed = failed.parse::<u64>().unwrap_or(1);
                    ledger.failed += if *ok == "true" { failed } else { failed.max(1) };
                }
                ["#", "value", name, x, _] => values.push(Metric {
                    name: format!("{}.{name}", w.name()),
                    unit: END_TO_END
                        .iter()
                        .chain(layers::PER_LAYER.iter())
                        .find(|(n, _)| n == name)
                        .map_or("count", |(_, u)| u),
                    value: x.parse().unwrap_or(f64::NAN),
                }),
                _ => {}
            }
        }
        if !reported {
            ledger.op::<(), _>(w.name(), Err("workload printed no result"));
        }
    }
    println!("{}", result_line(&ledger, &values));
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = chase_knobs(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !knobs.is_empty() {
        eprintln!(
            "tdxbench: refusing to run with chase tuning variables set: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn listed(list: &str) -> Vec<(String, String)> {
        let path = sys::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{list}\""))
            .expect("the list is present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("the list is closed")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed("per_layer"), pairs(&layers::PER_LAYER));
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Serve), 7, 3.0, true)
        );
        assert_eq!(args(&["--workload", "all"]).unwrap().workload, None);
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "serve", "--seed"]).is_err());
        assert!(args(&["--workload", "serve", "--bogus", "1"]).is_err());
    }

    #[test]
    fn chase_tuning_variables_are_refused() {
        let names = [
            "PATH",
            "TDX_CHASE_THREADS",
            "TDX_OTHER",
            "TDX_CHASE_SERVERS",
        ];
        assert_eq!(
            chase_knobs(names.iter().map(|s| s.to_string())),
            vec!["TDX_CHASE_THREADS", "TDX_CHASE_SERVERS"]
        );
    }

    #[test]
    fn result_line_reports_failures_as_incorrect() {
        let mut ledger = Ledger::default();
        ledger.check("fine", true);
        let values = [Metric {
            name: "op_p50_ms".into(),
            unit: "ms",
            value: 1.5,
        }];
        assert_eq!(
            result_line(&ledger, &values),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        ledger.check("broken", false);
        assert!(result_line(&ledger, &values)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
