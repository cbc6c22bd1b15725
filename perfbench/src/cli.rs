//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! `--trace 0` runs the workload on fresh worlds until `--seconds` of host
//! time have passed (at least `--min-reps` times) and prints the end-to-end
//! metrics: virtual-time ones as the mean over the first three runs (one
//! sub-seed each), host-time ones as the median over all runs. `--trace 1`
//! runs the first sub-seed once with spans recorded and prints the
//! per-layer metrics; given `--compare` (the
//! end-to-end file an untraced run wrote with `--e2e-out`), it also checks
//! that tracing left every virtual-time metric unchanged and reports the
//! host-time overhead. The last stdout line is always the JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::report::{self, Metric};
use crate::workloads::{Size, Workload};
use crate::RunOut;

/// A run must end well inside the 180 s the benchmark is allowed.
const HOST_BUDGET_S: f64 = 150.0;

/// Virtual-time metrics are the mean over this many runs, each on inputs
/// made from its own sub-seed of `--seed`; a single interleaving can sit
/// in one of several modes, and the mean keeps the figure steady.
const VIRTUAL_RUNS: usize = 3;

fn sub_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(VIRTUAL_RUNS as u64)
        .wrapping_add((rep % VIRTUAL_RUNS) as u64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    min_reps: usize,
    out: PathBuf,
    e2e_out: Option<PathBuf>,
    compare: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let k = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?
            .to_string();
        let v = it.next().ok_or(format!("--{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str, default: Option<&str>| -> Result<u64, String> {
        let v = kv
            .get(k)
            .map(String::as_str)
            .or(default)
            .ok_or(format!("missing --{k}"))?;
        v.parse()
            .map_err(|_| format!("--{k}: not a whole number: {v}"))
    };
    let workload = Workload::parse(get("workload")?)
        .ok_or("unknown --workload (bulk_io, small_io, meta_share)")?;
    let size = match kv.get("size").map(String::as_str) {
        None | Some("standard") => Size::standard(workload),
        Some("fig6h") if workload == Workload::BulkIo => Size::fig6h(),
        Some(s) => return Err(format!("unknown --size {s}")),
    };
    let trace = match num("trace", Some("0"))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("seed", None)?,
        seconds: num("seconds", Some("0"))? as f64,
        trace,
        size,
        min_reps: num("min-reps", Some("3"))?.clamp(1, VIRTUAL_RUNS as u64) as usize,
        out: kv
            .get("out")
            .map_or_else(|| PathBuf::from("perfbench/out"), PathBuf::from),
        e2e_out: kv.get("e2e-out").map(PathBuf::from),
        compare: kv.get("compare").map(PathBuf::from),
    })
}

pub fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    if !ok {
        std::process::exit(1);
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report::metrics_json(metrics)
    )
}

fn print_metrics(title: &str, w: Workload, ms: &[Metric]) {
    println!("# {title}");
    for x in ms {
        let n = x.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        if report::applies(w, &x.name) {
            println!("{:<44} {:>16.4} {:<7}{n}", x.name, x.value, x.unit);
        } else {
            println!("{:<44} {:>16} {:<7}", x.name, "n/a", x.unit);
        }
    }
}

fn print_checks(runs: &[RunOut]) -> bool {
    let mut ok = true;
    for (i, r) in runs.iter().enumerate() {
        println!(
            "# run {i}: {} output checks, {} failed; fsck violations {}; {} calls, {} failed",
            r.checks,
            r.check_failures.len(),
            r.fsck_violations,
            r.attempted(),
            r.failed()
        );
        for f in &r.check_failures {
            println!("#   CHECK FAILED: {f}");
        }
        ok &= r.correct();
    }
    ok
}

/// Combines runs metric by metric (every run reports the same names):
/// host-time metrics are the median over all runs, virtual-time metrics
/// the mean over the first `VIRTUAL_RUNS` runs.
fn combine(per_run: &[Vec<Metric>]) -> Vec<Metric> {
    let mut out = per_run[0].clone();
    for (i, x) in out.iter_mut().enumerate() {
        let mut v: Vec<f64> = per_run.iter().map(|r| r[i].value).collect();
        x.value = if host_time(&x.name) {
            report::median(&mut v)
        } else {
            let v = &v[..v.len().min(VIRTUAL_RUNS)];
            v.iter().sum::<f64>() / v.len() as f64
        };
        x.samples = x.samples.map(|_| {
            per_run
                .iter()
                .take(VIRTUAL_RUNS)
                .filter_map(|r| r[i].samples)
                .sum()
        });
    }
    out
}

fn untraced(a: &Args) -> bool {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    loop {
        let t = Instant::now();
        runs.push(crate::run(
            a.workload,
            sub_seed(a.seed, runs.len()),
            a.size,
            false,
        ));
        let last = t.elapsed().as_secs_f64();
        let spent = t0.elapsed().as_secs_f64();
        let enough = runs.len() >= a.min_reps && spent >= a.seconds;
        if enough || spent + last > HOST_BUDGET_S {
            break;
        }
    }
    println!(
        "# perfbench {} seed {}: {} runs, {:.2} host s",
        a.workload.name(),
        a.seed,
        runs.len(),
        t0.elapsed().as_secs_f64()
    );
    let correct = print_checks(&runs);
    let view = combine(&runs.iter().map(report::workload_view).collect::<Vec<_>>());
    print_metrics(
        "per-workload metrics (virtual time unless _s)",
        a.workload,
        &view,
    );
    let e2e = combine(&runs.iter().map(report::end_to_end).collect::<Vec<_>>());
    print_metrics("gated end-to-end metrics", a.workload, &e2e);
    if let Some(path) = &a.e2e_out {
        let mut s = String::new();
        for x in &view {
            let _ = writeln!(s, "{} {:?}", x.name, x.value);
        }
        if let Err(e) = std::fs::write(path, s) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return false;
        }
    }
    let attempted = runs.iter().map(RunOut::attempted).sum();
    let failed = runs.iter().map(RunOut::failed).sum();
    println!("{}", result_line(correct, attempted, failed, &e2e));
    correct
}

/// Host-time metrics, which tracing is allowed to change.
fn host_time(name: &str) -> bool {
    matches!(name, "setup_s" | "run_s")
}

fn traced(a: &Args) -> bool {
    let r = crate::run(a.workload, sub_seed(a.seed, 0), a.size, true);
    println!(
        "# perfbench {} seed {}: traced run, {:.2} host s",
        a.workload.name(),
        a.seed,
        r.sim_host_s
    );
    let correct = print_checks(std::slice::from_ref(&r));
    let view = report::workload_view(&r);
    let mut layers = report::per_layer(&r);
    layers.extend(view.iter().map(|x| Metric {
        name: format!("e2e.{}", x.name),
        ..x.clone()
    }));

    // Tracing identity: every virtual-time metric equals the untraced run's.
    let mut diffs = Vec::new();
    let mut overhead_s = 0.0;
    if let Some(path) = &a.compare {
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("perfbench: cannot read {}", path.display());
            return false;
        };
        let untraced: BTreeMap<&str, f64> = text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
            .collect();
        for x in &view {
            match untraced.get(x.name.as_str()) {
                Some(&u) if host_time(&x.name) => {
                    if x.name == "run_s" {
                        overhead_s = x.value - u;
                    }
                }
                Some(&u) if u == x.value => {}
                other => diffs.push(format!(
                    "{}: untraced {other:?}, traced {}",
                    x.name, x.value
                )),
            }
        }
        for d in &diffs {
            println!("# TRACE IDENTITY FINDING: {d}");
        }
    }
    layers.push(report::m(
        "trace.identity_diffs",
        diffs.len() as f64,
        "count",
    ));
    layers.push(report::m("trace.overhead_s", overhead_s, "s"));
    layers.push(report::m("trace.spans", r.spans.len() as f64, "count"));
    print_metrics("per-layer metrics (traced run)", a.workload, &layers);

    if let Err(e) = write_trace(a, &r) {
        eprintln!("perfbench: writing the trace: {e}");
        return false;
    }
    println!(
        "{}",
        result_line(correct, r.attempted(), r.failed(), &layers)
    );
    correct
}

/// Writes the spans and counter samples as JSON lines under `--out`.
fn write_trace(a: &Args, r: &RunOut) -> std::io::Result<()> {
    std::fs::create_dir_all(&a.out)?;
    let path = a
        .out
        .join(format!("trace-{}-{}.jsonl", a.workload.name(), a.seed));
    let mut s = String::new();
    for sp in &r.spans {
        let _ = writeln!(
            s,
            "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": [{}, {}], \"v_start_ns\": {}, \"v_end_ns\": {}, \"h_start_ns\": {}, \"h_end_ns\": {}}}",
            sp.name, sp.id, sp.parent, sp.thread, sp.op, sp.v_start, sp.v_end, sp.h_start, sp.h_end
        );
    }
    for smp in &r.samples {
        let p = &smp.path;
        let _ = writeln!(
            s,
            "{{\"sample\": \"{}\", \"v_ns\": {}, \"h_ns\": {}, \"free_pages\": {}, \"deleg_requests\": {}, \"deleg_runs\": {}, \"ring_backpressure\": {}, \"ring_hop_p99_ns\": {}, \"payload_copies\": {}, \"alloc_fast_hits\": {}, \"alloc_refills\": {}, \"free_spills\": {}, \"registry_locks\": {}}}",
            smp.label, smp.v_ns, smp.h_ns, smp.free_pages, p.deleg_requests, p.deleg_runs, p.ring_backpressure,
            p.ring_hop_p99_ns(), p.payload_copies, p.alloc_fast_hits, p.alloc_refills, p.free_spills, p.registry_locks
        );
    }
    std::fs::write(&path, s)?;
    println!(
        "# wrote {} ({} spans, {} samples)",
        path.display(),
        r.spans.len(),
        r.samples.len()
    );
    Ok(())
}
