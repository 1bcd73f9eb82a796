//! kalibench — the kali workspace's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path kalibench/Cargo.toml -- \
//!     --workload mg2_latency --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: wall
//! clock on the threads backend, virtual time on the simulator.
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics, writes the spans as a Chrome trace to
//! `kalibench/out/trace-<workload>-<seed>.json`, and reports
//! `trace_overhead`. Both print a table of every metric, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `kalibench/README.md` for the workloads and metrics.

mod counters;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use kali::machine::BackendKind;
use kali::runtime::ExecPolicy;
use kali_bench::json::Json;

use metrics::{END_TO_END, PER_LAYER};
use stats::{median, percentile};
use workloads::{Size, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::WORKLOADS
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must lie in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One measured run's result.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, samples behind it).
    pub values: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            values: BTreeMap::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        self.values.insert(name, (value, samples));
    }
}

/// High-water resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The end-to-end run: threads for wall clock, then sim for virtual time.
pub fn end_to_end(w: &dyn Workload, budget: Duration) -> Outcome {
    let timed = w.timed(budget, None);
    let sim = w.simmed(ExecPolicy::default());
    let attempted = timed.attempted + sim.attempted;
    let failed = timed.failed + sim.failed;
    let mut out = Outcome::new(attempted, failed);
    let (units, wall) = timed.fastest();
    let n = units.len();
    if n == 0 {
        return out;
    }
    let (p90, beyond) = percentile(&units, 90.0);
    if beyond < 10 {
        eprintln!("warning: unit_ms_p90 has only {beyond} samples beyond it");
    }
    let all = timed.all_units();
    eprintln!(
        "kalibench: all {} warm units: p50 {:.6} ms, p90 {:.6} ms",
        all.len(),
        median(&all) * 1e3,
        percentile(&all, 90.0).0 * 1e3
    );
    out.put("unit_ms_p50", median(&units) * 1e3, n);
    out.put("unit_ms_p90", p90 * 1e3, n);
    out.put("units_per_s", n as f64 / wall, n);
    out.put("virtual_ms_per_unit", sim.unit_s * 1e3, 1);
    out.put("setup_s", median(&timed.setup_s), timed.setup_s.len());
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    let ok = (attempted - failed) as f64 / attempted as f64;
    out.put("success_rate", 100.0 * ok, attempted as usize);
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: untraced and traced threads loops, the sim counters
/// under the default and the pessimistic policy, and the layer probes.
pub fn per_layer(w: &dyn Workload, seed: u64, budget: Duration, size: Size) -> (Outcome, Json) {
    let (many, few) = match size {
        Size::Full => (400, 20),
        Size::Small => (20, 5),
    };
    let half = budget.mul_f64(0.4);
    let plain = w.timed(half, None);
    let tracer = trace::Tracer::default();
    let traced = w.timed(half, Some(&tracer));
    let sim = w.simmed(ExecPolicy::default());
    let pess = w.simmed(ExecPolicy::pessimistic());
    let attempted = plain.attempted + traced.attempted + sim.attempted + pess.attempted;
    let failed = plain.failed + traced.failed + sim.failed + pess.failed;
    let mut out = Outcome::new(attempted, failed);
    let (units, traced_units) = (plain.fastest().0, traced.fastest().0);
    if units.is_empty() || traced_units.is_empty() {
        return (out, Json::Null);
    }
    let p50 = median(&units);
    let n = units.len();
    let c = sim.per_unit;

    use BackendKind::{Sim, Threads};
    let us = 1e6;
    out.put(
        "machine.rtt_1w_us",
        probes::pingpong(Threads, 1, many) * us,
        many,
    );
    out.put(
        "machine.rtt_4096w_us",
        probes::pingpong(Threads, 4096, many) * us,
        many,
    );
    out.put(
        "machine.rtt_1w_virtual_us",
        probes::pingpong(Sim, 1, 5) * us,
        5,
    );
    out.put(
        "machine.rtt_4096w_virtual_us",
        probes::pingpong(Sim, 4096, 5) * us,
        5,
    );
    out.put(
        "machine.allreduce_us",
        probes::allreduce(Threads, many) * us,
        many,
    );
    out.put(
        "machine.allreduce_virtual_us",
        probes::allreduce(Sim, 5) * us,
        5,
    );
    out.put("machine.spawn_ms", probes::spawn(few) * 1e3, few);
    out.put("machine.msgs_per_unit", c.msgs, 1);
    out.put("machine.words_per_unit", c.words, 1);
    out.put("machine.idle_frac", ratio(c.idle, c.busy + c.idle), 1);

    let served = c.hits + c.replays;
    out.put("sched.builds_per_unit", c.builds, 1);
    out.put("sched.hit_ratio", ratio(served, served + c.builds), 1);
    out.put("sched.rollbacks_per_unit", c.rollbacks, 1);
    out.put("sched.evictions_per_unit", c.evictions, 1);
    out.put("sched.inspector_virtual_ms", c.inspector_s * 1e3, 1);
    out.put(
        "sched.overlap_hidden_frac",
        ratio(c.overlap_hidden, c.overlap_hidden + c.idle),
        1,
    );
    out.put("sched.vote_msgs_per_unit", c.msgs - pess.per_unit.msgs, 1);

    let finest = w.finest();
    let m = workloads::Spd::probe(seed, size);
    let (cold, warm) = probes::spmv_cold_warm(Threads, &m, few);
    let (vcold, vwarm) = probes::spmv_cold_warm(Sim, &m, 3);
    out.put(
        "array.halo_refresh_us",
        probes::halo_refresh(Threads, &finest, many) * us,
        many,
    );
    out.put(
        "array.halo_refresh_virtual_us",
        probes::halo_refresh(Sim, &finest, 3) * us,
        3,
    );
    out.put("array.exchange_words_per_unit", c.exchange_words, 1);
    out.put("array.gather_words_per_unit", c.gather_words, 1);
    out.put("array.spmv_cold_us", cold * us, 1);
    out.put("array.spmv_warm_us", warm * us, few);
    out.put("array.spmv_cold_virtual_us", vcold * us, 1);
    out.put("array.spmv_warm_virtual_us", vwarm * us, 3);

    let points = w.points_per_unit();
    out.put("runtime.points_per_s", points / p50, n);
    out.put(
        "runtime.rows_over_point",
        probes::rows_over_point(&finest, few),
        few,
    );
    out.put(
        "runtime.bytes_per_unit_computed",
        24.0 * points + 8.0 * c.mem_words,
        1,
    );

    let seq = w.seq_unit_s();
    out.put("solvers.seq_unit_ms", seq * 1e3, 1);
    let solver = &plain.solver_s;
    out.put("solvers.speedup_vs_seq", seq / median(solver), solver.len());
    out.put("solvers.cg_iters", sim.cg_iters, 1);
    out.put("kernels.flops_per_unit", c.flops, 1);

    // The interpreted listings are a probe, not a workload: one checked
    // round on the simulator gives the interpreter's schedule counters.
    let (parse_s, analyze_s) = probes::parse_analyze(few);
    let kf1 = workloads::Kf1::new(seed, size);
    out.attempted += 1;
    let lang = kf1.round(Sim).map(|r| r.0).unwrap_or_else(|e| {
        eprintln!("listing round failed: {e}");
        out.failed += 1;
        Default::default()
    });
    let (np, sweeps, args) = kf1.jacobi_case();
    let (iw, iv) = probes::interp_over_compiled(np, sweeps, args, 3);
    out.put("lang.parse_us", parse_s * us, few);
    out.put("lang.analyze_us", analyze_s * us, few);
    out.put("lang.builds_per_unit", lang.builds, 1);
    out.put("lang.replays_per_unit", lang.replays + lang.hits, 1);
    out.put("lang.interp_over_compiled", iw, 3);
    out.put("lang.interp_over_compiled_virtual", iv, 1);

    let stream = workloads::Churn::probe_stream(seed, size);
    let (cold_rps, warm_rps) = probes::serve_two_passes(Threads, &stream, 3);
    let (vcold_rps, vwarm_rps) = probes::serve_two_passes(Sim, &stream, 1);
    out.put("serve.cold_rps", cold_rps, 3);
    out.put("serve.warm_rps", warm_rps, 3);
    out.put("serve.warm_over_cold", warm_rps / cold_rps, 3);
    out.put("serve.warm_over_cold_virtual", vwarm_rps / vcold_rps, 1);
    out.put("serve.evictions_per_pass", sim.serve_evictions, 1);
    out.put("serve.cache_len", sim.serve_cache_len, 1);

    // Self time per traced unit, set-ups and cold units included.
    let spans = tracer.spans();
    let by_layer = trace::self_by_layer(&spans);
    for (name, layer) in metrics::SELF_TIME {
        let s = by_layer.get(layer).copied().unwrap_or(0.0);
        out.put(name, s * us / traced.attempted as f64, spans.len());
    }
    out.put(
        "trace_overhead",
        median(&traced_units) / p50,
        traced_units.len(),
    );
    (out, trace::chrome_json(&spans))
}

/// The metrics one mode reports: name, unit, direction, and the bound
/// (end to end) or what the metric should move (per layer).
fn defs(trace: bool) -> Vec<(&'static str, &'static str, &'static str, String)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better, format!("moves {}", m.moves)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, format!("bound {}", m.bound)))
            .collect()
    }
}

/// The human-readable table: every metric with its unit, direction,
/// sample count and note.
fn print_table(out: &Outcome, trace: bool) {
    println!(
        "{:<32} {:>16} {:<10} {:<6} {:>8}  note",
        "metric", "value", "unit", "better", "samples"
    );
    for (name, unit, better, note) in defs(trace) {
        if let Some((v, n)) = out.values.get(name) {
            println!("{name:<32} {v:>16.6} {unit:<10} {better:<6} {n:>8}  {note}");
        }
    }
}

fn result_json(out: &Outcome, trace: bool) -> Json {
    let defs = defs(trace);
    let complete = defs.iter().all(|d| out.values.contains_key(d.0));
    let metrics = defs
        .into_iter()
        .filter_map(|(name, unit, _, _)| {
            out.values.get(name).map(|&(v, _)| {
                (
                    name,
                    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0 && complete)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kalibench: {e}");
            eprintln!("usage: kalibench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let w = workloads::build(&args.workload, args.seed, Size::Full).expect("workload checked");
    eprintln!(
        "kalibench: {} seed {} for {} s, trace {}, {} processors, available parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        workloads::NPROCS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let out = if args.trace {
        let (out, chrome) = per_layer(w.as_ref(), args.seed, budget, Size::Full);
        let dir = std::path::Path::new("kalibench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, chrome.render())) {
            Ok(()) => eprintln!("kalibench: trace written to {}", path.display()),
            Err(e) => eprintln!("kalibench: trace not written: {e}"),
        }
        out
    } else {
        end_to_end(w.as_ref(), budget)
    };
    print_table(&out, args.trace);
    println!("{}", result_json(&out, args.trace).render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(out: &Outcome) -> Vec<&'static str> {
        out.values.keys().copied().collect()
    }

    fn sorted(mut v: Vec<&'static str>) -> Vec<&'static str> {
        v.sort_unstable();
        v
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for name in workloads::WORKLOADS {
            let w = workloads::build(name, 3, Size::Small).expect("workload");
            let e2e = end_to_end(w.as_ref(), Duration::from_millis(100));
            assert_eq!(e2e.failed, 0, "{name}");
            assert_eq!(
                names(&e2e),
                sorted(END_TO_END.iter().map(|m| m.name).collect()),
                "{name}"
            );
            let (layers, chrome) =
                per_layer(w.as_ref(), 3, Duration::from_millis(100), Size::Small);
            assert_eq!(layers.failed, 0, "{name}");
            assert_eq!(
                names(&layers),
                sorted(PER_LAYER.iter().map(|m| m.name).collect()),
                "{name}"
            );
            assert!(chrome.render().contains("\"ph\":\"X\""), "{name}");
            for (out, trace) in [(&e2e, false), (&layers, true)] {
                let doc = result_json(out, trace).render();
                assert!(doc.starts_with("{\"correct\":true,\"attempted\":"), "{doc}");
                for (m, unit, _, _) in defs(trace) {
                    let want = format!("\"{m}\":{{\"value\":");
                    let at = doc.find(&want).unwrap_or_else(|| panic!("{m} missing"));
                    let tail = &doc[at..];
                    let end = tail.find('}').expect("closed metric");
                    assert!(
                        tail[..end].ends_with(&format!("\"unit\":\"{unit}\"")),
                        "{m}"
                    );
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let (head, layers) = doc.split_once("\"per_layer\"").expect("per_layer section");
        let e2e = head
            .split_once("\"end_to_end\"")
            .expect("end_to_end section")
            .1;
        let entry = |name: &str, unit: &str, better: &str| {
            format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\""
            )
        };
        for m in END_TO_END {
            let want = format!(
                "{},\n      \"bound\": {}",
                entry(m.name, m.unit, m.better),
                m.bound
            );
            assert!(e2e.contains(&want), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                layers.contains(&entry(m.name, m.unit, m.better)),
                "{}",
                m.name
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        for w in workloads::WORKLOADS {
            assert!(head.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(head.matches("\"why\"").count(), workloads::WORKLOADS.len());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload mg2_latency --seed 4 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (4, 3, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload mg2_latency").is_err());
        assert!(args("--workload mg2_latency --seed 1 --trace 2").is_err());
        assert!(args("--workload mg2_latency --seed x").is_err());
        assert!(args("--workload mg2_latency --seed 1 --bogus 1").is_err());
    }
}
