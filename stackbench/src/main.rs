//! `stackbench`: one benchmark for the live CPMS stack.
//!
//! ```text
//! stackbench --workload <small_zipf|large_objects|placement_churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the stack in this process (controller → brokers → stores →
//! origins → proxy, over loopback TCP), places a seeded corpus through
//! the controller, and drives it from a child process with a seeded
//! open-loop GET stream. With `--trace 0` it reports the end-to-end
//! metrics and appends them to `trajectory.jsonl`; with `--trace 1` it
//! repeats the run with spans recorded around every call it makes into
//! the crates and reports the per-layer ledger. The last stdout line is
//! one JSON object; the lines before it are the human-readable report.
//! See `README.md` beside this file for the metrics and workloads.

mod churn;
mod cluster;
mod gen;
mod layers;
mod sys;
mod workload;

use cluster::{Object, Stack};
use gen::{GenResult, Phase, Plan};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per untraced run; `setup_s` is their median. The first stack
/// is the one measured, so that its process holds no memory left by
/// earlier stacks; the others are set up and shut down after it.
const SETUPS: usize = 3;

/// Warm-up before the measured phase: pools fill, caches warm.
const WARM_S: f64 = 1.0;

/// Share of `--seconds` spent in the measured phase on workloads with a
/// goodput ladder; the ladder takes the rest.
const MEASURED_SHARE: f64 = 0.6;

/// GETs per measured window: enough that its p99 has ten samples beyond.
const WINDOW_GETS: f64 = 1000.0;

/// Trials of each goodput-ladder step.
const TRIALS: usize = 2;

/// Quiet time before each ladder trial, so each starts drained.
const STEP_GAP_S: f64 = 0.15;

/// A GET answered later than this counts as failed.
const GET_DEADLINE_MS: u64 = 1000;

/// The generator is invalid, not the stack slow, if its own p99 send
/// lateness in the measured phase exceeds this.
const GEN_LATE_LIMIT_MS: f64 = 10.0;

/// One recorded span: the benchmark's own timing around a call into a
/// crate, kept in memory and written out when the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub request: u64,
}

/// Writes spans as JSON lines.
pub fn write_spans(file: &str, spans: &[Span]) {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}\n",
            i + 1,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.request
        ));
    }
    std::fs::write(file, out).unwrap_or_else(|e| panic!("write spans to {file}: {e}"));
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted figures.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

pub fn elapsed_ns(start: Instant) -> u64 {
    nanos(start.elapsed())
}

/// Where the benchmark keeps its outputs: beside its own sources.
fn bench_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), which decides what the result line
/// carries.
fn contract(list: &str) -> Vec<(String, String)> {
    let file = bench_dir().join("..").join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(serde_json::Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(serde_json::Value::as_str)
                    .unwrap_or_else(|| panic!("a {list} entry lacks {key}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The measured metrics `BENCHMARK.json` lists under `list`, in its
/// order. A listed metric that was not measured, or whose unit differs,
/// ends the run with an error.
fn select(list: &str, measured: Vec<Metric>) -> Vec<Metric> {
    contract(list)
        .into_iter()
        .map(|(name, unit)| {
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| {
                    eprintln!("stackbench: BENCHMARK.json lists {name}, which this workload does not measure");
                    std::process::exit(1);
                });
            if m.unit != unit {
                eprintln!(
                    "stackbench: BENCHMARK.json gives {name} in {unit}, the benchmark measures it in {}",
                    m.unit
                );
                std::process::exit(1);
            }
            Metric { name: m.name, value: m.value, unit: m.unit }
        })
        .collect()
}

struct Opts {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("stackbench: {msg}");
    eprintln!(
        "usage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        workload::find(value)
                            .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                    );
                }
                "--seed" => seed = value.parse().ok(),
                "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s >= 1.0),
                "--trace" => trace = Some(value == "1"),
                _ => usage(&format!("unknown flag {flag}")),
            }
        }
        Opts {
            workload: workload.unwrap_or_else(|| usage("--workload is required")),
            seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds must be a number >= 1")),
            trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        }
    }
}

/// The schedule the generator replays, all of it open loop. The
/// measured phase is a run of windows of [`WINDOW_GETS`] requests each at
/// the reference rate; latency figures are medians over the windows, so
/// one stall on a shared host does not decide a run. Untraced, the
/// goodput ladder follows, on workloads that have one: every step is
/// tried [`TRIALS`] times, the rounds interleaved so that each trial of a
/// step meets different background noise. Traced, each window is split
/// into a half with the stack's spans off and a half with them on,
/// alternating, so the difference of their medians is the tracing
/// overhead.
fn phases(w: &Workload, seconds: f64, trace: bool) -> Vec<Phase> {
    let phase = |name: String, start_s: f64, end_s: f64, rps: f64, traced: bool| Phase {
        name,
        start_s,
        end_s,
        rps,
        traced,
    };
    let window_s = WINDOW_GETS / w.ref_rps;
    let share = if w.ladder.is_empty() {
        1.0
    } else {
        MEASURED_SHARE
    };
    let windows = ((seconds * share / window_s).floor() as usize).max(1);
    let mut out = vec![phase("warm".into(), 0.0, WARM_S, w.ref_rps, false)];
    let mut t = WARM_S;
    for i in 0..windows {
        if trace {
            let mid = t + window_s / 2.0;
            out.push(phase(format!("plain{i}"), t, mid, w.ref_rps, false));
            out.push(phase(format!("ref{i}"), mid, t + window_s, w.ref_rps, true));
        } else {
            out.push(phase(format!("ref{i}"), t, t + window_s, w.ref_rps, false));
        }
        t += window_s;
    }
    if trace || w.ladder.is_empty() {
        return out;
    }
    let slot = (seconds - windows as f64 * window_s).max(0.0) / (TRIALS * w.ladder.len()) as f64;
    for (k, &rps) in w.ladder.iter().enumerate() {
        for trial in 0..TRIALS {
            t += STEP_GAP_S;
            let end = t + (slot - STEP_GAP_S).max(STEP_GAP_S);
            out.push(phase(format!("step{k}.{trial}"), t, end, rps, false));
            t = end;
        }
    }
    out
}

/// Everything one run measured.
pub struct Measured {
    /// Seconds of the measured stack's set-up (more are added after).
    pub setups_s: Vec<f64>,
    /// Checksum the controller recorded per corpus object, by rank.
    pub checksums: Vec<u64>,
    pub gen: GenResult,
    pub admin: Vec<churn::OpRecord>,
    pub server_cpu_pct: f64,
    /// Peak RSS of the server process over the measured phase.
    pub server_rss_bytes: u64,
    pub served: u64,
}

/// Starts the stack and places the corpus through the controller:
/// the stack, the set-up's wall time in seconds, and the checksums.
fn set_up(corpus: &[Object]) -> (Stack, f64, Vec<u64>) {
    let start = Instant::now();
    let mut stack = Stack::start();
    let checksums = stack.publish(corpus);
    (stack, start.elapsed().as_secs_f64(), checksums)
}

/// Sets up, drives the GET stream from the child, and runs the admin
/// stream beside it. Traced, it switches the stack's spans on and off
/// with the phases.
fn measure(opts: &Opts, corpus: &[Object]) -> (Stack, Measured) {
    let w = opts.workload;
    let (mut stack, setup_s, checksums) = set_up(corpus);
    let phases = phases(w, opts.seconds, opts.trace);
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let plan = Plan {
        proxy: stack.proxy.addr(),
        seed: opts.seed,
        deadline_ms: GET_DEADLINE_MS,
        alpha: w.alpha,
        phases: phases.clone(),
        objects: corpus
            .iter()
            .zip(&checksums)
            .map(|(o, &sum)| (o.url.to_string(), sum))
            .collect(),
        span_file: opts.trace.then(|| {
            out_dir
                .join(format!("gen-spans-{}-{}.jsonl", w.name, opts.seed))
                .to_string_lossy()
                .into_owned()
        }),
    };
    let served0 = stack.origin_served();
    let mut child = Command::new(std::env::current_exe().expect("own executable"))
        .arg("--drive")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn generator");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(plan.encode().as_bytes())
        .expect("send plan to generator");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut next_line = || match lines.next() {
        Some(Ok(line)) => line,
        _ => {
            let _ = child.kill();
            let status = child.wait();
            eprintln!("stackbench: generator ended without a result ({status:?})");
            std::process::exit(1);
        }
    };
    let go_line = next_line();
    assert_eq!(go_line, "go", "generator handshake");
    let go = Instant::now();
    let measured_from = go + Duration::from_secs_f64(WARM_S);
    let measured_to = go
        + Duration::from_secs_f64(
            phases
                .iter()
                .filter(|p| p.name.starts_with("ref"))
                .map(|p| p.end_s)
                .fold(WARM_S, f64::max),
        );
    let (admin, server_cpu_pct, server_rss_bytes) = std::thread::scope(|scope| {
        let spans = &stack.spans;
        let controller = &mut stack.controller;
        let admin = (w.admin_ops_per_s > 0.0).then(|| {
            scope.spawn(move || {
                churn::run(
                    controller,
                    corpus,
                    opts.seed,
                    w.admin_ops_per_s,
                    measured_from,
                    measured_to - measured_from,
                )
            })
        });
        sleep_until(measured_from);
        let cpu0 = sys::process_cpu();
        sys::reset_peak_rss();
        if opts.trace {
            for p in phases.iter().filter(|p| p.start_s >= WARM_S) {
                sleep_until(go + Duration::from_secs_f64(p.start_s));
                spans.set(p.traced);
            }
        }
        sleep_until(measured_to);
        let cpu = sys::process_cpu().saturating_sub(cpu0);
        let rss = sys::peak_rss_bytes();
        let pct = cpu.as_secs_f64() / (measured_to - measured_from).as_secs_f64() * 100.0;
        let records = admin
            .map(|h| h.join().expect("admin stream panicked"))
            .unwrap_or_default();
        (records, pct, rss)
    });
    let mut gen = GenResult::default();
    loop {
        let line = next_line();
        if line == "done" {
            break;
        }
        gen.parse_line(&line);
    }
    stack.spans.set(true);
    let status = child.wait().expect("wait for generator");
    if !status.success() {
        eprintln!("stackbench: generator failed ({status})");
        std::process::exit(1);
    }
    let served = stack.origin_served() - served0;
    (
        stack,
        Measured {
            setups_s: vec![setup_s],
            checksums,
            gen,
            admin,
            server_cpu_pct,
            server_rss_bytes,
            served,
        },
    )
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// A reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The highest ladder step at which p99 met the limit, no GET failed and
/// the backlog did not grow, with every lower step passing too. A step
/// passes when any of its trials does: a trial can fail on a neighbour's
/// burst on a shared host, but only a saturated stack fails them all.
fn goodput(w: &Workload, gen: &GenResult) -> (f64, Vec<String>) {
    let mut best = 0.0;
    let mut broken = false;
    let mut notes = Vec::new();
    for (k, &rps) in w.ladder.iter().enumerate() {
        let backlog_cap = (rps * w.p99_limit_ms / 1e3).max(8.0) as u64;
        let mut pass = false;
        for trial in 0..TRIALS {
            let p = gen
                .phases
                .iter()
                .find(|p| p.name == format!("step{k}.{trial}"))
                .expect("generator reports every ladder trial");
            let ok = p.failed() == 0 && ms(p.p99_ns) <= w.p99_limit_ms && p.backlog <= backlog_cap;
            pass |= ok;
            notes.push(format!(
                "ladder {rps:>7.0}/s trial {trial}: {} GETs, failed {}, p50 {:.3} ms, p99 {:.3} ms, backlog {} -> {}",
                p.sent,
                p.failed(),
                ms(p.p50_ns),
                ms(p.p99_ns),
                p.backlog,
                if ok { "pass" } else { "fail" }
            ));
        }
        if pass && !broken {
            best = rps;
        } else {
            broken = true;
        }
    }
    (best, notes)
}

/// Admin latency (sorted), attempted and failed operations, and
/// shipping throughput of the open-loop admin stream. Only
/// `placement_churn` has one; `None` elsewhere.
fn admin_figures(m: &Measured) -> Option<(Vec<u64>, u64, u64, f64)> {
    if m.admin.is_empty() {
        return None;
    }
    let mut lat: Vec<u64> = m.admin.iter().map(|r| r.latency_ns).collect();
    lat.sort_unstable();
    let failed = m.admin.iter().filter(|r| !r.ok).count() as u64;
    let shipping: Vec<&churn::OpRecord> = m
        .admin
        .iter()
        .filter(|r| matches!(r.op, "publish" | "replicate" | "update") || r.bytes > 0)
        .collect();
    let bytes: u64 = shipping.iter().map(|r| r.bytes).sum();
    let busy: u64 = shipping.iter().map(|r| r.service_ns).sum();
    Some((
        lat,
        m.admin.len() as u64,
        failed,
        bytes as f64 / 1e6 / (busy as f64 / 1e9),
    ))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--drive") {
        gen::drive();
    }
    let opts = Opts::parse(&args);
    let w = opts.workload;
    let corpus = w.corpus(opts.seed);
    println!(
        "# stackbench {} seed={} seconds={} trace={} — loopback TCP, {} nodes, {} objects, generator {} threads/connections, host cores {}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        cluster::NODES,
        corpus.len(),
        gen::THREADS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let (mut stack, mut m) = measure(&opts, &corpus);

    let (windows, reference) = m.gen.windows("ref");
    let mut measured = reference.clone();
    if opts.trace {
        let (_, plain) = m.gen.windows("plain");
        measured.sent += plain.sent;
        measured.non200 += plain.non200;
        measured.conn_errors += plain.conn_errors;
        measured.late += plain.late;
    }
    let all_sent: u64 = m.gen.phases.iter().map(|p| p.sent).sum();
    let all_failed: u64 = m.gen.phases.iter().map(gen::PhaseResult::failed).sum();
    let all_ok: u64 = m.gen.phases.iter().map(|p| p.ok + p.late).sum();
    let all_conn: u64 = m.gen.phases.iter().map(|p| p.conn_errors).sum();
    let admin = admin_figures(&m);
    let (admin_attempted, admin_failed) = admin.as_ref().map_or((0, 0), |a| (a.1, a.2));
    let get_fail_ratio = measured.failed() as f64 / measured.sent as f64;
    let admin_fail_ratio = admin_failed as f64 / admin_attempted.max(1) as f64;
    let gen_late_ms = ms(reference.late_p99_ns);
    // The JSON counts the GETs of the measured phase and the admin
    // stream's operations. Warm-up and the goodput ladder are left out
    // (the ladder overloads the stack on purpose, so its failures are
    // reported on their own), and so is the corpus publish of set-up,
    // which ends the run if any publish fails.
    let attempted = measured.sent + admin_attempted;
    let failed = measured.failed() + admin_failed;

    println!(
        "GETs in the measured phase: attempted {}, succeeded {}, failed {} ({} non-200, {} connection errors, {} past the {GET_DEADLINE_MS} ms deadline) in {} windows",
        measured.sent,
        measured.sent - measured.failed(),
        measured.failed(),
        measured.non200,
        measured.conn_errors,
        measured.late,
        windows,
    );
    println!(
        "GETs in all phases (warm-up and ladder too): attempted {all_sent}, succeeded {}, failed {all_failed}",
        all_sent - all_failed
    );
    println!(
        "measured windows p50/p99 ms: {}",
        m.gen
            .phases
            .iter()
            .filter(|p| p.name.starts_with("ref") || p.name.starts_with("plain"))
            .map(|p| format!("{:.3}/{:.3}", ms(p.p50_ns), ms(p.p99_ns)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if admin.is_some() {
        println!(
            "admin ops: attempted {admin_attempted}, succeeded {}, failed {admin_failed} ({})",
            admin_attempted - admin_failed,
            churn::OPS
                .iter()
                .map(|op| format!("{op} {}", m.admin.iter().filter(|r| r.op == *op).count()))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "generator: p99 send lateness {gen_late_ms:.3} ms (median over windows), cpu {:.1}%",
        m.gen.cpu_pct
    );

    // Correctness: every 200 body was verified by the generator; the
    // origins must have served every 200 the generator received, and at
    // most as many more as were lost with a broken connection.
    if m.served < all_ok || m.served > all_ok + all_conn {
        eprintln!(
            "stackbench: origins served {} GETs with 200 but the generator received {all_ok} ({all_conn} lost to connection errors)",
            m.served
        );
        std::process::exit(1);
    }
    if gen_late_ms > GEN_LATE_LIMIT_MS {
        eprintln!(
            "stackbench: run invalid — the generator's p99 send lateness {gen_late_ms:.3} ms exceeds its {GEN_LATE_LIMIT_MS} ms limit"
        );
        std::process::exit(1);
    }

    let metrics = if opts.trace {
        let ledger = layers::probe(
            &mut stack,
            &corpus,
            &m,
            w,
            opts.seed,
            get_fail_ratio,
            admin_fail_ratio,
        );
        stack.shutdown();
        select("per_layer", ledger)
    } else {
        stack.shutdown();
        for _ in 1..SETUPS {
            let (again, setup_s, _) = set_up(&corpus);
            m.setups_s.push(setup_s);
            again.shutdown();
        }
        println!(
            "setup_s per set-up: {}",
            m.setups_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let metric = |name, value, unit| Metric { name, value, unit };
        let mut metrics = vec![
            metric("setup_s", median(&m.setups_s), "s"),
            metric("get_p50_ms", ms(reference.p50_ns), "ms"),
            metric("get_p90_ms", ms(reference.p90_ns), "ms"),
            metric("get_p99_ms", ms(reference.p99_ns), "ms"),
            metric("get_fail_ratio", get_fail_ratio, "ratio"),
            metric("server_cpu_pct", m.server_cpu_pct, "%"),
            metric(
                "server_rss_mb",
                m.server_rss_bytes as f64 / (1 << 20) as f64,
                "MB",
            ),
        ];
        if !w.ladder.is_empty() {
            let (goodput, notes) = goodput(w, &m.gen);
            for n in &notes {
                println!("{n}");
            }
            metrics.push(metric("get_goodput_rps", goodput, "1/s"));
        }
        if let Some((lat, _, _, ship_mb_s)) = &admin {
            metrics.extend([
                metric("admin_p50_ms", ms(pct(lat, 0.50)), "ms"),
                metric("admin_p90_ms", ms(pct(lat, 0.90)), "ms"),
                metric("admin_fail_ratio", admin_fail_ratio, "ratio"),
                metric("ship_mb_s", *ship_mb_s, "MB/s"),
            ]);
        }
        for x in &metrics {
            println!("{:<18} {:>14.6} {}", x.name, x.value, x.unit);
        }
        let line = format!(
            "{{\"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"metrics\": {{{}}}}}\n",
            git_rev(),
            w.name,
            opts.seed,
            opts.seconds,
            metrics_json(&metrics)
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(bench_dir().join("trajectory.jsonl"))
            .expect("open trajectory");
        file.write_all(line.as_bytes()).expect("append trajectory");
        select("end_to_end", metrics)
    };
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json(&metrics)
    );
}
