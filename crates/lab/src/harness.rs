//! The lab run itself: bring up a real-process cluster, replay the
//! scenario's request stream through the proxy while firing its fault
//! timeline, scrape every process's metrics surface into one merged
//! timeline, then evaluate the scripted assertions.
//!
//! The pass/fail contract (see [`crate::scenario::AssertionSpec`]):
//!
//! - **zero misrouted requests** — a 200 carrying a *different* object's
//!   body is an unconditional failure, the paper's routing invariant;
//! - **bounded failures** — 502/503/transport errors and corrupt bodies
//!   served while a fault is live must fit `max_failed_requests`;
//! - **anti-entropy convergence** — after the stream ends (and dead
//!   nodes are evicted), `repair` + `audit` must reach a clean audit
//!   within `converge_within_ms`;
//! - **final sweep** — every surviving object then serves its exact
//!   published body;
//! - **generation monotonicity** — the proxy's scraped
//!   `urltable_generation` gauge never goes backwards;
//! - **SLO breach-then-clear** — when `expect_slo_breach` is scripted,
//!   the fault timeline must trip the proxy's in-process SLO watchdog
//!   (`slo_breach_total >= 1` on the scraped timeline) and every
//!   `slo_state_*` verdict gauge must return to Ok after the faults
//!   heal.
//!
//! Each timeline sample carries the process's `/_cpms/metrics.json`
//! *and* `/_cpms/series.json` (flight-recorder) payloads; both are
//! stamped with a per-surface `scrape_seq` and process uptime, so the
//! timeline can be ordered without trusting the scraper's clock.

use crate::process::{spawn_broker, spawn_proxy, BrokerProc, ProxyProc};
use crate::scenario::{FaultAction, Scenario, Shape};
use crate::traces::TraceStore;
use cpms_httpd::client::HttpClient;
use cpms_httpd::{METRICS_JSON_PATH, SERIES_JSON_PATH, TRACE_JSON_PATH};
use cpms_mgmt::admin::AdminClient;
use cpms_model::ContentId;
use cpms_store::{fnv64, hex_encode, synthetic_body};
use cpms_workload::{Diurnal, FlashCrowd, FlashSpec};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One evaluated assertion.
#[derive(Debug)]
pub struct Check {
    /// Short assertion name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The outcome of a lab run.
#[derive(Debug)]
pub struct LabReport {
    /// Every evaluated assertion, in run order.
    pub checks: Vec<Check>,
    /// Where the merged metrics timeline was written.
    pub timeline_path: Option<PathBuf>,
    /// Where the merged cross-process traces were written.
    pub traces_path: Option<PathBuf>,
}

impl LabReport {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Renders the report as a terminal summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for check in &self.checks {
            let verdict = if check.pass { "PASS" } else { "FAIL" };
            out.push_str(&format!("{verdict}  {:<22} {}\n", check.name, check.detail));
        }
        if let Some(path) = &self.timeline_path {
            out.push_str(&format!("timeline: {}\n", path.display()));
        }
        if let Some(path) = &self.traces_path {
            out.push_str(&format!("traces: {}\n", path.display()));
        }
        out.push_str(if self.passed() {
            "lab: all assertions held\n"
        } else {
            "lab: ASSERTIONS FAILED\n"
        });
        out
    }
}

/// How one workload response was classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// 200 with the exact published body.
    Ok,
    /// 200 with a *different* object's body — the routing invariant broke.
    Misrouted {
        /// The object that was actually served.
        got: usize,
    },
    /// 200 with bytes matching no published object (live corruption).
    CorruptServed,
    /// 503: the table had no routable location.
    Unroutable,
    /// Any other status (502 backend failure, …).
    Failed {
        /// The HTTP status.
        status: u16,
    },
}

/// Classifies one response against the published catalogue. Pure so it
/// can be unit-tested without a cluster.
pub fn classify(
    expected: usize,
    status: u16,
    body: &[u8],
    hash_to_object: &HashMap<u64, usize>,
) -> Outcome {
    match status {
        200 => match hash_to_object.get(&fnv64(body)) {
            Some(&got) if got == expected => Outcome::Ok,
            Some(&got) => Outcome::Misrouted { got },
            None => Outcome::CorruptServed,
        },
        503 => Outcome::Unroutable,
        other => Outcome::Failed { status: other },
    }
}

/// Returns the first index where the sequence decreases, if any. The
/// generation-monotonicity assertion over scraped gauges.
pub fn first_regression(generations: &[u64]) -> Option<usize> {
    generations
        .windows(2)
        .position(|w| w[1] < w[0])
        .map(|i| i + 1)
}

/// Tallies from the replay phase.
#[derive(Debug, Default)]
struct Tally {
    ok: usize,
    misrouted: usize,
    corrupt: usize,
    unroutable: usize,
    failed: usize,
    transport: usize,
    misroute_details: Vec<String>,
}

impl Tally {
    fn budget_spend(&self) -> usize {
        self.corrupt + self.unroutable + self.failed + self.transport
    }
}

/// One merged-timeline sample: a process's metrics and flight-recorder
/// surfaces at a request index. `scrape_seq`/`uptime_micros` ride
/// inside both payloads, so consumers can order samples per (source,
/// surface) without trusting the lab's wall clock.
#[derive(Debug)]
struct Sample {
    at_request: usize,
    source: String,
    metrics: Value,
    series: Option<Value>,
}

/// Runs a scenario end to end and reports. Spawns one watchdog thread
/// that aborts the whole process (exit code 3) past
/// `wall_clock_cap_ms` — children self-reap via their stdin pipes.
///
/// # Errors
///
/// Infrastructure failures (spawn, handshake, admin transport). Failed
/// *assertions* are not errors; they land in the report.
pub fn run(scenario: &Scenario) -> Result<LabReport, String> {
    let started = Instant::now();
    let finished = Arc::new(AtomicBool::new(false));
    let cap = Duration::from_millis(scenario.assertions.wall_clock_cap_ms);
    {
        let finished = Arc::clone(&finished);
        let name = scenario.name.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + cap;
            while Instant::now() < deadline {
                if finished.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            if !finished.load(Ordering::SeqCst) {
                eprintln!(
                    "cpms-lab: scenario {name:?} blew its {} ms wall-clock cap; aborting",
                    cap.as_millis()
                );
                // Children die with us: their stdin pipes close on exit.
                std::process::exit(3);
            }
        });
    }

    let lab_dir =
        std::env::temp_dir().join(format!("cpms-lab-{}-{}", std::process::id(), scenario.name));
    std::fs::create_dir_all(&lab_dir).map_err(|e| format!("create lab dir: {e}"))?;

    let result = run_inner(scenario, &lab_dir, started);
    finished.store(true, Ordering::SeqCst);
    result
}

fn run_inner(scenario: &Scenario, lab_dir: &Path, started: Instant) -> Result<LabReport, String> {
    // ---- bring-up: real broker and proxy processes -------------------
    let mut brokers: Vec<BrokerProc> = Vec::new();
    for (i, node) in scenario.nodes.iter().enumerate() {
        let store_dir = if node.durable() {
            let dir = lab_dir.join(format!("node{i}"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("create store dir: {e}"))?;
            Some(dir)
        } else {
            None
        };
        brokers.push(spawn_broker(
            i as u16,
            node.disk_mb(),
            store_dir.as_deref(),
        )?);
    }
    let pairs: Vec<(SocketAddr, SocketAddr)> = brokers.iter().map(|b| (b.wire, b.http)).collect();
    let proxy: ProxyProc = spawn_proxy(&pairs)?;
    let mut admin = AdminClient::connect(proxy.admin).map_err(|e| format!("connect admin: {e}"))?;
    eprintln!(
        "cpms-lab: {} broker(s) + proxy up in {} ms",
        brokers.len(),
        started.elapsed().as_millis()
    );

    // ---- publish the object catalogue --------------------------------
    let n_objects = scenario.objects.count;
    let n_nodes = scenario.nodes.len();
    let replicas = scenario.objects.replicas;
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(n_objects);
    let mut hash_to_object: HashMap<u64, usize> = HashMap::new();
    for i in 0..n_objects {
        let placement: Vec<String> = (0..replicas)
            .map(|k| ((i + k) % n_nodes).to_string())
            .collect();
        let cmd = format!(
            "publish /obj/{i}.html html {} {}",
            scenario.objects.size_bytes,
            placement.join(",")
        );
        let resp = admin
            .send(&cmd)
            .map_err(|e| format!("admin publish: {e}"))?;
        if !resp.ok || resp.output.starts_with("error:") {
            return Err(format!("publish /obj/{i}.html failed: {}", resp.output));
        }
        // The proxy shell assigns ContentIds sequentially from 0, and
        // the controller ships synthetic bodies — so the expected bytes
        // are reproducible here without any side channel.
        let body = synthetic_body(ContentId(i as u32), scenario.objects.size_bytes);
        hash_to_object.insert(fnv64(&body), i);
        bodies.push(body);
    }
    eprintln!("cpms-lab: published {n_objects} object(s), {replicas} replica(s) each");

    // ---- replay the request stream with the fault timeline -----------
    let mut stream = build_stream(scenario);
    let faults = scenario.faults();
    let mut next_fault = 0usize;
    let mut killed: HashSet<u16> = HashSet::new();
    let mut tally = Tally::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut generations: Vec<u64> = Vec::new();
    let mut traces = TraceStore::default();
    let scrape_every = (scenario.workload.requests / 16).max(1);
    let mut client = HttpClient::connect(proxy.http).map_err(|e| format!("connect proxy: {e}"))?;

    for r in 0..scenario.workload.requests {
        while next_fault < faults.len() && faults[next_fault].at_request <= r {
            fire_fault(&faults[next_fault], &mut brokers, &mut admin, &mut killed)?;
            next_fault += 1;
        }
        let object = stream.next().expect("streams are infinite");
        let path = format!("/obj/{object}.html");
        match client.get(&path) {
            Ok(resp) => match classify(object, resp.status, &resp.body, &hash_to_object) {
                Outcome::Ok => tally.ok += 1,
                Outcome::Misrouted { got } => {
                    tally.misrouted += 1;
                    if tally.misroute_details.len() < 3 {
                        tally
                            .misroute_details
                            .push(format!("r{r}: wanted /obj/{object}.html, got object {got}"));
                    }
                }
                Outcome::CorruptServed => tally.corrupt += 1,
                Outcome::Unroutable => tally.unroutable += 1,
                Outcome::Failed { .. } => tally.failed += 1,
            },
            Err(_) => {
                tally.transport += 1;
                // The persistent connection may be wedged; start fresh.
                if let Ok(fresh) = HttpClient::connect(proxy.http) {
                    client = fresh;
                }
            }
        }
        if r % scrape_every == 0 || r + 1 == scenario.workload.requests {
            scrape(
                r,
                proxy.http,
                &brokers,
                &killed,
                &mut samples,
                &mut generations,
                &mut traces,
            );
        }
    }
    eprintln!(
        "cpms-lab: replay done — {} ok, {} misrouted, {} corrupt, {} unroutable, {} failed, {} transport",
        tally.ok, tally.misrouted, tally.corrupt, tally.unroutable, tally.failed, tally.transport
    );

    // ---- convergence: evict the dead, repair, audit until clean ------
    for i in 0..n_nodes {
        // Chaos ends with the stream: disarm every link fault so
        // anti-entropy runs over a healthy (if degraded) cluster.
        let _ = admin.send(&format!("heal n{i}"));
    }
    for &node in &killed {
        let resp = admin
            .send(&format!("evict n{node}"))
            .map_err(|e| format!("admin evict: {e}"))?;
        if !resp.ok {
            return Err(format!("evict n{node} failed: {}", resp.output));
        }
        eprintln!("cpms-lab: {}", resp.output);
    }
    let converge_started = Instant::now();
    let deadline = converge_started + Duration::from_millis(scenario.assertions.converge_within_ms);
    let mut converged = false;
    let mut last_audit = String::new();
    while Instant::now() < deadline {
        let _ = admin.send("repair");
        let audit = admin
            .send("audit")
            .map_err(|e| format!("admin audit: {e}"))?;
        last_audit = audit.output.clone();
        if audit.ok {
            converged = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    let converge_ms = converge_started.elapsed().as_millis();
    if let Ok(resp) = admin.send("generation") {
        if let Ok(generation) = resp.output.trim().parse::<u64>() {
            generations.push(generation);
        }
    }

    // ---- SLO watchdog: the breach must clear once chaos stops --------
    // The proxy's default rules watch 2-second error-rate windows, so
    // after the faults are healed and the stream ends, every
    // `slo_state_*` gauge must drain back to Ok. Polled via the admin
    // plane so the verdicts come from the proxy's own watchdog, not
    // from any lab-side re-derivation. Gauges only count as cleared
    // once `slo_breach_total` shows the breach: a short stream can end
    // before the watchdog's next evaluation has seen the fault.
    let mut slo_cleared = false;
    let mut slo_clear_ms = 0u128;
    if scenario.assertions.expect_slo_breach() {
        let clear_started = Instant::now();
        let deadline =
            clear_started + Duration::from_millis(scenario.assertions.converge_within_ms);
        while Instant::now() < deadline {
            if let Ok(resp) = admin.send("metrics") {
                if let Ok(metrics) = serde_json::from_str::<Value>(&resp.output) {
                    let breached = metrics
                        .get("counters")
                        .and_then(|c| c.get("slo_breach_total"))
                        .and_then(Value::as_u64)
                        .is_some_and(|n| n >= 1);
                    let clear = breached
                        && metrics
                            .get("gauges")
                            .and_then(Value::as_object)
                            .is_some_and(|gauges| {
                                gauges
                                    .iter()
                                    .filter(|(name, _)| name.starts_with("slo_state_"))
                                    .all(|(_, state)| state.as_i64() == Some(0))
                            });
                    if clear {
                        slo_cleared = true;
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        slo_clear_ms = clear_started.elapsed().as_millis();
    }

    // ---- final sweep: every surviving object serves exact bytes ------
    let mut sweep_bad: Vec<String> = Vec::new();
    let mut sweep_checked = 0usize;
    let mut sweep = HttpClient::connect(proxy.http).map_err(|e| format!("connect proxy: {e}"))?;
    for (i, body) in bodies.iter().enumerate().take(n_objects) {
        let all_replicas_dead =
            (0..replicas).all(|k| killed.contains(&(((i + k) % n_nodes) as u16)));
        if all_replicas_dead {
            continue; // evicted with its last copy; nothing to assert
        }
        sweep_checked += 1;
        let path = format!("/obj/{i}.html");
        match sweep.get(&path) {
            Ok(resp) if resp.status == 200 && resp.body == *body => {}
            Ok(resp) => sweep_bad.push(format!("{path}: status {} wrong bytes", resp.status)),
            Err(e) => sweep_bad.push(format!("{path}: {e}")),
        }
    }
    scrape(
        scenario.workload.requests,
        proxy.http,
        &brokers,
        &killed,
        &mut samples,
        &mut generations,
        &mut traces,
    );

    // ---- write the merged timeline and evaluate assertions -----------
    let timeline_path = lab_dir.join("timeline.json");
    let timeline = Value::Array(
        samples
            .iter()
            .map(|s| {
                serde_json::json!({
                    "at_request": s.at_request,
                    "source": s.source,
                    "metrics": s.metrics,
                    "series": s.series.clone().unwrap_or(Value::Null),
                })
            })
            .collect(),
    );
    let timeline_written = serde_json::to_string_pretty(&timeline)
        .ok()
        .and_then(|text| std::fs::write(&timeline_path, text).ok())
        .is_some();
    let traces_path = lab_dir.join("traces.json");
    let traces_written = serde_json::to_string_pretty(&traces.to_json())
        .ok()
        .and_then(|text| std::fs::write(&traces_path, text).ok())
        .is_some();
    let summaries = traces.analyze();

    let budget = scenario.assertions.max_failed_requests;
    let mut checks = vec![
        Check {
            name: "zero-misrouted",
            pass: tally.misrouted == 0,
            detail: if tally.misrouted == 0 {
                format!("{} requests, none misrouted", scenario.workload.requests)
            } else {
                format!(
                    "{} misrouted: {}",
                    tally.misrouted,
                    tally.misroute_details.join("; ")
                )
            },
        },
        Check {
            name: "failure-budget",
            pass: tally.budget_spend() <= budget,
            detail: format!(
                "{} failed ({} corrupt, {} unroutable, {} failed, {} transport) vs budget {budget}",
                tally.budget_spend(),
                tally.corrupt,
                tally.unroutable,
                tally.failed,
                tally.transport
            ),
        },
        Check {
            name: "anti-entropy-converges",
            pass: converged,
            detail: if converged {
                format!("clean audit after {converge_ms} ms")
            } else {
                format!(
                    "no clean audit within {} ms; last: {}",
                    scenario.assertions.converge_within_ms,
                    last_audit.lines().next().unwrap_or("(empty)")
                )
            },
        },
        Check {
            name: "final-sweep-exact",
            pass: sweep_bad.is_empty(),
            detail: if sweep_bad.is_empty() {
                format!("{sweep_checked} object(s) serve exact published bytes")
            } else {
                sweep_bad.join("; ")
            },
        },
    ];
    let regression = first_regression(&generations);
    checks.push(Check {
        name: "generation-monotone",
        pass: regression.is_none(),
        detail: match regression {
            None => format!(
                "{} samples, {} → {}",
                generations.len(),
                generations.first().copied().unwrap_or(0),
                generations.last().copied().unwrap_or(0)
            ),
            Some(i) => format!(
                "regressed at sample {i}: {} after {}",
                generations[i],
                generations[i - 1]
            ),
        },
    });
    checks.push(Check {
        name: "timeline-captured",
        pass: timeline_written && samples.iter().any(|s| s.source == "proxy"),
        detail: format!("{} sample(s) from proxy + origins", samples.len()),
    });
    // Tracing assertions over the merged span store. Orphans (a span
    // whose parent appears in no process's dump) mean a propagation hop
    // broke; the cross-process floor proves context actually rode the
    // wire and HTTP hops instead of each process rooting its own traces.
    let orphan_traces: Vec<&crate::traces::TraceSummary> =
        summaries.iter().filter(|s| s.orphans > 0).collect();
    checks.push(Check {
        name: "trace-no-orphans",
        pass: orphan_traces.is_empty(),
        detail: if orphan_traces.is_empty() {
            format!(
                "{} trace(s), {} span(s), every parent resolved",
                summaries.len(),
                traces.len()
            )
        } else {
            format!(
                "{} trace(s) with orphan spans, e.g. {}",
                orphan_traces.len(),
                orphan_traces[0].trace
            )
        },
    });
    let min_processes = scenario.assertions.min_trace_processes();
    let widest = summaries.first();
    let widest_count = widest.map_or(0, |s| s.processes.len());
    checks.push(Check {
        name: "trace-cross-process",
        pass: widest_count >= min_processes,
        detail: match widest {
            Some(s) if s.processes.len() >= min_processes => format!(
                "{} ({} span(s)) crossed {} process(es): {}",
                s.root_name.as_deref().unwrap_or("?"),
                s.span_count,
                s.processes.len(),
                s.processes.iter().cloned().collect::<Vec<_>>().join(", ")
            ),
            _ => format!("widest trace crossed {widest_count} < {min_processes} process(es)"),
        },
    });
    // SLO breach-then-clear: the scripted fault must have tripped the
    // proxy watchdog (the cumulative `slo_breach_total` counter is
    // immune to scrape timing), and the verdict gauges must have
    // drained back to Ok once the cluster was healthy again.
    if scenario.assertions.expect_slo_breach() {
        let breach_fired = samples.iter().any(|s| {
            s.source == "proxy"
                && s.metrics
                    .get("counters")
                    .and_then(|c| c.get("slo_breach_total"))
                    .and_then(Value::as_u64)
                    .is_some_and(|n| n >= 1)
        });
        checks.push(Check {
            name: "slo-breach-then-clear",
            pass: breach_fired && slo_cleared,
            detail: match (breach_fired, slo_cleared) {
                (true, true) => {
                    format!("breach fired under fault, cleared {slo_clear_ms} ms after heal")
                }
                (false, _) => "no sample ever showed slo_breach_total >= 1".to_string(),
                (true, false) => format!(
                    "breach fired but slo_state_* gauges never cleared within {} ms",
                    scenario.assertions.converge_within_ms
                ),
            },
        });
    }

    // Graceful teardown; Drop impls are the backstop.
    let _ = admin.send("shutdown");
    drop(admin);
    let mut proxy = proxy;
    proxy.proc.shutdown();
    for broker in &mut brokers {
        broker.proc.shutdown();
    }

    Ok(LabReport {
        checks,
        timeline_path: timeline_written.then_some(timeline_path),
        traces_path: traces_written.then_some(traces_path),
    })
}

/// Builds the scenario's (infinite) object-index stream.
fn build_stream(scenario: &Scenario) -> Box<dyn Iterator<Item = usize>> {
    let n = scenario.objects.count;
    let alpha = scenario.workload.alpha;
    let seed = scenario.seed;
    match scenario.workload.resolve().expect("scenario was validated") {
        Shape::Zipf => {
            // A FlashCrowd with an empty burst window *is* plain Zipf,
            // and owns its RNG — no separate sampler plumbing needed.
            let flat = FlashSpec {
                burst_start: 0,
                burst_len: 0,
                hot_set: 1,
                boost: 0.0,
            };
            Box::new(FlashCrowd::new(n, alpha, seed, flat))
        }
        Shape::FlashCrowd(spec) => Box::new(FlashCrowd::new(n, alpha, seed, spec)),
        Shape::Diurnal { period, shift } => Box::new(Diurnal::new(n, alpha, seed, period, shift)),
    }
}

/// Fires one fault against the live cluster.
fn fire_fault(
    fault: &crate::scenario::FaultSpec,
    brokers: &mut [BrokerProc],
    admin: &mut AdminClient,
    killed: &mut HashSet<u16>,
) -> Result<(), String> {
    let node = fault.node;
    let action = fault.resolve().expect("scenario was validated");
    eprintln!(
        "cpms-lab: fault @r{}: {} n{node}",
        fault.at_request, fault.action
    );
    match action {
        FaultAction::Kill => {
            brokers[usize::from(node)].proc.kill();
            killed.insert(node);
            Ok(())
        }
        FaultAction::WireLoss(rate) => admin_fault(admin, &format!("fault n{node} loss {rate}")),
        FaultAction::WirePoison => admin_fault(admin, &format!("fault n{node} poison")),
        FaultAction::Partition => admin_fault(admin, &format!("partition n{node}")),
        FaultAction::Heal => admin_fault(admin, &format!("heal n{node}")),
        FaultAction::CorruptObject(object) => {
            let broker = &brokers[usize::from(node)];
            let dir = broker
                .store_dir
                .as_ref()
                .expect("scenario validation requires a durable node");
            let path = format!("/obj/{object}.html");
            let file = dir.join("objects").join(hex_encode(path.as_bytes()));
            let mut bytes =
                std::fs::read(&file).map_err(|e| format!("corrupt {}: {e}", file.display()))?;
            if bytes.is_empty() {
                bytes.push(0xEE); // match corrupt_for_test's empty-body rule
            } else {
                bytes[0] ^= 0xFF; // same length, different checksum
            }
            std::fs::write(&file, bytes).map_err(|e| format!("corrupt {}: {e}", file.display()))
        }
    }
}

fn admin_fault(admin: &mut AdminClient, cmd: &str) -> Result<(), String> {
    let resp = admin.send(cmd).map_err(|e| format!("admin {cmd:?}: {e}"))?;
    if resp.ok {
        Ok(())
    } else {
        Err(format!("admin {cmd:?} rejected: {}", resp.output))
    }
}

/// Scrapes `/_cpms/metrics.json` from the proxy and every live origin
/// into the merged timeline, recording the proxy's URL-table generation
/// gauge for the monotonicity assertion — and `/_cpms/trace.json` from
/// the same endpoints into the merged trace store. Scraping mid-run (not
/// just at the end) matters for traces: spans scraped before a `kill`
/// fault survive the process they were recorded in.
fn scrape(
    at_request: usize,
    proxy_http: SocketAddr,
    brokers: &[BrokerProc],
    killed: &HashSet<u16>,
    samples: &mut Vec<Sample>,
    generations: &mut Vec<u64>,
    traces: &mut TraceStore,
) {
    let fetch_json = |addr: SocketAddr, path: &str| -> Option<Value> {
        let mut client = HttpClient::connect(addr).ok()?;
        let resp = client.get(path).ok()?;
        if resp.status != 200 {
            return None;
        }
        let body = String::from_utf8(resp.body).ok()?;
        serde_json::from_str(&body).ok()
    };
    let mut grab = |source: String, addr: SocketAddr| -> Option<Value> {
        if let Some(dump) = fetch_json(addr, TRACE_JSON_PATH) {
            traces.absorb(&dump);
        }
        let series = fetch_json(addr, SERIES_JSON_PATH);
        let metrics = fetch_json(addr, METRICS_JSON_PATH)?;
        samples.push(Sample {
            at_request,
            source,
            metrics: metrics.clone(),
            series,
        });
        Some(metrics)
    };
    if let Some(metrics) = grab("proxy".to_string(), proxy_http) {
        if let Some(generation) = metrics
            .get("gauges")
            .and_then(|g| g.get("urltable_generation"))
            .and_then(Value::as_u64)
        {
            generations.push(generation);
        }
    }
    for (i, broker) in brokers.iter().enumerate() {
        if killed.contains(&(i as u16)) {
            continue;
        }
        let _ = grab(format!("origin-n{i}"), broker.http);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_bodies_not_statuses() {
        let a = synthetic_body(ContentId(0), 64);
        let b = synthetic_body(ContentId(1), 64);
        let map: HashMap<u64, usize> = [(fnv64(&a), 0), (fnv64(&b), 1)].into();
        assert_eq!(classify(0, 200, &a, &map), Outcome::Ok);
        assert_eq!(classify(0, 200, &b, &map), Outcome::Misrouted { got: 1 });
        assert_eq!(classify(0, 200, b"garbage", &map), Outcome::CorruptServed);
        assert_eq!(classify(0, 503, &a, &map), Outcome::Unroutable);
        assert_eq!(classify(0, 502, &a, &map), Outcome::Failed { status: 502 });
    }

    #[test]
    fn generation_regressions_are_located() {
        assert_eq!(first_regression(&[]), None);
        assert_eq!(first_regression(&[1, 1, 2, 5]), None);
        assert_eq!(first_regression(&[1, 3, 2]), Some(2));
    }

    #[test]
    fn report_renders_both_verdicts() {
        let report = LabReport {
            checks: vec![
                Check {
                    name: "zero-misrouted",
                    pass: true,
                    detail: "ok".into(),
                },
                Check {
                    name: "failure-budget",
                    pass: false,
                    detail: "over".into(),
                },
            ],
            timeline_path: None,
            traces_path: None,
        };
        assert!(!report.passed());
        let text = report.render();
        assert!(text.contains("PASS  zero-misrouted"));
        assert!(text.contains("FAIL  failure-budget"));
        assert!(text.contains("ASSERTIONS FAILED"));
    }
}
