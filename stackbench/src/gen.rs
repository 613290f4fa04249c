//! The load generator: a child process (`stackbench --drive`) so that
//! its CPU and memory stay out of the server process's figures.
//!
//! It reads a plan on stdin, builds a seeded open-loop schedule, and
//! replays it over at most [`THREADS`] keep-alive connections, one per
//! thread. A request due while another is in flight is pipelined behind
//! it; latency is timed from the request's *due* time, so a stall also
//! charges the requests queued behind it. Every 200 body is checked
//! against the FNV-64 checksum the controller recorded (see [`verify`]);
//! a wrong body aborts the process with exit code 3.

use crate::sys;
use crate::Span;
use cpms_httpd::http::parse_response_head;
use cpms_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Connections and threads the generator uses: the container's core
/// count, so the generator never needs more CPUs than the host has.
pub const THREADS: usize = 2;

/// A connection whose oldest request has waited this long past its
/// deadline is declared dead: its in-flight requests fail and it redials.
const STALL_GRACE: Duration = Duration::from_secs(5);

/// One stretch of the schedule at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub rps: f64,
    /// Traced runs only: whether the stack's spans are on in this phase,
    /// and the generator keeps a span per request. The generator builds
    /// its spans from the outcomes after the last response, so keeping
    /// them costs nothing while requests are timed.
    pub traced: bool,
}

/// Everything the generator needs; sent by the server over stdin.
#[derive(Debug, Clone)]
pub struct Plan {
    pub proxy: SocketAddr,
    pub seed: u64,
    pub deadline_ms: u64,
    /// Zipf exponent over the object ranks; 0 is uniform.
    pub alpha: f64,
    pub phases: Vec<Phase>,
    /// `(path, checksum)` per object, in popularity-rank order.
    pub objects: Vec<(String, u64)>,
    /// Where to write the per-request spans, if any phase is traced.
    pub span_file: Option<String>,
}

impl Plan {
    /// The plan as stdin lines.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "proxy {}\nseed {}\ndeadline_ms {}\nalpha {}\nspans {}\n",
            self.proxy,
            self.seed,
            self.deadline_ms,
            self.alpha,
            self.span_file.as_deref().unwrap_or("-")
        );
        for p in &self.phases {
            out.push_str(&format!(
                "phase {} {} {} {} {}\n",
                p.name,
                p.start_s,
                p.end_s,
                p.rps,
                u8::from(p.traced)
            ));
        }
        for (path, sum) in &self.objects {
            out.push_str(&format!("obj {path} {sum}\n"));
        }
        out.push_str("end\n");
        out
    }

    fn decode(input: impl BufRead) -> Plan {
        let mut plan = Plan {
            proxy: "127.0.0.1:0".parse().expect("literal addr"),
            seed: 0,
            deadline_ms: 1000,
            alpha: 0.0,
            phases: Vec::new(),
            objects: Vec::new(),
            span_file: None,
        };
        for line in input.lines() {
            let line = line.expect("read plan from stdin");
            let words: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> f64 { words[i].parse().expect("numeric plan field") };
            match words.first().copied() {
                Some("proxy") => plan.proxy = words[1].parse().expect("proxy address"),
                Some("seed") => plan.seed = words[1].parse().expect("seed"),
                Some("deadline_ms") => plan.deadline_ms = words[1].parse().expect("deadline"),
                Some("alpha") => plan.alpha = num(1),
                Some("spans") if words[1] != "-" => plan.span_file = Some(words[1].to_string()),
                Some("phase") => plan.phases.push(Phase {
                    name: words[1].to_string(),
                    start_s: num(2),
                    end_s: num(3),
                    rps: num(4),
                    traced: words[5] == "1",
                }),
                Some("obj") => plan
                    .objects
                    .push((words[1].to_string(), words[2].parse().expect("checksum"))),
                Some("end") => break,
                _ => {}
            }
        }
        assert!(!plan.objects.is_empty(), "plan names no objects");
        plan
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Due {
    at_ns: u64,
    obj: u32,
    phase: u16,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    due_ns: u64,
    done_ns: u64,
    late_ns: u64,
    phase: u16,
    /// 0 = 200 with a verified body, otherwise the failure class.
    fail: Fail,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fail {
    None,
    Status,
    Conn,
}

/// Builds one thread's share of the schedule: Poisson arrivals at
/// `rps / THREADS` per phase, objects drawn by popularity rank.
fn schedule(plan: &Plan, thread: usize) -> Vec<Due> {
    let mut rng =
        StdRng::seed_from_u64(plan.seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let popularity = ZipfSampler::new(plan.objects.len(), plan.alpha);
    let mut out = Vec::new();
    for (idx, phase) in plan.phases.iter().enumerate() {
        let per_thread = phase.rps / THREADS as f64;
        let mut t = phase.start_s;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / per_thread;
            if t >= phase.end_s {
                break;
            }
            out.push(Due {
                at_ns: (t * 1e9) as u64,
                obj: popularity.sample(&mut rng) as u32,
                phase: idx as u16,
            });
        }
    }
    out
}

/// Per-phase figures the server reads back.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub non200: u64,
    pub conn_errors: u64,
    pub late: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub late_p99_ns: u64,
    /// Requests due in the phase but still unanswered when it ended.
    pub backlog: u64,
}

impl PhaseResult {
    pub fn failed(&self) -> u64 {
        self.non200 + self.conn_errors + self.late
    }
}

/// The generator's report.
#[derive(Debug, Default, Clone)]
pub struct GenResult {
    pub phases: Vec<PhaseResult>,
    pub cpu_pct: f64,
}

impl GenResult {
    /// The phases named `prefix` followed by a window number, taken
    /// together: their count, and one result whose counts are summed and
    /// whose latencies are medians of the windows' figures.
    pub fn windows(&self, prefix: &str) -> (usize, PhaseResult) {
        let mine: Vec<&PhaseResult> = self
            .phases
            .iter()
            .filter(|p| {
                p.name
                    .strip_prefix(prefix)
                    .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            })
            .collect();
        assert!(!mine.is_empty(), "generator reported no {prefix} windows");
        let sum = |f: fn(&PhaseResult) -> u64| mine.iter().map(|p| f(p)).sum();
        let median = |f: fn(&PhaseResult) -> u64| {
            let v: Vec<f64> = mine.iter().map(|p| f(p) as f64).collect();
            crate::median(&v) as u64
        };
        let merged = PhaseResult {
            name: prefix.to_string(),
            sent: sum(|p| p.sent),
            ok: sum(|p| p.ok),
            non200: sum(|p| p.non200),
            conn_errors: sum(|p| p.conn_errors),
            late: sum(|p| p.late),
            p50_ns: median(|p| p.p50_ns),
            p90_ns: median(|p| p.p90_ns),
            p99_ns: median(|p| p.p99_ns),
            late_p99_ns: median(|p| p.late_p99_ns),
            backlog: sum(|p| p.backlog),
        };
        (mine.len(), merged)
    }

    /// Parses the generator's `phase …` / `gen_cpu_pct …` stdout lines.
    pub fn parse_line(&mut self, line: &str) {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.first().copied() {
            Some("phase") => {
                let field = |key: &str| -> u64 {
                    words
                        .iter()
                        .position(|w| *w == key)
                        .and_then(|i| words.get(i + 1))
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("phase line lacks {key}: {line}"))
                };
                self.phases.push(PhaseResult {
                    name: words[1].to_string(),
                    sent: field("sent"),
                    ok: field("ok"),
                    non200: field("non200"),
                    conn_errors: field("conn"),
                    late: field("late"),
                    p50_ns: field("p50_ns"),
                    p90_ns: field("p90_ns"),
                    p99_ns: field("p99_ns"),
                    late_p99_ns: field("late_p99_ns"),
                    backlog: field("backlog"),
                });
            }
            Some("gen_cpu_pct") => self.cpu_pct = words[1].parse().expect("cpu figure"),
            _ => {}
        }
    }
}

/// Entry point of `stackbench --drive`.
pub fn drive() -> ! {
    let plan = Plan::decode(std::io::stdin().lock());
    if !sys::raise_priority() {
        eprintln!("stackbench: generator runs at normal priority (setpriority refused)");
    }
    let requests: Vec<Vec<u8>> = plan
        .objects
        .iter()
        .map(|(path, _)| format!("GET {path} HTTP/1.1\r\nHost: stackbench\r\n\r\n").into_bytes())
        .collect();
    let refs: Vec<OnceLock<Box<[u8]>>> = plan.objects.iter().map(|_| OnceLock::new()).collect();
    let schedules: Vec<Vec<Due>> = (0..THREADS).map(|t| schedule(&plan, t)).collect();
    let deadline_ns = plan.deadline_ms * 1_000_000;
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    println!("go");
    std::io::stdout().flush().expect("flush go line");
    let outcomes: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|sched| {
                let (plan, refs, requests) = (&plan, &refs, &requests);
                scope.spawn(move || run_connection(plan, refs, requests, sched, t0, deadline_ns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let cpu = sys::process_cpu().saturating_sub(cpu0);

    let all: Vec<Outcome> = outcomes.into_iter().flatten().collect();
    for (idx, phase) in plan.phases.iter().enumerate() {
        let mine: Vec<&Outcome> = all.iter().filter(|o| o.phase as usize == idx).collect();
        let end_ns = (phase.end_s * 1e9) as u64;
        let mut lat: Vec<u64> = mine
            .iter()
            .filter(|o| o.fail != Fail::Conn)
            .map(|o| o.done_ns - o.due_ns)
            .collect();
        let mut late_by: Vec<u64> = mine.iter().map(|o| o.late_ns).collect();
        lat.sort_unstable();
        late_by.sort_unstable();
        let ok = mine.iter().filter(|o| o.fail == Fail::None).count() as u64;
        let late = mine
            .iter()
            .filter(|o| o.fail == Fail::None && o.done_ns - o.due_ns > deadline_ns)
            .count() as u64;
        println!(
            "phase {} sent {} ok {} non200 {} conn {} late {} p50_ns {} p90_ns {} p99_ns {} late_p99_ns {} backlog {}",
            phase.name,
            mine.len(),
            ok - late,
            mine.iter().filter(|o| o.fail == Fail::Status).count(),
            mine.iter().filter(|o| o.fail == Fail::Conn).count(),
            late,
            crate::pct(&lat, 0.50),
            crate::pct(&lat, 0.90),
            crate::pct(&lat, 0.99),
            crate::pct(&late_by, 0.99),
            mine.iter()
                .filter(|o| o.due_ns < end_ns && o.done_ns > end_ns)
                .count(),
        );
    }
    println!(
        "gen_cpu_pct {}",
        cpu.as_secs_f64() / wall.as_secs_f64() * 100.0
    );
    if let Some(file) = &plan.span_file {
        let spans: Vec<Span> = all
            .iter()
            .enumerate()
            .filter(|(_, o)| plan.phases[o.phase as usize].traced)
            .map(|(i, o)| Span {
                name: "gen.get",
                start_ns: o.due_ns,
                end_ns: o.done_ns,
                parent: 0,
                request: i as u64 + 1,
            })
            .collect();
        crate::write_spans(file, &spans);
    }
    println!("done");
    std::io::stdout().flush().expect("flush result");
    std::process::exit(0);
}

/// Checks one 200 body of object `obj`. The first body seen for an
/// object is hashed and must match the FNV-64 checksum the controller
/// recorded; it is then kept as the object's reference, and every later
/// body must equal it byte for byte. A byte compare costs a small share
/// of the hash, so the check stays short on the thread that times the
/// requests. A wrong body exits with code 3.
fn verify(plan: &Plan, refs: &[OnceLock<Box<[u8]>>], obj: u32, body: &[u8]) {
    let (path, want) = &plan.objects[obj as usize];
    let ok = match refs[obj as usize].get() {
        Some(reference) => **reference == *body,
        None => {
            let got = cpms_store::fnv64(body);
            if got == *want {
                let _ = refs[obj as usize].set(body.into());
            }
            got == *want
        }
    };
    if !ok {
        eprintln!(
            "stackbench: wrong body for {path}: {} bytes, fnv64 {:016x}, controller recorded {want:016x}",
            body.len(),
            cpms_store::fnv64(body)
        );
        std::process::exit(3);
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("stackbench: generator cannot connect to {addr}: {e}");
        std::process::exit(4);
    });
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_nonblocking(true).expect("set non-blocking");
    stream
}

fn now_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays one thread's schedule over one pipelined connection.
fn run_connection(
    plan: &Plan,
    refs: &[OnceLock<Box<[u8]>>],
    requests: &[Vec<u8>],
    sched: &[Due],
    t0: Instant,
    deadline_ns: u64,
) -> Vec<Outcome> {
    sys::tight_timer_slack();
    let mut stream = connect(plan.proxy);
    let mut outcomes = Vec::with_capacity(sched.len());
    // Sent (or queued to send) requests awaiting their responses, oldest
    // first: (schedule index, late_ns).
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = vec![0; 256 << 10];
    let mut filled = 0;
    let mut next = 0;
    loop {
        let now = now_ns(t0);
        while next < sched.len() && sched[next].at_ns <= now {
            out.extend_from_slice(&requests[sched[next].obj as usize]);
            inflight.push_back((next, now - sched[next].at_ns));
            next += 1;
        }
        let mut broken = false;
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        while !broken {
            if filled == inbuf.len() {
                inbuf.resize(inbuf.len() * 2, 0);
            }
            match stream.read(&mut inbuf[filled..]) {
                Ok(0) => broken = true,
                Ok(n) => filled += n,
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock => break,
                    std::io::ErrorKind::Interrupted => {}
                    _ => broken = true,
                },
            }
        }
        // Complete responses, answered in request order. Each is stamped
        // as soon as it is found, before any body is checked, so that the
        // check of one body is not charged to the responses behind it.
        let mut pos = 0;
        let mut bodies: Vec<(u32, usize, usize)> = Vec::new();
        while let Some(&(idx, late_ns)) = inflight.front() {
            let head = match parse_response_head(&inbuf[pos..filled]) {
                Ok(Some(head)) => head,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("stackbench: malformed response from the proxy: {e:?}");
                    std::process::exit(3);
                }
            };
            let total = head.head_len + head.content_length;
            if filled - pos < total {
                break;
            }
            let due = sched[idx];
            let fail = if head.status == 200 {
                bodies.push((due.obj, pos + head.head_len, pos + total));
                Fail::None
            } else {
                Fail::Status
            };
            outcomes.push(Outcome {
                due_ns: due.at_ns,
                done_ns: now_ns(t0),
                late_ns,
                phase: due.phase,
                fail,
            });
            inflight.pop_front();
            pos += total;
        }
        for (obj, from, to) in bodies {
            verify(plan, refs, obj, &inbuf[from..to]);
        }
        inbuf.copy_within(pos..filled, 0);
        filled -= pos;
        let stalled = inflight.front().is_some_and(|&(idx, _)| {
            now_ns(t0).saturating_sub(sched[idx].at_ns)
                > deadline_ns + STALL_GRACE.as_nanos() as u64
        });
        if broken || stalled {
            let done_ns = now_ns(t0);
            for (idx, late_ns) in inflight.drain(..) {
                outcomes.push(Outcome {
                    due_ns: sched[idx].at_ns,
                    done_ns,
                    late_ns,
                    phase: sched[idx].phase,
                    fail: Fail::Conn,
                });
            }
            out.clear();
            out_pos = 0;
            filled = 0;
            stream = connect(plan.proxy);
        }
        if next == sched.len() && inflight.is_empty() {
            return outcomes;
        }
        let now = now_ns(t0);
        let wait = if next < sched.len() {
            sched[next].at_ns.saturating_sub(now).min(10_000_000)
        } else {
            10_000_000
        };
        if wait > 0 {
            sys::wait_fd(
                stream.as_raw_fd(),
                out_pos < out.len(),
                Duration::from_nanos(wait),
            );
        }
    }
}
