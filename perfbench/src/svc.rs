//! `svc`: many small requests to a `wsflowd` daemon on loopback TCP.
//!
//! The daemon runs in this process (`wsflow_svc::daemon::spawn`) with
//! two solver workers and three tenants weighted 4/2/1. A round sends
//! the same request mix twice: first open-loop, at a fixed Poisson rate
//! from one generator thread, each request timed from when it was due;
//! then closed-loop, from two callers that each wait for their reply.
//! Most requests are `Generated` paper-size specs over all four shapes;
//! every sixth is `Inline`, carrying one of `examples/workflows/*.wsf`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_core::SolveCtx;
use wsflow_svc::daemon::{self, DaemonConfig, DaemonHandle};
use wsflow_svc::proto::{self, FrameError};
use wsflow_svc::{
    build_problem, client, resolve_algorithm, ProblemSpec, Reply, Request, SvcConfig,
};

use crate::check;
use crate::layers::{self, LayerInputs};
use crate::report::{blocked_p99, cpu_seconds, mean, median, peak_rss_mib, Report};
use crate::Args;

pub const TENANTS: [(&str, u32); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];
const ALGOS: [&str; 3] = ["blackboard", "holm", "portfolio"];
const SHAPES: [&str; 4] = ["line", "bushy", "lengthy", "hybrid"];
const SPEEDS_MBPS: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];
const GHZ: [f64; 3] = [1.0, 2.0, 3.0];
const EXAMPLES: [&str; 3] = [
    include_str!("../../examples/workflows/hybrid19.wsf"),
    include_str!("../../examples/workflows/line19.wsf"),
    include_str!("../../examples/workflows/rendezvous.wsf"),
];
/// Requests per round; each is sent once open-loop and once closed-loop.
const ROUND: usize = 120;
const INLINE_EVERY: usize = 6;
/// Open-loop arrival rate.
pub const RATE_PER_S: f64 = 300.0;
/// A run holds at least this many open-loop requests, so that ten lie
/// beyond the p99.
const MIN_OPEN_SAMPLES: usize = 1000;
/// Simulated executions per reply mapping in the traced run.
const TRACE_MC_TRIALS: usize = 16;
/// Daemon solver workers and closed-loop callers.
const WORKERS: usize = 2;
const CALLERS: usize = 2;

/// The daemon's configuration: fixed workers and weights, and queues
/// deep enough that the open loop never meets backpressure.
fn daemon_config() -> DaemonConfig {
    let mut svc = SvcConfig::default()
        .with_workers(WORKERS)
        .with_queue_caps(4096, 4096);
    for (tenant, weight) in TENANTS {
        svc = svc.with_weight(tenant, weight);
    }
    DaemonConfig { svc, port: 0 }
}

/// Spawn a daemon, timing it until it listens, then check that it
/// answers: a request naming no known algorithm is accepted, decoded and
/// refused without a solve. The wait for that first answer is left out
/// of the set-up time: the accept loop polls every 5 ms, so it is either
/// ~0.5 ms or ~5 ms depending on a race, and requests already pay it in
/// their latency.
pub fn spawn_daemon() -> (DaemonHandle, Duration) {
    let t = Instant::now();
    let handle = daemon::spawn(daemon_config()).expect("binding a loopback port");
    let setup = t.elapsed();
    let probe = layers::request(
        "gold",
        "none",
        None,
        ProblemSpec::Generated {
            shape: "line".into(),
            ops: 1,
            servers: 1,
            bus_mbps: 1.0,
            seed: 0,
        },
    );
    let answer = client::submit(handle.addr(), &probe, |_, _| {});
    assert!(
        matches!(answer, Err(client::ClientError::Invalid(_))),
        "the daemon must refuse an unknown algorithm, got {answer:?}"
    );
    (handle, setup)
}

/// The request mix. Tenant, algorithm, bus speed and shape cycle
/// through every combination in a fixed order, so every seed has the
/// same make-up; the seed draws the generator seeds, server counts and
/// ratings, and which example file each `Inline` request carries.
pub fn requests(seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..ROUND)
        .map(|i| {
            let tenant = TENANTS[i % TENANTS.len()].0;
            let algo = ALGOS[(i / TENANTS.len()) % ALGOS.len()];
            let bus_mbps = SPEEDS_MBPS[i % SPEEDS_MBPS.len()];
            let spec = if i % INLINE_EVERY == INLINE_EVERY - 1 {
                let servers = rng.gen_range(3..6usize);
                ProblemSpec::Inline {
                    workflow: EXAMPLES[rng.gen_range(0..EXAMPLES.len())].to_string(),
                    server_ghz: (0..servers)
                        .map(|_| GHZ[rng.gen_range(0..GHZ.len())])
                        .collect(),
                    bus_mbps,
                }
            } else {
                ProblemSpec::Generated {
                    shape: SHAPES[(i / (TENANTS.len() * ALGOS.len())) % SHAPES.len()].to_string(),
                    ops: 19,
                    servers: rng.gen_range(3..6u32),
                    bus_mbps,
                    seed: u64::from(rng.gen::<u32>()),
                }
            };
            layers::request(tenant, algo, None, spec)
        })
        .collect()
}

/// The daemon's seed rule: `Generated` specs seed the randomised
/// solvers with their generator seed, `Inline` ones with 0.
fn algo_seed(spec: &ProblemSpec) -> u64 {
    match spec {
        ProblemSpec::Generated { seed, .. } => *seed,
        ProblemSpec::Inline { .. } => 0,
    }
}

/// A request solved in this process, as the daemon would solve it.
pub struct Expected {
    pub cost: f64,
    pub mapping: Vec<u32>,
    pub num_ops: usize,
    pub num_servers: usize,
    pub build: Duration,
    pub solve: Duration,
}

pub fn solve_in_process(req: &Request) -> Result<Expected, String> {
    let t = Instant::now();
    let problem = build_problem(&req.spec)?;
    let build = t.elapsed();
    let algo = resolve_algorithm(&req.algo, algo_seed(&req.spec))
        .ok_or_else(|| format!("unknown algorithm {:?}", req.algo))?;
    let t = Instant::now();
    let out = algo
        .solve(&problem, &mut SolveCtx::with_budget_opt(req.budget))
        .map_err(|e| e.to_string())?;
    let solve = t.elapsed();
    Ok(Expected {
        cost: out.cost,
        mapping: check::server_indices(&out.mapping),
        num_ops: problem.num_ops(),
        num_servers: problem.num_servers(),
        build,
        solve,
    })
}

/// A `Done` reply as the client saw it.
pub struct Done {
    pub cost: f64,
    pub mapping: Vec<u32>,
    pub queue_wait_us: u64,
    pub incumbents: Vec<f64>,
}

/// One request's fate: its latency and its terminal reply.
pub struct Sample {
    pub idx: usize,
    pub latency: Duration,
    pub result: Result<Done, String>,
}

struct Conn {
    idx: usize,
    due: Instant,
    stream: TcpStream,
    buf: Vec<u8>,
    incumbents: Vec<f64>,
}

fn send(addr: SocketAddr, frame: &[u8]) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(frame)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Read what has arrived on `c` and decode every whole frame. Returns
/// the terminal reply once one is complete, and whether bytes arrived.
fn poll(c: &mut Conn) -> (Option<Result<Done, String>>, bool) {
    let mut progressed = false;
    let mut chunk = [0u8; 4096];
    let mut closed = false;
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return (Some(Err(e.to_string())), true),
        }
    }
    loop {
        let mut rest: &[u8] = &c.buf;
        match proto::read_message::<Reply>(&mut rest) {
            Ok(None) | Err(FrameError::Truncated { .. }) => break,
            Ok(Some(reply)) => {
                let used = c.buf.len() - rest.len();
                c.buf.drain(..used);
                match reply {
                    Reply::Incumbent { cost, .. } => c.incumbents.push(cost),
                    Reply::Done {
                        cost,
                        mapping,
                        queue_wait_us,
                        ..
                    } => {
                        return (
                            Some(Ok(Done {
                                cost,
                                mapping,
                                queue_wait_us,
                                incumbents: std::mem::take(&mut c.incumbents),
                            })),
                            true,
                        )
                    }
                    other => return (Some(Err(format!("{other:?}"))), true),
                }
            }
            Err(e) => return (Some(Err(e.to_string())), true),
        }
    }
    if closed {
        return (Some(Err("closed without a final reply".into())), true);
    }
    (None, progressed)
}

/// Send `frames` at Poisson arrivals of `rate_per_s` from one thread,
/// timing each request from its due time. Also returns how late the
/// generator sent each request.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    rate_per_s: f64,
    seed: u64,
) -> (Vec<Sample>, Vec<Duration>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let start = Instant::now();
    let mut at = 0.0f64;
    let due: Vec<Instant> = frames
        .iter()
        .map(|_| {
            at += -(1.0 - rng.gen::<f64>()).ln() / rate_per_s;
            start + Duration::from_secs_f64(at)
        })
        .collect();
    let mut samples = Vec::with_capacity(frames.len());
    let mut late = Vec::with_capacity(frames.len());
    let mut conns: Vec<Conn> = Vec::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < frames.len() && due[next] <= now {
            late.push(now - due[next]);
            match send(addr, &frames[next]) {
                Ok(stream) => conns.push(Conn {
                    idx: next,
                    due: due[next],
                    stream,
                    buf: Vec::new(),
                    incumbents: Vec::new(),
                }),
                Err(e) => samples.push(Sample {
                    idx: next,
                    latency: now - due[next],
                    result: Err(e.to_string()),
                }),
            }
            next += 1;
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            let (done, moved) = poll(&mut conns[i]);
            progressed |= moved;
            if let Some(result) = done {
                let c = conns.swap_remove(i);
                samples.push(Sample {
                    idx: c.idx,
                    latency: c.due.elapsed(),
                    result,
                });
            } else {
                i += 1;
            }
        }
        if next == frames.len() && conns.is_empty() {
            break;
        }
        if !progressed {
            let until_due = due
                .get(next)
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::MAX);
            std::thread::sleep(until_due.min(Duration::from_micros(100)));
        }
    }
    (samples, late)
}

/// Two callers, each sending its share of `requests` and waiting for
/// every reply. Returns the samples and the phase's wall time.
fn closed_loop(addr: SocketAddr, requests: &[Request]) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                scope.spawn(move || {
                    (c..requests.len())
                        .step_by(CALLERS)
                        .map(|idx| {
                            let t = Instant::now();
                            let result = client::submit(addr, &requests[idx], |_, _| {})
                                .map(|out| Done {
                                    cost: out.cost,
                                    mapping: out.mapping,
                                    queue_wait_us: out.queue_wait_us,
                                    incumbents: out.incumbents.iter().map(|&(_, c)| c).collect(),
                                })
                                .map_err(|e| e.to_string());
                            Sample {
                                idx,
                                latency: t.elapsed(),
                                result,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop caller panicked"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

/// Check one reply: it is `Done`, bit-identical to the in-process solve
/// of the same request, and its streamed incumbents strictly decrease to
/// the final cost. A reply other than `Done` counts as failed.
pub fn check_sample(report: &mut Report, s: &Sample, expected: &[Expected]) {
    let done = match &s.result {
        Ok(done) => done,
        Err(e) => {
            report.failed += 1;
            eprintln!("request {} failed: {e}", s.idx);
            return;
        }
    };
    let want = &expected[s.idx];
    report.check(
        check::mapping_in_range(&done.mapping, want.num_ops, want.num_servers)
            && done.mapping == want.mapping
            && done.cost.to_bits() == want.cost.to_bits(),
        || {
            format!(
                "request {}: daemon returned cost {} mapping {:?}, in-process solve cost {} mapping {:?}",
                s.idx, done.cost, done.mapping, want.cost, want.mapping
            )
        },
    );
    report.check(check::incumbents_ok(&done.incumbents, done.cost), || {
        format!(
            "request {}: incumbents {:?} do not strictly decrease to {}",
            s.idx, done.incumbents, done.cost
        )
    });
}

pub fn expected_all(requests: &[Request]) -> Vec<Expected> {
    requests
        .iter()
        .map(|r| solve_in_process(r).expect("every request in the mix is valid"))
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let reqs = requests(args.seed);
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| proto::encode_frame(r).expect("requests encode"))
        .collect();
    let expected = expected_all(&reqs);

    let run_round = |report: &mut Report, round: u64| {
        let (mut daemon, setup) = spawn_daemon();
        let (open, _) = open_loop(
            daemon.addr(),
            &frames,
            RATE_PER_S,
            args.seed.wrapping_add(round),
        );
        let cpu = cpu_seconds();
        let (closed, closed_wall) = closed_loop(daemon.addr(), &reqs);
        let closed_cpu_s = cpu_seconds() - cpu;
        daemon.shutdown();
        report.attempted += (open.len() + closed.len()) as u64;
        for s in open.iter().chain(&closed) {
            check_sample(report, s, &expected);
        }
        (setup, open, closed, closed_wall, closed_cpu_s)
    };

    if args.trace {
        let mut round_no = 0;
        let (untraced, traced, _) = layers::traced_slowdown(|| {
            round_no += 1;
            run_round(&mut report, round_no);
            0
        });
        let inputs = LayerInputs {
            scenarios: Vec::new(),
            budget: None,
            mc_trials: TRACE_MC_TRIALS,
            requests: reqs.clone(),
            rate_per_s: RATE_PER_S,
        };
        layers::measure(&inputs, untraced, traced, &mut report);
        return report;
    }

    let (mut setups, mut open_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut closed_done, mut closed_cpu) = (0usize, 0.0);
    let mut peak_rss = None;
    let start = Instant::now();
    let mut round_no = 0;
    while start.elapsed() < args.seconds || open_ms.len() * ROUND < MIN_OPEN_SAMPLES {
        round_no += 1;
        let (setup, open, closed, wall, cpu_s) = run_round(&mut report, round_no);
        peak_rss.get_or_insert_with(peak_rss_mib);
        setups.push(setup.as_secs_f64());
        open_ms.push(
            open.iter()
                .filter(|s| s.result.is_ok())
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect::<Vec<f64>>(),
        );
        let done = closed.iter().filter(|s| s.result.is_ok()).count();
        rates.push(done as f64 / wall.as_secs_f64());
        closed_done += done;
        closed_cpu += cpu_s;
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    report.info("solve_ms", median(&open_ms.concat()), "ms");
    report.metric("solves_per_s", median(&rates), "1/s");
    // Replies are checked bit-identical to these in-process solves.
    let costs: Vec<f64> = expected.iter().map(|e| e.cost).collect();
    report.metric("cost_mean_s", mean(&costs), "s");
    report.info(
        "solve_p99_ms",
        blocked_p99(&open_ms, MIN_OPEN_SAMPLES),
        "ms",
    );
    report.info("solves_per_cpu_s", closed_done as f64 / closed_cpu, "1/s");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(result: Result<Done, String>) -> Sample {
        Sample {
            idx: 0,
            latency: Duration::from_millis(1),
            result,
        }
    }

    #[test]
    fn reply_checks_fail_on_a_corrupted_reply() {
        let reqs = requests(3);
        let expected = expected_all(&reqs[..1]);
        let want = &expected[0];
        let done = |cost: f64, mapping: Vec<u32>, incumbents: Vec<f64>| Done {
            cost,
            mapping,
            queue_wait_us: 0,
            incumbents,
        };
        let mut report = Report::default();
        check_sample(
            &mut report,
            &sample(Ok(done(want.cost, want.mapping.clone(), vec![want.cost]))),
            &expected,
        );
        assert!(report.check_failures.is_empty());

        let bumped = f64::from_bits(want.cost.to_bits() + 1);
        let mut flipped = want.mapping.clone();
        flipped[0] = (flipped[0] + 1) % want.num_servers as u32;
        for bad in [
            done(want.cost, flipped, vec![want.cost]),
            done(bumped, want.mapping.clone(), vec![bumped]),
            done(want.cost, want.mapping.clone(), vec![want.cost, want.cost]),
        ] {
            let mut report = Report::default();
            check_sample(&mut report, &sample(Ok(bad)), &expected);
            assert_eq!(report.check_failures.len(), 1);
        }

        let mut report = Report::default();
        check_sample(&mut report, &sample(Err("rejected".into())), &expected);
        assert_eq!((report.failed, report.check_failures.len()), (1, 0));
    }
}
