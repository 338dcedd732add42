//! `scale`: anytime solves on large instances.
//!
//! Hybrid workflows over star networks from `scale_instance`: eight
//! instances at 1000×100 and one at 10⁴×10³ per `--seed`, all solved
//! under the 10⁶-step budget. Set-up builds every problem three times;
//! each round then solves every 1000×100 instance with `Blackboard` and
//! `FairLoad`, and the 10⁴×10³ one with `Blackboard`,
//! `Hierarchical(FairLoad)` and `FairLoad`.

use std::time::{Duration, Instant};

use wsflow_core::{Blackboard, DeploymentAlgorithm, FairLoad, Hierarchical, SolveCtx};
use wsflow_cost::Problem;
use wsflow_svc::ProblemSpec;
use wsflow_workload::{scale_instance, Scenario, SCALE_LINK_SPEED};

use crate::check;
use crate::layers::{self, LayerInputs};
use crate::report::{cpu_seconds, mean, median, median_of_fastest, peak_rss_mib, Report};
use crate::Args;

pub const BUDGET: u64 = 1_000_000;
const MID: (usize, usize) = (1_000, 100);
const BIG: (usize, usize) = (10_000, 1_000);
/// 1000×100 instances per seed. One Blackboard solve there takes from
/// 2.3 s to 5.4 s depending on the instance (ten seeds measured), so a
/// run takes the median over several.
const MIDS: usize = 8;
/// Times every problem is built to measure set-up.
const SETUPS: usize = 3;
/// Solves of the 10⁴×10³ instance per round, for a median.
const BIG_REPEATS: usize = 3;
/// 1000×100 instances in the traced run's two timed rounds, which keep
/// the traced run well inside its time limit.
const TRACE_MIDS: usize = 2;
/// Simulated executions per mapping in the traced run.
const TRACE_MC_TRIALS: usize = 16;

struct Solved {
    cost: f64,
    time: Duration,
    cpu_s: f64,
}

/// Solve under the budget and check the outcome.
fn solve(
    report: &mut Report,
    problem: &Problem,
    name: &str,
    algo: &dyn DeploymentAlgorithm,
) -> Option<Solved> {
    let cpu = cpu_seconds();
    let t = Instant::now();
    let out = algo.solve(problem, &mut SolveCtx::with_budget(BUDGET));
    let time = t.elapsed();
    let cpu_s = cpu_seconds() - cpu;
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            report.check(false, || format!("{} on {name}: {e}", algo.name()));
            return None;
        }
    };
    let idx = check::server_indices(&out.mapping);
    report.check(
        check::mapping_in_range(&idx, problem.num_ops(), problem.num_servers()),
        || {
            format!(
                "{} on {name}: mapping not total or out of range",
                algo.name()
            )
        },
    );
    let reference = check::reference_cost(problem, &out.mapping);
    report.check(check::cost_matches(out.cost, reference), || {
        format!(
            "{} on {name}: reported cost {} but the mapping costs {reference}",
            algo.name(),
            out.cost
        )
    });
    // The one construction a solve must finish even past the budget is
    // a full greedy pass over every (operation, server) pair.
    let forced = (problem.num_ops() * problem.num_servers()) as u64;
    report.check(
        check::steps_within_budget(out.steps, BUDGET, forced),
        || {
            format!(
                "{} on {name}: {} steps against a budget of {BUDGET}",
                algo.name(),
                out.steps
            )
        },
    );
    Some(Solved {
        cost: out.cost,
        time,
        cpu_s,
    })
}

/// Build every instance's problem, timing the builds.
fn build_all(scenarios: &[&Scenario]) -> (Vec<Problem>, Duration) {
    let mut setup = Duration::ZERO;
    let problems = scenarios
        .iter()
        .map(|sc| {
            let (wf, net) = (sc.workflow.clone(), sc.network.clone());
            let t = Instant::now();
            let p = Problem::new(wf, net).expect("scale instances are valid");
            setup += t.elapsed();
            p
        })
        .collect();
    (problems, setup)
}

struct Round {
    mid_bb: Vec<Solved>,
    big_ms: Vec<f64>,
    solve_cpu_s: f64,
    solves: u64,
}

/// Solve every 1000×100 instance with `Blackboard` and `FairLoad`, and
/// the 10⁴×10³ one with `Blackboard`, `Hierarchical(FairLoad)` and
/// `FairLoad`; check Blackboard against FairLoad on each.
fn round(mids: &[(Scenario, Problem)], big: &(Scenario, Problem), report: &mut Report) -> Round {
    let mut r = Round {
        mid_bb: Vec::new(),
        big_ms: Vec::new(),
        solve_cpu_s: 0.0,
        solves: 0,
    };
    let mut tally = |s: &Option<Solved>| {
        if let Some(s) = s {
            r.solve_cpu_s += s.cpu_s;
            r.solves += 1;
        }
    };
    let mut pairs = Vec::new();
    for (sc, p) in mids {
        let bb = solve(report, p, &sc.name, &Blackboard::new(sc.seed));
        let fl = solve(report, p, &sc.name, &FairLoad);
        tally(&bb);
        tally(&fl);
        pairs.push((&sc.name, bb, fl));
    }
    let (big_sc, big_p) = big;
    let mut big_ms = Vec::new();
    let mut big_bb = None;
    for _ in 0..BIG_REPEATS {
        let bb = solve(report, big_p, &big_sc.name, &Blackboard::new(big_sc.seed));
        let hier = solve(report, big_p, &big_sc.name, &Hierarchical::new(FairLoad));
        tally(&bb);
        tally(&hier);
        if let (Some(b), Some(h)) = (&bb, &hier) {
            big_ms.push((b.time + h.time).as_secs_f64() * 1e3);
        }
        big_bb = bb;
    }
    let big_fl = solve(report, big_p, &big_sc.name, &FairLoad);
    tally(&big_fl);
    r.big_ms = big_ms;
    pairs.push((&big_sc.name, big_bb, big_fl));
    for (name, bb, fl) in &pairs {
        if let (Some(bb), Some(fl)) = (bb, fl) {
            report.check(check::not_above(bb.cost, fl.cost), || {
                format!(
                    "Blackboard cost {} above FairLoad's {} on {name}",
                    bb.cost, fl.cost
                )
            });
        }
    }
    pairs.pop();
    r.mid_bb = pairs.into_iter().filter_map(|(_, bb, _)| bb).collect();
    r
}

/// Solves a round over `mids` 1000×100 instances attempts.
fn round_solves(mids: usize) -> u64 {
    (2 * mids + 2 * BIG_REPEATS + 1) as u64
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mid_sc: Vec<Scenario> = (0..MIDS as u64)
        .map(|i| {
            scale_instance(
                MID.0,
                MID.1,
                args.seed.wrapping_mul(MIDS as u64 + 1).wrapping_add(i),
            )
        })
        .collect();
    let big_sc = scale_instance(BIG.0, BIG.1, args.seed);
    let mut all: Vec<&Scenario> = mid_sc.iter().collect();
    all.push(&big_sc);

    // Set-up is timed several times; the solves use the last build.
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..SETUPS {
        let (p, t) = build_all(&all);
        setups.push(t.as_secs_f64());
        problems = p;
    }
    let big_p = problems.pop().expect("the big instance was built");
    let mids: Vec<(Scenario, Problem)> = mid_sc.iter().cloned().zip(problems).collect();
    let big = (big_sc.clone(), big_p);

    if args.trace {
        let traced_mids = &mids[..TRACE_MIDS];
        let (untraced, traced, ops) = layers::traced_slowdown(|| {
            round(traced_mids, &big, &mut report);
            round_solves(TRACE_MIDS)
        });
        report.attempted += ops;
        let inputs = LayerInputs {
            scenarios: vec![
                (mid_sc[0].clone(), mid_sc[0].seed),
                (big_sc.clone(), big_sc.seed),
            ],
            budget: Some(BUDGET),
            mc_trials: TRACE_MC_TRIALS,
            requests: daemon_requests(&mid_sc[0]),
            rate_per_s: 2.0,
        };
        layers::measure(&inputs, untraced, traced, &mut report);
        return report;
    }

    let (mut mid_ms, mut big_ms, mut mid_costs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solves, mut solve_cpu_s) = (0u64, 0.0);
    let mut peak_rss = None;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let r = round(&mids, &big, &mut report);
        peak_rss.get_or_insert_with(peak_rss_mib);
        report.attempted += round_solves(MIDS);
        mid_ms.push(
            r.mid_bb
                .iter()
                .map(|s| s.time.as_secs_f64() * 1e3)
                .collect::<Vec<f64>>(),
        );
        mid_costs = r.mid_bb.iter().map(|s| s.cost).collect();
        big_ms.extend(r.big_ms);
        solves += r.solves;
        solve_cpu_s += r.solve_cpu_s;
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    report.info("solve_ms", median_of_fastest(&mid_ms), "ms");
    report.metric("solves_per_s", solves as f64 / solve_cpu_s, "1/s");
    report.metric("cost_mean_s", mean(&mid_costs), "s");
    report.info("solve_p50_ms", median(&mid_ms.concat()), "ms");
    report.info("big_solve_ms", median(&big_ms), "ms");
    report
}

/// The traced run's daemon requests: the 1000×100 workflow sent
/// `Inline` over a bus of the same servers at the star's link speed.
fn daemon_requests(mid: &Scenario) -> Vec<wsflow_svc::Request> {
    let spec = ProblemSpec::Inline {
        workflow: wsflow_model::dsl::serialize(&mid.workflow),
        server_ghz: mid
            .network
            .servers()
            .iter()
            .map(|s| s.power.value() / 1000.0)
            .collect(),
        bus_mbps: SCALE_LINK_SPEED.value(),
    };
    ["holm", "fairload", "portfolio"]
        .iter()
        .map(|algo| layers::request("gold", algo, Some(BUDGET), spec.clone()))
        .collect()
}
