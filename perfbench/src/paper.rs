//! `paper`: a library user deploying paper-size workflows.
//!
//! Table 6 class-C instances at the paper's sizes: 19 operations on 3–5
//! servers, across line-line, line-bus and bushy/lengthy/hybrid-bus
//! configurations at 1–1000 Mbps, one generator seed per instance drawn
//! from `--seed`. Each instance is solved by every applicable paper
//! greedy, then by `Blackboard` to convergence, and the Blackboard
//! mapping is simulated by ideal-mode Monte Carlo. Every round repeats
//! the same instances, so the costs depend on `--seed` alone.

use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_core::{
    Blackboard, DeploymentAlgorithm, FairLoad, FairLoadMergeMessages, FairLoadTieResolver,
    FairLoadTieResolver2, HeavyOpsLargeMsgs, LineLine, SolveCtx,
};
use wsflow_cost::{texecute, Problem};
use wsflow_model::MbitsPerSec;
use wsflow_sim::{monte_carlo, SimConfig};
use wsflow_svc::ProblemSpec;
use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass, Scenario};

use crate::check;
use crate::layers::{self, LayerInputs};
use crate::report::{
    blocked_p99, cpu_seconds, mean, median, median_of_fastest, peak_rss_mib, Report,
};
use crate::Args;

const OPS: usize = 19;
const SERVERS: [usize; 3] = [3, 4, 5];
const SPEEDS_MBPS: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];
/// Instances per (configuration, server count) cell of a round.
const PER_CELL: usize = 4;
/// Ideal-mode simulated executions per Blackboard mapping.
const MC_TRIALS: usize = 128;
/// A run holds at least this many Blackboard solves, so that ten lie
/// beyond the p99.
const MIN_BB_SOLVES: usize = 1000;
/// Open-loop rate of the traced run's daemon pass over these instances.
const TRACE_RATE_PER_S: f64 = 100.0;

/// One generated instance and the seed its randomised solvers use.
pub struct Instance {
    pub config: Configuration,
    pub seed: u64,
    pub scenario: Scenario,
}

fn configurations() -> Vec<Configuration> {
    let mut configs = vec![Configuration::LineLine];
    for &s in &SPEEDS_MBPS {
        configs.push(Configuration::LineBus(MbitsPerSec(s)));
    }
    for gc in [GraphClass::Bushy, GraphClass::Lengthy, GraphClass::Hybrid] {
        for &s in &SPEEDS_MBPS {
            configs.push(Configuration::GraphBus(gc, MbitsPerSec(s)));
        }
    }
    configs
}

/// `per_cell` instances of every configuration at every server count,
/// each with its own generator seed drawn from `seed`.
pub fn instances(seed: u64, ops: usize, servers: &[usize], per_cell: usize) -> Vec<Instance> {
    let class = ExperimentClass::class_c();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for config in configurations() {
        for &n in servers {
            for _ in 0..per_cell {
                let s = u64::from(rng.gen::<u32>());
                out.push(Instance {
                    config,
                    seed: s,
                    scenario: generate(config, ops, n, &class, s),
                });
            }
        }
    }
    out
}

/// The paper's greedies that apply to `config`, each seeded like the
/// Blackboard's own constructive members.
fn greedies(config: Configuration, seed: u64) -> Vec<Box<dyn DeploymentAlgorithm>> {
    let mut algos: Vec<Box<dyn DeploymentAlgorithm>> = vec![
        Box::new(FairLoad),
        Box::new(FairLoadTieResolver::new(seed)),
        Box::new(FairLoadTieResolver2::new(seed)),
        Box::new(FairLoadMergeMessages::new(seed)),
        Box::new(HeavyOpsLargeMsgs),
    ];
    if config == Configuration::LineLine {
        algos.push(Box::new(LineLine::new()));
    }
    algos
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup: Duration,
    solve_cpu_s: f64,
    solves: u64,
    bb_ms: Vec<f64>,
    bb_costs: Vec<f64>,
    operations: u64,
}

/// One instance's solver outcomes: `(name, result)` for each greedy,
/// then the Blackboard's.
type Solved = Vec<(
    String,
    Result<wsflow_core::SolveOutcome, wsflow_core::DeployError>,
)>;

/// Build, solve and simulate every instance once, then check every
/// output. Each phase runs over all instances before the next, so the
/// solve phase's CPU time holds nothing but solving.
fn round(instances: &[Instance], report: &mut Report) -> Round {
    let mut r = Round::default();
    let problems: Vec<Problem> = instances
        .iter()
        .map(|inst| {
            let (wf, net) = (
                inst.scenario.workflow.clone(),
                inst.scenario.network.clone(),
            );
            let t = Instant::now();
            let p = Problem::new(wf, net).expect("generated instances are valid");
            r.setup += t.elapsed();
            p
        })
        .collect();

    let cpu = cpu_seconds();
    let solved: Vec<Solved> = instances
        .iter()
        .zip(&problems)
        .map(|(inst, problem)| {
            let mut out: Solved = greedies(inst.config, inst.seed)
                .iter()
                .map(|algo| {
                    let res = algo.solve(problem, &mut SolveCtx::unlimited());
                    (algo.name().to_string(), res)
                })
                .collect();
            let t = Instant::now();
            let bb = Blackboard::new(inst.seed).solve(problem, &mut SolveCtx::unlimited());
            r.bb_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.push(("Blackboard".to_string(), bb));
            out
        })
        .collect();
    r.solve_cpu_s = cpu_seconds() - cpu;
    r.solves = solved.iter().map(|s| s.len() as u64).sum();
    r.operations = r.solves;

    for ((inst, problem), outcomes) in instances.iter().zip(&problems).zip(&solved) {
        let name = &inst.scenario.name;
        let mut costs = Vec::new();
        for (algo, res) in outcomes {
            match res {
                Ok(out) => {
                    check_solution(report, problem, name, algo, out);
                    costs.push((algo, out.cost));
                }
                Err(e) => report.check(false, || format!("{algo} on {name}: {e}")),
            }
        }
        let Some((_, Ok(bb))) = outcomes.last() else {
            continue;
        };
        r.bb_costs.push(bb.cost);
        for (algo, cost) in &costs[..costs.len() - 1] {
            report.check(check::not_above(bb.cost, *cost), || {
                format!(
                    "Blackboard cost {} above its member {algo}'s {cost} on {name}",
                    bb.cost
                )
            });
        }
        let mc = monte_carlo(
            problem,
            &bb.mapping,
            SimConfig::ideal(),
            MC_TRIALS,
            inst.seed,
        );
        r.operations += 1;
        if check::decision_free(problem) {
            let analytic = texecute(problem, &bb.mapping).value();
            let completions: Vec<f64> = mc.outcomes.iter().map(|o| o.completion.value()).collect();
            report.check(check::trials_match(&completions, analytic), || {
                format!("simulated trials differ from Texecute {analytic} on {name}")
            });
        }
    }
    r
}

fn check_solution(
    report: &mut Report,
    problem: &Problem,
    instance: &str,
    algo: &str,
    out: &wsflow_core::SolveOutcome,
) {
    let idx = check::server_indices(&out.mapping);
    report.check(
        check::mapping_in_range(&idx, problem.num_ops(), problem.num_servers()),
        || format!("{algo} on {instance}: mapping not total or out of range"),
    );
    let reference = check::reference_cost(problem, &out.mapping);
    report.check(check::cost_matches(out.cost, reference), || {
        format!(
            "{algo} on {instance}: reported cost {} but the mapping costs {reference}",
            out.cost
        )
    });
}

/// On 9-operation × 3-server instances, no algorithm beats the optimum
/// found by enumerating all 3⁹ mappings.
fn check_against_optimum(seed: u64, report: &mut Report) -> u64 {
    let mut operations = 0;
    for inst in instances(seed ^ 0x9E37_79B9_7F4A_7C15, 9, &[3], 1) {
        let problem = Problem::new(inst.scenario.workflow, inst.scenario.network)
            .expect("generated instances are valid");
        let optimum = check::enumerated_optimum(&problem);
        let name = inst.scenario.name;
        let mut algos = greedies(inst.config, inst.seed);
        algos.push(Box::new(Blackboard::new(inst.seed)));
        for algo in algos {
            operations += 1;
            match algo.solve(&problem, &mut SolveCtx::unlimited()) {
                Ok(out) => report.check(check::not_below_optimum(out.cost, optimum), || {
                    format!(
                        "{} cost {} beats the enumerated optimum {optimum} on {}",
                        algo.name(),
                        out.cost,
                        name
                    )
                }),
                Err(e) => report.check(false, || format!("{} on {name}: {e}", algo.name())),
            }
        }
    }
    operations
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let insts = instances(args.seed, OPS, &SERVERS, PER_CELL);
    report.attempted += check_against_optimum(args.seed, &mut report);

    if args.trace {
        let (untraced, traced, ops) =
            layers::traced_slowdown(|| round(&insts, &mut report).operations);
        report.attempted += ops;
        layers::measure(&layer_inputs(&insts), untraced, traced, &mut report);
        return report;
    }

    let (mut setups, mut bb_ms, mut bb_costs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solves, mut solve_cpu_s) = (0u64, 0.0);
    let mut peak_rss = None;
    let start = Instant::now();
    while start.elapsed() < args.seconds || bb_ms.len() * insts.len() < MIN_BB_SOLVES {
        let r = round(&insts, &mut report);
        peak_rss.get_or_insert_with(peak_rss_mib);
        setups.push(r.setup.as_secs_f64());
        solves += r.solves;
        solve_cpu_s += r.solve_cpu_s;
        bb_ms.push(r.bb_ms);
        report.attempted += r.operations;
        bb_costs = r.bb_costs;
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    report.info("solve_ms", median_of_fastest(&bb_ms), "ms");
    report.metric("solves_per_s", solves as f64 / solve_cpu_s, "1/s");
    report.metric("cost_mean_s", mean(&bb_costs), "s");
    report.info("solve_p50_ms", median(&bb_ms.concat()), "ms");
    report.info("solve_p99_ms", blocked_p99(&bb_ms, MIN_BB_SOLVES), "ms");
    report
}

/// The traced run's layer inputs: these instances, and the bus ones
/// again as daemon requests (`Generated` specs rebuild exactly them).
fn layer_inputs(insts: &[Instance]) -> LayerInputs {
    let requests = insts
        .iter()
        .filter_map(|inst| {
            let (shape, speed) = match inst.config {
                Configuration::LineLine => return None,
                Configuration::LineBus(s) => ("line", s),
                Configuration::GraphBus(GraphClass::Bushy, s) => ("bushy", s),
                Configuration::GraphBus(GraphClass::Lengthy, s) => ("lengthy", s),
                Configuration::GraphBus(GraphClass::Hybrid, s) => ("hybrid", s),
            };
            Some(layers::request(
                "gold",
                "blackboard",
                None,
                ProblemSpec::Generated {
                    shape: shape.to_string(),
                    ops: OPS as u32,
                    servers: inst.scenario.network.num_servers() as u32,
                    bus_mbps: speed.value(),
                    seed: inst.seed,
                },
            ))
        })
        .collect();
    LayerInputs {
        scenarios: insts.iter().map(|i| (i.scenario.clone(), i.seed)).collect(),
        budget: None,
        mc_trials: MC_TRIALS,
        requests,
        rate_per_s: TRACE_RATE_PER_S,
    }
}
