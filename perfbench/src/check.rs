//! Output checks. Each compares the program's output with a computation
//! made apart from the solvers (the reference `texecute`, this file's own
//! Table 1 arithmetic for line workflows, full enumeration) or with a
//! property the method must have. None compares with a stored copy of
//! an earlier output.

use wsflow_cost::{texecute, time_penalty, Mapping, Problem};
use wsflow_model::{OpId, Seconds};
use wsflow_net::{Network, ServerId, TopologyKind};

/// Relative tolerance for two computations of one cost that may sum in
/// a different order.
const REL_TOL: f64 = 1e-9;

/// Every operation is placed, on a server that exists.
pub fn mapping_in_range(mapping: &[u32], num_ops: usize, num_servers: usize) -> bool {
    mapping.len() == num_ops && mapping.iter().all(|&s| (s as usize) < num_servers)
}

pub fn server_indices(mapping: &Mapping) -> Vec<u32> {
    mapping
        .as_slice()
        .iter()
        .map(|s| s.index() as u32)
        .collect()
}

/// `reported` equals `reference` up to summation order.
pub fn cost_matches(reported: f64, reference: f64) -> bool {
    reported.is_finite() && (reported - reference).abs() <= REL_TOL * reference.abs().max(1e-300)
}

/// The Blackboard races its constructive members (FairLoad among them)
/// and keeps the best, so it may not end above any of them.
pub fn not_above(cost: f64, member_cost: f64) -> bool {
    cost <= member_cost
}

/// No heuristic may beat the enumerated optimum.
pub fn not_below_optimum(cost: f64, optimum: f64) -> bool {
    cost >= optimum - REL_TOL * optimum.abs()
}

/// A budgeted solve stays within its budget, except that the forced
/// first construction (which must run so that a mapping exists) may
/// overshoot it on its own.
pub fn steps_within_budget(steps: u64, budget: u64, forced_construction: u64) -> bool {
    steps <= budget.max(forced_construction)
}

/// Streamed incumbent costs strictly decrease and end at the final cost.
pub fn incumbents_ok(incumbents: &[f64], final_cost: f64) -> bool {
    incumbents.windows(2).all(|w| w[1] < w[0])
        && incumbents.last().map(|c| c.to_bits()) == Some(final_cost.to_bits())
}

/// Every ideal-mode trial of a decision-free workflow takes the analytic
/// `Texecute`, up to summation order.
pub fn trials_match(completions: &[f64], analytic: f64) -> bool {
    !completions.is_empty() && completions.iter().all(|&c| cost_matches(c, analytic))
}

/// No decision nodes: every execution follows the same path, so the
/// simulator has nothing to sample.
pub fn decision_free(problem: &Problem) -> bool {
    problem.workflow().decision_ops().is_empty()
}

/// The reference combined cost of `mapping`. Line workflows on line or
/// bus networks use this file's own Table 1 arithmetic; every other
/// instance uses the library's reference `texecute` + `time_penalty`.
pub fn reference_cost(problem: &Problem, mapping: &Mapping) -> f64 {
    if let Some(cost) = line_cost(problem, mapping) {
        return cost;
    }
    problem
        .weights()
        .combine(texecute(problem, mapping), time_penalty(problem, mapping))
        .value()
}

/// Table 1 on a line workflow: `Texecute = Σ Tproc + Σ Tcomm`, with
/// `Tproc = C / P` and `Tcomm = Σ_hops (size / speed + propagation)`
/// (zero when co-located); `Penalty = Σ_s |Load(s) − avg| / 2` with
/// `Load(s) = Σ Tproc` of the ops on `s`. `None` off line/bus networks.
fn line_cost(problem: &Problem, mapping: &Mapping) -> Option<f64> {
    let w = problem.workflow();
    let net = problem.network();
    let order = w.as_line()?;
    if !matches!(net.kind(), TopologyKind::Line | TopologyKind::Bus) || net.has_region_latency() {
        return None;
    }
    let mut exec = 0.0f64;
    let mut loads = vec![0.0f64; net.num_servers()];
    for (i, &op) in order.iter().enumerate() {
        let s = mapping.server_of(op);
        let t = w.op(op).cost.value() / net.server(s).power.value();
        exec += t;
        loads[s.index()] += t;
        if let Some(&next) = order.get(i + 1) {
            let msg = w.find_message(op, next)?;
            exec += hop_time(net, s, mapping.server_of(next), w.message(msg).size.value())?;
        }
    }
    let avg = loads.iter().sum::<f64>() / loads.len() as f64;
    let penalty = loads.iter().map(|l| (l - avg).abs()).sum::<f64>() / 2.0;
    Some(
        problem
            .weights()
            .combine(Seconds(exec), Seconds(penalty))
            .value(),
    )
}

/// Transfer time of `size` Mbit from `a` to `b`: one bus hop, or every
/// link between them on a line, in order from `a`.
fn hop_time(net: &Network, a: ServerId, b: ServerId, size: f64) -> Option<f64> {
    let link_time = |x: usize, y: usize| -> Option<f64> {
        let link = net.link(net.find_link(ServerId::from(x), ServerId::from(y))?);
        Some(size / link.speed.value() + link.propagation.value())
    };
    let (a, b) = (a.index(), b.index());
    if a == b {
        return Some(0.0);
    }
    if net.kind() == TopologyKind::Bus {
        return link_time(a, b);
    }
    let mut t = 0.0;
    let mut cur = a;
    while cur != b {
        let next = if b > cur { cur + 1 } else { cur - 1 };
        t += link_time(cur, next)?;
        cur = next;
    }
    Some(t)
}

/// The optimum combined cost, by enumerating all `N^M` mappings under
/// the reference cost. Callers keep `N^M` small (3⁹ here).
pub fn enumerated_optimum(problem: &Problem) -> f64 {
    let (m, n) = (problem.num_ops(), problem.num_servers());
    let total = (n as u64).pow(m as u32);
    let mut digits = vec![0usize; m];
    let mut best = f64::INFINITY;
    for _ in 0..total {
        let mapping = Mapping::from_fn(m, |op: OpId| ServerId::from(digits[op.index()]));
        best = best.min(reference_cost(problem, &mapping));
        for d in digits.iter_mut() {
            *d += 1;
            if *d < n {
                break;
            }
            *d = 0;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_core::{Blackboard, DeploymentAlgorithm, FairLoad, SolveCtx};
    use wsflow_model::MbitsPerSec;
    use wsflow_sim::{monte_carlo, SimConfig};
    use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass};

    fn problem(config: Configuration, m: usize, n: usize, seed: u64) -> Problem {
        let s = generate(config, m, n, &ExperimentClass::class_c(), seed);
        Problem::new(s.workflow, s.network).unwrap()
    }

    fn line_line() -> Problem {
        problem(Configuration::LineLine, 7, 4, 3)
    }

    #[test]
    fn line_arithmetic_agrees_with_the_library_reference() {
        for p in [
            line_line(),
            problem(Configuration::LineBus(MbitsPerSec(10.0)), 9, 3, 5),
        ] {
            let mapping = FairLoad.deploy(&p).unwrap();
            let own = line_cost(&p, &mapping).expect("a line workflow");
            let lib = p
                .weights()
                .combine(texecute(&p, &mapping), time_penalty(&p, &mapping))
                .value();
            assert!(cost_matches(own, lib), "{own} vs {lib}");
        }
    }

    #[test]
    fn range_check_fails_on_a_corrupted_mapping() {
        let p = line_line();
        let good = server_indices(&FairLoad.deploy(&p).unwrap());
        assert!(mapping_in_range(&good, p.num_ops(), p.num_servers()));
        let mut out_of_range = good.clone();
        out_of_range[2] = p.num_servers() as u32;
        assert!(!mapping_in_range(
            &out_of_range,
            p.num_ops(),
            p.num_servers()
        ));
        assert!(!mapping_in_range(&good[1..], p.num_ops(), p.num_servers()));
    }

    #[test]
    fn cost_check_fails_on_a_corrupted_cost_or_mapping() {
        for p in [
            line_line(),
            problem(
                Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(10.0)),
                19,
                4,
                2,
            ),
        ] {
            let out = Blackboard::new(1)
                .solve(&p, &mut SolveCtx::unlimited())
                .unwrap();
            assert!(cost_matches(out.cost, reference_cost(&p, &out.mapping)));
            assert!(!cost_matches(
                out.cost * (1.0 + 1e-6),
                reference_cost(&p, &out.mapping)
            ));
            let mut moved = out.mapping.clone();
            let op = OpId::from(0usize);
            let other = (moved.server_of(op).index() + 1) % p.num_servers();
            moved.assign(op, ServerId::from(other));
            assert!(!cost_matches(out.cost, reference_cost(&p, &moved)));
        }
    }

    #[test]
    fn optimum_check_fails_below_the_enumerated_optimum() {
        let p = problem(Configuration::LineBus(MbitsPerSec(10.0)), 6, 3, 4);
        let opt = enumerated_optimum(&p);
        let heuristic = Blackboard::new(0).deploy(&p).unwrap();
        assert!(not_below_optimum(reference_cost(&p, &heuristic), opt));
        assert!(!not_below_optimum(opt * (1.0 - 1e-6), opt));
    }

    #[test]
    fn member_check_fails_on_a_corrupted_blackboard_cost() {
        let p = problem(
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0)),
            19,
            5,
            8,
        );
        let bb = Blackboard::new(8).deploy(&p).unwrap();
        let fl = FairLoad.deploy(&p).unwrap();
        let (bb, fl) = (reference_cost(&p, &bb), reference_cost(&p, &fl));
        assert!(not_above(bb, fl));
        assert!(!not_above(fl * (1.0 + 1e-6), fl));
    }

    #[test]
    fn budget_check_fails_past_the_budget() {
        assert!(steps_within_budget(1_000, 1_000, 50));
        assert!(steps_within_budget(10_000_000, 1_000_000, 10_000_000));
        assert!(!steps_within_budget(1_000_001, 1_000_000, 50));
    }

    #[test]
    fn incumbent_check_fails_on_a_bad_stream() {
        assert!(incumbents_ok(&[3.0, 2.0, 1.5], 1.5));
        assert!(!incumbents_ok(&[3.0, 3.0, 1.5], 1.5));
        assert!(!incumbents_ok(&[3.0, 2.0], 1.5));
        assert!(!incumbents_ok(&[], 1.5));
    }

    #[test]
    fn simulation_check_fails_on_a_corrupted_trial() {
        let p = line_line();
        assert!(decision_free(&p));
        let mapping = FairLoad.deploy(&p).unwrap();
        let mc = monte_carlo(&p, &mapping, SimConfig::ideal(), 8, 1);
        let mut completions: Vec<f64> = mc.outcomes.iter().map(|o| o.completion.value()).collect();
        let analytic = texecute(&p, &mapping).value();
        assert!(trials_match(&completions, analytic));
        completions[3] *= 1.0 + 1e-6;
        assert!(!trials_match(&completions, analytic));
    }
}
