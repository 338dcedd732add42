//! The traced run's per-layer metrics.
//!
//! Each layer is measured from outside: by timing calls into its
//! crate's public functions on the workload's own inputs, and by reading
//! the counters `wsflow-obs` already keeps while the registry is on.
//! Every workload reports the same per-layer names; a layer a workload
//! barely uses is still timed on that workload's inputs, so the figure
//! says how much (or how little) that layer costs there.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_core::{
    partition_ops, Blackboard, DeploymentAlgorithm, FairLoad, FairLoadMergeMessages,
    FairLoadTieResolver, FairLoadTieResolver2, HeavyOpsLargeMsgs, Hierarchical, Portfolio,
    SolveCtx,
};
use wsflow_cost::{CommMatrix, DeltaEvaluator, Evaluator, Mapping, Problem};
use wsflow_model::OpId;
use wsflow_net::{RoutingTable, ServerId};
use wsflow_sim::{monte_carlo, SimConfig};
use wsflow_svc::proto;
use wsflow_svc::{FairQueue, ProblemSpec, Reply, Request, SvcConfig};
use wsflow_workload::Scenario;

use crate::report::{mean, median, ms, ns, quantile, us, Report};
use crate::svc;

/// What the layer pass runs on: the workload's own instances (with the
/// seed their randomised solvers use), its solve budget, and its
/// daemon requests.
pub struct LayerInputs {
    pub scenarios: Vec<(Scenario, u64)>,
    pub budget: Option<u64>,
    pub mc_trials: usize,
    pub requests: Vec<Request>,
    pub rate_per_s: f64,
}

/// Blackboard roster order (`Blackboard::default_sources`).
const SOURCES: [&str; 10] = [
    "fairload", "fltr", "fltr2", "flmme", "holm", "lineline", "mover", "swapper", "repairer",
    "router",
];

/// Solvers timed one by one, by metric key.
fn solvers(seed: u64) -> Vec<(&'static str, Box<dyn DeploymentAlgorithm>)> {
    vec![
        ("fairload", Box::new(FairLoad)),
        ("fltr", Box::new(FairLoadTieResolver::new(seed))),
        ("fltr2", Box::new(FairLoadTieResolver2::new(seed))),
        ("flmme", Box::new(FairLoadMergeMessages::new(seed))),
        ("holm", Box::new(HeavyOpsLargeMsgs)),
        ("portfolio", Box::new(Portfolio::new(seed))),
        ("hierarchical", Box::new(Hierarchical::new(FairLoad))),
        ("blackboard", Box::new(Blackboard::new(seed))),
    ]
}

pub fn request(tenant: &str, algo: &str, budget: Option<u64>, spec: ProblemSpec) -> Request {
    Request {
        tenant: tenant.to_string(),
        algo: algo.to_string(),
        budget,
        deadline_ms: None,
        spec,
    }
}

/// Run one round with the obs registry off, then the same round with it
/// on; returns both wall times and the operations the two attempted.
pub fn traced_slowdown(mut round: impl FnMut() -> u64) -> (Duration, Duration, u64) {
    wsflow_obs::set_enabled(false);
    let t = Instant::now();
    let a = round();
    let untraced = t.elapsed();
    wsflow_obs::reset();
    wsflow_obs::set_enabled(true);
    let t = Instant::now();
    let b = round();
    let traced = t.elapsed();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();
    (untraced, traced, a + b)
}

/// Counters accumulated by `f` with the obs registry on.
fn counted<T>(f: impl FnOnce() -> T) -> (T, wsflow_obs::Snapshot) {
    wsflow_obs::reset();
    wsflow_obs::set_enabled(true);
    let out = f();
    wsflow_obs::set_enabled(false);
    let snap = wsflow_obs::snapshot();
    wsflow_obs::reset();
    (out, snap)
}

fn counter(snap: &wsflow_obs::Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn random_mapping(rng: &mut ChaCha8Rng, ops: usize, servers: usize) -> Mapping {
    Mapping::from_fn(ops, |_| ServerId::from(rng.gen_range(0..servers)))
}

pub fn measure(inputs: &LayerInputs, untraced: Duration, traced: Duration, report: &mut Report) {
    report.metric(
        "obs.traced_slowdown",
        traced.as_secs_f64() / untraced.as_secs_f64(),
        "ratio",
    );

    // The svc workload's instances are the problems its requests build.
    let scenarios: Vec<(Scenario, u64)> = if inputs.scenarios.is_empty() {
        inputs
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let p = wsflow_svc::build_problem(&r.spec).expect("requests are valid");
                let scenario = Scenario {
                    name: format!("request {i}"),
                    workflow: p.workflow().clone(),
                    network: p.network().clone(),
                    seed: i as u64,
                };
                let seed = match r.spec {
                    ProblemSpec::Generated { seed, .. } => seed,
                    ProblemSpec::Inline { .. } => 0,
                };
                (scenario, seed)
            })
            .collect()
    } else {
        inputs.scenarios.clone()
    };

    // wsflow-net and wsflow-cost set-up.
    let (mut routing_ms, mut comm_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut problems = Vec::new();
    for (sc, _) in &scenarios {
        let t = Instant::now();
        let routing = black_box(RoutingTable::new(&sc.network));
        routing_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(CommMatrix::new(&sc.network, &routing));
        comm_ms.push(ms(t.elapsed()));
        let (wf, net) = (sc.workflow.clone(), sc.network.clone());
        let t = Instant::now();
        let p = Problem::new(wf, net).expect("workload instances are valid");
        build_ms.push(ms(t.elapsed()));
        problems.push(p);
    }
    report.metric("net.routing_build_ms", mean(&routing_ms), "ms");
    report.metric("cost.comm_matrix_build_ms", mean(&comm_ms), "ms");
    report.metric("cost.problem_build_ms", mean(&build_ms), "ms");

    // Full evaluation, delta probe and delta apply on seeded mappings.
    let (mut eval_ns, mut probe_ns, mut apply_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (p, (_, seed)) in problems.iter().zip(&scenarios) {
        let (m, n) = (p.num_ops(), p.num_servers());
        let reps = (200_000 / m).clamp(8, 1000);
        let mut rng = ChaCha8Rng::seed_from_u64(*seed);
        let mappings: Vec<Mapping> = (0..reps).map(|_| random_mapping(&mut rng, m, n)).collect();
        let moves: Vec<(OpId, ServerId)> = (0..reps)
            .map(|_| {
                (
                    OpId::from(rng.gen_range(0..m)),
                    ServerId::from(rng.gen_range(0..n)),
                )
            })
            .collect();
        let mut ev = Evaluator::new(p);
        let t = Instant::now();
        for mp in &mappings {
            black_box(ev.evaluate(mp));
        }
        eval_ns.push(ns(t.elapsed()) / reps as f64);
        let mut de = DeltaEvaluator::new(p, mappings[0].clone());
        let t = Instant::now();
        for &(op, s) in &moves {
            black_box(de.probe(op, s));
        }
        probe_ns.push(ns(t.elapsed()) / reps as f64);
        let t = Instant::now();
        for &(op, s) in &moves {
            black_box(de.apply(op, s));
        }
        apply_ns.push(ns(t.elapsed()) / reps as f64);
    }
    report.metric("cost.eval_ns", mean(&eval_ns), "ns");
    report.metric("cost.delta_probe_ns", mean(&probe_ns), "ns");
    report.metric("cost.delta_apply_ns", mean(&apply_ns), "ns");

    // wsflow-core: partitioning and every solver, registry off.
    let target = Hierarchical::new(FairLoad).target_cluster_size;
    let partition_ms: Vec<f64> = problems
        .iter()
        .map(|p| {
            let t = Instant::now();
            black_box(partition_ops(p.workflow(), target).expect("well-formed workflows"));
            ms(t.elapsed())
        })
        .collect();
    report.metric("core.partition_ms", mean(&partition_ms), "ms");

    let keys: Vec<&str> = solvers(0).iter().map(|(k, _)| *k).collect();
    let mut solve_ms = vec![Vec::new(); keys.len()];
    let mut first_incumbent_ms = Vec::new();
    let mut bb_mappings = Vec::new();
    for (pi, (p, (_, seed))) in problems.iter().zip(&scenarios).enumerate() {
        for (i, (key, algo)) in solvers(*seed).into_iter().enumerate() {
            let start = Instant::now();
            let mut first = None;
            let out = {
                let mut ctx = SolveCtx::with_budget_opt(inputs.budget).on_incumbent(|_, _| {
                    first.get_or_insert_with(|| start.elapsed());
                });
                algo.solve(p, &mut ctx)
            };
            let elapsed = start.elapsed();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    report.check(false, || format!("{key} failed in the layer pass: {e}"));
                    continue;
                }
            };
            solve_ms[i].push(ms(elapsed));
            if key == "blackboard" {
                first_incumbent_ms.push(ms(first.unwrap_or(elapsed)));
                bb_mappings.push((pi, out.mapping));
            }
        }
    }
    for (key, v) in keys.iter().zip(&solve_ms) {
        report.metric(format!("core.{key}.solve_ms"), mean(v), "ms");
    }
    report.metric("core.first_incumbent_ms", mean(&first_incumbent_ms), "ms");

    // Blackboard internals and the delta/par counters, registry on.
    let bb_ms_total: f64 = solve_ms[keys.iter().position(|k| *k == "blackboard").unwrap()]
        .iter()
        .sum();
    let (mut steps, mut generations) = (0u64, 0u64);
    let mut per_source = [(0u64, 0u64); SOURCES.len()];
    let (mut probes, mut applies, mut resyncs, mut spawns, mut tasks) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (p, (_, seed)) in problems.iter().zip(&scenarios) {
        let (res, snap) = counted(|| {
            Blackboard::new(*seed).solve_stats(p, &mut SolveCtx::with_budget_opt(inputs.budget))
        });
        let (out, stats) = res.expect("the blackboard deploys every workload instance");
        steps += out.steps;
        generations += stats.generations;
        for (slot, s) in per_source.iter_mut().zip(&stats.sources) {
            slot.0 += s.proposals;
            slot.1 += s.accepts;
        }
        probes += counter(&snap, "delta.probes");
        applies += counter(&snap, "delta.applies");
        resyncs += counter(&snap, "delta.resyncs");
        spawns += counter(&snap, "par.worker_spawns");
        tasks += counter(&snap, "par.tasks");
    }
    let solves = problems.len() as f64;
    report.metric("cost.delta_probes", probes / solves, "count");
    report.metric("cost.delta_applies", applies / solves, "count");
    report.metric("cost.delta_resyncs", resyncs / solves, "count");
    report.metric("core.bb.steps", steps as f64 / solves, "count");
    report.metric(
        "core.bb.ns_per_step",
        bb_ms_total * 1e6 / steps.max(1) as f64,
        "ns",
    );
    report.metric("core.bb.generations", generations as f64 / solves, "count");
    report.metric(
        "core.bb.generation_ms",
        bb_ms_total / (generations as f64 + solves),
        "ms",
    );
    for (name, (proposals, accepts)) in SOURCES.iter().zip(per_source) {
        report.metric(
            format!("core.bb.{name}.proposals"),
            proposals as f64 / solves,
            "count",
        );
        report.metric(
            format!("core.bb.{name}.accepts"),
            accepts as f64 / solves,
            "count",
        );
    }
    report.metric("par.solve_worker_spawns", spawns / solves, "count");
    report.metric("par.solve_tasks", tasks / solves, "count");

    // wsflow-sim: ideal-mode Monte Carlo of the Blackboard mappings.
    let trials = inputs.mc_trials;
    let (mut trial_us, mut events, mut mc_spawns, mut mc_tasks) = (Vec::new(), 0.0, 0.0, 0.0);
    for (pi, mapping) in &bb_mappings {
        let p = &problems[*pi];
        let t = Instant::now();
        black_box(monte_carlo(p, mapping, SimConfig::ideal(), trials, 1));
        trial_us.push(us(t.elapsed()) / trials as f64);
        let (_, snap) = counted(|| monte_carlo(p, mapping, SimConfig::ideal(), trials, 1));
        events += counter(&snap, "sim.events");
        mc_spawns += counter(&snap, "par.worker_spawns");
        mc_tasks += counter(&snap, "par.tasks");
    }
    let calls = bb_mappings.len().max(1) as f64;
    report.metric("sim.trial_us", mean(&trial_us), "us");
    report.metric(
        "sim.events_per_trial",
        events / (calls * trials as f64),
        "count",
    );
    report.metric("par.mc_worker_spawns", mc_spawns / calls, "count");
    report.metric("par.mc_tasks", mc_tasks / calls, "count");

    // wsflow-model: the DSL parser on these workflows.
    let parse_us: Vec<f64> = scenarios
        .iter()
        .map(|(sc, _)| {
            let text = wsflow_model::dsl::serialize(&sc.workflow);
            let t = Instant::now();
            black_box(wsflow_model::dsl::parse(&text).expect("serialized workflows parse"));
            us(t.elapsed())
        })
        .collect();
    report.metric("model.dsl_parse_us", mean(&parse_us), "us");

    measure_svc(inputs, report);
}

/// wsflow-svc: the codec, problem building, the in-process solve and the
/// fair queue on this workload's requests, then the same requests sent
/// open-loop to a daemon.
fn measure_svc(inputs: &LayerInputs, report: &mut Report) {
    let reqs = &inputs.requests;
    let expected = svc::expected_all(reqs);
    let (mut encode_us, mut decode_us, mut codec) = (Vec::new(), Vec::new(), Vec::new());
    for (req, want) in reqs.iter().zip(&expected) {
        let reply = Reply::Done {
            cost: want.cost,
            steps: 0,
            termination: "converged".into(),
            mapping: want.mapping.clone(),
            queue_wait_us: 0,
        };
        let t = Instant::now();
        let req_frame = proto::encode_frame(req).expect("requests encode");
        let enc_req = t.elapsed();
        let t = Instant::now();
        let reply_frame = proto::encode_frame(&reply).expect("replies encode");
        let enc_reply = t.elapsed();
        let t = Instant::now();
        let back: Request = proto::read_message(&mut &req_frame[..])
            .expect("own frames decode")
            .expect("one frame");
        let dec_req = t.elapsed();
        let t = Instant::now();
        let _: Reply = proto::read_message(&mut &reply_frame[..])
            .expect("own frames decode")
            .expect("one frame");
        let dec_reply = t.elapsed();
        assert_eq!(&back, req, "a request survives its own codec");
        encode_us.extend([us(enc_req), us(enc_reply)]);
        decode_us.extend([us(dec_req), us(dec_reply)]);
        codec.push(enc_req + enc_reply + dec_req + dec_reply);
    }
    report.metric("svc.encode_us", mean(&encode_us), "us");
    report.metric("svc.decode_us", mean(&decode_us), "us");
    let build: Vec<f64> = expected.iter().map(|e| ms(e.build)).collect();
    let solve: Vec<f64> = expected.iter().map(|e| ms(e.solve)).collect();
    report.metric("svc.build_problem_ms", mean(&build), "ms");
    report.metric("svc.solve_ms", mean(&solve), "ms");

    let mut cfg = SvcConfig::default().with_queue_caps(reqs.len().max(1), reqs.len().max(1));
    for (tenant, weight) in svc::TENANTS {
        cfg = cfg.with_weight(tenant, weight);
    }
    let reps = (20_000 / reqs.len().max(1)).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        let mut q = FairQueue::new(&cfg);
        for (i, r) in reqs.iter().enumerate() {
            q.push(&r.tenant, i).expect("the queue holds one round");
        }
        while let Some(job) = q.pop() {
            black_box(job);
        }
    }
    report.metric(
        "svc.fairqueue_ns",
        ns(t.elapsed()) / (reps * reqs.len().max(1)) as f64,
        "ns",
    );

    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| proto::encode_frame(r).expect("requests encode"))
        .collect();
    let (mut daemon, _) = svc::spawn_daemon();
    let (samples, late) = svc::open_loop(daemon.addr(), &frames, inputs.rate_per_s, 1);
    daemon.shutdown();
    let (mut wait_ms, mut unattributed_ms, mut frames_per_req) =
        (Vec::new(), Vec::new(), Vec::new());
    for s in &samples {
        svc::check_sample(report, s, &expected);
        let Ok(done) = &s.result else { continue };
        let wait = Duration::from_micros(done.queue_wait_us);
        let e = &expected[s.idx];
        wait_ms.push(ms(wait));
        unattributed_ms
            .push(ms(s.latency) - ms(wait) - ms(e.build) - ms(e.solve) - ms(codec[s.idx]));
        frames_per_req.push(done.incumbents.len() as f64);
    }
    report.attempted += samples.len() as u64;
    report.metric("svc.queue_wait_p50_ms", median(&wait_ms), "ms");
    report.metric("svc.queue_wait_p99_ms", quantile(&wait_ms, 0.99), "ms");
    report.metric("svc.unattributed_ms", median(&unattributed_ms), "ms");
    report.metric("svc.incumbent_frames", mean(&frames_per_req), "count");
    let late_ms: Vec<f64> = late.iter().map(|d| ms(*d)).collect();
    report.metric("svc.generator_late_ms", quantile(&late_ms, 0.99), "ms");
}
