//! The four cycle-engine workloads: one `Engine<Adam2Protocol>` driven
//! through `run_rounds` or `run_rounds_parallel`, instance after instance.

use std::time::Instant;

use adam2_bench::{adam2_engine_with, current_truth, setup, start_instance, ExperimentSetup};
use adam2_core::{Adam2Config, Adam2Protocol, InstanceMeta, RobustPolicy};
use adam2_sim::{
    derive_seed, ChurnModel, Engine, ExchangeRepair, FaultScenario, MassAuditor, OverlayConfig,
    RoundSnapshot, SimTelemetry,
};
use adam2_traces::Attribute;

use crate::measure::{
    bench_threads, median, peak_rss_mb, percentile, set_up_repeatedly, Stopwatch, Tracer,
};
use crate::outcome::{Outcome, Unit};
use crate::peers;
use crate::spec::{CycleParams, CyclePath, LAMBDA, ROUNDS, SIM_SETUPS, WARMUP_ROUNDS};

/// Weight-mass tolerance on the fault-free workloads.
const WEIGHT_TOLERANCE: f64 = 1e-9;
/// Key of the weight component in the [`MassAuditor`].
const AUDIT_WEIGHT: u64 = 0;
/// Instances the hostile fault schedule is generated for; a run that
/// measures more meets only churn from then on.
const HOSTILE_INSTANCES: u64 = 32;

type CycleEngine = Engine<Adam2Protocol>;

/// Gossip rounds one instance lives for. A hardened instance restarts once
/// (its self-heal threshold is below any reachable error estimate), so it
/// runs two averaging epochs before it finalises.
fn gossip_rounds(p: &CycleParams) -> u64 {
    if p.hostile {
        2 * ROUNDS
    } else {
        ROUNDS
    }
}

fn protocol_config(p: &CycleParams) -> Adam2Config {
    let config = Adam2Config::new()
        .with_lambda(LAMBDA)
        .with_rounds_per_instance(ROUNDS)
        .with_verify_points(p.verify_points);
    if p.hostile {
        config
            .with_robust(
                RobustPolicy::new()
                    .with_trim_fraction(0.0)
                    .with_influence_cap(0.25),
            )
            .with_self_heal(1e-15, 1)
    } else {
        config
    }
}

/// Burst loss (20 %, instance rounds 5–15) and a crash-recover wave (10 %,
/// instance rounds 40–48) for each of the first [`HOSTILE_INSTANCES`]
/// instances, so that every measured instance meets the same faults.
fn hostile_scenario(p: &CycleParams, seed: u64) -> FaultScenario {
    let stride = gossip_rounds(p) + 1;
    (0..HOSTILE_INSTANCES).fold(
        FaultScenario::new(derive_seed(seed, 0xFA_17)),
        |scenario, k| {
            let base = WARMUP_ROUNDS + k * stride;
            scenario
                .with_burst_loss(base + 5, base + 15, 0.20)
                .with_crash_recover(base + 40, base + 48, 0.10)
        },
    )
}

fn build_engine(p: &CycleParams, s: &ExperimentSetup, seed: u64, threads: usize) -> CycleEngine {
    let mut engine = adam2_engine_with(s, protocol_config(p), seed, |c| {
        let c = c.with_threads(threads).with_overlay(
            p.shuffle_degree
                .map_or(OverlayConfig::oracle(), OverlayConfig::shuffle),
        );
        if p.hostile {
            c.with_churn(ChurnModel::uniform(0.001))
                .with_repair(ExchangeRepair::enabled())
        } else {
            c
        }
    });
    if p.hostile {
        engine
            .set_fault_scenario(hostile_scenario(p, seed))
            .expect("generated scenario is valid");
    }
    engine
}

/// Which round function drives the engine.
#[derive(Clone, Copy)]
struct Driver {
    path: CyclePath,
    threads: usize,
}

impl Driver {
    fn of(p: &CycleParams) -> Self {
        Self {
            path: p.path,
            threads: match p.path {
                CyclePath::Sequential => 1,
                CyclePath::Parallel => bench_threads(),
            },
        }
    }

    fn rounds(self, engine: &mut CycleEngine, n: u64) {
        match self.path {
            CyclePath::Sequential => engine.run_rounds(n),
            CyclePath::Parallel => engine.run_rounds_parallel(n),
        }
    }

    /// Runs `n` rounds: one call untraced, one call and one span per round
    /// traced (`run_rounds*` is itself a loop over single rounds).
    fn advance(self, engine: &mut CycleEngine, n: u64, name: &'static str, tracer: &mut Tracer) {
        if tracer.enabled() {
            for _ in 0..n {
                let span = tracer.begin(name);
                self.rounds(engine, 1);
                tracer.end(span);
            }
        } else {
            self.rounds(engine, n);
        }
    }
}

/// Population, engine and warm-up rounds: everything before the first
/// measured operation.
fn set_up(
    p: &CycleParams,
    seed: u64,
    driver: Driver,
    tracer: &mut Tracer,
) -> (ExperimentSetup, CycleEngine) {
    let span = tracer.begin("traces.population.generate");
    let s = setup(Attribute::Ram, p.nodes, seed);
    tracer.end(span);
    let span = tracer.begin("sim.engine.new");
    let mut engine = build_engine(p, &s, seed, driver.threads);
    tracer.end(span);
    driver.advance(&mut engine, WARMUP_ROUNDS, "sim.engine.round_idle", tracer);
    (s, engine)
}

fn fingerprint(engine: &CycleEngine) -> u64 {
    let net = engine.net();
    peers::fingerprint(engine.nodes(), &[net.total_msgs(), net.total_bytes()])
}

/// One instance from `start_instance` to its finalisation round. The
/// fault-free workloads pause the clock twice to audit the weight mass.
fn run_instance(
    p: &CycleParams,
    engine: &mut CycleEngine,
    driver: Driver,
    auditor: &mut MassAuditor,
    tracer: &mut Tracer,
) -> (Unit, std::sync::Arc<InstanceMeta>) {
    let msgs0 = engine.net().total_msgs();
    let bytes0 = engine.net().total_bytes();
    let mut watch = Stopwatch::started();
    let span = tracer.begin("core.protocol.start_instance");
    let meta = start_instance(engine);
    tracer.end(span);
    let gossip = gossip_rounds(p);
    if p.hostile {
        driver.advance(engine, gossip, "sim.engine.round", tracer);
    } else {
        for rounds in [gossip / 2, gossip - gossip / 2] {
            driver.advance(engine, rounds, "sim.engine.round", tracer);
            watch.pause();
            let span = tracer.begin("check.weight_mass");
            auditor.observe(AUDIT_WEIGHT, peers::weight_defect(engine.nodes(), meta.id));
            tracer.end(span);
            watch.resume();
        }
    }
    driver.advance(engine, 1, "sim.engine.round", tracer);
    let (wall_s, cpu_s) = watch.stop();
    let unit = Unit {
        wall_s,
        cpu_s,
        exchanges: (engine.net().total_msgs() - msgs0) as f64 / 2.0,
        bytes: (engine.net().total_bytes() - bytes0) as f64,
    };
    (unit, meta)
}

/// Scores the peers that were live when `meta`'s instance started (later
/// joiners are excluded from it by the protocol) against the current
/// population's CDF.
fn score(engine: &CycleEngine, meta: &InstanceMeta, seed: u64, out: &mut Outcome) {
    let eligible = engine
        .nodes()
        .iter()
        .filter(|(_, node)| node.joined_round() <= meta.start_round)
        .map(|(_, node)| node);
    peers::score(
        &peers::estimates_of(eligible),
        &current_truth(engine),
        seed,
        out,
    );
    peers::check_err_a(out);
}

/// A fresh engine run for one instance, for the cross-path and telemetry
/// comparisons of the traced run.
struct Leg {
    wall_s: f64,
    fingerprint: u64,
    snapshots: Vec<RoundSnapshot>,
}

fn one_instance_leg(
    p: &CycleParams,
    s: &ExperimentSetup,
    seed: u64,
    driver: Driver,
    telemetry: bool,
) -> Leg {
    let mut tracer = Tracer::new(false, Instant::now());
    let mut engine = build_engine(p, s, seed, driver.threads);
    driver.rounds(&mut engine, WARMUP_ROUNDS);
    if telemetry {
        engine.attach_telemetry(SimTelemetry::new());
    }
    let (unit, _) = run_instance(p, &mut engine, driver, &mut MassAuditor::new(), &mut tracer);
    Leg {
        wall_s: unit.wall_s,
        fingerprint: fingerprint(&engine),
        snapshots: engine
            .detach_telemetry()
            .map(|t| t.telemetry().snapshots().to_vec())
            .unwrap_or_default(),
    }
}

pub fn run(p: &CycleParams, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let driver = Driver::of(p);

    let top = tracer.begin("setup");
    let (s, mut engine) = set_up_repeatedly(
        SIM_SETUPS,
        tracer,
        &mut out.setup_s,
        |tracer| set_up(p, seed, driver, tracer),
        drop,
    );
    tracer.end(top);

    let mut auditor = MassAuditor::new();
    auditor.observe(AUDIT_WEIGHT, 0.0);
    let top = tracer.begin("measure");
    let mut last = None;
    for _ in 0..p.instances(seconds) {
        let (unit, meta) = run_instance(p, &mut engine, driver, &mut auditor, tracer);
        out.units.push(unit);
        out.fingerprints.push(fingerprint(&engine));
        last = Some(meta);
    }
    tracer.end(top);
    out.peak_rss_mb = peak_rss_mb();

    let top = tracer.begin("score");
    let meta = last.expect("at least one instance");
    tracer.span("core.metrics.evaluate", |_| {
        score(&engine, &meta, seed, &mut out)
    });
    tracer.end(top);

    if !p.hostile {
        // Churn and crashes remove mass by design, so the hostile workload
        // is guarded by its fingerprint alone.
        let drift = auditor.worst_drift_of(AUDIT_WEIGHT).unwrap_or(0.0);
        out.check(
            "weight_mass",
            drift.abs() <= WEIGHT_TOLERANCE,
            format!("worst excursion {drift:.3e} (tolerance {WEIGHT_TOLERANCE:.0e})"),
        );
    }

    if tracer.enabled() {
        let top = tracer.begin("legs");
        layer_metrics(p, &s, seed, driver, tracer, &mut out);
        tracer.end(top);
    }

    let top = tracer.begin("teardown");
    drop(engine);
    drop(s);
    tracer.end(top);
    out
}

/// Per-layer values of a traced run: span statistics of the run itself,
/// plus one-instance legs on fresh engines — with telemetry attached (the
/// exact per-instance counts, and what attaching costs) and, on the
/// parallel workload, through the other round functions.
fn layer_metrics(
    p: &CycleParams,
    s: &ExperimentSetup,
    seed: u64,
    driver: Driver,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let rounds = ms(tracer.durations_s("sim.engine.round"));
    let round_p50 = percentile(&rounds, 0.5);
    let l = &mut out.layers;
    l.set(
        "traces.population.generate_s",
        tracer.total_s("traces.population.generate"),
    );
    l.set("sim.engine.new_s", tracer.total_s("sim.engine.new"));
    l.set(
        "sim.engine.round_ms_idle",
        median(&ms(tracer.durations_s("sim.engine.round_idle"))),
    );
    l.set("sim.engine.round_ms_p50", round_p50);
    l.set("sim.engine.round_ms_p90", percentile(&rounds, 0.9));
    l.set("sim.engine.node_round_ns", round_p50 * 1e6 / p.nodes as f64);
    l.set(
        "core.protocol.start_instance_ns",
        median(&tracer.durations_s("core.protocol.start_instance")) * 1e9,
    );
    l.set(
        "core.metrics.evaluate_s",
        tracer.total_s("core.metrics.evaluate"),
    );

    let first = out.units[0].wall_s;
    let span = tracer.begin("leg.telemetry");
    let leg = one_instance_leg(p, s, seed, driver, true);
    tracer.end(span);
    out.check(
        "telemetry_is_observational",
        leg.fingerprint == out.fingerprints[0],
        format!(
            "{:016x} attached vs {:016x}",
            leg.fingerprint, out.fingerprints[0]
        ),
    );
    let sum = |f: fn(&RoundSnapshot) -> u64| leg.snapshots.iter().map(f).sum::<u64>() as f64;
    let started = sum(|r| r.exchanges);
    let aborted = sum(|r| r.aborts);
    let l = &mut out.layers;
    l.set("telemetry.attach_overhead", leg.wall_s / first);
    l.set("core.instance.merges", started - aborted);
    l.set("core.aggregation.robust_trims", sum(|r| r.robust_trims));
    l.set("core.aggregation.robust_rejects", sum(|r| r.robust_rejects));
    l.set("sim.churn.replaced", sum(|r| r.leaves));
    l.set("sim.faults.crashed", sum(|r| r.crashes));
    l.set("sim.faults.recovered", sum(|r| r.recoveries));
    l.set("sim.faults.exchanges_started", started);
    l.set("sim.faults.exchanges_repaired", sum(|r| r.repairs));
    l.set("sim.faults.exchanges_aborted", aborted);
    l.set("sim.faults.completion_ratio", (started - aborted) / started);

    let (mut par_speedup, mut par_vs_seq) = (0.0, 0.0);
    if p.path == CyclePath::Parallel {
        let span = tracer.begin("leg.parallel_1_thread");
        let par1 = one_instance_leg(
            p,
            s,
            seed,
            Driver {
                path: CyclePath::Parallel,
                threads: 1,
            },
            false,
        );
        tracer.end(span);
        let span = tracer.begin("leg.sequential");
        let seq = one_instance_leg(
            p,
            s,
            seed,
            Driver {
                path: CyclePath::Sequential,
                threads: 1,
            },
            false,
        );
        tracer.end(span);
        out.check(
            "threads_do_not_change_results",
            par1.fingerprint == out.fingerprints[0],
            format!(
                "{:016x} at 1 thread vs {:016x} at {}",
                par1.fingerprint, out.fingerprints[0], driver.threads
            ),
        );
        par_speedup = par1.wall_s / first;
        par_vs_seq = seq.wall_s / par1.wall_s;
    }
    out.layers.set("sim.engine.par_speedup", par_speedup);
    out.layers.set("sim.engine.par_vs_seq", par_vs_seq);
}
