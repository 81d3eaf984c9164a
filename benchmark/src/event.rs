//! The event-engine workload: one asynchronous Adam2 instance driven
//! through `EventEngine::run_until_parallel`.

use std::sync::Arc;
use std::time::Instant;

use adam2_bench::{setup, ExperimentSetup};
use adam2_core::{uniform_points, AsyncAdam2, InstanceId, InstanceMeta};
use adam2_sim::{EventConfig, EventEngine, LatencyModel, MassAuditor};
use adam2_traces::Attribute;

use crate::measure::{
    bench_threads, peak_rss_mb, percentile, set_up_repeatedly, Stopwatch, Tracer,
};
use crate::outcome::{Outcome, Unit};
use crate::peers;
use crate::spec::{EventParams, LAMBDA, ROUNDS, SIM_SETUPS};

/// Weight-mass tolerance at period boundaries: one-sided absorbs keep mass
/// in flight there, so the bound is today's
/// `adam2_explore::EVENT_WEIGHT_TOLERANCE`, not the cycle engine's 1e-9.
const WEIGHT_TOLERANCE: f64 = 0.15;
/// Period boundaries, counted back from the instance's end, at which the
/// weight mass is audited.
const AUDIT_BOUNDARIES: u64 = 3;
/// Periods the engine runs past the instance's end so every node finalises.
const SETTLE_PERIODS: u64 = 2;
const AUDIT_WEIGHT: u64 = 0;

type Engine = EventEngine<AsyncAdam2>;

fn build_engine(p: &EventParams, s: &ExperimentSetup, seed: u64, threads: usize) -> Engine {
    let pop = s.population.clone();
    let proto = AsyncAdam2::with_population(p.period, s.population.values().to_vec(), move |rng| {
        pop.draw_fresh(rng)
    });
    let config = EventConfig::new(p.nodes, seed)
        .with_gossip_period(p.period)
        .with_latency(LatencyModel::Uniform {
            min: p.latency.0,
            max: p.latency.1,
        })
        .with_threads(threads);
    EventEngine::new(config, proto)
}

fn set_up(
    p: &EventParams,
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> (ExperimentSetup, Engine) {
    let span = tracer.begin("traces.population.generate");
    let s = setup(Attribute::Ram, p.nodes, seed);
    tracer.end(span);
    let span = tracer.begin("sim.event.new");
    let engine = build_engine(p, &s, seed, threads);
    tracer.end(span);
    (s, engine)
}

fn fingerprint(engine: &Engine) -> u64 {
    let totals = [
        engine.delivered_count(),
        engine.lost_count(),
        engine.net().total_msgs(),
        engine.net().total_bytes(),
    ];
    peers::fingerprint(engine.nodes(), &totals)
}

/// Advances the engine to tick `until`: one call untraced, one call and
/// one span per gossip period traced.
fn advance(engine: &mut Engine, p: &EventParams, until: u64, tracer: &mut Tracer) {
    if !tracer.enabled() {
        engine.run_until_parallel(until);
        return;
    }
    while engine.now() < until {
        let next = ((engine.now() / p.period + 1) * p.period).min(until);
        let span = tracer.begin("sim.event.window");
        engine.run_until_parallel(next);
        tracer.end(span);
    }
}

/// One instance from `start_instance` until every node has finalised. The
/// clock pauses at the last period boundaries to audit the weight mass.
fn run_instance(
    p: &EventParams,
    s: &ExperimentSetup,
    engine: &mut Engine,
    auditor: &mut MassAuditor,
    tracer: &mut Tracer,
) -> Unit {
    let meta = Arc::new(InstanceMeta {
        id: InstanceId::derive(0, 0, 1),
        thresholds: uniform_points(s.truth.min(), s.truth.max(), LAMBDA).into(),
        verify_thresholds: Vec::new().into(),
        start_round: 0,
        end_round: ROUNDS,
        multi: false,
    });
    let mut watch = Stopwatch::started();
    let span = tracer.begin("core.protocol.start_instance");
    engine.with_ctx(|proto, ctx| {
        let initiator = ctx.nodes.random_id(ctx.rng).expect("population non-empty");
        proto.start_instance(initiator, meta.clone(), ctx)
    });
    tracer.end(span);
    for k in (ROUNDS - AUDIT_BOUNDARIES)..ROUNDS {
        advance(engine, p, k * p.period, tracer);
        watch.pause();
        let span = tracer.begin("check.weight_mass");
        auditor.observe(AUDIT_WEIGHT, peers::weight_defect(engine.nodes(), meta.id));
        tracer.end(span);
        watch.resume();
    }
    advance(engine, p, (ROUNDS + SETTLE_PERIODS) * p.period, tracer);
    let (wall_s, cpu_s) = watch.stop();
    Unit {
        wall_s,
        cpu_s,
        exchanges: engine.delivered_count() as f64 / 2.0,
        bytes: engine.net().total_bytes() as f64,
    }
}

fn score(engine: &Engine, s: &ExperimentSetup, seed: u64, out: &mut Outcome) {
    let all = engine.nodes().iter().map(|(_, node)| node);
    peers::score(&peers::estimates_of(all), &s.truth, seed, out);
    peers::check_err_a(out);
}

/// Delivered messages per second and the fingerprint of one untraced
/// instance on a fresh engine.
fn leg(p: &EventParams, seed: u64, threads: usize) -> (f64, u64) {
    let mut tracer = Tracer::new(false, Instant::now());
    let (s, mut engine) = set_up(p, seed, threads, &mut tracer);
    let unit = run_instance(p, &s, &mut engine, &mut MassAuditor::new(), &mut tracer);
    (2.0 * unit.exchanges / unit.wall_s, fingerprint(&engine))
}

pub fn run(p: &EventParams, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = bench_threads();

    let top = tracer.begin("setup");
    let (s, mut engine) = set_up_repeatedly(
        SIM_SETUPS,
        tracer,
        &mut out.setup_s,
        |tracer| set_up(p, seed, threads, tracer),
        drop,
    );
    tracer.end(top);

    let mut auditor = MassAuditor::new();
    auditor.observe(AUDIT_WEIGHT, 0.0);
    let top = tracer.begin("measure");
    let unit = run_instance(p, &s, &mut engine, &mut auditor, tracer);
    tracer.end(top);
    out.peak_rss_mb = peak_rss_mb();
    out.units.push(unit);
    out.fingerprints.push(fingerprint(&engine));

    let top = tracer.begin("score");
    tracer.span("core.metrics.evaluate", |_| {
        score(&engine, &s, seed, &mut out)
    });
    tracer.end(top);

    let drift = auditor.worst_drift_of(AUDIT_WEIGHT).unwrap_or(0.0);
    out.check(
        "weight_mass",
        drift.abs() <= WEIGHT_TOLERANCE,
        format!("worst boundary excursion {drift:.3e} (tolerance {WEIGHT_TOLERANCE})"),
    );

    if tracer.enabled() {
        let top = tracer.begin("legs");
        layer_metrics(p, seed, threads, &engine, unit, drift, tracer, &mut out);
        tracer.end(top);
    }

    let top = tracer.begin("teardown");
    drop(engine);
    drop(s);
    tracer.end(top);
    out
}

/// Per-layer values of a traced run: window statistics and counters of the
/// run itself, plus untraced legs on fresh engines at one thread and at a
/// tenth of the nodes.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    p: &EventParams,
    seed: u64,
    threads: usize,
    engine: &Engine,
    unit: Unit,
    drift: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let windows: Vec<f64> = tracer
        .durations_s("sim.event.window")
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    let msgs_per_s = engine.delivered_count() as f64 / unit.wall_s;
    let l = &mut out.layers;
    l.set(
        "traces.population.generate_s",
        tracer.total_s("traces.population.generate"),
    );
    l.set(
        "core.protocol.start_instance_ns",
        tracer.total_s("core.protocol.start_instance") * 1e9,
    );
    l.set("sim.event.new_s", tracer.total_s("sim.event.new"));
    l.set("sim.event.window_ms_p50", percentile(&windows, 0.5));
    l.set("sim.event.window_ms_p90", percentile(&windows, 0.9));
    l.set("sim.event.msgs_per_s", msgs_per_s);
    l.set("sim.event.ticks_per_s", engine.now() as f64 / unit.wall_s);
    l.set("sim.event.delivered", engine.delivered_count() as f64);
    l.set("sim.event.lost", engine.lost_count() as f64);
    l.set("sim.event.dup_dropped", engine.dup_dropped_count() as f64);
    l.set("sim.event.weight_drift", drift);
    l.set(
        "core.metrics.evaluate_s",
        tracer.total_s("core.metrics.evaluate"),
    );

    let span = tracer.begin("leg.1_thread");
    let (t1_msgs_per_s, t1_fingerprint) = leg(p, seed, 1);
    tracer.end(span);
    out.check(
        "threads_do_not_change_results",
        t1_fingerprint == out.fingerprints[0],
        format!(
            "{t1_fingerprint:016x} at 1 thread vs {:016x} at {threads}",
            out.fingerprints[0]
        ),
    );
    let span = tracer.begin("leg.tenth_of_nodes");
    let tenth = EventParams {
        nodes: (p.nodes / 10).max(16),
        ..*p
    };
    let (msgs_per_s_tenth, _) = leg(&tenth, seed, threads);
    tracer.end(span);
    let l = &mut out.layers;
    l.set("sim.event.t1_msgs_per_s", t1_msgs_per_s);
    l.set("sim.event.par_speedup", msgs_per_s / t1_msgs_per_s);
    l.set("sim.event.msgs_per_s_10k", msgs_per_s_tenth);
    l.set("sim.event.scale_ratio", msgs_per_s / msgs_per_s_tenth);
}
