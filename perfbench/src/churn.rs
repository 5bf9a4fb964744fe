//! `churn`: the fabric testbed with 1,000 initial subscriptions under
//! the `service` experiment's seeded Poisson churn (30% unsubscribes).
//! One client sends each request through `CamusService::request` and
//! waits on `drain()` with audit probes on, so every operation is timed
//! from request to traffic-visible on every switch, and batching is
//! deterministic.

use crate::common::{deployed, publication, siena};
use crate::layers::{on_deep_stack, probe_counts, us};
use crate::stats::{median_setup, ChunkRate, LatHist};
use crate::{Args, Report};
use camus_bdd::{rule_digest, IncrementalBdd};
use camus_core::compiled::CompiledPipeline;
use camus_core::compiler::{CompileState, Compiler};
use camus_core::multicast::MulticastAllocator;
use camus_core::tables::bdd_to_pipeline;
use camus_lang::ast::{Expr, Rule};
use camus_lang::dnf::to_dnf;
use camus_net::controller::{Controller, Deployment};
use camus_net::PerfectChannel;
use camus_routing::compile::DeltaCache;
use camus_routing::topology::FaultMask;
use camus_service::{AuditProbe, CamusService, RequestOp, ServiceConfig, ServiceOutcome};
use camus_workloads::churn::{ChurnConfig, ChurnEvent, ChurnOp, PoissonChurn};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SUBS: usize = 1000;
/// Scheduled requests; more than a run gets through.
const OPS: usize = 4000;
const PROBES: usize = 4;
/// Requests per throughput chunk.
const CHUNK: u64 = 10;
/// Requests in the traced passes (a fixed prefix of the schedule, so
/// their counts repeat exactly).
const TRACED: usize = 40;

struct Setup {
    ctrl: Controller,
    subs: Vec<Vec<Expr>>,
    dep: Deployment,
    probes: Vec<AuditProbe>,
    events: Vec<ChurnEvent>,
    witness_mismatch: usize,
}

/// Deploy (timed `reps` times, median), then draw the audit probes
/// and the churn schedule.
fn setup(seed: u64, reps: usize) -> (Setup, f64) {
    let ((ctrl, subs, dep), setup_s) = median_setup(reps, || deployed(SUBS));
    let mut g = siena(seed);
    let hosts = subs.len();

    // Probes crafted against live initial subscriptions, published
    // from the far side of the host range so they cross the tree. The
    // audit matches them on the values decoded from the wire.
    let spec = g.spec();
    let mut probes = Vec::new();
    let mut witness_mismatch = 0;
    for host in 0..hosts {
        if probes.len() == PROBES {
            break;
        }
        if let Some(f) = subs[host].first() {
            let witness = g.matching_packet(f);
            let p = publication(&spec, &subs, (host + hosts / 2) % hosts, witness);
            witness_mismatch += p.witness_mismatch as usize;
            probes.push(AuditProbe { publisher: p.publisher, packet: p.packet, values: p.values });
        }
    }
    let events = PoissonChurn::new(
        ChurnConfig { rate_per_s: 4_000.0, unsubscribe_fraction: 0.3, seed: seed ^ 0x5EED },
        hosts,
        &subs,
    )
    .schedule(&mut g, OPS);
    (Setup { ctrl, subs, dep, probes, events, witness_mismatch }, setup_s)
}

fn start(s: Setup) -> (CamusService, Vec<ChurnEvent>, usize) {
    let cfg = ServiceConfig { probes: s.probes, ..ServiceConfig::default() };
    let svc = CamusService::start(s.ctrl, s.dep, s.subs, Box::new(PerfectChannel), cfg);
    (svc, s.events, s.witness_mismatch)
}

fn request_op(ev: &ChurnEvent) -> RequestOp {
    match &ev.op {
        ChurnOp::Subscribe(f) => RequestOp::Subscribe(f.clone()),
        ChurnOp::Unsubscribe(f) => RequestOp::Unsubscribe(f.clone()),
    }
}

/// One request, drained to traffic-visible. Returns its wall time and
/// whether it committed cleanly with a clean audit.
fn request(svc: &mut CamusService, ev: &ChurnEvent) -> (Duration, bool) {
    let t0 = Instant::now();
    svc.request(ev.host, request_op(ev), ev.at_ns);
    let reports = svc.drain();
    let dt = t0.elapsed();
    let ok = !reports.is_empty()
        && reports.iter().all(|r| {
            r.committed
                && r.error.is_none()
                && r.audit.map_or(r.noop, |a| a.clean() && a.probes > 0)
        });
    (dt, ok)
}

/// The shutdown accounting every run must pass.
fn check_outcome(rep: &mut Report, out: &ServiceOutcome) {
    rep.check("service reported no errors", out.errors.is_empty());
    rep.check("every accepted request is accounted for", out.stats.unaccounted_ops == 0);
    rep.check(
        "no request was lost or rejected",
        out.lost_requests.is_empty() && out.rejected_requests.is_empty(),
    );
    rep.check("the audit saw no mis-delivery", out.stats.audit.clean());
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (s, setup_s) = setup(args.seed, 5);
    let (mut svc, events, _) = start(s);
    let mut hist = LatHist::new();
    let mut rate = ChunkRate::new(CHUNK);
    let deadline = Instant::now() + args.seconds;
    for ev in &events {
        let (dt, ok) = request(&mut svc, ev);
        hist.record(dt);
        rate.record(1, dt);
        rep.attempted += 1;
        rep.failed += !ok as u64;
        if Instant::now() >= deadline {
            break;
        }
    }
    let out = svc.shutdown();
    check_outcome(&mut rep, &out);
    rep.metric("ops_per_s", rate.median(), "1/s");
    rep.metric("lat_p50_us", hist.quantile_ns(0.50) / 1e3, "us");
    rep.extra.push(("lat_p95_us", hist.quantile_ns(0.95) / 1e3));
    rep.metric("setup_s", setup_s, "s");
    rep.samples.push(("requests", hist.count()));
    rep.samples.push(("chunks", rate.chunks()));
    rep
}

/// A mirror of one maintained diagram, replayed from outside.
struct Mirror {
    inc: IncrementalBdd,
    counts: HashMap<u64, usize>,
    state: CompileState,
}

/// Per-dirty-unit layer times of the controller replay.
#[derive(Default)]
struct UnitTotals {
    units: usize,
    dnf: Duration,
    delta: Duration,
    snapshot: Duration,
    tables: Duration,
    lower: Duration,
    compile: Duration,
    nodes: usize,
    entries: usize,
}

impl Mirror {
    fn seed(
        compiler: &Compiler,
        order: &camus_bdd::VarOrder,
        rules: &[Rule],
    ) -> (Mirror, Duration) {
        let t = Instant::now();
        let inc = IncrementalBdd::from_rules(rules, order);
        let build = t.elapsed();
        let mut counts = HashMap::new();
        for r in rules {
            *counts.entry(rule_digest(r)).or_insert(0) += 1;
        }
        let (_, state) = compiler.compile_incremental_seed(rules).expect("unit seeds");
        (Mirror { inc, counts, state }, build)
    }

    /// Bring the mirror to `rules`, timing each layer.
    fn advance(&mut self, compiler: &Compiler, rules: &[Rule], t: &mut UnitTotals) {
        let mut want: HashMap<u64, usize> = HashMap::new();
        let mut rep: HashMap<u64, &Rule> = HashMap::new();
        for r in rules {
            let d = rule_digest(r);
            *want.entry(d).or_insert(0) += 1;
            rep.entry(d).or_insert(r);
        }
        let mut ops: Vec<(u64, isize)> = Vec::new();
        for (&d, &n) in &want {
            ops.push((d, n as isize - self.counts.get(&d).copied().unwrap_or(0) as isize));
        }
        for (&d, &n) in &self.counts {
            if !want.contains_key(&d) {
                ops.push((d, -(n as isize)));
            }
        }
        ops.sort_by_key(|&(d, n)| (n > 0, d));
        let t0 = Instant::now();
        for &(d, n) in &ops {
            for _ in 0..n.unsigned_abs() {
                if n < 0 {
                    self.inc.remove_by_digest(d);
                } else {
                    self.inc.insert_rule(rep[&d]);
                }
            }
        }
        t.delta += t0.elapsed();
        self.counts = want;

        let t0 = Instant::now();
        let bdd = self.inc.snapshot();
        t.snapshot += t0.elapsed();
        let t0 = Instant::now();
        let pipeline =
            bdd_to_pipeline(&bdd, &mut MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT))
                .expect("tables emit");
        t.tables += t0.elapsed();
        let t0 = Instant::now();
        black_box(CompiledPipeline::lower(&pipeline));
        t.lower += t0.elapsed();
        t.entries += pipeline.total_entries();
        t.nodes += self.inc.live_nodes();

        let t0 = Instant::now();
        for r in rules {
            black_box(to_dnf(&r.filter));
        }
        t.dnf += t0.elapsed();
        let t0 = Instant::now();
        black_box(compiler.compile_incremental(&mut self.state, rules).expect("unit recompiles"));
        t.compile += t0.elapsed();
        t.units += 1;
    }
}

/// Per-op controller layers over the traced prefix.
#[derive(Default)]
struct Replay {
    plan: Duration,
    compile: Duration,
    install: Duration,
    admit: Duration,
    recompiled: usize,
    reused: usize,
    distinct: usize,
    reinstalled: usize,
    delta_states: usize,
    seed_build: Duration,
    seeded: usize,
    units: UnitTotals,
}

/// The traced prefix replayed through `Controller` directly: plan,
/// delta compile and install timed per op, and every dirty unit taken
/// through the BDD and core layers on a mirror of its maintained
/// diagram.
fn replay(s: Setup) -> Replay {
    on_deep_stack(move || {
        let Setup { ctrl, mut subs, mut dep, events, .. } = s;
        let compiler = Compiler::new().with_static(ctrl.statics.clone());
        let order = ctrl.statics.var_order();
        let topology = dep.network.topology.clone();
        let mut r = Replay::default();
        let mut cache = DeltaCache::new();
        let mut mirrors: HashMap<u64, Mirror> = HashMap::new();
        for sc in &dep.compile.switches {
            if let Entry::Vacant(slot) = mirrors.entry(sc.fingerprint) {
                let (m, build) =
                    Mirror::seed(&compiler, &order, &dep.routing.switch_rules(sc.switch));
                r.seed_build += build;
                r.seeded += 1;
                slot.insert(m);
            }
        }
        for ev in &events[..TRACED] {
            match &ev.op {
                ChurnOp::Subscribe(f) => subs[ev.host].push(f.clone()),
                ChurnOp::Unsubscribe(f) => {
                    if let Some(i) = subs[ev.host].iter().position(|x| x == f) {
                        subs[ev.host].remove(i);
                    }
                }
            }
            let t = Instant::now();
            let routing = ctrl.plan_routing(&topology, &subs, &FaultMask::default());
            let plan = t.elapsed();
            let t = Instant::now();
            let compile = ctrl
                .compile_routing_delta(&routing, Some(&dep.compile), &mut cache)
                .expect("delta compile");
            r.compile += t.elapsed();
            r.plan += plan;
            r.recompiled += compile.recompiled;
            r.reused += compile.reused;
            r.distinct += compile.distinct_compiles;

            let changed = compile.changed_since(&dep.compile);
            let t = Instant::now();
            for &sw in &changed {
                black_box(
                    dep.network.switches[sw].admit(&compile.switches[sw].compiled.pipeline).is_ok(),
                );
            }
            r.admit += t.elapsed();

            // Dirty units: one per new fingerprint, advanced from the
            // mirror of the slot's previous rule list.
            let mut done = HashSet::new();
            for sc in compile.switches.iter().filter(|sc| !sc.reused) {
                if !done.insert(sc.fingerprint) {
                    continue;
                }
                let old = dep.compile.switches[sc.switch].fingerprint;
                let rules = routing.switch_rules(sc.switch);
                let mut m = match mirrors.remove(&old) {
                    Some(m) => m,
                    None => Mirror::seed(&compiler, &order, &rules).0,
                };
                m.advance(&compiler, &rules, &mut r.units);
                mirrors.insert(sc.fingerprint, m);
            }
            let live: HashSet<u64> = compile.switches.iter().map(|sc| sc.fingerprint).collect();
            mirrors.retain(|fp, _| live.contains(fp));

            let t = Instant::now();
            let stats = ctrl
                .install(&mut dep, routing, compile, plan.as_nanos() as u64, &mut PerfectChannel)
                .expect("install commits");
            r.install += t.elapsed();
            r.reinstalled += stats.reinstalled;
        }
        r.delta_states = cache.len();
        r
    })
}

pub fn trace(args: &Args) -> Report {
    let mut rep = Report::default();

    // Untraced: request -> drain through the service.
    let (mut svc, events, witness_mismatch) = start(setup(args.seed, 1).0);
    let mut plain = Duration::ZERO;
    for ev in &events[..TRACED] {
        let (dt, ok) = request(&mut svc, ev);
        plain += dt;
        rep.attempted += 1;
        rep.failed += !ok as u64;
    }
    check_outcome(&mut rep, &svc.shutdown());

    // Traced: the same requests, reading the registry after each.
    let (mut svc, events, _) = start(setup(args.seed, 1).0);
    let registry = svc.registry().clone();
    let mut traced = Duration::ZERO;
    let mut queue_max = 0u64;
    for ev in &events[..TRACED] {
        let (dt, ok) = request(&mut svc, ev);
        let t0 = Instant::now();
        for q in ["intake", "compile", "deploy"] {
            queue_max = queue_max
                .max(registry.histogram(&format!("service.queue.{q}.depth")).snapshot().max);
        }
        traced += dt + t0.elapsed();
        rep.attempted += 1;
        rep.failed += !ok as u64;
    }
    let out = svc.shutdown();
    check_outcome(&mut rep, &out);

    let r = replay(setup(args.seed, 1).0);

    let n = TRACED as f64;
    let per_op = |d: Duration| us(d) / n;
    let e2e = per_op(plain);
    let layers = per_op(r.plan) + per_op(r.compile) + per_op(r.install);
    rep.layer("routing.plan_us", per_op(r.plan));
    rep.layer("routing.compile_us", per_op(r.compile));
    rep.layer("routing.recompiled_per_op", r.recompiled as f64 / n);
    rep.layer("routing.reused_per_op", r.reused as f64 / n);
    rep.layer("routing.distinct_units", r.distinct as f64 / n);
    rep.layer("routing.delta_states", r.delta_states as f64);
    rep.layer("net.install_us", per_op(r.install));
    rep.layer("net.reinstalled_per_op", r.reinstalled as f64 / n);
    rep.layer("dataplane.admit_us", per_op(r.admit));
    let u = &r.units;
    let per_unit = |d: Duration| us(d) / u.units.max(1) as f64;
    rep.layer("lang.dnf_us", per_unit(u.dnf));
    rep.layer("bdd.build_us", us(r.seed_build) / r.seeded.max(1) as f64);
    rep.layer("bdd.delta_op_us", per_unit(u.delta));
    rep.layer("bdd.snapshot_us", per_unit(u.snapshot));
    rep.layer("bdd.live_nodes", u.nodes as f64 / u.units.max(1) as f64);
    rep.layer("core.tables_us", per_unit(u.tables));
    rep.layer("core.lower_us", per_unit(u.lower));
    rep.layer("core.compile_us", per_unit(u.compile));
    rep.layer("core.entries", u.entries as f64 / u.units.max(1) as f64);

    // The audit probes are the only packets the switches saw.
    probe_counts(&mut rep, &out.deployment.network.switches, out.stats.audit.probes as u64);

    rep.layer("service.self_us", e2e - layers);
    rep.layer("service.compiles_per_op", out.stats.compiles as f64 / n);
    rep.layer("service.audit_probes_per_op", out.stats.audit.probes as f64 / n);
    rep.layer("service.queue_depth_max", queue_max as f64);
    rep.layer("workloads.witness_mismatch", witness_mismatch as f64);
    rep.layer("recon.e2e_us", e2e);
    rep.layer("recon.layers_us", layers);
    rep.layer("recon.residual_frac", (e2e - layers) / e2e);
    rep.layer("trace.overhead_frac", (us(traced) - us(plain)) / us(plain));
    rep.samples.push(("traced_requests", TRACED as u64));
    rep.samples.push(("dirty_units", u.units as u64));
    rep
}
