//! Per-layer timing from outside: each span wraps one call into a
//! layer's public functions.

use crate::Report;
use camus_bdd::{BddBuilder, VarOrder, DEEP_STACK};
use camus_core::compiled::CompiledPipeline;
use camus_core::compiler::Compiler;
use camus_core::multicast::MulticastAllocator;
use camus_core::tables::bdd_to_pipeline;
use camus_dataplane::{Switch, SwitchStats};
use camus_lang::ast::{Expr, Rule};
use camus_lang::dnf::to_dnf;
use camus_net::controller::{Controller, Deployment};
use camus_net::PerfectChannel;
use camus_routing::compile::compile_network;
use camus_routing::topology::{FaultMask, HierNet};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Run `f` on a thread with the compiler's deep stack: BDD recursion
/// depth grows with the longest variable band.
pub fn on_deep_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(DEEP_STACK)
            .spawn_scoped(scope, f)
            .expect("spawn deep-stack thread")
            .join()
            .expect("deep-stack thread")
    })
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One compile unit (one distinct rule list) taken through every
/// compiler layer separately, summed over units.
#[derive(Default)]
pub struct UnitCost {
    pub dnf: Duration,
    pub build: Duration,
    pub tables: Duration,
    pub lower: Duration,
    pub compile: Duration,
    pub nodes: usize,
    pub entries: usize,
}

impl UnitCost {
    fn add(&mut self, o: &UnitCost) {
        self.dnf += o.dnf;
        self.build += o.build;
        self.tables += o.tables;
        self.lower += o.lower;
        self.compile += o.compile;
        self.nodes += o.nodes;
        self.entries += o.entries;
    }

    /// Report per-unit means over `units` units.
    pub fn report(&self, rep: &mut Report, units: usize) {
        let n = units.max(1) as f64;
        rep.layer("lang.dnf_us", us(self.dnf) / n);
        rep.layer("bdd.build_us", us(self.build) / n);
        rep.layer("bdd.live_nodes", self.nodes as f64 / n);
        rep.layer("core.tables_us", us(self.tables) / n);
        rep.layer("core.lower_us", us(self.lower) / n);
        rep.layer("core.compile_us", us(self.compile) / n);
        rep.layer("core.entries", self.entries as f64 / n);
    }
}

/// DNF conversion, BDD build, table emission and lowering of one rule
/// list, each timed on its own, then the whole `Compiler::compile`.
pub fn unit_cost(compiler: &Compiler, order: &VarOrder, rules: &[Rule]) -> UnitCost {
    on_deep_stack(|| {
        let mut c = UnitCost::default();
        let t = Instant::now();
        for r in rules {
            black_box(to_dnf(&r.filter));
        }
        c.dnf = t.elapsed();
        let t = Instant::now();
        let bdd = BddBuilder::from_rules(rules).with_order(order.clone()).build();
        c.build = t.elapsed();
        c.nodes = bdd.node_count();
        let t = Instant::now();
        let pipeline =
            bdd_to_pipeline(&bdd, &mut MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT))
                .expect("tables emit");
        c.tables = t.elapsed();
        c.entries = pipeline.total_entries();
        let t = Instant::now();
        black_box(CompiledPipeline::lower(&pipeline));
        c.lower = t.elapsed();
        let t = Instant::now();
        black_box(compiler.compile(rules).expect("unit compiles"));
        c.compile = t.elapsed();
        c
    })
}

/// Per-packet data plane counters of switches whose only traffic was
/// `publications` probe publications.
pub fn probe_counts(rep: &mut Report, switches: &[Switch], publications: u64) {
    let sw = switches.iter().fold(SwitchStats::default(), |mut a, s| {
        a.merge(&s.stats());
        a
    });
    let pkts = sw.packets.max(1) as f64;
    rep.layer("dataplane.stage_hits_per_pkt", sw.stage_hits as f64 / pkts);
    rep.layer("dataplane.entries_scanned_per_pkt", sw.entries_scanned as f64 / pkts);
    rep.layer("dataplane.copies_per_pkt", sw.copies as f64 / pkts);
    rep.layer("dataplane.hops_per_pub", sw.packets as f64 / publications.max(1) as f64);
}

/// A deploy taken apart: Algorithm 1, the per-switch compile, and the
/// install transaction timed separately, then every distinct compile
/// unit through [`unit_cost`]. Returns the installed deployment, the
/// wall time of the three timed calls back to back, and their sum.
pub fn deploy_layers(
    ctrl: &Controller,
    topology: &HierNet,
    subs: &[Vec<Expr>],
    rep: &mut Report,
) -> (Deployment, Duration, Duration) {
    let mut dep =
        ctrl.deploy(topology.clone(), &vec![Vec::new(); subs.len()]).expect("empty deploy");
    let compiler = Compiler::new().with_static(ctrl.statics.clone());

    let t_all = Instant::now();
    let t = Instant::now();
    let routing = ctrl.plan_routing(topology, subs, &FaultMask::default());
    let plan = t.elapsed();
    let t = Instant::now();
    let compile = compile_network(&routing, &compiler).expect("network compiles");
    let compiled = t.elapsed();
    let admit_pipelines: Vec<_> = compile.changed_since(&dep.compile);
    let t = Instant::now();
    let stats = ctrl
        .install(&mut dep, routing, compile, plan.as_nanos() as u64, &mut PerfectChannel)
        .expect("install commits");
    let install = t.elapsed();
    let wall = t_all.elapsed();

    // Admission alone, on the installed switches.
    let t = Instant::now();
    for &s in &admit_pipelines {
        let pipeline = &dep.compile.switches[s].compiled.pipeline;
        black_box(dep.network.switches[s].admit(pipeline).is_ok());
    }
    let admit = t.elapsed();

    let mut seen = HashSet::new();
    let mut units = UnitCost::default();
    for sc in &dep.compile.switches {
        if seen.insert(sc.fingerprint) {
            let rules = dep.routing.switch_rules(sc.switch);
            units.add(&unit_cost(&compiler, &ctrl.statics.var_order(), &rules));
        }
    }
    units.report(rep, seen.len());
    rep.layer("routing.plan_us", us(plan));
    rep.layer("routing.compile_us", us(compiled));
    rep.layer("routing.recompiled_per_op", dep.compile.recompiled as f64);
    rep.layer("routing.reused_per_op", dep.compile.reused as f64);
    rep.layer("routing.distinct_units", seen.len() as f64);
    rep.layer("net.install_us", us(install));
    rep.layer("net.reinstalled_per_op", stats.reinstalled as f64);
    rep.layer("dataplane.admit_us", us(admit));
    (dep, wall, plan + compiled + install)
}
