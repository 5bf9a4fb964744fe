//! Criterion bench behind Figs. 13/14: Algorithm 1 routing and whole-
//! network compilation on the paper's Fat Tree, for both policies and
//! with/without α-discretisation, plus Algorithm 1 alone on the
//! 72-switch churn testbed, where every aggregate's union is
//! replicated to eight cores, and the install of one churn op there.

use camus_bench::experiments::fig14::recompile_time;
use camus_core::compiler::Compiler;
use camus_core::statics::compile_static;
use camus_lang::ast::Expr;
use camus_net::controller::Controller;
use camus_net::PerfectChannel;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::compile::{compile_network, DeltaCache};
use camus_routing::topology::{paper_fat_tree, three_layer, FaultMask};
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn generator() -> SienaGenerator {
    SienaGenerator::new(SienaConfig {
        predicates_per_filter: 3,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed: 0xBE7C,
        ..Default::default()
    })
}

/// `total` filters dealt round-robin over `hosts` hosts.
fn subs(hosts: usize, total: usize) -> Vec<Vec<Expr>> {
    let mut g = generator();
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
    for (i, f) in g.filters(total).into_iter().enumerate() {
        subs[i % hosts].push(f);
    }
    subs
}

fn bench_routing(c: &mut Criterion) {
    let net = paper_fat_tree();
    let mut g = c.benchmark_group("algorithm1");
    for n in [256usize, 1_024] {
        let s = subs(net.host_count(), n);
        for (name, policy) in [("mr", Policy::MemoryReduction), ("tr", Policy::TrafficReduction)] {
            g.bench_with_input(BenchmarkId::new(name, n), &s, |b, s| {
                b.iter(|| {
                    route_hierarchical(&net, s, RoutingConfig::new(policy)).switch_rules(0).len()
                })
            });
        }
    }
    g.finish();
}

/// Algorithm 1 on the 8-pod `three_layer` testbed (72 switches, 128
/// hosts): the plan stage a subscription change pays before any
/// compile.
fn bench_routing_testbed(c: &mut Criterion) {
    let net = three_layer(8, 4, 4, 8, 4);
    let mut g = c.benchmark_group("algorithm1_testbed");
    for n in [1_000usize, 16_000] {
        let s = subs(net.host_count(), n);
        for (name, cfg) in [
            ("mr", RoutingConfig::new(Policy::MemoryReduction)),
            ("tr", RoutingConfig::new(Policy::TrafficReduction)),
            ("tr_alpha10", RoutingConfig::new(Policy::TrafficReduction).with_alpha(10)),
        ] {
            g.bench_with_input(BenchmarkId::new(name, n), &s, |b, s| {
                b.iter(|| route_hierarchical(&net, s, cfg).switch_fingerprint(0))
            });
        }
    }
    g.finish();
}

/// `Controller::install` of a one-filter churn op on the testbed (1k
/// subscriptions, MR): stage, admit and commit of the ten switches the
/// op dirties, which share three distinct compiles. Iterations
/// alternate between the op and its inverse, so the deployment returns
/// to its start every second iteration; each iteration also clones the
/// routing and compile it hands over, as `install` takes them by value.
fn bench_install_testbed(c: &mut Criterion) {
    let net = three_layer(8, 4, 4, 8, 4);
    let ctrl = Controller::new(
        compile_static(&generator().spec()).unwrap(),
        RoutingConfig::new(Policy::MemoryReduction),
    );
    let before = subs(net.host_count(), 1_000);
    let mut after = before.clone();
    after[5].pop();
    let mut dep = ctrl.deploy(net.clone(), &before).unwrap();
    let mut cache = DeltaCache::new();
    let healthy = FaultMask::default();
    let op_routing = ctrl.plan_routing(&net, &after, &healthy);
    let op = ctrl.compile_routing_delta(&op_routing, Some(&dep.compile), &mut cache).unwrap();
    let undo_routing = ctrl.plan_routing(&net, &before, &healthy);
    let undo = ctrl.compile_routing_delta(&undo_routing, Some(&op), &mut cache).unwrap();
    let steps = [(op_routing, op), (undo_routing, undo)];

    let mut g = c.benchmark_group("install_testbed");
    let mut next = 0;
    g.bench_function("mr_1000_one_filter", |b| {
        b.iter(|| {
            let (routing, compile) = steps[next].clone();
            next = 1 - next;
            ctrl.install(&mut dep, routing, compile, 0, &mut PerfectChannel).unwrap().reinstalled
        })
    });
    g.finish();
}

fn bench_network_compile(c: &mut Criterion) {
    let net = paper_fat_tree();
    let mut g = c.benchmark_group("network_compile");
    g.sample_size(10);
    for n in [256usize, 1_024] {
        for alpha in [1i64, 10] {
            let s = subs(net.host_count(), n);
            let routing = route_hierarchical(
                &net,
                &s,
                RoutingConfig::new(Policy::TrafficReduction).with_alpha(alpha),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("tr_alpha{alpha}"), n),
                &routing,
                |b, routing| {
                    let compiler = Compiler::new();
                    b.iter(|| compile_network(routing, &compiler).unwrap().total_entries())
                },
            );
        }
    }
    g.finish();
}

fn bench_end_to_end_recompile(c: &mut Criterion) {
    // The Fig. 14 number as a single measured quantity.
    let mut g = c.benchmark_group("fig14_recompile");
    g.sample_size(10);
    g.bench_function("tr_512subs_3vars_exact", |b| {
        b.iter(|| recompile_time(512, 3, Policy::TrafficReduction, 1))
    });
    g.bench_function("tr_512subs_3vars_alpha10", |b| {
        b.iter(|| recompile_time(512, 3, Policy::TrafficReduction, 10))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing, bench_routing_testbed, bench_install_testbed, bench_network_compile, bench_end_to_end_recompile
}
criterion_main!(benches);
