//! Criterion bench behind Figs. 13/14: Algorithm 1 routing and whole-
//! network compilation on the paper's Fat Tree, for both policies and
//! with/without α-discretisation, plus Algorithm 1 alone on the
//! 72-switch churn testbed, where every aggregate's union is
//! replicated to eight cores.

use camus_bench::experiments::fig14::recompile_time;
use camus_core::compiler::Compiler;
use camus_lang::ast::Expr;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::compile::compile_network;
use camus_routing::topology::{paper_fat_tree, three_layer};
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// `total` filters dealt round-robin over `hosts` hosts.
fn subs(hosts: usize, total: usize) -> Vec<Vec<Expr>> {
    let mut g = SienaGenerator::new(SienaConfig {
        predicates_per_filter: 3,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed: 0xBE7C,
        ..Default::default()
    });
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
    targets = bench_routing, bench_routing_testbed, bench_network_compile, bench_end_to_end_recompile
}
criterion_main!(benches);
