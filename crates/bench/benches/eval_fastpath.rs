//! Criterion microbench for the compiled fast path: single-message
//! evaluation (interpreted `Pipeline::evaluate` vs lowered
//! `CompiledPipeline::eval`) across filter counts, evaluator scaling
//! with pipeline depth, and whole-switch batched processing
//! (`Switch::process_batch_indexed`) on the INT workload.

use camus_core::compiled::CompiledPipeline;
use camus_core::compiler::Compiler;
use camus_core::pipeline::{
    LeafTable, MatchKind, MatchSpec, Pipeline, StageTable, TableEntry, STATE_INIT,
};
use camus_core::statics::compile_static;
use camus_dataplane::packet::{Packet, PacketBuilder};
use camus_dataplane::switch::{Switch, SwitchConfig};
use camus_dataplane::telemetry::SwitchTelemetry;
use camus_lang::ast::{Action, Operand, Port, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::int_spec;
use camus_lang::value::Value;
use camus_telemetry::metrics::{MetricsRegistry, SampleRate};
use camus_workloads::int::{IntFeed, IntFeedConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::HashMap;

fn rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| Rule {
            filter: parse_expr(&format!(
                "switch_id == {} and hop_latency > {}",
                i % 100,
                100 + (i / 100) % 1000
            ))
            .unwrap(),
            action: Action::Forward(vec![(i % 64) as u16 + 1]),
        })
        .collect()
}

fn probes(compiled: &CompiledPipeline, n: usize) -> Vec<Vec<Option<Value>>> {
    let mut feed = IntFeed::new(IntFeedConfig::default());
    feed.reports(n)
        .iter()
        .map(|r| {
            let fields: HashMap<String, Value> = r.fields().into_iter().collect();
            compiled.slots().iter().map(|op| fields.get(&op.key()).cloned()).collect()
        })
        .collect()
}

fn bench_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_fastpath");
    for n in [10usize, 100, 1_000] {
        let pipeline = Compiler::new().compile(&rules(n)).unwrap().pipeline;
        let compiled = CompiledPipeline::lower(&pipeline);
        let vals = probes(&compiled, 256);
        g.throughput(Throughput::Elements(vals.len() as u64));
        g.bench_with_input(BenchmarkId::new("interpreted", n), &pipeline, |b, p| {
            b.iter(|| {
                vals.iter()
                    .map(|v| {
                        p.evaluate(|op| {
                            let i = compiled.slots().iter().position(|o| o == op)?;
                            v[i].clone()
                        })
                        .ports()
                        .map_or(0, <[u16]>::len)
                    })
                    .sum::<usize>()
            })
        });
        g.bench_with_input(BenchmarkId::new("compiled", n), &compiled, |b, cp| {
            b.iter(|| vals.iter().map(|v| cp.eval(v).0 as usize).sum::<usize>())
        });
    }
    g.finish();
}

fn bench_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_depth");
    for depth in [1usize, 2, 4, 8] {
        let stages = (0..depth)
            .map(|i| {
                StageTable::new(
                    Operand::Field("hop_latency".to_string()),
                    MatchKind::Range,
                    vec![
                        TableEntry {
                            state: i as u32,
                            spec: MatchSpec::IntRange(0, 1 << 20),
                            next: i as u32 + 1,
                        },
                        TableEntry { state: i as u32, spec: MatchSpec::Any, next: 0 },
                    ],
                )
            })
            .collect();
        let mut actions = HashMap::new();
        actions.insert(depth as u32, (Action::Forward(vec![1]), None));
        let pipeline = Pipeline {
            stages,
            leaf: LeafTable { actions, default: Action::Drop },
            initial: STATE_INIT,
        };
        let compiled = CompiledPipeline::lower(&pipeline);
        let vals: Vec<Vec<Option<Value>>> =
            (0..256).map(|i| vec![Some(Value::Int(i as i64))]).collect();
        g.throughput(Throughput::Elements(vals.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(depth), &compiled, |b, cp| {
            b.iter(|| vals.iter().map(|v| cp.eval(v).0 as usize).sum::<usize>())
        });
    }
    g.finish();
}

fn bench_switch_batch(c: &mut Criterion) {
    let spec = int_spec();
    let statics = compile_static(&spec).unwrap();
    let mut feed = IntFeed::new(IntFeedConfig::default());
    let batch: Vec<(Packet, Port)> = feed
        .reports(256)
        .iter()
        .map(|r| {
            let mut b = PacketBuilder::new(&spec);
            for (k, v) in r.fields() {
                b = b.stack_field("int_report", &k, v);
            }
            (b.build(), 0)
        })
        .collect();
    let mut g = c.benchmark_group("switch_batch");
    g.throughput(Throughput::Elements(batch.len() as u64));
    for n in [100usize, 1_000] {
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules(n)).unwrap();
        let mut sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::from_parameter(n), &batch, |b, batch| {
            b.iter(|| {
                sw.process_batch_indexed(batch, 0, &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

/// Guard: attaching *disabled* telemetry (sampling rate 0) must keep
/// whole-switch batched throughput within 3% of the bare PR-3
/// `rust-compiled` lane. Interleaved best-of-N timing so scheduler
/// noise hits both lanes alike; the assert fails the bench run.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let _ = c;
    let spec = int_spec();
    let statics = compile_static(&spec).unwrap();
    let mut feed = IntFeed::new(IntFeedConfig::default());
    let batch: Vec<(Packet, Port)> = feed
        .reports(256)
        .iter()
        .map(|r| {
            let mut b = PacketBuilder::new(&spec);
            for (k, v) in r.fields() {
                b = b.stack_field("int_report", &k, v);
            }
            (b.build(), 0)
        })
        .collect();
    let compiled = Compiler::new().with_static(statics.clone()).compile(&rules(1_000)).unwrap();
    let mut bare = Switch::new(&statics, compiled.pipeline.clone(), SwitchConfig::default());
    let mut instrumented = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
    let registry = MetricsRegistry::new();
    instrumented.attach_telemetry(SwitchTelemetry::new(&registry, SampleRate::DISABLED));

    let mut out = Vec::new();
    let mut time_batches = |sw: &mut Switch, rounds: usize| {
        let t0 = std::time::Instant::now();
        for _ in 0..rounds {
            sw.process_batch_indexed(&batch, 0, &mut out);
            black_box(out.len());
        }
        t0.elapsed()
    };
    // Warm both switches (scratch sizing, allocator reuse).
    time_batches(&mut bare, 8);
    time_batches(&mut instrumented, 8);
    let (mut best_bare, mut best_dis) = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..9 {
        best_bare = best_bare.min(time_batches(&mut bare, 16));
        best_dis = best_dis.min(time_batches(&mut instrumented, 16));
    }
    let overhead = best_dis.as_secs_f64() / best_bare.as_secs_f64() - 1.0;
    println!(
        "telemetry_overhead/disabled: bare {:?} disabled {:?} overhead {:.2}%",
        best_bare,
        best_dis,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.03,
        "disabled telemetry costs {:.2}% (> 3%) over the rust-compiled lane",
        overhead * 100.0
    );
}

criterion_group!(benches, bench_eval, bench_depth, bench_switch_batch, bench_telemetry_overhead);
criterion_main!(benches);
