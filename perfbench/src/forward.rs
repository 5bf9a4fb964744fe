//! `forward`: the 1k-filter INT pipeline (the fig. 9 filter family)
//! on one switch, fed stack-only INT reports through
//! `Switch::process_batch_indexed`. One sending thread per core, each
//! with its own switch cloned off the clock, all running at once.

use crate::layers::{unit_cost, UnitCost};
use crate::stats::{median_setup, ChunkRate, LatHist};
use crate::{Args, Report};
use camus_core::compiler::Compiler;
use camus_core::statics::{compile_static, StaticPipeline};
use camus_dataplane::{Packet, PacketBuilder, Switch, SwitchConfig, SwitchOutput, SwitchStats};
use camus_lang::ast::{Action, Port, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::int_spec;
use camus_workloads::int::{IntFeed, IntFeedConfig};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const FILTERS: usize = 1000;
/// Distinct packets each thread cycles through.
const PACKETS: usize = 4096;
/// Packets per `process_batch_indexed` call.
const BATCH: usize = 64;
/// Packets checked against the interpreted reference path.
const REFERENCE_SAMPLE: usize = 512;
/// Packets per throughput chunk (see [`ChunkRate`]).
const CHUNK_PKTS: u64 = 64 * 512;

/// The fig. 9 filter family: 100 switch ids × rotating latency bounds.
fn rules() -> Vec<Rule> {
    (0..FILTERS)
        .map(|i| Rule {
            filter: parse_expr(&format!(
                "switch_id == {} and hop_latency > {}",
                i % 100,
                100 + (i / 100) % 1000
            ))
            .expect("fig. 9 filter parses"),
            action: Action::Forward(vec![(i % 64) as u16 + 1]),
        })
        .collect()
}

struct Setup {
    statics: StaticPipeline,
    base: Switch,
    packets: Vec<(Packet, Port)>,
}

fn setup(seed: u64) -> Setup {
    let statics = compile_static(&int_spec()).expect("int spec compiles");
    let compiled =
        Compiler::new().with_static(statics.clone()).compile(&rules()).expect("fig. 9 compiles");
    let base = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
    let spec = int_spec();
    let mut feed = IntFeed::new(IntFeedConfig { seed, ..Default::default() });
    let packets = feed
        .reports(PACKETS)
        .iter()
        .map(|r| {
            let mut b = PacketBuilder::new(&spec);
            for (k, v) in r.fields() {
                b = b.stack_field("int_report", &k, v);
            }
            (b.build(), 0)
        })
        .collect();
    Setup { statics, base, packets }
}

/// The forwarding counters one packet adds, in the order
/// `[packets, messages, copies, stage_hits, stage_misses, entries_scanned]`.
type Counts = [u64; 6];

fn counts(s: &SwitchStats) -> Counts {
    [s.packets, s.messages, s.copies, s.stage_hits, s.stage_misses, s.entries_scanned]
}

/// Per-packet counters from one pass on a fresh clone (the switch is
/// stateless for these rules, so each packet always adds the same).
fn per_packet_counts(s: &Setup) -> Vec<Counts> {
    let mut sw = s.base.clone();
    s.packets
        .iter()
        .enumerate()
        .map(|(i, (p, ingress))| {
            let before = counts(&sw.stats());
            sw.process(p, *ingress, i as u64);
            let after = counts(&sw.stats());
            std::array::from_fn(|k| after[k] - before[k])
        })
        .collect()
}

/// The compiled fast path must agree with the interpreted reference.
fn reference_mismatches(s: &Setup) -> u64 {
    let (mut fast, mut slow) = (s.base.clone(), s.base.clone());
    let same = |a: &SwitchOutput, b: &SwitchOutput| {
        a.actions == b.actions
            && a.ports.len() == b.ports.len()
            && a.ports
                .iter()
                .zip(&b.ports)
                .all(|((pa, ka), (pb, kb))| pa == pb && ka.bytes.as_slice() == kb.bytes.as_slice())
    };
    s.packets
        .iter()
        .take(REFERENCE_SAMPLE)
        .enumerate()
        .filter(|(i, (p, ingress))| {
            let a = fast.process(p, *ingress, *i as u64);
            let b = slow.process_reference(p, *ingress, *i as u64);
            !same(&a, &b)
        })
        .count() as u64
}

/// What one sending thread did.
struct Lane {
    hist: LatHist,
    rate: ChunkRate,
    /// Where in the packet cycle the thread started, and how many
    /// packets it processed.
    offset: usize,
    processed: u64,
    stats: SwitchStats,
    /// Traced lanes: time inside the per-packet `process` calls.
    process_busy: Duration,
}

/// Drive one switch until `seconds` have passed. Untraced lanes time
/// each `process_batch_indexed` call; traced lanes run the same
/// packets through per-packet `process` calls, with a span around the
/// calls inside the batch's own.
fn drive(
    mut sw: Switch,
    pkts: &[(Packet, Port)],
    offset: usize,
    seconds: Duration,
    traced: bool,
) -> Lane {
    let mut lane = Lane {
        hist: LatHist::new(),
        rate: ChunkRate::new(CHUNK_PKTS),
        offset,
        processed: 0,
        stats: SwitchStats::default(),
        process_busy: Duration::ZERO,
    };
    let mut out: Vec<SwitchOutput> = Vec::with_capacity(BATCH);
    let mut pos = offset;
    let deadline = Instant::now() + seconds;
    loop {
        let chunk = &pkts[pos..pos + BATCH];
        let index = lane.processed;
        let t0 = Instant::now();
        if traced {
            let p0 = Instant::now();
            for (j, (p, ingress)) in chunk.iter().enumerate() {
                black_box(sw.process(p, *ingress, index + j as u64));
            }
            lane.process_busy += p0.elapsed();
        } else {
            sw.process_batch_indexed(chunk, index, &mut out);
            black_box(&mut out);
        }
        let t1 = Instant::now();
        let dt = t1 - t0;
        lane.hist.record(dt);
        lane.rate.record(BATCH as u64, dt);
        lane.processed += BATCH as u64;
        pos = (pos + BATCH) % pkts.len();
        if t1 >= deadline {
            break;
        }
    }
    lane.stats = sw.stats();
    lane
}

/// All lanes at once, one per core.
fn drive_all(s: &Setup, seconds: Duration, traced: bool) -> Vec<Lane> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stride = (PACKETS / threads / BATCH) * BATCH;
    let switches: Vec<Switch> = (0..threads).map(|_| s.base.clone()).collect();
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = switches
            .into_iter()
            .enumerate()
            .map(|(t, sw)| {
                let start = &start;
                let pkts = &s.packets;
                scope.spawn(move || {
                    start.wait();
                    drive(sw, pkts, t * stride, seconds, traced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sending thread")).collect()
    })
}

/// The counters of `len` packets of the cycle starting at `offset`.
fn cycle_sum(per_packet: &[Counts], offset: usize, len: usize) -> Counts {
    (0..len).fold([0u64; 6], |mut acc, k| {
        let c = &per_packet[(offset + k) % per_packet.len()];
        for f in 0..6 {
            acc[f] += c[f];
        }
        acc
    })
}

/// Every lane's counters must equal the sum of its packets'
/// per-packet counters, exactly.
fn lanes_add_up(lanes: &[Lane], per_packet: &[Counts]) -> bool {
    let n = per_packet.len();
    let pass = cycle_sum(per_packet, 0, n);
    lanes.iter().all(|l| {
        let (full, rest) = (l.processed / n as u64, l.processed as usize % n);
        let tail = cycle_sum(per_packet, l.offset, rest);
        let want: Counts = std::array::from_fn(|f| pass[f] * full + tail[f]);
        counts(&l.stats) == want
            && l.stats.batched_packets == if l.process_busy.is_zero() { l.processed } else { 0 }
    })
}

fn check(rep: &mut Report, s: &Setup, lanes: &[Lane], per_packet: &[Counts]) {
    let mismatches = reference_mismatches(s);
    rep.attempted += REFERENCE_SAMPLE as u64 + lanes.iter().map(|l| l.processed).sum::<u64>();
    rep.failed += mismatches;
    rep.check(
        "per-thread stats add up to the per-packet counters",
        lanes_add_up(lanes, per_packet),
    );
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (s, setup_s) = median_setup(9, || setup(args.seed));
    let lanes = drive_all(&s, args.seconds, false);
    let per_packet = per_packet_counts(&s);
    check(&mut rep, &s, &lanes, &per_packet);

    let mut hist = LatHist::new();
    for l in &lanes {
        hist.merge(&l.hist);
    }
    let pps: f64 = lanes.iter().map(|l| l.rate.median()).sum();
    rep.metric("ops_per_s", pps, "1/s");
    rep.metric("lat_p50_us", hist.quantile_ns(0.50) / 1e3, "us");
    rep.metric("setup_s", setup_s, "s");
    rep.samples.push(("batches", hist.count()));
    rep.extra.push(("lat_p95_us", hist.quantile_ns(0.95) / 1e3));
    rep.extra.push(("lat_p99_us", hist.quantile_ns(0.99) / 1e3));
    rep.samples.push(("threads", lanes.len() as u64));
    rep.samples.push(("chunks", lanes.iter().map(|l| l.rate.chunks()).sum()));
    rep
}

pub fn trace(args: &Args) -> Report {
    let mut rep = Report::default();
    let s = setup(args.seed);
    let half = args.seconds / 2;
    let plain = drive_all(&s, half, false);
    let traced = drive_all(&s, half, true);
    let per_packet = per_packet_counts(&s);
    check(&mut rep, &s, &plain, &per_packet);
    check(&mut rep, &s, &traced, &per_packet);

    let per_pkt = |lanes: &[Lane], busy_ns: &dyn Fn(&Lane) -> f64| {
        let busy: f64 = lanes.iter().map(busy_ns).sum();
        busy / lanes.iter().map(|l| l.processed).sum::<u64>().max(1) as f64
    };
    let e2e_ns = per_pkt(&plain, &|l| l.hist.sum_ns());
    let traced_ns = per_pkt(&traced, &|l| l.hist.sum_ns());
    let process_ns = per_pkt(&traced, &|l| l.process_busy.as_secs_f64() * 1e9);

    // One pass over the packet set: exact per-packet counters.
    let total = cycle_sum(&per_packet, 0, per_packet.len());
    let n = total[0] as f64;
    rep.layer("dataplane.ns_per_pkt", process_ns);
    rep.layer("dataplane.process_ns", process_ns);
    rep.layer("dataplane.stage_hits_per_pkt", total[3] as f64 / n);
    rep.layer("dataplane.entries_scanned_per_pkt", total[5] as f64 / n);
    rep.layer("dataplane.copies_per_pkt", total[2] as f64 / n);

    // The set-up compile is one unit through every compiler layer.
    let unit: UnitCost = unit_cost(
        &Compiler::new().with_static(s.statics.clone()),
        &s.statics.var_order(),
        &rules(),
    );
    unit.report(&mut rep, 1);
    let t0 = Instant::now();
    let admitted = s.base.admit(s.base.pipeline()).is_ok();
    rep.layer("dataplane.admit_us", t0.elapsed().as_secs_f64() * 1e6);
    rep.check("the fig. 9 pipeline is admitted", admitted);

    rep.layer("recon.e2e_us", e2e_ns / 1e3);
    rep.layer("recon.layers_us", process_ns / 1e3);
    rep.layer("recon.residual_frac", (e2e_ns - process_ns) / e2e_ns);
    rep.layer("trace.overhead_frac", (traced_ns - e2e_ns) / e2e_ns);
    rep.samples.push(("plain_packets", plain.iter().map(|l| l.processed).sum()));
    rep.samples.push(("traced_packets", traced.iter().map(|l| l.processed).sum()));
    rep
}
