//! `fabric`: the 72-switch churn testbed deployed under MR with 1,000
//! Siena subscriptions, driven as a closed loop: one publisher sends
//! one publication from a random host, then `Network::run` drains the
//! fabric before the next. Half the publications match a live filter,
//! half are random. The control plane is idle.

use crate::common::{
    delivered_exactly, deployed, publications, publish_checked, siena, Publication,
};
use crate::layers::{deploy_layers, probe_counts};
use crate::stats::{median, median_setup, ChunkRate, LatHist};
use crate::{Args, Report};
use camus_dataplane::Switch;
use camus_lang::ast::{Expr, Port};
use camus_net::controller::{Controller, Deployment};
use camus_net::Network;
use camus_telemetry::metrics::SampleRate;
use rand::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SUBS: usize = 1000;
/// Distinct publications the loop cycles through.
const POOL: usize = 4096;
/// Publications between network rebuilds: the simulator keeps every
/// delivery, so a long run would otherwise measure its own history.
/// Five passes over the pool, and also the throughput chunk, so every
/// chunk does the same work on a network of the same age.
const REBUILD_EVERY: u64 = 5 * POOL as u64;
/// Publications in the traced pass (a fixed prefix of the pool, so
/// its counts repeat exactly).
const TRACED: usize = 2000;
/// Modelled spacing of publications; far above any path's latency,
/// so each publish stamp identifies its deliveries.
const GAP_NS: u64 = 100_000;

struct Setup {
    ctrl: Controller,
    subs: Vec<Vec<Expr>>,
    dep: Deployment,
    pubs: Vec<Publication>,
}

/// Deploy (timed `reps` times, median) and draw the publication pool.
fn setup(seed: u64, reps: usize) -> (Setup, f64) {
    let ((ctrl, subs, dep), setup_s) = median_setup(reps, || deployed(SUBS));
    let mut g = siena(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFAB);
    let pubs = publications(&mut g, &subs, POOL, &mut rng);
    (Setup { ctrl, subs, dep, pubs }, setup_s)
}

/// A fresh simulator over the deployed switches.
fn network(dep: &Deployment) -> Network {
    let n = &dep.network;
    Network::new(n.topology.clone(), n.switches.clone(), n.link_latency_ns)
}

struct Loop {
    hist: LatHist,
    rate: ChunkRate,
    /// Sum and count over publications from the traced prefix of the
    /// pool, to compare like with like.
    prefix_ns: f64,
    prefix_n: u64,
    attempted: u64,
    failed: u64,
}

/// The closed loop, for `seconds`.
fn closed_loop(s: &Setup, seconds: Duration) -> Loop {
    let mut l = Loop {
        hist: LatHist::new(),
        rate: ChunkRate::new(REBUILD_EVERY),
        prefix_ns: 0.0,
        prefix_n: 0,
        attempted: 0,
        failed: 0,
    };
    let mut net = network(&s.dep);
    let deadline = Instant::now() + seconds;
    let mut i = 0u64;
    while Instant::now() < deadline {
        if i > 0 && i.is_multiple_of(REBUILD_EVERY) {
            net = network(&s.dep);
        }
        let k = (i % POOL as u64) as usize;
        let (dt, ok) = publish_checked(&mut net, &s.pubs[k], (i + 1) * GAP_NS);
        l.hist.record(dt);
        l.rate.record(1, dt);
        if k < TRACED {
            l.prefix_ns += dt.as_nanos() as f64;
            l.prefix_n += 1;
        }
        l.attempted += 1;
        l.failed += !ok as u64;
        i += 1;
    }
    l
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (s, setup_s) = setup(args.seed, 5);
    let l = closed_loop(&s, args.seconds);
    rep.attempted = l.attempted;
    rep.failed = l.failed;
    rep.metric("ops_per_s", l.rate.median(), "1/s");
    rep.metric("lat_p50_us", l.hist.quantile_ns(0.50) / 1e3, "us");
    rep.metric("setup_s", setup_s, "s");
    rep.samples.push(("publications", l.hist.count()));
    rep.extra.push(("lat_p95_us", l.hist.quantile_ns(0.95) / 1e3));
    rep.extra.push(("lat_p99_us", l.hist.quantile_ns(0.99) / 1e3));
    rep.samples.push(("chunks", l.rate.chunks()));
    rep
}

/// The switch hops of one traced publication: `(switch, ingress)`
/// per switch visited, from its 1/1 postcards.
type Hops = Vec<(usize, Port)>;

pub fn trace(args: &Args) -> Report {
    let mut rep = Report::default();
    let (s, _) = setup(args.seed, 1);

    // Control-plane layers, from the same deploy taken apart.
    let (dep, _, _) = deploy_layers(&s.ctrl, &s.dep.network.topology, &s.subs, &mut rep);
    drop(dep);

    let plain = closed_loop(&s, args.seconds / 2);
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    let e2e_ns = plain.prefix_ns / plain.prefix_n.max(1) as f64;

    // Traced pass: 1/1 postcards on a fixed prefix of the pool.
    let mut net = network(&s.dep);
    net.attach_telemetry(SampleRate::always());
    let (events0, deliveries0) = (net.stats().events, net.stats().deliveries);
    let mut traced_ns = 0.0;
    let mut paths: Vec<Hops> = Vec::with_capacity(TRACED);
    for (i, p) in s.pubs[..TRACED].iter().enumerate() {
        let stamp = (i as u64 + 1) * GAP_NS;
        let before = net.stats().deliveries;
        let t0 = Instant::now();
        let id = net.publish(p.publisher, p.packet.clone(), stamp);
        net.run(None);
        traced_ns += t0.elapsed().as_nanos() as f64;
        rep.attempted += 1;
        rep.failed += !delivered_exactly(&net, p, before, stamp) as u64;
        let mut hops: BTreeMap<usize, Port> = BTreeMap::new();
        if let Some(g) = id.and_then(|id| net.collector().and_then(|c| c.group(id))) {
            for (card, _) in &g.completed {
                for h in &card.hops {
                    hops.insert(h.switch, h.ingress);
                }
            }
        }
        paths.push(hops.into_iter().collect());
    }
    let traced_ns = traced_ns / TRACED as f64;
    let events = (net.stats().events - events0) as f64 / TRACED as f64;
    let deliveries = (net.stats().deliveries - deliveries0) as f64 / TRACED as f64;
    let hops: usize = paths.iter().map(Vec::len).sum();

    // Replay every hop's (switch, ingress, packet) on the installed
    // switches: the data plane's share of a publication. The deployed
    // switches have seen no traffic, so after one pass their counters
    // are exactly the replayed hops'.
    let mut switches: Vec<Switch> = s.dep.network.switches.clone();
    let mut passes = Vec::new();
    let replay_deadline = Instant::now() + args.seconds / 4;
    while passes.len() < 3 || (Instant::now() < replay_deadline && passes.len() < 50) {
        let t0 = Instant::now();
        for (p, path) in s.pubs.iter().zip(&paths) {
            for &(sw, ingress) in path {
                black_box(switches[sw].process(&p.packet, ingress, 0));
            }
        }
        passes.push(t0.elapsed().as_nanos() as f64);
        if passes.len() == 1 {
            probe_counts(&mut rep, &switches, TRACED as u64);
        }
    }
    let process_ns = median(&passes) / hops.max(1) as f64;
    let hops_per_pub = hops as f64 / TRACED as f64;
    let dataplane_ns = hops_per_pub * process_ns;

    rep.layer("dataplane.process_ns", process_ns);
    rep.layer("dataplane.ns_per_pkt", process_ns);
    rep.layer("net.sim.self_ns_per_pub", e2e_ns - dataplane_ns);
    rep.layer("net.sim.events_per_pub", events);
    rep.layer("net.sim.deliveries_per_pub", deliveries);
    rep.layer(
        "workloads.witness_mismatch",
        s.pubs.iter().filter(|p| p.witness_mismatch).count() as f64,
    );
    rep.layer("recon.e2e_us", e2e_ns / 1e3);
    rep.layer("recon.layers_us", dataplane_ns / 1e3);
    rep.layer("recon.residual_frac", (e2e_ns - dataplane_ns) / e2e_ns);
    rep.layer("trace.overhead_frac", (traced_ns - e2e_ns) / e2e_ns);
    rep.samples.push(("plain_publications", plain.attempted));
    rep.samples.push(("traced_publications", TRACED as u64));
    rep.samples.push(("replay_passes", passes.len() as u64));
    rep
}
