//! `cold`: `Controller::deploy` of 16,000 Siena subscriptions on the
//! fabric testbed, several deploys per run, each from its own seed.
//! Every deploy is checked by publishing probes through the installed
//! network.

use crate::common::{
    controller, publications, publish_checked, siena, spread, testbed, Publication,
};
use crate::layers::{deploy_layers, probe_counts};
use crate::stats::{median, median_setup, LatHist};
use crate::{Args, Report};
use camus_lang::ast::Expr;
use camus_net::controller::{Controller, Deployment};
use rand::prelude::*;
use std::time::{Duration, Instant};

const SUBS: usize = 16_000;
/// Deploys per run even when they overrun `--seconds`.
const MIN_DEPLOYS: u64 = 3;
const PROBES: usize = 16;

struct Inputs {
    ctrl: Controller,
    subs: Vec<Vec<Expr>>,
    probes: Vec<Publication>,
}

/// The inputs of deploy `i` of a run with seed `seed`.
fn inputs(seed: u64, i: u64) -> Inputs {
    let seed = seed.wrapping_mul(1000).wrapping_add(i);
    let mut g = siena(seed);
    let subs = spread(&mut g, testbed().host_count(), SUBS);
    let ctrl = controller(&g.spec());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let probes = publications(&mut g, &subs, PROBES, &mut rng);
    Inputs { ctrl, subs, probes }
}

/// Publish every probe through the deployed network; returns failures.
fn probe(dep: &mut Deployment, probes: &[Publication]) -> u64 {
    let base = dep.network.now_ns() + 1;
    probes
        .iter()
        .enumerate()
        .filter(|(i, p)| !publish_checked(&mut dep.network, p, base + *i as u64 * 100_000).1)
        .count() as u64
}

fn deploy(inp: &Inputs) -> (Deployment, Duration) {
    let t0 = Instant::now();
    let dep = inp.ctrl.deploy(testbed(), &inp.subs).expect("cold deploy");
    (dep, t0.elapsed())
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut times = Vec::new();
    let mut hist = LatHist::new();
    let deadline = Instant::now() + args.seconds;
    let mut i = 0u64;
    while i < MIN_DEPLOYS || Instant::now() < deadline {
        let (inp, setup_s) = median_setup(if i == 0 { 9 } else { 1 }, || inputs(args.seed, i));
        setups.push(setup_s);
        let (mut dep, dt) = deploy(&inp);
        times.push(dt.as_secs_f64());
        hist.record(dt);
        rep.attempted += 1 + PROBES as u64;
        rep.failed += probe(&mut dep, &inp.probes);
        i += 1;
    }
    rep.metric("ops_per_s", SUBS as f64 / median(&times), "1/s");
    rep.metric("lat_p50_us", hist.quantile_ns(0.50) / 1e3, "us");
    rep.extra.push(("lat_p95_us", hist.quantile_ns(0.95) / 1e3));
    rep.metric("setup_s", median(&setups), "s");
    rep.samples.push(("deploys", i));
    rep
}

pub fn trace(args: &Args) -> Report {
    let mut rep = Report::default();
    let inp = inputs(args.seed, 0);
    let topology = testbed();

    // Untraced: the same deploy twice, median.
    let mut plain = Vec::new();
    for _ in 0..2 {
        let (mut dep, dt) = deploy(&inp);
        plain.push(dt.as_secs_f64() * 1e6);
        rep.attempted += 1 + PROBES as u64;
        rep.failed += probe(&mut dep, &inp.probes);
    }
    let e2e = median(&plain);

    let (mut dep, wall, layers) = deploy_layers(&inp.ctrl, &topology, &inp.subs, &mut rep);
    rep.attempted += 1 + PROBES as u64;
    rep.failed += probe(&mut dep, &inp.probes);
    probe_counts(&mut rep, &dep.network.switches, PROBES as u64);

    let traced = wall.as_secs_f64() * 1e6;
    let layers = layers.as_secs_f64() * 1e6;
    rep.layer(
        "workloads.witness_mismatch",
        inp.probes.iter().filter(|p| p.witness_mismatch).count() as f64,
    );
    rep.layer("recon.e2e_us", e2e);
    rep.layer("recon.layers_us", layers);
    rep.layer("recon.residual_frac", (e2e - layers) / e2e);
    rep.layer("trace.overhead_frac", (traced - e2e) / e2e);
    rep.samples.push(("plain_deploys", plain.len() as u64));
    rep
}
