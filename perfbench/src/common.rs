//! Inputs shared by the network workloads, and the delivery oracle.
//!
//! The testbed, generator and churn settings are those of the
//! repository's `churn` and `service` experiments, so the figures here
//! describe the same system those experiments do.

use camus_core::statics::compile_static;
use camus_dataplane::{Packet, PacketBuilder};
use camus_lang::ast::{Expr, Operand};
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use camus_net::controller::{Controller, Deployment};
use camus_net::Network;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::topology::{three_layer, HierNet};
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use rand::prelude::*;
use std::time::{Duration, Instant};

/// 8 pods × 4 ToRs × 4 hosts: 72 switches, 128 hosts.
pub fn testbed() -> HierNet {
    three_layer(8, 4, 4, 8, 4)
}

fn generator(seed: u64) -> SienaGenerator {
    SienaGenerator::new(SienaConfig {
        predicates_per_filter: 2,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed,
        ..Default::default()
    })
}

/// The generator seed of the repository's churn and service
/// experiments; it draws the subscription population of the `fabric`
/// and `churn` workloads.
const POPULATION_SEED: u64 = 0xC4A2;

/// The Zipf-skewed Siena generator of the churn experiments, drawn
/// from `seed`. The generator also draws which attributes are strings;
/// that schema decides the shape of every table, so it is held to the
/// population's and the seed varies only the subscriptions and the
/// traffic: the first candidate seed derived from `seed` whose schema
/// matches is used.
pub fn siena(seed: u64) -> SienaGenerator {
    let schema = generator(POPULATION_SEED).spec();
    (0u64..)
        .map(|k| generator(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)))
        .find(|g| g.spec() == schema)
        .expect("some candidate seed draws the reference schema")
}

/// `total` filters dealt round-robin over `hosts` hosts.
pub fn spread(g: &mut SienaGenerator, hosts: usize, total: usize) -> Vec<Vec<Expr>> {
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
    for (i, f) in g.filters(total).into_iter().enumerate() {
        subs[i % hosts].push(f);
    }
    subs
}

/// A memory-reduction controller for the generator's spec.
pub fn controller(spec: &Spec) -> Controller {
    let statics = compile_static(spec).expect("siena spec compiles");
    Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction))
}

/// The set-up a user of the fabric waits for: the experiments' first
/// `subs` subscriptions deployed on the testbed. The population is the
/// same for every seed, so a seed varies the traffic a workload offers,
/// not the tables it runs on.
pub fn deployed(subs: usize) -> (Controller, Vec<Vec<Expr>>, Deployment) {
    let mut g = generator(POPULATION_SEED);
    let net = testbed();
    let subs = spread(&mut g, net.host_count(), subs);
    let ctrl = controller(&g.spec());
    let dep = ctrl.deploy(net, &subs).expect("testbed deploys");
    (ctrl, subs, dep)
}

/// Hosts whose subscriptions match `values` (never the publisher: the
/// network does not loop a message back to its source).
pub fn matching_hosts(
    subs: &[Vec<Expr>],
    values: &[(String, Value)],
    publisher: usize,
) -> Vec<usize> {
    let lookup = |op: &Operand| match op {
        Operand::Field(name) => values.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()),
        Operand::Aggregate { .. } => None,
    };
    subs.iter()
        .enumerate()
        .filter(|(h, fs)| *h != publisher && fs.iter().any(|f| f.eval_with(lookup)))
        .map(|(h, _)| h)
        .collect()
}

/// A publication with the hosts it must reach.
#[derive(Clone)]
pub struct Publication {
    pub publisher: usize,
    pub packet: Packet,
    /// The field values decoded back from the built packet: what the
    /// switches actually see.
    pub values: Vec<(String, Value)>,
    /// Expected receivers, from the decoded values.
    pub expected: Vec<usize>,
    /// The generator's witness values would have expected other hosts.
    pub witness_mismatch: bool,
}

/// Build the packet for `witness`, decode it back, and compute the
/// expected receivers from the wire values.
pub fn publication(
    spec: &Spec,
    subs: &[Vec<Expr>],
    publisher: usize,
    witness: Vec<(String, Value)>,
) -> Publication {
    let mut b = PacketBuilder::new(spec);
    for (field, value) in &witness {
        b = b.stack_field("siena", field, value.clone());
    }
    let packet = b.build();
    let mut values: Vec<(String, Value)> =
        packet.stack_header(spec, "siena").expect("siena header decodes").into_iter().collect();
    values.sort_by(|a, b| a.0.cmp(&b.0));
    let expected = matching_hosts(subs, &values, publisher);
    let witness_mismatch = matching_hosts(subs, &witness, publisher) != expected;
    Publication { publisher, packet, values, expected, witness_mismatch }
}

/// `n` publications from random hosts: half crafted to match a live
/// filter, half random.
pub fn publications(
    g: &mut SienaGenerator,
    subs: &[Vec<Expr>],
    n: usize,
    rng: &mut StdRng,
) -> Vec<Publication> {
    let spec = g.spec();
    let live: Vec<&Expr> = subs.iter().flatten().collect();
    (0..n)
        .map(|i| {
            let publisher = rng.gen_range(0..subs.len());
            let witness = if i % 2 == 0 && !live.is_empty() {
                g.matching_packet(live[rng.gen_range(0..live.len())])
            } else {
                g.packet()
            };
            publication(&spec, subs, publisher, witness)
        })
        .collect()
}

/// Publish `p` at `time_ns` and drain the network. Returns the
/// publish-to-quiescence time and whether exactly the expected hosts
/// received it, once each.
pub fn publish_checked(net: &mut Network, p: &Publication, time_ns: u64) -> (Duration, bool) {
    let before = net.stats().deliveries;
    let t0 = Instant::now();
    net.publish(p.publisher, p.packet.clone(), time_ns);
    net.run(None);
    let dt = t0.elapsed();
    (dt, delivered_exactly(net, p, before, time_ns))
}

/// After a drained publish stamped `time_ns`: did every expected host
/// get it, and nobody else? Delivery totals rule out extra copies, the
/// per-host stamps rule out a missing one.
pub fn delivered_exactly(net: &Network, p: &Publication, before: u64, time_ns: u64) -> bool {
    net.stats().deliveries - before == p.expected.len() as u64
        && p.expected
            .iter()
            .all(|&h| net.deliveries(h).last().is_some_and(|d| d.published_ns == time_ns))
}
