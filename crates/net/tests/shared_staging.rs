//! Shared program staging on the 72-switch testbed: switches whose
//! compile is one shared artefact run one lowered program, yet each
//! switch still admits that program against its own budget.

use camus_core::resources::ResourceBudget;
use camus_core::statics::compile_static;
use camus_dataplane::{InstallError, PacketBuilder};
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_lang::spec::itch_spec;
use camus_lang::value::Value;
use camus_net::controller::{AdmissionVerdict, Controller, DeployError, Deployment};
use camus_net::{matching_hosts, PerfectChannel};
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::topology::{three_layer, HierNet};
use std::sync::Arc;

fn testbed() -> HierNet {
    three_layer(8, 4, 4, 8, 4)
}

fn controller() -> Controller {
    Controller::new(
        compile_static(&itch_spec()).unwrap(),
        RoutingConfig::new(Policy::MemoryReduction),
    )
}

/// Equality filters only, so a switch without TCAM admits them.
fn before(hosts: usize) -> Vec<Vec<Expr>> {
    (0..hosts).map(|h| vec![parse_expr(&format!("stock == S{}", h % 16)).unwrap()]).collect()
}

/// One filter added: a range, which needs TCAM on every switch that
/// carries it.
fn after(hosts: usize) -> Vec<Vec<Expr>> {
    let mut subs = before(hosts);
    subs[5].push(parse_expr("price > 50").unwrap());
    subs
}

/// The slots reinstalled by the last transaction, grouped by the
/// compile they share; groups of one are dropped.
fn sharing_groups(d: &Deployment) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for e in d.report.switches.iter().filter(|e| e.committed) {
        let compiled = &d.compile.switches[e.switch].compiled;
        match groups.iter_mut().find(|g| Arc::ptr_eq(&d.compile.switches[g[0]].compiled, compiled))
        {
            Some(g) => g.push(e.switch),
            None => groups.push(vec![e.switch]),
        }
    }
    groups.retain(|g| g.len() > 1);
    groups
}

/// Publish one probe per stock and price band from `publisher` and
/// return, per probe, the hosts it reached (once each) and the hosts
/// the oracle expects.
fn probe(
    d: &mut Deployment,
    subs: &[Vec<Expr>],
    publisher: usize,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let spec = itch_spec();
    let hosts = subs.len();
    let mut out = Vec::new();
    for s in 0..16 {
        for price in [10, 60] {
            let witness = vec![
                ("stock".to_string(), Value::from(format!("S{s}").as_str())),
                ("price".to_string(), Value::Int(price)),
            ];
            let packet = PacketBuilder::new(&spec).message(witness.clone()).build();
            let counts: Vec<usize> = (0..hosts).map(|h| d.network.deliveries(h).len()).collect();
            let now = d.network.now_ns();
            d.network.publish(publisher, packet, now);
            d.network.run(None);
            let mut reached = Vec::new();
            for (h, &before) in counts.iter().enumerate() {
                let got = d.network.deliveries(h).len() - before;
                assert!(got <= 1, "host {h} received a duplicate");
                if got == 1 {
                    reached.push(h);
                }
            }
            let expected = matching_hosts(subs, &witness, publisher).into_iter().collect();
            out.push((reached, expected));
        }
    }
    out
}

#[test]
fn sharing_slots_stage_one_program_and_forward_exactly() {
    let ctrl = controller();
    let net = testbed();
    let mut d = ctrl.deploy(net.clone(), &before(net.host_count())).unwrap();
    let subs = after(net.host_count());
    ctrl.repair(&mut d, &subs, &mut PerfectChannel).unwrap();
    assert!(d.degraded.is_empty());

    for s in 0..net.switch_count() {
        assert_eq!(
            d.network.switches[s].pipeline(),
            &d.compile.switches[s].compiled.pipeline,
            "switch {s}"
        );
    }
    let groups = sharing_groups(&d);
    assert!(!groups.is_empty(), "a one-filter change reinstalls sharing slots");
    for g in &groups {
        let first = d.network.switches[g[0]].compiled();
        for &s in &g[1..] {
            assert!(std::ptr::eq(first, d.network.switches[s].compiled()), "slot {s} of {g:?}");
        }
    }
    for (i, (reached, expected)) in probe(&mut d, &subs, 0).into_iter().enumerate() {
        assert_eq!(reached, expected, "probe {i}");
    }
}

/// A slot that shares its compile with another, found by a dry run of
/// the same deploy and repair (both are deterministic).
fn sharing_pair() -> (usize, usize) {
    let ctrl = controller();
    let net = testbed();
    let mut d = ctrl.deploy(net.clone(), &before(net.host_count())).unwrap();
    ctrl.repair(&mut d, &after(net.host_count()), &mut PerfectChannel).unwrap();
    let g = sharing_groups(&d).into_iter().next().expect("a sharing group");
    (g[0], g[1])
}

fn no_tcam() -> ResourceBudget {
    ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() }
}

#[test]
fn a_shared_program_degrades_only_the_tight_slot() {
    let (tight, sharer) = sharing_pair();
    let mut ctrl = controller();
    ctrl.budget_overrides.insert(tight, no_tcam());
    let net = testbed();
    let mut d = ctrl.deploy(net.clone(), &before(net.host_count())).unwrap();
    assert!(d.degraded.is_empty(), "equality filters fit without TCAM");
    let subs = after(net.host_count());
    ctrl.repair(&mut d, &subs, &mut PerfectChannel).unwrap();

    assert!(Arc::ptr_eq(&d.compile.switches[tight].compiled, &d.compile.switches[sharer].compiled));
    assert_eq!(d.degraded.iter().copied().collect::<Vec<_>>(), vec![tight]);
    let verdict = |s: usize| &d.report.switches.iter().find(|e| e.switch == s).unwrap().verdict;
    assert_eq!(*verdict(tight), AdmissionVerdict::Degraded);
    assert_eq!(*verdict(sharer), AdmissionVerdict::Admitted);
    assert_ne!(d.network.switches[tight].pipeline(), &d.compile.switches[tight].compiled.pipeline);
    assert_eq!(
        d.network.switches[sharer].pipeline(),
        &d.compile.switches[sharer].compiled.pipeline
    );

    // The coarse fallback over-delivers at its switch, never under.
    for (i, (reached, expected)) in probe(&mut d, &subs, 0).into_iter().enumerate() {
        assert!(
            expected.iter().all(|h| reached.contains(h)),
            "probe {i}: {reached:?} ⊉ {expected:?}"
        );
    }
}

#[test]
fn a_shared_program_is_rejected_only_at_the_tight_slot() {
    let (tight, sharer) = sharing_pair();
    let mut ctrl = controller();
    ctrl.budget_overrides.insert(tight, no_tcam());
    ctrl.degrade_over_budget = false;
    let net = testbed();
    let mut d = ctrl.deploy(net.clone(), &before(net.host_count())).unwrap();
    match ctrl.repair(&mut d, &after(net.host_count()), &mut PerfectChannel) {
        Err(DeployError::Admission { rejected, report }) => {
            assert_eq!(rejected.len(), 1);
            assert_eq!(rejected[0].0, tight);
            assert!(matches!(rejected[0].1, InstallError::OverBudget(_)));
            let verdict =
                |s: usize| &report.switches.iter().find(|e| e.switch == s).unwrap().verdict;
            assert!(matches!(verdict(tight), AdmissionVerdict::Rejected(_)));
            assert_eq!(*verdict(sharer), AdmissionVerdict::Admitted);
            assert_eq!(report.committed(), 0);
        }
        other => panic!("expected an admission rejection, got {:?}", other.map(|_| ())),
    }
}
