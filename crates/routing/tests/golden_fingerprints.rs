//! Golden per-switch fingerprints of Algorithm 1 on the 72-switch
//! `three_layer(8, 4, 4, 8, 4)` testbed with 1,000 seeded Siena
//! subscriptions, plus a property test that the `O(ports)` fingerprint
//! fold agrees with the materialised rule list.
//!
//! The golden values pin the routing output byte for byte: any change
//! to how filter sets are stored, deduplicated, ordered or hashed that
//! alters a single rule on a single switch changes one of these
//! numbers. `switch_fingerprint` and `fingerprint_rules(&switch_rules)`
//! must both reproduce them. The fingerprint is blind to the order of
//! rules within a port, so an order-sensitive digest of every rule list
//! pins that order (port-major, hash-sorted) as well.

use camus_lang::ast::{Expr, Predicate, Rel};
use camus_routing::algorithm1::{route_hierarchical_degraded, Policy, RoutingConfig};
use camus_routing::compile::fingerprint_rules;
use camus_routing::topology::{paper_fat_tree, three_layer, FaultMask, HierNet};
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

fn testbed() -> HierNet {
    three_layer(8, 4, 4, 8, 4)
}

/// 1,000 Zipf-anchored Siena filters dealt round-robin over the hosts.
fn siena_subs(hosts: usize) -> Vec<Vec<Expr>> {
    let mut g = SienaGenerator::new(SienaConfig {
        predicates_per_filter: 2,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed: 0xC4A2,
        ..Default::default()
    });
    let mut subs = vec![Vec::new(); hosts];
    for (i, f) in g.filters(1_000).into_iter().enumerate() {
        subs[i % hosts].push(f);
    }
    subs
}

/// FNV-1a: a hasher whose output is fixed across runs and releases.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Route and check every switch against `golden`, both through the
/// accumulator fold and through the materialised canonical rule list,
/// and every rule list, in order, against `digest`.
fn check(name: &str, cfg: RoutingConfig, mask: &FaultMask, golden: &[u64], digest: u64) {
    let net = testbed();
    let subs = siena_subs(net.host_count());
    let r = route_hierarchical_degraded(&net, &subs, cfg, mask);
    let folded: Vec<u64> = (0..net.switch_count()).map(|s| r.switch_fingerprint(s)).collect();
    let listed: Vec<u64> =
        (0..net.switch_count()).map(|s| fingerprint_rules(&r.switch_rules(s))).collect();
    assert_eq!(folded, golden, "{name}: switch_fingerprint moved");
    assert_eq!(listed, golden, "{name}: fingerprint_rules(switch_rules) moved");
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for s in 0..net.switch_count() {
        r.switch_rules(s).hash(&mut h);
    }
    assert_eq!(h.finish(), digest, "{name}: rule order moved");
}

#[test]
fn mr_alpha1_is_golden() {
    check(
        "MR α=1",
        RoutingConfig::new(Policy::MemoryReduction),
        &FaultMask::default(),
        &MR_ALPHA1,
        0x6c441386de7e6f09,
    );
}

#[test]
fn tr_alpha1_is_golden() {
    check(
        "TR α=1",
        RoutingConfig::new(Policy::TrafficReduction),
        &FaultMask::default(),
        &TR_ALPHA1,
        0x01edeb77978b9091,
    );
}

#[test]
fn tr_alpha10_is_golden() {
    check(
        "TR α=10",
        RoutingConfig::new(Policy::TrafficReduction).with_alpha(10),
        &FaultMask::default(),
        &TR_ALPHA10,
        0xdb4ca419154ee044,
    );
}

#[test]
fn mr_degraded_is_golden() {
    let net = testbed();
    let mut mask = FaultMask::new();
    // The first agg of pod 0 (the designated parent of every pod-0
    // ToR) and host 5's access link.
    assert!(mask.fail_switch(32));
    let (tor, port) = net.access[5];
    assert!(mask.fail_link(tor, port));
    check(
        "MR degraded",
        RoutingConfig::new(Policy::MemoryReduction),
        &mask,
        &MR_DEGRADED,
        0xc3536ea5af2ed1d7,
    );
}

/// One filter over two integer fields and one string field.
fn arb_filter() -> impl Strategy<Value = Expr> {
    let int =
        (prop_oneof![Just("a"), Just("b")], prop_oneof![Just(Rel::Lt), Just(Rel::Gt)], 0i64..40)
            .prop_map(|(f, r, c)| Expr::Atom(Predicate::field(f, r, c)));
    let sym = prop_oneof![Just("X"), Just("Y"), Just("Z")]
        .prop_map(|c| Expr::Atom(Predicate::field("s", Rel::Eq, c)));
    prop_oneof![
        2 => int.clone(),
        1 => sym.clone(),
        2 => (sym, int).prop_map(|(a, b)| a.and(b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hosts pick filters out of a small pool by index, so a host can
    /// hold the same filter twice and many hosts share filters. Every
    /// pick is rebuilt as its own allocation: deduplication has to be
    /// by structure, never by pointer.
    #[test]
    fn fold_matches_rule_list_with_duplicates(
        pool in prop::collection::vec(arb_filter(), 1..6),
        picks in prop::collection::vec(prop::collection::vec(0usize..6, 0..5), 16..17),
        tr in any::<bool>(),
        widen in any::<bool>(),
    ) {
        let net = paper_fat_tree();
        let subs: Vec<Vec<Expr>> = picks
            .iter()
            .map(|p| p.iter().map(|&i| pool[i % pool.len()].clone()).collect())
            .collect();
        let policy = if tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        let cfg = RoutingConfig::new(policy).with_alpha(if widen { 10 } else { 1 });
        let r = route_hierarchical_degraded(&net, &subs, cfg, &FaultMask::default());
        for s in 0..net.switch_count() {
            prop_assert_eq!(
                r.switch_fingerprint(s),
                fingerprint_rules(&r.switch_rules(s)),
                "{:?} switch {}", cfg, s
            );
        }
        for (h, &(tor, port)) in net.access.iter().enumerate() {
            let mut distinct: Vec<&Expr> = Vec::new();
            for f in &subs[h] {
                if !distinct.contains(&f) {
                    distinct.push(f);
                }
            }
            let held = r.filters[tor].get(&port).map_or(0, |set| set.len());
            prop_assert_eq!(held, distinct.len(), "host {} access port", h);
        }
    }
}

#[rustfmt::skip]
const MR_ALPHA1: [u64; 72] = [
    0x4e69f12f7314ab19, 0xfac7c3c0947a7af7, 0x6155d4a8de1a9952, 0x9b97ca976ce8ae1e,
    0xa9eb0c7c53cf6ccc, 0x4e22fe8bc374466f, 0x057381c040aadab9, 0xea85f0aa7797cd9f,
    0xcf5fb8717ae9a5f1, 0xc58c577c52f7eab7, 0x6f95db422f9fc199, 0x00eacb6b3082eff9,
    0xaade85730d6cc9a0, 0x1262dc87f5dbc0bc, 0x04fc8361d1ebde75, 0x9dca6569978f4d2f,
    0x2730e04891f23331, 0x187f922cada7f019, 0xca3460d4c8eebbaa, 0x8b4b77b30fa8a20f,
    0x2e3e33de662acc79, 0x1849075ed2cd93b2, 0xf7c28fa3b922eaca, 0xf4b1fa6ec496f61a,
    0x6ffd10d93212f40c, 0xdf655ee2eb229805, 0xab04f03b9129a524, 0xd8410d688884f241,
    0x55e1b172f17f2663, 0xdc46c205c6df05b8, 0xc8466b3989822f72, 0xcf732d9c3b6f56fc,
    0x76ef9df7339b781c, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0xcca895a88772548e, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x0ca15faae5cefde7, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x459b436e3606a881, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0xd717ea368abaa422, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x017377fdecc641c4, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x26278dad72213d8f, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x05d4cc36d1e229c0, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2,
    0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2,
];
#[rustfmt::skip]
const TR_ALPHA1: [u64; 72] = [
    0xec460b720b3e42a0, 0xc8b0edc4d2d558f2, 0x9e22800befb73d5f, 0x807be40bd664e13f,
    0x7756851307c21a9c, 0x30d7c2fc345f1eda, 0x9980680b496c6b78, 0xdb1039f2de62f0ff,
    0x8fcda9871988f614, 0xf21caed312131506, 0x7363f0ee6de8518d, 0x21a9cf700215c283,
    0x7ec967ebc042399a, 0x5899f303ce3ce8b7, 0xd4723fb606ce74ec, 0x8e7d32a3445a9e67,
    0x1c65214ef5fd8dba, 0x1c995f02e4663a54, 0x662334dc7d24555f, 0xf0534ac8522363b8,
    0xf8e58ac8b0652b7b, 0xe215e721a5c0924f, 0x2cba531071f9db6c, 0x36ba5aeadb4df60d,
    0x8c10178767316257, 0xce77d9e0264b1b5d, 0xa7eebf344a3fa492, 0x6b001dc5ea489d5c,
    0x681c20ddae2d0c0f, 0xf37a484a76a7fddd, 0x0c3630dc6b93b62a, 0xf32c80017e170a08,
    0xa6ed6969275e7750, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0xa6acda64592d8a7b, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0x8dff7714e000cb7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0xa8bf4aacfdf651b4, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0x94b16918e454714a, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0xbd90729f2899cc82, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0xbf587b6d2a7f5f47, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0x4d91be0a3e9ff9ed, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f, 0x43fd28aeec5f8c7f,
    0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2,
    0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2, 0x79d0c17b903cf6c2,
];
#[rustfmt::skip]
const TR_ALPHA10: [u64; 72] = [
    0xd5b6ab420641a10a, 0xbb01e2b877d6619c, 0x978eb1e8c942c819, 0xafb17f7598dd2dc1,
    0xd2f824d07f6692af, 0xafe3830a905677c7, 0x03375c6d02529765, 0x189fb6e304641c23,
    0x07eee35ed37f3459, 0xce27459ef1fd8c63, 0xc512cb4e5a6993ec, 0xb58145d866dfeeca,
    0xe3b0261286ca28d6, 0xe42a09912717431c, 0xab5bd8c6ebd7af94, 0xed889961d1e6eea5,
    0x15ced44e0969c4dc, 0x42edaf1646be24bd, 0x2c9b4af255251a3a, 0xfc6ccc2a7557b4ec,
    0x1795a54c8c9d41af, 0x0583365c6674f066, 0xecd059703d8b5aad, 0x2d9ba5cd3954093d,
    0xc9fc33fc98907603, 0x6ca0f017ab273b0f, 0x1e5cf322cc968a73, 0xdfcf97271f93955c,
    0x00ec697e970cdaf4, 0xe2c228b1d63048fe, 0x4df6aa7aaf62163e, 0x1553dfc674c917bf,
    0xa90998b28b978e03, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0xbe61ec93a1ec0452, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0x05ad0f70828d0ff3, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0x712e496452ea37b9, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0x7acab1a8c3beefd1, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0x667e77d955934787, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0x918ec03c370d83c9, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0xe580b6a40c9ce54d, 0x21fd66f233910479, 0x21fd66f233910479, 0x21fd66f233910479,
    0x4c8333854112aa45, 0x4c8333854112aa45, 0x4c8333854112aa45, 0x4c8333854112aa45,
    0x4c8333854112aa45, 0x4c8333854112aa45, 0x4c8333854112aa45, 0x4c8333854112aa45,
];
#[rustfmt::skip]
const MR_DEGRADED: [u64; 72] = [
    0x4e69f12f7314ab19, 0xa12ae50cee31851d, 0x6155d4a8de1a9952, 0x9b97ca976ce8ae1e,
    0xa9eb0c7c53cf6ccc, 0x4e22fe8bc374466f, 0x057381c040aadab9, 0xea85f0aa7797cd9f,
    0xcf5fb8717ae9a5f1, 0xc58c577c52f7eab7, 0x6f95db422f9fc199, 0x00eacb6b3082eff9,
    0xaade85730d6cc9a0, 0x1262dc87f5dbc0bc, 0x04fc8361d1ebde75, 0x9dca6569978f4d2f,
    0x2730e04891f23331, 0x187f922cada7f019, 0xca3460d4c8eebbaa, 0x8b4b77b30fa8a20f,
    0x2e3e33de662acc79, 0x1849075ed2cd93b2, 0xf7c28fa3b922eaca, 0xf4b1fa6ec496f61a,
    0x6ffd10d93212f40c, 0xdf655ee2eb229805, 0xab04f03b9129a524, 0xd8410d688884f241,
    0x55e1b172f17f2663, 0xdc46c205c6df05b8, 0xc8466b3989822f72, 0xcf732d9c3b6f56fc,
    0xa8c7f832281a39c5, 0xe5e10dd0e43b509b, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0xcca895a88772548e, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x0ca15faae5cefde7, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x459b436e3606a881, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0xd717ea368abaa422, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x017377fdecc641c4, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x26278dad72213d8f, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x05d4cc36d1e229c0, 0xf0d44789980408ed, 0xf0d44789980408ed, 0xf0d44789980408ed,
    0x76d44d46848f28d1, 0x76d44d46848f28d1, 0x76d44d46848f28d1, 0x76d44d46848f28d1,
    0x76d44d46848f28d1, 0x76d44d46848f28d1, 0x76d44d46848f28d1, 0x76d44d46848f28d1,
];
