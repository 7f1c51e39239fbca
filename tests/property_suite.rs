//! Cross-crate property tests: algebraic identities and protocol
//! invariants checked over randomized inputs.

use coded_curtain::overlay::churn::{ChurnConfig, ChurnDriver};
use coded_curtain::overlay::{
    CurtainNetwork, CurtainServer, FlowNetwork, NodeStatus, OverlayConfig,
};
use coded_curtain::rlnc::generic::{GenericDecoder, GenericPacket};
use coded_curtain::rlnc::{Decoder, Encoder};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Brute-force min-cut: minimum, over all source-side vertex subsets
/// containing `s` and excluding `t`, of the capacity crossing the cut.
fn brute_force_min_cut(n: usize, edges: &[(usize, usize, u32)], s: usize, t: usize) -> u32 {
    let mut best = u32::MAX;
    for mask in 0u32..(1 << n) {
        if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
            continue;
        }
        let crossing: u32 = edges
            .iter()
            .filter(|&&(u, v, _)| mask & (1 << u) != 0 && mask & (1 << v) == 0)
            .map(|&(_, _, c)| c)
            .sum();
        best = best.min(crossing);
    }
    best
}

/// Max-flow equals the brute-forced min-cut on small random digraphs
    /// (the max-flow/min-cut theorem, checked against our Edmonds–Karp).
#[test]
fn max_flow_equals_min_cut() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..64 {
        let n = rng.random_range(3usize..7);
        let edges: Vec<(usize, usize, u32)> = (0..rng.random_range(1..14))
            .map(|_| (rng.random_range(0..7), rng.random_range(0..7), rng.random_range(1..4)))
            .filter(|&(u, v, _)| u < n && v < n && u != v)
            .collect();
        let mut f = FlowNetwork::new(n);
        for &(u, v, c) in &edges {
            f.add_edge(u, v, c);
        }
        let flow = f.max_flow(0, n - 1, None);
        let cut = brute_force_min_cut(n, &edges, 0, n - 1);
        assert_eq!(flow as u32, cut);
    }
}

/// The byte-specialized decoder and the field-generic decoder agree on
/// innovation decisions and recovery for identical packet streams.
#[test]
fn specialized_and_generic_decoders_agree() {
    use curtain_gf::Gf256;
    let mut cases = StdRng::seed_from_u64(2);
    for _ in 0..64 {
        let (g, s) = (cases.random_range(1usize..8), cases.random_range(1usize..16));
        let mut rng = StdRng::seed_from_u64(cases.random());
        let data: Vec<Vec<u8>> = (0..g)
            .map(|i| (0..s).map(|j| (i * 37 + j * 11) as u8).collect())
            .collect();
        let enc = Encoder::new(0, data.clone()).unwrap();
        let mut fast = Decoder::new(0, g, s);
        let mut generic = GenericDecoder::<Gf256>::new(g, s);
        let mut guard = 0;
        while !fast.is_complete() {
            let p = enc.encode(&mut rng);
            let gp = GenericPacket {
                coefficients: p.coefficients().iter().map(|&c| Gf256::new(c)).collect(),
                payload: p.payload().iter().map(|&b| Gf256::new(b)).collect(),
            };
            let innovative_fast = fast.push(p).unwrap();
            let innovative_generic = generic.push(&gp);
            assert_eq!(innovative_fast, innovative_generic);
            assert_eq!(fast.rank(), generic.rank());
            guard += 1;
            assert!(guard < 100 * g, "did not converge");
        }
        let got_fast = fast.recover().unwrap();
        let got_generic: Vec<Vec<u8>> = generic
            .recover()
            .unwrap()
            .into_iter()
            .map(|row| row.into_iter().map(|x| x.value()).collect())
            .collect();
        assert_eq!(&got_fast, &data);
        assert_eq!(got_generic, data);
    }
}

/// Failing a node never *increases* anyone's connectivity, and repair
/// restores exactly the pre-failure values.
#[test]
fn failure_is_monotone_and_repair_exact() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..64 {
        let n = rng.random_range(5usize..25);
        let mut net = CurtainNetwork::new(OverlayConfig::new(10, 2)).unwrap();
        for _ in 0..n {
            net.join(&mut rng);
        }
        let ids = net.node_ids();
        let before: Vec<usize> = (0..n).map(|i| net.connectivity_of_index(i).unwrap()).collect();
        let victim = ids[rng.random_range(0..ids.len())];
        net.fail(victim).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            if id == victim {
                continue;
            }
            let after = net.connectivity_of(id).unwrap();
            assert!(after <= before[i], "connectivity rose after a failure");
        }
        net.repair(victim).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            if id == victim {
                continue;
            }
            assert_eq!(net.connectivity_of(id).unwrap(), before[i]);
        }
    }
}

/// Parents/children listings are mutually consistent at every position.
#[test]
fn parent_child_duality() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..64 {
        let mut net = CurtainNetwork::new(OverlayConfig::new(8, 3)).unwrap();
        for _ in 0..rng.random_range(2usize..30) {
            net.join(&mut rng);
        }
        let m = net.matrix();
        for pos in 0..m.len() {
            let me = m.row(pos).node();
            for (thread, child) in m.children_of_position(pos) {
                let Some(child) = child else { continue };
                let cpos = m.position_of(child).unwrap();
                let (t, parent) = m
                    .parents_of_position(cpos)
                    .into_iter()
                    .find(|(t, _)| *t == thread)
                    .expect("child holds the thread");
                assert_eq!(t, thread);
                assert_eq!(parent, coded_curtain::overlay::Holder::Node(me));
            }
        }
    }
}

/// Coordinator snapshots survive arbitrary churn and restore exactly.
#[test]
fn snapshot_round_trip_under_churn() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..64 {
        let mut net = CurtainNetwork::new(OverlayConfig::new(12, 2)).unwrap();
        let mut driver = ChurnDriver::new(ChurnConfig::default());
        driver.run(&mut net, rng.random_range(1u64..200), &mut rng);
        let json = net.server().to_json().unwrap();
        let restored = CurtainServer::from_json(&json).unwrap();
        assert_eq!(restored.matrix(), net.server().matrix());
        assert_eq!(restored.next_node_id(), net.server().next_node_id());
    }
}

/// The defect sampler is an unbiased estimator: on networks small
/// enough to enumerate, sampling converges to the exact value.
#[test]
fn defect_sampler_unbiased() {
    use coded_curtain::overlay::defect;
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..64 {
        let mut net = CurtainNetwork::new(OverlayConfig::new(6, 2)).unwrap();
        for _ in 0..rng.random_range(1usize..15) {
            net.join_with_failure_prob(0.3, &mut rng);
        }
        let exact = defect::exact(net.matrix(), 2);
        let sampled = defect::sample(net.matrix(), 2, 4000, &mut rng);
        let diff = (exact.total_defect_fraction() - sampled.total_defect_fraction()).abs();
        assert!(diff < 0.08, "sampler off by {diff}");
    }
}

/// Forest invariants hold for arbitrary shapes, and every node's
/// in-degree equals the tree count while out-degree stays within the
/// fanout.
#[test]
fn forest_invariants() {
    use coded_curtain::overlay::forest::ForestOverlay;
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..48 {
        let trees = rng.random_range(1usize..5);
        let fanout = trees + rng.random_range(0usize..6);
        let n = rng.random_range(1usize..200);
        let mut f = ForestOverlay::new(trees, fanout);
        for _ in 0..n {
            f.join();
        }
        f.assert_invariants();
        for &deg in &f.out_degrees() {
            assert!(deg <= fanout);
        }
        for node in 0..n {
            for t in 0..trees {
                assert!(f.depth_in_tree(t, node) >= 1);
            }
        }
    }
}

/// Gossip-built and centrally-built overlays both give full
/// connectivity in the failure-free case.
#[test]
fn gossip_networks_reach_full_connectivity() {
    use coded_curtain::overlay::gossip::{gossip_join, GossipConfig};
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..48 {
        let mut net = CurtainNetwork::new(OverlayConfig::new(10, 2)).unwrap();
        for _ in 0..rng.random_range(1usize..40) {
            gossip_join(&mut net, GossipConfig::default(), &mut rng);
        }
        net.matrix().assert_invariants();
        assert_eq!(net.min_working_connectivity(), Some(2));
    }
}

/// A fixed-seed sanity pair: connectivity equals thread count when no
/// failures exist (every stream flows), for heterogeneous degrees too.
#[test]
fn connectivity_equals_degree_in_healthy_networks() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut server = CurtainServer::new(OverlayConfig::new(24, 4)).unwrap();
    for i in 0..60 {
        let degree = 1 + (i % 6);
        server.hello_with_degree(degree, &mut rng);
    }
    let graph = server.graph();
    for (pos, row) in server.matrix().rows().iter().enumerate() {
        assert_eq!(
            graph.connectivity_of_position(pos),
            row.threads().len(),
            "node at position {pos}"
        );
    }
}

/// Every protocol error path keeps the matrix untouched (error atomicity).
#[test]
fn protocol_errors_do_not_mutate_state() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut server = CurtainServer::new(OverlayConfig::new(8, 2)).unwrap();
    let a = server.hello(&mut rng).node;
    server.report_failure(a).unwrap();
    let snapshot = server.matrix().clone();
    let bogus = coded_curtain::overlay::NodeId(999);
    assert!(server.goodbye(bogus).is_err());
    assert!(server.goodbye(a).is_err()); // failed node
    assert!(server.report_failure(a).is_err()); // double report
    assert!(server.repair(bogus).is_err());
    assert!(server.drop_thread(a, &mut rng).is_err()); // failed node
    assert!(server.restore_thread(a, &mut rng).is_err());
    assert_eq!(server.matrix(), &snapshot, "error paths must be side-effect free");
    assert_eq!(server.matrix().status_of(a), Some(NodeStatus::Failed));
}

/// Overlapping-class codec invariants over random shapes and loss:
/// rank climbs exactly once per innovative packet (shared packets are
/// never double-counted across the classes that carry them), bounded
/// by the object's true degrees of freedom; and once enough
/// innovative packets arrive the decode is byte-exact. The innovative
/// total at completion *equals* the dof count even though the classes
/// jointly span more than `classes × g` packet slots.
#[test]
fn overlap_codec_never_double_counts_rank() {
    use coded_curtain::codec::{CodecConfig, CodecKind};
    use rand::RngCore as _;

    let mut cases = StdRng::seed_from_u64(9);
    for _ in 0..48 {
        let g = cases.random_range(4usize..12);
        let s = cases.random_range(1usize..24);
        let overlap = cases.random_range(0usize..4).min(g / 2);
        let classes = cases.random_range(2usize..5);
        let loss_pm = cases.random_range(0u32..400);

        let len = classes * g * s;
        let content: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        let cfg = CodecConfig::new(CodecKind::Overlap, g, s).with_overlap(overlap);
        let mut src = cfg.source(&content);
        let mut sink = cfg.sink(content.len());
        let mut rng = StdRng::seed_from_u64(cases.random());
        let total = sink.progress().total_packets;
        let mut innovative_total = 0u64;
        let mut guard = 0u64;
        while !sink.is_complete() {
            let p = src.encode(&mut rng).expect("source never runs dry");
            guard += 1;
            assert!(guard < 400 * total, "transfer did not converge");
            if u64::from(loss_pm) * (u64::MAX / 1000) > rng.next_u64() {
                continue; // lost on the channel
            }
            let before = sink.progress().rank;
            let innovative = sink.ingest(p).expect("well-formed packet rejected");
            let after = sink.progress().rank;
            if innovative {
                innovative_total += 1;
                // A class-locally innovative packet may still be globally
                // redundant through the shared columns, so the global
                // estimate may hold still — but it must never regress.
                assert!(after >= before, "innovative packet lowered rank");
            } else {
                assert_eq!(after, before, "redundant packet moved rank");
            }
            assert!(after <= total, "rank {after} exceeds dof count {total}");
        }
        // Every degree of freedom took at least one innovative packet, and
        // the packets shared between neighbouring classes were counted
        // once, not once per class (rank capped at `total` throughout).
        assert!(innovative_total >= total);
        assert_eq!(sink.progress().rank, total);
        assert_eq!(sink.decoded().expect("complete"), content);
    }
}
