//! Broadcast while the network churns underneath — the paper's raison
//! d'être, on the shipped protocol. Viewers join mid-stream, say good-bye
//! (the coordinator splices their parents to their children), crash and
//! get spliced out by their children's complaints; the transfer never
//! reconfigures because coded packets describe themselves. The whole
//! swarm runs the real peer and coordinator state machines on the
//! deterministic virtual network: one process, no sockets, no wall clock.
//!
//! ```text
//! cargo run --release --example churn_broadcast
//! ```

use coded_curtain::net::transport::vnet::{LinkProfile, VnetConfig, World};
use coded_curtain::overlay::OverlayConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // k = 16 threads, every peer clips d = 3; a 128 KiB object as 8
    // generations of 16 packets x 1 KiB; every link loses 2 % of its frames.
    let cfg = VnetConfig {
        overlay: OverlayConfig::new(16, 3),
        generations: 8,
        generation_size: 16,
        packet_len: 1024,
        ..VnetConfig::default()
    };
    let content: Vec<u8> = (0..cfg.generations * cfg.generation_size * cfg.packet_len)
        .map(|i| (i % 251) as u8)
        .collect();
    let mut world = World::new(17, cfg, &content);
    world.set_default_link(LinkProfile { loss: 0.02, ..LinkProfile::default() });
    for _ in 0..80 {
        world.join_peer();
        world.run_for(200);
    }
    println!("starting broadcast to {} peers (k = 16, d = 3)", world.alive());

    // Who departs is the scenario's own stream, not the world's.
    let mut scenario = StdRng::seed_from_u64(99);
    let (mut joins, mut leaves, mut crashes) = (0, 0, 0);
    for _ in 0..6 {
        // Between checkpoints: eight viewers arrive, then — while they
        // are mid-transfer — three say good-bye and two crash.
        for _ in 0..8 {
            world.join_peer();
            world.run_for(1_000);
            joins += 1;
        }
        for departure in 0..5 {
            let pool = world.alive_nodes();
            let (victim, _) = pool[scenario.random_range(0..pool.len())];
            if departure < 3 {
                world.leave_peer(victim);
                leaves += 1;
            } else {
                world.kill_peer(victim);
                crashes += 1;
            }
        }
        world.run_for(50_000);
        println!(
            "t={:>4} ms: {:>3} members | decoded {:>5.1}% | churn so far: +{joins} joins, -{leaves} polite leaves, {crashes} crashes, {} repairs",
            world.clock_us() / 1_000,
            world.alive(),
            100.0 * world.complete() as f64 / world.alive() as f64,
            world.stats().repairs,
        );
    }

    let deadline = world.clock_us() + 240_000_000;
    assert!(world.run_until_all_complete(deadline), "churn sank the broadcast: {world:?}");
    for (node, _) in world.alive_nodes() {
        assert_eq!(
            world.decoded_content(node).as_deref(),
            Some(&content[..]),
            "{node} decoded something else"
        );
    }
    let stats = world.stats();
    assert_eq!(stats.gave_up, 0, "a repair episode gave up: {stats:?}");
    println!(
        "\nfinal: {}/{} current members hold the complete file, byte for byte",
        world.complete(),
        world.alive()
    );
    println!(
        "{leaves} polite leaves, {crashes} crashes; {} orphaned streams re-subscribed, none gave up;",
        stats.repairs
    );
    println!("nobody ever recomputed a route or a tree: every repair was a local");
    println!("splice, and every packet carried the coefficients to decode it.");
}
