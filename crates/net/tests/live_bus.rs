//! Dedicated coverage for `net::live::LiveBus` crash/partition/
//! unreachable semantics and client attachment, including a
//! differential test pinning the live bus's connectivity rules to the
//! simulator's `topology::Partition`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use deceit_net::live::{Envelope, LiveBus, LiveEndpoint};
use deceit_net::topology::Partition;
use deceit_net::NodeId;

fn n(v: u32) -> NodeId {
    NodeId(v)
}

/// Pseudo-random-ish assignment of nodes to groups from a seed, shared by
/// both the LiveBus and the reference Partition.
fn grouping(seed: u64, nodes: u32, groups: usize) -> Vec<Vec<NodeId>> {
    let mut out = vec![Vec::new(); groups];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in 0..nodes {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Leave some nodes out of every named group: they land in the
        // implicit rest-of-world group in both implementations.
        let slot = (state >> 33) as usize % (groups + 1);
        if slot < groups {
            out[slot].push(n(v));
        }
    }
    out
}

/// Clients attached in the connectivity test: they reach what their
/// home server reaches across a partition.
const CLIENTS: [u32; 4] = [100, 101, 102, 103];

/// The live bus must accept/reject exactly where the simulator's
/// partition rules say two nodes can/cannot reach each other, across
/// random groupings and crash sets. Attached clients are judged by
/// their home's side of the partition, and by their own crash flag.
#[test]
fn connectivity_matches_topology_partition_rules() {
    const SERVERS: u32 = 8;
    for seed in 0..24u64 {
        let bus: LiveBus<u32> = LiveBus::new();
        let nodes: Vec<u32> = (0..SERVERS).chain(CLIENTS).collect();
        let endpoints: HashMap<u32, _> = nodes.iter().map(|&v| (v, bus.register(n(v)))).collect();
        // Seeded homes, so every seed homes the clients differently.
        let home = |v: u32| if v < SERVERS { v } else { (v as u64 * 7 + seed) as u32 % SERVERS };
        for c in CLIENTS {
            endpoints[&c].attach(n(home(c)));
        }

        let groups = grouping(seed, SERVERS, 1 + (seed % 3) as usize);
        let refs: Vec<&[NodeId]> = groups.iter().map(Vec::as_slice).collect();
        bus.split(&refs);
        let reference = Partition::split(&refs);

        // A deterministic crash set on top of the partition, clients
        // included.
        let crashed: Vec<NodeId> =
            nodes.iter().filter(|&&v| (seed + v as u64).is_multiple_of(5)).map(|&v| n(v)).collect();
        for &c in &crashed {
            bus.crash(c);
        }

        for &a in &nodes {
            for &b in &nodes {
                if a == b {
                    continue;
                }
                let expect = reference.can_reach(n(home(a)), n(home(b)))
                    && !crashed.contains(&n(a))
                    && !crashed.contains(&n(b));
                // The query surface and an actual send must both agree
                // with the reference rules.
                assert_eq!(
                    bus.can_exchange(n(a), n(b)),
                    expect,
                    "seed {seed}: can_exchange({a},{b}) disagrees with Partition::can_reach"
                );
                let sent = endpoints[&a].send(n(b), a * 1000 + b);
                assert_eq!(
                    sent, expect,
                    "seed {seed}: send({a}->{b}) disagrees with Partition::can_reach"
                );
                if sent {
                    let env = endpoints[&b].try_recv().expect("delivered message");
                    assert_eq!(env.from, n(a));
                    assert_eq!(env.msg, a * 1000 + b);
                }
            }
        }

        // Healing + recovery restores full connectivity, as in the sim.
        bus.heal();
        for &c in &crashed {
            bus.recover(c);
        }
        for &a in &nodes {
            for &b in &nodes {
                assert!(bus.can_exchange(n(a), n(b)), "healed bus must be fully connected");
            }
        }
    }
}

/// A session attached *while* a server partition is in force lands on
/// its home server's side of the split, not in the implicit rest group.
#[test]
fn session_attached_during_split_joins_its_homes_side() {
    let bus: LiveBus<u8> = LiveBus::new();
    let _servers: Vec<_> = (0..3).map(|v| bus.register(n(v))).collect();
    // Servers 0,1 vs 2; an existing client homed on 0.
    let early = bus.register(n(1000));
    early.attach(n(0));
    bus.split(&[&[n(0), n(1)], &[n(2)]]);
    assert!(bus.can_exchange(n(1000), n(0)));
    assert!(!bus.can_exchange(n(1000), n(2)));

    // Mid-split arrivals: one homed on each side.
    let a = bus.register(n(1001));
    a.attach(n(1));
    let b = bus.register(n(1002));
    b.attach(n(2));
    assert!(bus.can_exchange(n(1001), n(0)), "new session must sit with its home's group");
    assert!(bus.can_exchange(n(1001), n(1)));
    assert!(!bus.can_exchange(n(1001), n(2)));
    assert!(bus.can_exchange(n(1002), n(2)));
    assert!(!bus.can_exchange(n(1002), n(0)));
    // The two arrivals are on opposite sides of the split.
    assert!(!bus.can_exchange(n(1001), n(1002)));

    // Re-attaching moves a session across; dropping one detaches it, so
    // its id no longer follows the old home.
    a.attach(n(2));
    assert!(bus.can_exchange(n(1001), n(1002)));
    assert!(!bus.can_exchange(n(1001), n(0)));
    drop(b);
    assert!(!bus.can_exchange(n(1002), n(2)), "a detached id is back in the rest group");
}

/// An attach storm racing split/heal can never leave a healed bus
/// partitioned: attaching records a home and nothing else, so there is
/// no partition for it to re-impose.
#[test]
fn attach_cannot_revive_a_healed_split() {
    let bus: LiveBus<u8> = LiveBus::new();
    let _servers: Vec<_> = (0..2).map(|v| bus.register(n(v))).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let attachers: Vec<_> = (0..3u32)
        .map(|t| {
            let bus = bus.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Acquire) {
                    // A churn of sessions homed on both sides.
                    let ep = bus.register(n(1000 + t * 100 + i % 50));
                    ep.attach(n(i % 2));
                    ep.attach(n((i + 1) % 2));
                    i += 1;
                }
            })
        })
        .collect();
    let steady = bus.register(n(999));
    steady.attach(n(0));
    for _ in 0..200 {
        bus.split(&[&[n(0)], &[n(1)]]);
        assert!(!bus.can_exchange(n(999), n(1)));
        bus.heal();
        assert!(bus.can_exchange(n(0), n(1)), "a racing attach revived a healed split");
        assert!(bus.can_exchange(n(999), n(1)));
    }
    stop.store(true, Ordering::Release);
    for t in attachers {
        t.join().unwrap();
    }
}

/// A receive, blocking or not.
type Drain = fn(&LiveEndpoint<&'static str>) -> Option<Envelope<&'static str>>;

#[test]
fn crash_rejects_both_directions_and_evaporates_queued_traffic() {
    // Drained without blocking, and through the blocking receive, whose
    // spin must unseal the frames it takes exactly like a parked wake.
    let drains: [Drain; 2] = [|ep| ep.try_recv(), |ep| ep.recv_timeout(Duration::from_millis(1))];
    for drain in drains {
        let bus: LiveBus<&'static str> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));

        // Queue a message, then crash the receiver: new traffic is
        // rejected both ways, and the queued message dies with the
        // machine — a dead kernel's buffers do not survive the reboot.
        assert!(a.send(n(1), "queued before crash"));
        bus.crash(n(1));
        assert!(bus.is_crashed(n(1)));
        assert!(!a.send(n(1), "into the void"));
        assert!(!b.send(n(0), "from the grave"));
        assert_eq!(bus.rejected(), 2);

        bus.recover(n(1));
        assert!(!bus.is_crashed(n(1)));
        // Post-recovery traffic flows; the pre-crash frame was discarded
        // even though recovery happened before the endpoint drained it.
        assert!(a.send(n(1), "back online"));
        assert_eq!(drain(&b).unwrap().msg, "back online");
        assert!(drain(&b).is_none());
        assert_eq!(bus.dropped_stale(), 1);
    }
}

/// Spinning honours the caller's deadline: on an empty endpoint, a zero
/// or a 5 µs timeout returns within 2 ms.
#[test]
fn short_timeouts_on_an_empty_endpoint_return_promptly() {
    let bus: LiveBus<u8> = LiveBus::new();
    let a = bus.register(n(0));
    for timeout in [Duration::ZERO, Duration::from_micros(5)] {
        let t0 = Instant::now();
        assert!(a.recv_timeout(timeout).is_none());
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(2), "recv_timeout({timeout:?}) took {took:?}");
    }
}

/// A frame that arrives long after the spin window has ended still
/// wakes the parked receiver.
#[test]
fn frame_sent_after_the_spin_wakes_a_parked_receiver() {
    let bus: LiveBus<u8> = LiveBus::new();
    let rx = bus.register(n(1));
    let tx = bus.register(n(0));
    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(5));
        assert!(tx.send(n(1), 42));
        tx
    });
    let env = rx.recv_timeout(Duration::from_secs(2)).expect("late frame delivered");
    assert_eq!((env.from, env.msg), (n(0), 42));
    sender.join().unwrap();
}

#[test]
fn unreachable_cases_are_all_counted() {
    let bus: LiveBus<u8> = LiveBus::new();
    let a = bus.register(n(0));
    // Unregistered destination.
    assert!(!a.send(n(7), 1));
    // Partitioned destination.
    let _b = bus.register(n(1));
    bus.split(&[&[n(0)], &[n(1)]]);
    assert!(!a.send(n(1), 2));
    // Crashed destination.
    bus.heal();
    bus.crash(n(1));
    assert!(!a.send(n(1), 3));
    assert_eq!(bus.rejected(), 3);
    assert_eq!(bus.delivered(), 0);
}

#[test]
fn nodes_lists_registered_ids_in_order() {
    let bus: LiveBus<u8> = LiveBus::new();
    let _c = bus.register(n(5));
    let _a = bus.register(n(1));
    let _b = bus.register(n(3));
    assert_eq!(bus.nodes(), vec![n(1), n(3), n(5)]);
}

/// Partition changes are honoured by concurrently running senders: a
/// receiver thread sees traffic stop while split and resume after heal.
#[test]
fn split_and_heal_race_with_live_traffic() {
    let bus: LiveBus<u64> = LiveBus::new();
    let tx = bus.register(n(0));
    let rx = bus.register(n(1));

    let sender = thread::spawn(move || {
        let mut accepted = 0u64;
        for i in 0..10_000u64 {
            if tx.send(n(1), i) {
                accepted += 1;
            }
            if i % 64 == 0 {
                thread::yield_now();
            }
        }
        accepted
    });

    // Flap the partition while the sender runs.
    for _ in 0..20 {
        bus.split(&[&[n(0)], &[n(1)]]);
        thread::sleep(Duration::from_micros(200));
        bus.heal();
        thread::sleep(Duration::from_micros(200));
    }
    let accepted = sender.join().unwrap();

    let mut received = 0u64;
    while rx.try_recv().is_some() {
        received += 1;
    }
    assert_eq!(received, accepted, "every accepted send must be delivered exactly once");
    assert_eq!(bus.delivered(), accepted);
    assert_eq!(bus.rejected(), 10_000 - accepted);
}
