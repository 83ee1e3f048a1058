//! A real multi-threaded in-memory transport.
//!
//! The simulator in [`crate::network`] is the substrate every experiment
//! runs on, but a distributed file system ultimately exchanges messages
//! between concurrently executing machines. [`LiveBus`] provides exactly
//! the same connectivity semantics (crashes, partitions, symmetric
//! reachability) over real threads and channels, so the examples can show
//! the message layer running "live". It is intentionally unordered across
//! senders — ordering is ISIS's job, one layer up.
//!
//! All connectivity state sits in one topology behind one lock: the
//! endpoints, the server partition, each machine's crash flag and crash
//! epoch, and the home server of every attached client. As in the
//! simulator, a client has no network identity of its own: once
//! [`LiveEndpoint::attach`]ed, it stands on its home's side of any
//! partition, so [`LiveBus::split`] names servers only and attaching
//! never rewrites the partition. Crashes stay per machine: a send is
//! refused when either peer is itself crashed, so a session whose home
//! died can still fail over to the servers on its side.
//!
//! A send takes one read guard, and the liveness check, the
//! reachability check and the destination's epoch stamp all come from
//! it. That is the stale-epoch invariant: a frame is stamped with the
//! epoch of the same topology that let it through, so a crash racing the
//! send either refuses it or leaves it carrying the pre-crash epoch, and
//! [`LiveEndpoint`] discards it on receive. Traffic queued at a machine
//! never survives its reboot.
//!
//! # Spin, then park
//!
//! A blocking receive ([`LiveEndpoint::recv_timeout`]) polls its queue
//! for up to `SPIN` (20 µs) before it parks on the channel. A parked
//! receiver costs a futex sleep, and its sender pays the futex wake; a
//! peer that answers within microseconds (a server reading its own
//! replica does) skips both. 20 µs is about one parked bus round trip,
//! so a spin that loses costs at most what parking would have: the
//! competitive-spinning bound (Karlin, Li, Manasse & Owicki, SOSP 1991).
//! Each empty poll yields the core rather than busy-waiting: a live cell
//! runs more threads than a small machine has cores, and the thread the
//! spinner waits for may need the very core it would hold. The one
//! receive sits under both the clients' waits and the servers' request
//! loops, and both sides must spin: if either still parks, every send
//! to it still pays the wake. Frames taken while spinning go through
//! the same stale-epoch check as parked ones. The non-blocking
//! [`LiveEndpoint::try_recv`] never spins.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;

use crate::node::NodeId;
use crate::topology::Partition;

/// How long a blocking receive polls its queue before parking: about
/// one parked bus round trip (see the module docs).
const SPIN: Duration = Duration::from_micros(20);

/// The time left until `deadline`; `None` (a deadline past the end of
/// time) leaves [`Duration::MAX`], which the channel treats as "block
/// until a frame arrives".
pub(crate) fn time_left(deadline: Option<Instant>) -> Duration {
    deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()))
}

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending machine.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// The channel frame: an envelope stamped with the destination's crash
/// epoch at send time, so traffic queued before a crash can be told
/// apart from traffic sent after the recovery.
#[derive(Debug)]
struct Sealed<M> {
    env: Envelope<M>,
    epoch: u64,
}

/// One machine's liveness: whether it is down, and how many times it
/// has crashed (bumping the count invalidates its queued traffic).
#[derive(Debug, Default, Clone, Copy)]
struct Liveness {
    crashed: bool,
    epoch: u64,
}

/// Everything that decides who reaches whom.
#[derive(Debug)]
struct Topology<M> {
    endpoints: HashMap<NodeId, Sender<Sealed<M>>>,
    /// The partition of the *server* set.
    partition: Partition,
    liveness: HashMap<NodeId, Liveness>,
    /// Each attached client's home server.
    homes: HashMap<NodeId, NodeId>,
}

impl<M> Topology<M> {
    fn liveness(&self, node: NodeId) -> Liveness {
        self.liveness.get(&node).copied().unwrap_or_default()
    }

    /// Neither peer crashed, and their sides of the partition (a
    /// client's side is its home's) can reach each other.
    fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        let side = |n| self.homes.get(&n).copied().unwrap_or(n);
        !self.liveness(a).crashed
            && !self.liveness(b).crashed
            && self.partition.can_reach(side(a), side(b))
    }
}

#[derive(Debug)]
struct BusInner<M> {
    topology: RwLock<Topology<M>>,
    delivered: AtomicU64,
    rejected: AtomicU64,
    dropped_stale: AtomicU64,
}

/// A shared in-memory message bus connecting live endpoints.
#[derive(Debug)]
pub struct LiveBus<M> {
    inner: Arc<BusInner<M>>,
}

impl<M> Clone for LiveBus<M> {
    fn clone(&self) -> Self {
        LiveBus { inner: Arc::clone(&self.inner) }
    }
}

impl<M: Send + 'static> LiveBus<M> {
    /// Creates an empty bus.
    pub fn new() -> Self {
        LiveBus {
            inner: Arc::new(BusInner {
                topology: RwLock::new(Topology {
                    endpoints: HashMap::new(),
                    partition: Partition::connected(),
                    liveness: HashMap::new(),
                    homes: HashMap::new(),
                }),
                delivered: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                dropped_stale: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a machine and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&self, node: NodeId) -> LiveEndpoint<M> {
        let (tx, rx) = unbounded();
        let prev = self.inner.topology.write().endpoints.insert(node, tx);
        assert!(prev.is_none(), "node {node} registered twice");
        LiveEndpoint { node, rx, bus: self.clone() }
    }

    /// Partitions the servers into `groups`; attached clients follow
    /// their homes.
    pub fn split(&self, groups: &[&[NodeId]]) {
        self.inner.topology.write().partition = Partition::split(groups);
    }

    /// Heals any partition.
    pub fn heal(&self) {
        self.inner.topology.write().partition.heal();
    }

    /// Marks a machine as crashed: its traffic is rejected in both
    /// directions until [`LiveBus::recover`], and everything already
    /// queued at the machine evaporates — a dead kernel's buffers do not
    /// survive the reboot. (The queue is invalidated by bumping the
    /// node's crash epoch; the endpoint discards stale frames on
    /// receive.)
    pub fn crash(&self, node: NodeId) {
        let mut topology = self.inner.topology.write();
        let life = topology.liveness.entry(node).or_default();
        life.epoch += u64::from(!life.crashed);
        life.crashed = true;
    }

    /// Recovers a crashed machine.
    pub fn recover(&self, node: NodeId) {
        if let Some(life) = self.inner.topology.write().liveness.get_mut(&node) {
            life.crashed = false;
        }
    }

    /// Whether `node` is currently marked crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.topology.read().liveness(node).crashed
    }

    /// All registered node ids, in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.inner.topology.read().endpoints.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Whether `a` and `b` can currently exchange messages (crash and
    /// partition state combined) — the same rule [`LiveBus::send`]
    /// enforces, exposed for differential testing against the simulator's
    /// topology rules.
    pub fn can_exchange(&self, a: NodeId, b: NodeId) -> bool {
        self.inner.topology.read().reachable(a, b)
    }

    /// Sends accepted by the bus so far. Counted at enqueue time: a
    /// frame that later evaporates because its destination crashed
    /// before draining it stays counted here *and* appears in
    /// [`LiveBus::dropped_stale`] — subtract to get frames actually
    /// handed to receivers.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Send attempts rejected by crash/partition state.
    pub fn rejected(&self) -> u64 {
        self.inner.rejected.load(Ordering::Relaxed)
    }

    /// Messages that were queued at a machine when it crashed and were
    /// therefore discarded on receive.
    pub fn dropped_stale(&self) -> u64 {
        self.inner.dropped_stale.load(Ordering::Relaxed)
    }

    fn send(&self, from: NodeId, to: NodeId, msg: M) -> bool {
        // One guard for the checks and the epoch stamp: see the module
        // docs for why the stamp must not be read under a second one.
        let ok = {
            let topology = self.inner.topology.read();
            let epoch = topology.liveness(to).epoch;
            topology.reachable(from, to)
                && topology.endpoints.get(&to).is_some_and(|tx| {
                    tx.send(Sealed { env: Envelope { from, msg }, epoch }).is_ok()
                })
        };
        if ok {
            self.inner.delivered.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

impl<M: Send + 'static> Default for LiveBus<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// One machine's connection to the bus.
#[derive(Debug)]
pub struct LiveEndpoint<M> {
    node: NodeId,
    rx: Receiver<Sealed<M>>,
    bus: LiveBus<M>,
}

impl<M> Drop for LiveEndpoint<M> {
    /// Unplugs the machine: its entry and its home leave the bus in one
    /// write, so sends to it fail fast instead of queueing into a
    /// channel nobody will drain. Without this, every short-lived
    /// endpoint (client sessions, most of all) would leak its entries
    /// for the bus's lifetime.
    fn drop(&mut self) {
        let mut topology = self.bus.inner.topology.write();
        topology.endpoints.remove(&self.node);
        topology.homes.remove(&self.node);
    }
}

impl<M: Send + 'static> LiveEndpoint<M> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Attaches this machine to server `home` as a client: from now on
    /// it stands on `home`'s side of any partition. Attaching again
    /// moves it; dropping the endpoint detaches it.
    pub fn attach(&self, home: NodeId) {
        self.bus.inner.topology.write().homes.insert(self.node, home);
    }

    /// Sends a message; returns false if the peer is unreachable.
    pub fn send(&self, to: NodeId, msg: M) -> bool {
        self.bus.send(self.node, to, msg)
    }
    /// Blocks until a message arrives or the timeout elapses; a timeout
    /// too large to form a deadline ([`Duration::MAX`]) never elapses.
    ///
    /// Spins first: polls the queue, yielding between polls, for up to
    /// `SPIN` (clipped to `timeout`), and only then parks on the
    /// channel for the rest of the timeout. See the module docs.
    ///
    /// Frames queued before this machine's most recent crash are
    /// silently discarded — they were in a dead machine's buffers.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let start = Instant::now();
        let spin_until = start + SPIN.min(timeout);
        loop {
            if let Some(env) = self.try_recv() {
                return Some(env);
            }
            if Instant::now() >= spin_until {
                break;
            }
            std::thread::yield_now();
        }
        let deadline = start.checked_add(timeout);
        loop {
            match self.rx.recv_timeout(time_left(deadline)) {
                Ok(sealed) => {
                    if let Some(env) = self.unseal(sealed) {
                        return Some(env);
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return None;
                }
            }
        }
    }

    /// Returns an already-queued message without blocking, discarding
    /// any frames that predate this machine's most recent crash.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        while let Ok(sealed) = self.rx.try_recv() {
            if let Some(env) = self.unseal(sealed) {
                return Some(env);
            }
        }
        None
    }

    /// Drops frames from before the latest crash of this node.
    fn unseal(&self, sealed: Sealed<M>) -> Option<Envelope<M>> {
        if sealed.epoch < self.bus.inner.topology.read().liveness(self.node).epoch {
            self.bus.inner.dropped_stale.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            Some(sealed.env)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn ping_pong_across_threads() {
        let bus: LiveBus<String> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));
        let handle = thread::spawn(move || {
            let env = b.recv_timeout(Duration::from_secs(2)).expect("ping");
            assert_eq!(env.from, n(0));
            assert_eq!(env.msg, "ping");
            assert!(b.send(env.from, "pong".to_string()));
        });
        assert!(a.send(n(1), "ping".to_string()));
        let env = a.recv_timeout(Duration::from_secs(2)).expect("pong");
        assert_eq!(env.msg, "pong");
        handle.join().unwrap();
        assert_eq!(bus.delivered(), 2);
    }

    #[test]
    fn partition_rejects_cross_traffic() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));
        bus.split(&[&[n(0)], &[n(1)]]);
        assert!(!a.send(n(1), 7));
        assert_eq!(bus.rejected(), 1);
        bus.heal();
        assert!(a.send(n(1), 7));
        assert_eq!(b.try_recv().unwrap().msg, 7);
    }

    #[test]
    fn crash_and_recover() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(n(0));
        let b = bus.register(n(1));
        bus.crash(n(1));
        assert!(!a.send(n(1), 1));
        bus.recover(n(1));
        assert!(a.send(n(1), 2));
        assert_eq!(b.try_recv().unwrap().msg, 2);
    }

    #[test]
    fn unregistered_destination_rejected() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(n(0));
        assert!(!a.send(n(9), 1));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let bus: LiveBus<u32> = LiveBus::new();
        let _a = bus.register(n(0));
        let _b = bus.register(n(0));
    }
}
