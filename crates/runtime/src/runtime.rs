//! The live cluster: server threads, the pump thread, failure injection.
//!
//! Request execution is *sharded* (see [`crate::shard`]): read-only
//! requests run concurrently under the shared cell lock — served by the
//! engine's `&self` fast path when the addressed server holds a local
//! stable replica — and mutations run under the shared cell lock plus
//! the shard ring locks their [`OpClass`] declares, concurrently with
//! reads and with mutations of files in other shards. Only requests
//! whose footprint escapes their declared shards (and failure
//! injection) take the exclusive cell lock. The deferred-work pump
//! drains the engine's per-shard event queues under shared access, one
//! slot at a time.
//!
//! Each fault injection (crash, restart, split, heal) is one step: the
//! bus change and the engine change happen inside the same exclusive
//! engine section, so no request is ever served while the two disagree.
//! A request already dequeued when its server crashes is refused by the
//! engine itself (the server is down), and the bus drops the refusal
//! because its sender is crashed, exactly as a dead machine stays silent.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use deceit_core::{OpClass, ProtocolHost};
use deceit_net::live::LiveBus;
use deceit_net::rpc::{IncomingRequest, Rpc, RpcEndpoint};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, NfsReply, NfsRequest, NfsServer, NfsService};

use crate::client::RuntimeClient;
use crate::config::RuntimeConfig;
use crate::obs::{CoreReport, EngineReport, ObsReport, RuntimeObs, OP_CLASS_NAMES};
use crate::shard::ShardedEngine;

/// The wire frame between clients and servers: the NFS envelope carried
/// over correlated RPC.
pub(crate) type NfsFrame = Rpc<NfsRequest, NfsReply>;

/// First node id handed to client sessions; servers occupy `0..n`.
pub(crate) const CLIENT_BASE: u32 = 1_000;

/// How many additional already-queued read-only requests one server
/// thread serves under a single shared-lock acquisition. Bounded so a
/// deep read queue cannot starve an arriving mutation indefinitely.
///
/// Batches are long only when reads queue. Closed-loop readers rarely
/// do now that both ends of the bus spin before parking: a server
/// answers each read before the next arrives, so a batch is usually
/// one read and `runtime.cell_acq_per_req` on `read-local` sits near
/// 1.0 (it was 0.66 when every receive parked). That is the cost of a
/// shorter hop, not a regression.
const READ_BATCH: usize = 64;

/// One server's traffic counters, updated lock-free by its message loop
/// so [`ClusterRuntime::stats`] and the final report never contend with
/// request execution.
#[derive(Debug, Default)]
struct Tally {
    served: AtomicU64,
}

/// Aggregate traffic counters of a running cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Messages the bus delivered so far (both directions).
    pub bus_delivered: u64,
    /// Sends the bus rejected due to crash/partition state.
    pub bus_rejected: u64,
    /// Frames that evaporated because they were queued at a machine
    /// when it crashed.
    pub bus_dropped_stale: u64,
    /// Requests served across all server threads.
    pub requests_served: u64,
    /// Of those, requests served on the concurrent read fast path
    /// (shared cell lock, no exclusive engine access).
    pub requests_served_shared: u64,
    /// Of those, mutations served on the sharded path (shared cell lock
    /// plus the class's shard ring locks — no exclusive engine access).
    pub requests_served_sharded: u64,
    /// Deferred protocol work pending, as of the last time a thread
    /// holding the engine refreshed the cached count. Reading it takes
    /// no lock.
    pub pending_work: usize,
}

/// Final accounting returned by [`ClusterRuntime::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeReport {
    /// Requests served, per server.
    pub served: Vec<(NodeId, u64)>,
    /// Frames that evaporated in the transport because they were queued
    /// at a machine when it crashed (dead kernel buffers).
    pub bus_dropped_stale: u64,
    /// Total bus deliveries.
    pub bus_delivered: u64,
    /// Total bus rejections.
    pub bus_rejected: u64,
}

/// State shared by the runtime handle and every hosting thread.
struct Shared<S> {
    bus: LiveBus<NfsFrame>,
    engine: ShardedEngine<S>,
    stop: AtomicBool,
    served_shared: AtomicU64,
    served_sharded: AtomicU64,
    /// Cached [`ProtocolHost::pending_work`], refreshed by whichever
    /// thread last held the engine exclusively, so stats reads and the
    /// pump's idle check never take a lock.
    pending_cache: AtomicUsize,
    /// Per-server traffic counters, indexed by server id.
    tallies: Box<[Tally]>,
    /// Always-on runtime observability, shared with client sessions.
    obs: Arc<RuntimeObs>,
}

impl<S: ProtocolHost> Shared<S> {
    /// Exclusive engine access that refreshes the pending-work cache on
    /// the way out — the only mutation entry points are this, the
    /// class-dispatched serve path, and the pump, so the cache can only
    /// go stale by the width of one in-flight operation.
    fn with_engine<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        self.engine.exclusive(|e| {
            let out = f(e);
            self.pending_cache.store(e.pending_work(), Ordering::Release);
            out
        })
    }

    /// Counts a request server `id` answered.
    fn count_served(&self, id: NodeId) {
        self.tallies[id.index()].served.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests answered across all servers: the per-server tallies
    /// summed, so no counter is shared cell-wide on the reply path.
    fn served_total(&self) -> u64 {
        self.tallies.iter().map(|t| t.served.load(Ordering::Relaxed)).sum()
    }
}

/// One live Deceit cell: `n` server threads and a pump thread over a
/// shared [`LiveBus`], hosting any engine that implements the
/// [`NfsService`] + [`ProtocolHost`] seam.
///
/// The engine must be `Sync`: read-only requests execute against `&S`
/// from several server threads at once.
pub struct ClusterRuntime<S: NfsService + ProtocolHost + Send + Sync + 'static = NfsServer> {
    shared: Arc<Shared<S>>,
    cfg: RuntimeConfig,
    server_ids: Vec<NodeId>,
    server_threads: Vec<JoinHandle<()>>,
    pump_thread: Option<JoinHandle<()>>,
    next_client: AtomicU32,
}

impl ClusterRuntime<NfsServer> {
    /// Builds the standard stack — segment servers under the NFS envelope
    /// — and starts it on real threads.
    pub fn start(cfg: RuntimeConfig) -> Self {
        // One source of truth for the shard count: the engine's hot
        // state, its event queues, and this host's ring locks must all
        // partition by the same slot function.
        let cluster_cfg = cfg.cluster.clone().with_shards(cfg.shards);
        let fs = DeceitFs::new(cfg.servers, cluster_cfg, cfg.fs.clone());
        Self::host(NfsServer::new(fs), cfg)
    }
}

impl<S: NfsService + ProtocolHost + Send + Sync + 'static> ClusterRuntime<S> {
    /// Hosts an arbitrary protocol engine on live threads: one message
    /// loop per server plus the deferred-work pump.
    pub fn host(engine: S, cfg: RuntimeConfig) -> Self {
        assert!(cfg.servers > 0, "a live cell needs at least one server");
        assert!(
            cfg.servers <= CLIENT_BASE as usize,
            "server ids 0..{} would collide with client ids starting at {CLIENT_BASE}",
            cfg.servers
        );
        let bus: LiveBus<NfsFrame> = LiveBus::new();
        let pending = engine.pending_work();
        // Ring locks match the engine's own shard partitioning, so
        // holding slot s covers exactly the engine's slot-s hot state.
        let ring_slots = engine.shard_count();
        let shared = Arc::new(Shared {
            bus: bus.clone(),
            engine: ShardedEngine::new(engine, ring_slots),
            stop: AtomicBool::new(false),
            served_shared: AtomicU64::new(0),
            served_sharded: AtomicU64::new(0),
            pending_cache: AtomicUsize::new(pending),
            tallies: (0..cfg.servers).map(|_| Tally::default()).collect(),
            obs: Arc::new(RuntimeObs::new()),
        });

        let server_ids: Vec<NodeId> = (0..cfg.servers).map(NodeId::from).collect();
        let mut server_threads = Vec::with_capacity(cfg.servers);
        for &id in &server_ids {
            let ep: RpcEndpoint<NfsRequest, NfsReply> = RpcEndpoint::register(&bus, id);
            let shared = Arc::clone(&shared);
            let poll = cfg.poll_interval;
            let handle = thread::Builder::new()
                .name(format!("deceit-server-{}", id.0))
                .spawn(move || serve_loop(&shared, ep, poll))
                .expect("spawn server thread");
            server_threads.push(handle);
        }

        let pump_thread = {
            let shared = Arc::clone(&shared);
            let interval = cfg.pump_interval;
            let batch = cfg.pump_batch;
            Some(
                thread::Builder::new()
                    .name("deceit-pump".into())
                    .spawn(move || pump_loop(&shared, interval, batch))
                    .expect("spawn pump thread"),
            )
        };

        ClusterRuntime {
            shared,
            cfg,
            server_ids,
            server_threads,
            pump_thread,
            next_client: AtomicU32::new(0),
        }
    }

    /// Ids of the server threads, in index order.
    pub fn server_ids(&self) -> &[NodeId] {
        &self.server_ids
    }

    /// Opens a client session homed on a server chosen round-robin.
    pub fn client(&self) -> RuntimeClient {
        let seq = self.next_client.fetch_add(1, Ordering::Relaxed);
        let home = self.server_ids[seq as usize % self.server_ids.len()];
        self.client_at(seq, home)
    }

    /// Opens a client session homed on a specific server.
    pub fn client_homed(&self, home: NodeId) -> RuntimeClient {
        assert!(self.server_ids.contains(&home), "no such server {home}");
        let seq = self.next_client.fetch_add(1, Ordering::Relaxed);
        self.client_at(seq, home)
    }

    fn client_at(&self, seq: u32, home: NodeId) -> RuntimeClient {
        let id = NodeId(CLIENT_BASE + seq);
        let ep = RpcEndpoint::register(&self.shared.bus, id);
        // mount_root is `&self`: the shared lock suffices, so opening a
        // session never stalls concurrent readers.
        let root = self.shared.engine.read_guard().mount_root();
        RuntimeClient::new(
            ep,
            home,
            self.server_ids.clone(),
            self.cfg.request_timeout,
            root,
            Arc::clone(&self.shared.obs),
            self.cfg.retry,
        )
    }

    /// Runs `f` with exclusive access to the protocol engine — the
    /// inspection hatch used by tests and the scenario runner.
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        self.shared.with_engine(f)
    }

    /// Drives deferred protocol work to quiescence.
    ///
    /// Concurrent clients can keep scheduling new work, so this is a
    /// point-in-time statement, exactly like the simulator's
    /// `run_until_quiet` between operations.
    pub fn settle(&self) {
        self.shared.with_engine(|e| e.settle());
    }

    /// Crashes a server "without notification": the bus rejects its
    /// traffic and the protocol engine loses its volatile state, in one
    /// step. The server *thread* keeps running — a crashed machine and
    /// its message loop are indistinguishable to the rest of the cell.
    pub fn crash_server(&self, id: NodeId) {
        self.shared.with_engine(|e| {
            self.shared.bus.crash(id);
            e.crash_node(id);
        });
    }

    /// Restarts a crashed server and runs its recovery protocol, then
    /// reconnects it to the bus, in one step.
    pub fn restart_server(&self, id: NodeId) {
        self.shared.with_engine(|e| {
            e.restart_node(id);
            self.shared.bus.recover(id);
        });
    }

    /// Imposes a partition between the given groups of *servers*,
    /// mirroring [`deceit_core::Cluster::split`]; each client session
    /// follows its home server. Bus and engine change in one step, so
    /// a concurrent [`ClusterRuntime::heal`] can never leave the two
    /// topologies pointing in opposite directions.
    pub fn split(&self, groups: &[&[NodeId]]) {
        self.shared.with_engine(|e| {
            self.shared.bus.split(groups);
            e.split_nodes(groups);
        });
    }

    /// Heals any partition (protocol reconciliation included) in one
    /// step over bus and engine — see [`ClusterRuntime::split`].
    pub fn heal(&self) {
        self.shared.with_engine(|e| {
            self.shared.bus.heal();
            e.heal_nodes();
        });
    }

    /// Point-in-time traffic counters. Lock-free: every field is read
    /// from atomics, so observing a busy cluster never slows it down.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            bus_delivered: self.shared.bus.delivered(),
            bus_rejected: self.shared.bus.rejected(),
            bus_dropped_stale: self.shared.bus.dropped_stale(),
            requests_served: self.shared.served_total(),
            requests_served_shared: self.shared.served_shared.load(Ordering::Relaxed),
            requests_served_sharded: self.shared.served_sharded.load(Ordering::Relaxed),
            pending_work: self.shared.pending_cache.load(Ordering::Acquire),
        }
    }

    /// The runtime's always-on observability bundle (per-op-class
    /// latency histograms, pump transitions). Cheap to clone; client
    /// sessions already share it.
    pub fn obs(&self) -> Arc<RuntimeObs> {
        Arc::clone(&self.shared.obs)
    }

    /// One structured snapshot of every observability layer: op-class
    /// latency, engine lock telemetry, protocol-core histograms and
    /// flight-recorder totals, the sim-side stats snapshot, and the
    /// traffic counters. Takes the shared cell lock briefly (for the
    /// core/stats reads); everything else is read from atomics.
    pub fn observe(&self) -> ObsReport {
        let eobs = &self.shared.engine.obs;
        let engine = EngineReport {
            shared_acquisitions: eobs.shared_acquisitions.load(Ordering::Relaxed),
            exclusive_acquisitions: eobs.exclusive_acquisitions.load(Ordering::Relaxed),
            cell_wait: eobs.cell_wait.summary(),
            ring_hold: eobs.ring_hold.summary(),
            slots: eobs
                .slots
                .iter()
                .map(|s| (s.sharded.load(Ordering::Relaxed), s.fallbacks.load(Ordering::Relaxed)))
                .collect(),
        };
        let (core, stats) = {
            let guard = self.shared.engine.read_guard();
            let core = guard.obs_core().map(|o| CoreReport {
                serve_exec: o.serve_exec.summary(),
                drain_batch: o.drain_batch.summary(),
                lease_validation_failures: o.lease_validation_failures.load(Ordering::Relaxed),
                flight_events: (0..o.flight.servers())
                    .map(|i| o.flight.total(NodeId(i as u32)))
                    .collect(),
                placement: o.placement.snapshot(),
            });
            (core, guard.stats_snapshot())
        };
        let obs = &self.shared.obs;
        ObsReport {
            op_latency: OP_CLASS_NAMES
                .iter()
                .zip(&obs.op_latency)
                .map(|(&name, h)| (name, h.summary()))
                .collect(),
            shared_serve: obs.shared_serve.summary(),
            pump_to_idle: obs.pump_to_idle.load(Ordering::Relaxed),
            pump_to_busy: obs.pump_to_busy.load(Ordering::Relaxed),
            failover_retries: obs.failover_retries.load(Ordering::Relaxed),
            failover_exhausted: obs.failover_exhausted.load(Ordering::Relaxed),
            engine,
            core,
            stats,
            runtime: self.stats(),
        }
    }

    /// A human-readable dump of the protocol flight recorder — the last
    /// N protocol events each server acted in. What differential tests
    /// print when live and sim disagree.
    pub fn dump_flight_recorder(&self) -> String {
        match self.shared.engine.read_guard().obs_core() {
            Some(o) => o.flight.dump(),
            None => "flight recorder unavailable: engine exposes no ObsCore".into(),
        }
    }

    /// Graceful shutdown: stops every thread, joins them, settles
    /// remaining deferred work, and returns the engine with the final
    /// accounting.
    pub fn shutdown(mut self) -> (S, RuntimeReport) {
        self.stop_and_join();
        let report = self.report();
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop sees joined threads and does nothing further.
        let shared = match Arc::try_unwrap(shared) {
            Ok(s) => s,
            Err(_) => unreachable!("all thread handles joined, no engine refs can remain"),
        };
        let mut engine = shared.engine.into_inner();
        engine.settle();
        (engine, report)
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for h in self.server_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.pump_thread.take() {
            let _ = h.join();
        }
    }

    fn report(&self) -> RuntimeReport {
        RuntimeReport {
            served: self
                .server_ids
                .iter()
                .map(|&id| (id, self.shared.tallies[id.index()].served.load(Ordering::Relaxed)))
                .collect(),
            bus_dropped_stale: self.shared.bus.dropped_stale(),
            bus_delivered: self.shared.bus.delivered(),
            bus_rejected: self.shared.bus.rejected(),
        }
    }
}

impl<S: NfsService + ProtocolHost + Send + Sync + 'static> Drop for ClusterRuntime<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One server's message loop: receive, classify, execute under exactly
/// the locks the request's class requires, reply.
fn serve_loop<S: NfsService + ProtocolHost>(
    shared: &Shared<S>,
    mut ep: RpcEndpoint<NfsRequest, NfsReply>,
    poll: Duration,
) {
    let id = ep.node();
    // A request pulled off the queue during read batching that cannot be
    // served under the shared lock; handled first on the next turn.
    let mut carry: Option<IncomingRequest<NfsRequest>> = None;
    while !shared.stop.load(Ordering::Acquire) {
        let Some(incoming) = carry.take().or_else(|| ep.next_request(poll)) else { continue };
        match incoming.req.class() {
            OpClass::ReadOnly => carry = serve_read_batch(shared, &mut ep, id, incoming),
            _ => serve_locked(shared, &mut ep, id, incoming),
        }
    }
}

/// Serves a request the lock-free path cannot answer, replies, and
/// tallies. It runs under the shared cell lock plus ring locks first:
/// a mutation's declared slots, or the slot of the file a read names.
/// The engine declines when the request's footprint escapes those locks
/// (and a read naming no file has no slot), and the request then runs
/// on the exclusive fallback. Whenever the engine answered, the
/// pending-work cache is refreshed, so deferred work the request queued
/// (propagation, read-repair, a migration) wakes the pump.
fn serve_locked<S: NfsService + ProtocolHost>(
    shared: &Shared<S>,
    ep: &mut RpcEndpoint<NfsRequest, NfsReply>,
    id: NodeId,
    cur: IncomingRequest<NfsRequest>,
) {
    let class = cur.req.class();
    let ring = match class {
        OpClass::ReadOnly => cur.req.shard_key().map(OpClass::Mutate),
        class => Some(class),
    };
    let sharded = ring.and_then(|ring| {
        shared.engine.try_execute_sharded(ring, |e| {
            let out = match class {
                OpClass::ReadOnly => e.serve_read_sharded(id, &cur.req),
                _ => e.serve_sharded(id, &cur.req),
            };
            if out.is_some() {
                shared.pending_cache.store(e.pending_work(), Ordering::Release);
            }
            out
        })
    });
    let fast = sharded.is_some();
    let (rep, _latency) = sharded.unwrap_or_else(|| {
        shared.engine.execute(class, |e| {
            let out = e.serve(id, cur.req);
            shared.pending_cache.store(e.pending_work(), Ordering::Release);
            out
        })
    });
    if ep.reply(cur.from, cur.call, rep) {
        shared.count_served(id);
        if fast {
            shared.served_sharded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serves one read-only request — and up to [`READ_BATCH`] further
/// already-queued read-only requests — under a single shared-lock
/// acquisition.
///
/// Batching matters under load: without it, every reply forces a lock
/// round trip even though neighboring requests in the queue are also
/// reads. A request the fast path cannot answer (no local stable
/// replica) ends the batch and goes to [`serve_locked`]; a non-read
/// request ends it too and is returned as carry for the main loop.
fn serve_read_batch<S: NfsService + ProtocolHost>(
    shared: &Shared<S>,
    ep: &mut RpcEndpoint<NfsRequest, NfsReply>,
    id: NodeId,
    first: IncomingRequest<NfsRequest>,
) -> Option<IncomingRequest<NfsRequest>> {
    let mut budget = READ_BATCH;
    let mut cur = first;
    // The batch holds one guard, released before a declined read takes
    // the locked path.
    let declined = {
        let engine = shared.engine.read_guard();
        loop {
            let t = std::time::Instant::now();
            let Some((rep, _latency)) = engine.serve_shared(id, &cur.req) else { break cur };
            shared.obs.shared_serve.record_micros(t.elapsed());
            if ep.reply(cur.from, cur.call, rep) {
                shared.count_served(id);
                shared.served_shared.fetch_add(1, Ordering::Relaxed);
            }
            match next_batched(shared, ep, &mut budget) {
                Some(next) if next.req.class() == OpClass::ReadOnly => cur = next,
                carry => return carry,
            }
        }
    };
    serve_locked(shared, ep, id, declined);
    None
}

/// The next already-queued request, while the batch budget lasts and
/// no stop was requested.
fn next_batched<S>(
    shared: &Shared<S>,
    ep: &mut RpcEndpoint<NfsRequest, NfsReply>,
    budget: &mut usize,
) -> Option<IncomingRequest<NfsRequest>> {
    if *budget == 0 || shared.stop.load(Ordering::Acquire) {
        return None;
    }
    *budget -= 1;
    ep.poll_request()
}

/// The deferred-work pump: what the simulator's event loop does between
/// client operations, done here from a real thread — per shard, in
/// bounded slices, so server threads interleave fairly on the cell lock
/// and no single file's backlog monopolizes a pump pass.
fn pump_loop<S: ProtocolHost>(shared: &Shared<S>, interval: Duration, batch: usize) {
    let shards = shared.engine.shard_count();
    // Idle/busy transition accounting: a pump that flaps between the
    // two under load is a sign the batching window is mistuned.
    let mut idle = true;
    while !shared.stop.load(Ordering::Acquire) {
        // The cached count keeps an idle pump off the cell lock
        // entirely — a read-only workload never sees the pump contend.
        if shared.pending_cache.load(Ordering::Acquire) == 0 {
            if !idle {
                idle = true;
                shared.obs.pump_to_idle.fetch_add(1, Ordering::Relaxed);
            }
            thread::sleep(interval);
            continue;
        }
        if idle {
            idle = false;
            shared.obs.pump_to_busy.fetch_add(1, Ordering::Relaxed);
        }
        // One allocation-free mask probe under the shared lock tells us
        // which slots have work; each hot slot then drains under the
        // shared cell lock plus its own ring lock — concurrent with
        // request service everywhere else.
        let mask = shared.engine.read_guard().pending_shard_mask();
        let mut fired = 0;
        for slot in 0..shards {
            if mask & (1 << slot) == 0 {
                continue;
            }
            let drained = shared.engine.with_slot_shared(slot, |e| {
                let n = e.try_pump_shard(slot, batch);
                if n.is_some() {
                    shared.pending_cache.store(e.pending_work(), Ordering::Release);
                }
                n
            });
            fired += match drained {
                Some(n) => n,
                // Engine cannot pump a shard through `&self`: fall back
                // to an exclusive slice.
                None => shared.engine.with_slot(slot, |e| {
                    let n = e.pump(batch);
                    shared.pending_cache.store(e.pending_work(), Ordering::Release);
                    n
                }),
            };
        }
        if fired == 0 {
            // Work is pending but none of it is ready: it is parked
            // behind a protocol-clock horizon (a stability quiet period,
            // a drain's batching window) and a quiet cell advances that
            // clock through nothing else. Map the idle wall interval
            // onto the protocol clock so the horizons elapse in real
            // time; once they do, the next pass fires them and the
            // queue drains to a true zero.
            let tick = deceit_sim::SimDuration::from_micros(
                interval.as_micros().min(u64::MAX as u128) as u64,
            );
            shared.engine.read_guard().advance_idle_clock(tick);
            thread::sleep(interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    /// Storms `fault` from four threads (thread `t` passes `t % 2`),
    /// then checks that bus and engine agree on reachability for every
    /// server pair — whatever state the storm settled in.
    fn storm_then_compare(fault: fn(&ClusterRuntime, usize)) -> ClusterRuntime {
        let rt = Arc::new(ClusterRuntime::start(crate::RuntimeConfig::new(3)));
        let threads: Vec<_> = (0..4usize)
            .map(|t| {
                let rt = Arc::clone(&rt);
                thread::spawn(move || {
                    for _ in 0..25 {
                        fault(&rt, t % 2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let rt = Arc::try_unwrap(rt).unwrap_or_else(|_| panic!("all storm threads joined"));
        let pairs = [(n(0), n(1)), (n(0), n(2)), (n(1), n(2))];
        let engine_view: Vec<bool> = rt.with_engine(|e| {
            pairs.iter().map(|&(a, b)| e.fs.cluster.net.reachable(a, b)).collect()
        });
        for (&(a, b), &engine_ok) in pairs.iter().zip(&engine_view) {
            assert_eq!(
                rt.shared.bus.can_exchange(a, b),
                engine_ok,
                "bus and engine disagree about {a}<->{b} after the storm"
            );
        }
        rt
    }

    /// Concurrent split/heal on a live cluster: each is one step over
    /// engine and bus, so whichever call wins, the two always agree
    /// afterwards — a healed engine never sits behind a split bus or
    /// vice versa.
    #[test]
    fn engine_and_bus_topology_never_diverge_under_split_heal_races() {
        let rt = storm_then_compare(|rt, t| match t {
            0 => rt.split(&[&[n(0)], &[n(1), n(2)]]),
            _ => rt.heal(),
        });
        // And a final heal restores full service in both worlds.
        rt.heal();
        assert!(rt.with_engine(|e| e.fs.cluster.net.reachable(n(0), n(1))));
        assert!(rt.shared.bus.can_exchange(n(0), n(1)));
        rt.shutdown();
    }

    /// Concurrent crash/restart of one server: the bus's crash flag and
    /// the engine's change in one step, so a racing pair can never leave
    /// the bus up while the engine is down, or the reverse.
    #[test]
    fn engine_and_bus_topology_never_diverge_under_crash_restart_races() {
        let rt = storm_then_compare(|rt, t| match t {
            0 => rt.crash_server(n(1)),
            _ => rt.restart_server(n(1)),
        });
        rt.restart_server(n(1));
        assert!(rt.with_engine(|e| e.fs.cluster.net.reachable(n(0), n(1))));
        assert!(rt.shared.bus.can_exchange(n(0), n(1)));
        rt.shutdown();
    }

    /// A read served on the ring path can queue deferred work: here a
    /// migration toward the server that keeps forwarding reads for a
    /// file it holds no replica of. The pump must see that work without
    /// any mutation, settle or inspection refreshing its idle check.
    #[test]
    fn ring_path_reads_wake_the_pump_for_the_migration_they_queue() {
        let mut cfg = crate::RuntimeConfig::new(3);
        // Due-gating still applies; a short window keeps the test quick.
        cfg.cluster.lazy_apply_delay = deceit_sim::SimDuration::from_millis(100);
        let rt = ClusterRuntime::start(cfg);
        let mut owner = rt.client_homed(n(0));
        let fh = owner.create(owner.root(), "f", 0o644).expect("create").handle;
        owner.write(fh, 0, b"payload").expect("write");
        rt.settle();
        assert_eq!(owner.locate_replicas(fh).expect("locate"), vec![n(0)]);

        // Server 1 has no replica: its reads forward on the ring path
        // until one crosses the placement threshold and queues a
        // migration. Reading stops there, so no later read can fire the
        // migration inline once it falls due.
        let placement = || rt.observe().core.expect("core report").placement;
        let mut reader = rt.client_homed(n(1));
        for reads in 0.. {
            if placement().migrations_proposed > 0 {
                break;
            }
            assert!(reads < 40, "40 forwarded reads proposed no migration");
            assert_eq!(&reader.read(fh, 0, 64).expect("read")[..], b"payload");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(8);
        while placement().migrations_executed == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(placement().migrations_executed, 1, "the pump never woke for the migration");
        rt.shutdown();
    }
}
