//! The traced run's instruments, all outside the program: a wrapper
//! engine that times every call the runtime makes into the NFS server,
//! and a bare transport echo that calibrates the bus round trip.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use deceit::core::{AtomicHistogram, ObsCore, ProtocolHost};
use deceit::net::live::LiveBus;
use deceit::net::rpc::{Rpc, RpcEndpoint};
use deceit::net::NodeId;
use deceit::nfs::{DeceitFs, FileHandle, NfsReply, NfsRequest, NfsServer, NfsService};
use deceit::runtime::{ClusterRuntime, RuntimeConfig};
use deceit::sim::{SimDuration, SimTime, StatsSnapshot};

/// Totals for one kind of call into the engine. Relaxed atomics: each
/// counter is a statistic that publishes nothing else.
#[derive(Debug, Default)]
pub struct Span {
    /// Calls made.
    calls: AtomicU64,
    /// Calls that answered (serve paths) or events fired (pump paths).
    hits: AtomicU64,
    /// Wall time spent inside the calls, nanoseconds.
    nanos: AtomicU64,
    /// Protocol-clock time the engine charged for answered calls, µs.
    modelled_us: AtomicU64,
}

impl Span {
    fn time<T>(
        &self,
        f: impl FnOnce() -> T,
        hits: impl Fn(&T) -> u64,
        modelled: impl Fn(&T) -> u64,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.hits.fetch_add(hits(&out), Ordering::Relaxed);
        self.modelled_us.fetch_add(modelled(&out), Ordering::Relaxed);
        out
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> SpanTotals {
        SpanTotals {
            calls: self.calls.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            modelled_us: self.modelled_us.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Span`]'s totals, subtractable for intervals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Calls made.
    pub calls: u64,
    /// Answered calls / events fired.
    pub hits: u64,
    /// Wall nanoseconds inside the calls.
    pub nanos: u64,
    /// Protocol-clock microseconds charged.
    pub modelled_us: u64,
}

impl SpanTotals {
    /// The interval since an earlier snapshot.
    pub fn since(self, earlier: SpanTotals) -> SpanTotals {
        SpanTotals {
            calls: self.calls - earlier.calls,
            hits: self.hits - earlier.hits,
            nanos: self.nanos - earlier.nanos,
            modelled_us: self.modelled_us - earlier.modelled_us,
        }
    }

    /// Mean wall time per call, µs (0 when never called).
    pub fn mean_us(self) -> f64 {
        ratio(self.nanos as f64 / 1_000.0, self.calls)
    }

    /// Hits per call (0 when never called).
    pub fn hit_ratio(self) -> f64 {
        ratio(self.hits as f64, self.calls)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// One span per entry point the runtime calls.
#[derive(Debug, Default)]
pub struct Spans {
    /// `serve_shared`: the lock-free read path.
    pub shared: Span,
    /// `serve_read_sharded`: the ring-locked read fallback.
    pub read_sharded: Span,
    /// `serve_sharded`: the sharded mutation path.
    pub sharded: Span,
    /// `serve`: the exclusive fallback.
    pub excl: Span,
    /// `try_pump_shard`: per-slot deferred work.
    pub pump_shard: Span,
    /// `pump`: exclusive deferred work.
    pub pump: Span,
}

/// The stock [`NfsServer`] with a stopwatch around every call the
/// runtime makes into it. Every other method forwards untouched, so the
/// runtime drives the same program it drives untraced.
#[derive(Debug)]
pub struct TimedServer {
    /// The wrapped engine.
    pub inner: NfsServer,
    /// Where the timings go.
    pub spans: Arc<Spans>,
}

impl TimedServer {
    /// Builds the engine exactly as `ClusterRuntime::start` does — same
    /// cluster configuration, same shard count — and hosts it wrapped.
    pub fn start(cfg: RuntimeConfig) -> (ClusterRuntime<TimedServer>, Arc<Spans>) {
        let cluster_cfg = cfg.cluster.clone().with_shards(cfg.shards);
        let fs = DeceitFs::new(cfg.servers, cluster_cfg, cfg.fs.clone());
        let spans = Arc::new(Spans::default());
        let engine = TimedServer { inner: NfsServer::new(fs), spans: Arc::clone(&spans) };
        (ClusterRuntime::host(engine, cfg), spans)
    }
}

type Served = Option<(NfsReply, SimDuration)>;

fn answered(out: &Served) -> u64 {
    u64::from(out.is_some())
}

fn modelled(out: &Served) -> u64 {
    out.as_ref().map_or(0, |(_, d)| d.as_micros())
}

impl NfsService for TimedServer {
    fn mount_root(&self) -> FileHandle {
        self.inner.mount_root()
    }

    fn serve(&mut self, via: NodeId, req: NfsRequest) -> (NfsReply, SimDuration) {
        let (inner, spans) = (&mut self.inner, &self.spans);
        spans.excl.time(|| inner.serve(via, req), |_| 1, |(_, d)| d.as_micros())
    }

    fn serve_shared(&self, via: NodeId, req: &NfsRequest) -> Served {
        self.spans.shared.time(|| self.inner.serve_shared(via, req), answered, modelled)
    }

    fn serve_read_sharded(&self, via: NodeId, req: &NfsRequest) -> Served {
        self.spans.read_sharded.time(|| self.inner.serve_read_sharded(via, req), answered, modelled)
    }

    fn serve_sharded(&self, via: NodeId, req: &NfsRequest) -> Served {
        self.spans.sharded.time(|| self.inner.serve_sharded(via, req), answered, modelled)
    }
}

impl ProtocolHost for TimedServer {
    fn pump(&mut self, max_events: usize) -> usize {
        let (inner, spans) = (&mut self.inner, &self.spans);
        spans.pump.time(|| inner.pump(max_events), |&n| n as u64, |_| 0)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn try_pump_shard(&self, slot: usize, max_events: usize) -> Option<usize> {
        self.spans.pump_shard.time(
            || self.inner.try_pump_shard(slot, max_events),
            |n| n.unwrap_or(0) as u64,
            |_| 0,
        )
    }

    fn pending_shard_mask(&self) -> u64 {
        self.inner.pending_shard_mask()
    }

    fn advance_idle_clock(&self, d: SimDuration) {
        self.inner.advance_idle_clock(d);
    }

    fn settle(&mut self) {
        self.inner.settle();
    }

    fn pending_work(&self) -> usize {
        self.inner.pending_work()
    }

    fn crash_node(&mut self, node: NodeId) {
        self.inner.crash_node(node);
    }

    fn restart_node(&mut self, node: NodeId) {
        self.inner.restart_node(node);
    }

    fn split_nodes(&mut self, groups: &[&[NodeId]]) {
        self.inner.split_nodes(groups);
    }

    fn heal_nodes(&mut self) {
        self.inner.heal_nodes();
    }

    fn node_is_up(&self, node: NodeId) -> bool {
        self.inner.node_is_up(node)
    }

    fn protocol_now(&self) -> SimTime {
        self.inner.protocol_now()
    }

    fn obs_core(&self) -> Option<&ObsCore> {
        self.inner.obs_core()
    }

    fn stats_snapshot(&self) -> Option<StatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

/// Median round trip of a bare [`LiveBus`] + [`RpcEndpoint`] echo, in
/// microseconds: one caller, one echo thread, and `read-local`'s request
/// and reply (a 1 KiB read and its 1 KiB answer): the transport alone,
/// with no engine and no cell lock behind it. The caller idles between
/// calls, so this is not a lower bound on the in-cell hop and can exceed
/// it; read it beside `runtime.hop_us`, not as a part of it.
pub fn rpc_rtt_p50_us(fh: FileHandle, round_trips: usize) -> f64 {
    type Frame = Rpc<NfsRequest, NfsReply>;
    let bus: LiveBus<Frame> = LiveBus::new();
    let (echo_id, caller_id) = (NodeId(0), NodeId(1_000));
    let mut echo: RpcEndpoint<NfsRequest, NfsReply> = RpcEndpoint::register(&bus, echo_id);
    let mut caller: RpcEndpoint<NfsRequest, NfsReply> = RpcEndpoint::register(&bus, caller_id);
    let stop = Arc::new(AtomicBool::new(false));
    let echo_thread = {
        let stop = Arc::clone(&stop);
        let data = NfsReply::Data(vec![7u8; crate::workload::BLOCK].into());
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Some(req) = echo.next_request(Duration::from_millis(5)) {
                    echo.reply(req.from, req.call, data.clone());
                }
            }
        })
    };
    let hist = AtomicHistogram::new();
    let req = NfsRequest::Read { fh, offset: 0, count: crate::workload::BLOCK };
    let mut ok = true;
    for i in 0..round_trips + round_trips / 10 {
        let start = Instant::now();
        ok &= caller.call(echo_id, req.clone(), Duration::from_secs(3)).is_ok();
        // The first tenth warms the threads up and is not recorded.
        if i >= round_trips / 10 {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
    stop.store(true, Ordering::Release);
    echo_thread.join().expect("echo thread panicked");
    if !ok {
        eprintln!("livebench: the bare transport echo lost a call");
    }
    crate::stats::percentile_us(&hist.counts(), 50.0).unwrap_or(0.0)
}
