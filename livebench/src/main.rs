//! The repository benchmark: a live three-server Deceit cell driven by
//! two closed-loop client sessions, measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload read-local --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run:
//! throughput, client-observed latency, peak resident memory while
//! serving, and set-up time. `--trace 1` alternates untraced cells with
//! cells whose every engine call is timed (see [`traced`]), and reports
//! the per-layer metrics. Both check every read and the converged final
//! state of every file. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it name the core count, compiler, commit and seed, and print
//! every metric with its unit. A checker failure exits with code 1.
//!
//! What a live number means: the runtime hosts one shared engine behind
//! three server threads, and inter-server protocol traffic is modelled
//! inside it. A live latency is the client↔server hop plus engine
//! locking and serving, not replication wire time.

mod drive;
mod stats;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use deceit::core::{HistCounts, HistSummary};
use deceit::net::NetStats;
use deceit::runtime::{ClusterRuntime, ObsReport, RuntimeConfig, RuntimeStats};

use drive::{ClientSnap, Hosted, Shared};
use stats::{median, percentile_us};
use traced::{ratio, SpanTotals, Spans, TimedServer};
use workload::{Kind, Workload, FILE_BYTES};

/// Seconds of timed window per cell. An untraced run sets up one cell
/// per `CELL_SECONDS` of `--seconds`, each timed, warmed and measured in
/// turn; every end-to-end figure is the median over cells, so one cell's
/// thread placement or a stall elsewhere on the machine cannot decide
/// the result.
const CELL_SECONDS: u32 = 1;
/// Untimed warm-up before each timed window, same access pattern.
const WARMUP: Duration = Duration::from_millis(200);
/// How often resident memory is sampled during a timed window. A cell's
/// peak is the highest sample; `peak_rss_mb` is the median over cells.
/// (The process-lifetime `VmHWM` is set outside the windows, by set-up,
/// warm-up and settling, and swung by a tenth between runs.)
const RSS_SAMPLE: Duration = Duration::from_millis(20);
/// Round trips in the bare transport calibration.
const RTT_ROUND_TRIPS: usize = 20_000;
/// How far the traced run's path mix may drift from the untraced run's
/// (absolute on fractions, relative on bus messages per op) before the
/// trace no longer measures the same program.
const PATH_MIX_TOLERANCE: f64 = 0.10;
/// Protocol tags whose modelled traffic the traced run reports per op.
const PROTO_TAGS: [&str; 6] =
    ["forward", "token-request", "update", "mark-unstable", "mark-stable", "replica-xfer"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("livebench: {e}\nusage: livebench --workload read-local|write-own|shared-pipelined --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { traced_run(&args) } else { untraced_run(&args) };
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("livebench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", meta_line(&args));
    for m in &result.metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in &result.errors {
        eprintln!("livebench: CHECK FAILED: {e}");
    }
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
#[derive(Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn absorb(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.mismatches += w.mismatches;
        self.errors.extend(w.errors.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.mismatches == 0 && self.attempted > 0
    }

    /// The final line. A run whose checks failed reports no metrics:
    /// its numbers must never be averaged with correct runs.
    fn json(&self) -> String {
        let mut metrics = String::new();
        if self.correct() {
            for (i, m) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let _ = write!(
                    metrics,
                    "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                );
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn meta_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Metrics of an operation the workload never sends read 0.
    let not_sent: Vec<String> = [(Kind::Read, "read"), (Kind::Write, "write")]
        .into_iter()
        .filter(|&(kind, _)| !args.workload.sends(kind))
        .map(|(_, name)| format!("\"{name}\""))
        .collect();
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \"not_sent\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("LIVEBENCH_RUSTC"),
        commit(),
        not_sent.join(", ")
    )
}

/// The checked-out commit, when the benchmark runs from the root of a git
/// work tree; the benchmark's own checkout may not be one.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    match (here, top) {
        (Some(here), Some(top)) if here == top => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

/// Engine-side counters read through `with_engine`, outside the window.
#[derive(Clone)]
struct EngineSnap {
    net: NetStats,
    sync_writes: u64,
    async_writes: u64,
}

fn engine_snap<S: Hosted>(rt: &ClusterRuntime<S>) -> EngineSnap {
    rt.with_engine(|e| {
        let cluster = &e.nfs().fs.cluster;
        let (mut sync_writes, mut async_writes) = (0, 0);
        for id in cluster.server_ids() {
            let server = cluster.server(id);
            sync_writes += server.replicas.sync_writes() + server.tokens.sync_writes();
            async_writes += server.replicas.async_writes() + server.tokens.async_writes();
        }
        EngineSnap { net: cluster.net.stats(), sync_writes, async_writes }
    })
}

/// Replica bytes durable across the cell, per byte of file contents.
fn bytes_per_user_byte<S: Hosted>(rt: &ClusterRuntime<S>, files: usize) -> f64 {
    let stored: usize = rt.with_engine(|e| {
        let cluster = &e.nfs().fs.cluster;
        cluster.server_ids().into_iter().map(|id| cluster.server(id).replicas.durable_bytes()).sum()
    });
    stored as f64 / (files * FILE_BYTES) as f64
}

/// Everything measured over one timed window.
struct Window {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    errors: Vec<String>,
    /// Client totals at the window's start and end.
    client: (ClientSnap, ClientSnap),
    /// Highest resident memory sampled during the window, MiB.
    rss_peak: f64,
    runtime: (RuntimeStats, RuntimeStats),
    obs: (ObsReport, ObsReport),
    engine: (EngineSnap, EngineSnap),
    spans: Option<[(SpanTotals, SpanTotals); 6]>,
}

impl Window {
    fn ops(&self) -> u64 {
        self.client.1.done - self.client.0.done
    }

    fn ops_per_s(&self) -> f64 {
        self.client.1.rate_since(&self.client.0)
    }

    fn hist(&self, kind: Kind) -> HistCounts {
        match kind {
            Kind::Read => self.client.1.read.since(&self.client.0.read),
            Kind::Write => self.client.1.write.since(&self.client.0.write),
        }
    }

    fn all_ops_hist(&self) -> HistCounts {
        let mut h = self.hist(Kind::Read);
        h.merge(&self.hist(Kind::Write));
        h
    }

    fn served(&self) -> u64 {
        self.runtime.1.requests_served - self.runtime.0.requests_served
    }

    /// (shared, sharded, exclusive) shares of served requests.
    fn path_mix(&self) -> (f64, f64, f64) {
        let served = self.served();
        let shared = ratio(
            (self.runtime.1.requests_served_shared - self.runtime.0.requests_served_shared) as f64,
            served,
        );
        let sharded = ratio(
            (self.runtime.1.requests_served_sharded - self.runtime.0.requests_served_sharded)
                as f64,
            served,
        );
        (shared, sharded, (1.0 - shared - sharded).max(0.0))
    }

    fn bus_msgs_per_op(&self) -> f64 {
        ratio((self.runtime.1.bus_delivered - self.runtime.0.bus_delivered) as f64, self.ops())
    }

    fn per_op(&self, count: u64) -> f64 {
        ratio(count as f64, self.ops())
    }
}

/// Mean of the samples a cumulative histogram summary gained between two
/// snapshots (the summaries carry exact sums as `count × mean`).
fn interval_mean(before: &HistSummary, after: &HistSummary) -> f64 {
    let n = after.count.saturating_sub(before.count);
    ratio(after.mean * after.count as f64 - before.mean * before.count as f64, n)
}

/// Sets a cell up, warms it, runs one timed window of `secs`, and checks
/// the outcome.
fn measure<S: Hosted>(
    rt: &ClusterRuntime<S>,
    shared: &Shared,
    secs: f64,
    spans: Option<&Spans>,
) -> Window {
    let mut sessions = shared.sessions(rt);
    shared.run_for(&mut sessions, WARMUP);
    rt.settle();

    let span_snap = |s: &Spans| {
        [&s.shared, &s.read_sharded, &s.sharded, &s.excl, &s.pump_shard, &s.pump]
            .map(|x| x.snapshot())
    };
    let (runtime0, obs0, engine0) = (rt.stats(), rt.observe(), engine_snap(rt));
    let spans0 = spans.map(span_snap);
    let (start, last, rss_peak) = shared.run(&mut sessions, |t0| {
        let start = shared.snapshot();
        let end = t0 + Duration::from_secs_f64(secs);
        let mut rss_peak = 0.0f64;
        loop {
            rss_peak = rss_peak.max(stats::rss_mb().unwrap_or(0.0));
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(RSS_SAMPLE));
        }
        (start, shared.snapshot(), rss_peak)
    });
    // Requests still in flight when the window closed are drained after
    // it: they count as attempted, not towards the window's rate.
    let end = shared.snapshot();
    let (runtime1, obs1, engine1) = (rt.stats(), rt.observe(), engine_snap(rt));
    let spans1 = spans.map(span_snap);

    shared.verify(rt, &sessions);
    let attempted = (end.done + end.failed) - (start.done + start.failed);
    Window {
        attempted,
        failed: end.failed - start.failed,
        mismatches: shared.mismatches.load(std::sync::atomic::Ordering::Relaxed),
        errors: shared.errors(),
        client: (start, last),
        rss_peak,
        runtime: (runtime0, runtime1),
        obs: (obs0, obs1),
        engine: (engine0, engine1),
        spans: spans0.zip(spans1).map(|(a, b)| std::array::from_fn(|i| (a[i], b[i]))),
    }
}

/// `--trace 0`: the end-to-end metrics.
fn untraced_run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let mut out = RunResult::default();
    let mut setup_times = Vec::new();
    let mut cells = Vec::new();
    let n_cells = (args.seconds / CELL_SECONDS).max(1);
    for _ in 0..n_cells {
        let t = Instant::now();
        let rt = ClusterRuntime::start(RuntimeConfig::new(3));
        let files = drive::populate(&rt, w, args.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        let shared = Shared::new(w, args.seed, files);
        let window = measure(&rt, &shared, f64::from(args.seconds) / f64::from(n_cells), None);
        rt.shutdown();
        let h = window.all_ops_hist();
        let cell = [
            window.ops_per_s(),
            percentile_us(&h, 50.0).unwrap_or(0.0),
            percentile_us(&h, 90.0).unwrap_or(0.0),
            window.rss_peak,
        ];
        eprintln!(
            "livebench: cell {}: set-up {:.4} s, {:.0} ops/s, p50 {:.2} us, p90 {:.2} us, peak rss {:.2} MiB",
            cells.len(),
            setup_times[cells.len()],
            cell[0],
            cell[1],
            cell[2],
            cell[3]
        );
        out.absorb(&window);
        cells.push(cell);
    }
    let col = |i: usize| median(&cells.iter().map(|c| c[i]).collect::<Vec<_>>());
    out.push("ops_per_s", col(0), "1/s");
    out.push("op_p50_us", col(1), "us");
    out.push("op_p90_us", col(2), "us");
    out.push("peak_rss_mb", col(3), "MiB");
    out.push("setup_s", median(&setup_times), "s");
    Ok(out)
}

/// `--trace 1`: pairs of cells, one untraced (the baseline path mix and
/// client latencies) and one with every engine call timed, run in turn.
/// Each per-layer figure is the median over pairs.
fn traced_run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let pairs = (args.seconds / (2 * CELL_SECONDS)).max(1);
    let secs = f64::from(args.seconds) / f64::from(2 * pairs);
    let mut out = RunResult::default();
    let mut per_pair: Vec<Vec<Metric>> = Vec::new();
    let mut rates = (Vec::new(), Vec::new());
    let mut probe_file = None;
    for _ in 0..pairs {
        let rt = ClusterRuntime::start(RuntimeConfig::new(3));
        let shared = Shared::new(w, args.seed, drive::populate(&rt, w, args.seed)?);
        let plain = measure(&rt, &shared, secs, None);
        rt.shutdown();

        let (rt, spans) = TimedServer::start(RuntimeConfig::new(3));
        let files = drive::populate(&rt, w, args.seed)?;
        probe_file = files.first().copied();
        let shared = Shared::new(w, args.seed, files);
        let timed = measure(&rt, &shared, secs, Some(&spans));
        let stored = bytes_per_user_byte(&rt, shared.files.len());
        rt.shutdown();

        out.absorb(&plain);
        out.absorb(&timed);
        rates.0.push(plain.ops_per_s());
        rates.1.push(timed.ops_per_s());
        per_pair.push(layer_metrics(&plain, &timed, stored)?);
    }
    for (i, m) in per_pair[0].iter().enumerate() {
        let values: Vec<f64> = per_pair.iter().map(|pair| pair[i].value).collect();
        out.push(&m.name, median(&values), m.unit);
    }
    let probe = probe_file.ok_or("no file was created")?;
    out.push("net.rpc_rtt_p50_us", traced::rpc_rtt_p50_us(probe, RTT_ROUND_TRIPS), "us");
    out.push("client.failed_frac", ratio(out.failed as f64, out.attempted), "ratio");
    out.push("trace.overhead_frac", 1.0 - median(&rates.1) / median(&rates.0), "ratio");
    Ok(out)
}

/// The per-layer figures of one pair of windows: `plain` untraced,
/// `timed` on the wrapped engine. `stored` is the timed cell's
/// [`bytes_per_user_byte`].
fn layer_metrics(plain: &Window, timed: &Window, stored: f64) -> Result<Vec<Metric>, String> {
    let mut out = RunResult::default();
    // The trace must not change which paths serve the requests.
    let (a, b) = (plain.path_mix(), timed.path_mix());
    let drift = [
        (a.0 - b.0).abs(),
        (a.1 - b.1).abs(),
        (a.2 - b.2).abs(),
        (plain.bus_msgs_per_op() - timed.bus_msgs_per_op()).abs() / plain.bus_msgs_per_op(),
    ]
    .into_iter()
    .fold(0.0, f64::max);
    if drift > PATH_MIX_TOLERANCE {
        eprintln!(
            "livebench: warning: traced path mix {b:?} drifted {drift:.3} from untraced {a:?}"
        );
    }

    let t = timed;
    let [shared_span, read_sharded, sharded, excl, pump_shard, pump] =
        t.spans.ok_or("the traced window has no spans")?.map(|(a, b)| b.since(a));
    let serve_nanos = shared_span.nanos + read_sharded.nanos + sharded.nanos + excl.nanos;
    let served_hits = shared_span.hits + read_sharded.hits + sharded.hits + excl.hits;
    let modelled =
        shared_span.modelled_us + read_sharded.modelled_us + sharded.modelled_us + excl.modelled_us;
    let client_mean = stats::mean_us(&t.all_ops_hist()).unwrap_or(0.0);
    let writes = t.hist(Kind::Write).count();
    let (o0, o1) = &t.obs;
    let (e0, e1) = &t.engine;
    let (mix_shared, mix_sharded, mix_excl) = b;
    let core = o0.core.as_ref().zip(o1.core.as_ref());
    let pumped = pump_shard.hits + pump.hits;

    out.push("runtime.hop_us", client_mean - ratio(serve_nanos as f64 / 1_000.0, t.ops()), "us");
    out.push(
        "runtime.cell_wait_us",
        interval_mean(&o0.engine.cell_wait, &o1.engine.cell_wait),
        "us",
    );
    out.push(
        "runtime.ring_hold_us",
        interval_mean(&o0.engine.ring_hold, &o1.engine.ring_hold),
        "us",
    );
    let acquisitions = (o1.engine.shared_acquisitions + o1.engine.exclusive_acquisitions)
        - (o0.engine.shared_acquisitions + o0.engine.exclusive_acquisitions);
    out.push("runtime.cell_acq_per_req", ratio(acquisitions as f64, t.served()), "1/req");
    out.push("runtime.shared_frac", mix_shared, "ratio");
    out.push("runtime.sharded_frac", mix_sharded, "ratio");
    out.push("runtime.exclusive_frac", mix_excl, "ratio");
    out.push("runtime.pump_wakeups", (o1.pump_to_busy - o0.pump_to_busy) as f64, "count");
    out.push(
        "runtime.failover_retries",
        (o1.failover_retries - o0.failover_retries) as f64,
        "count",
    );
    out.push(
        "runtime.read_p99_us",
        percentile_us(&plain.hist(Kind::Read), 99.0).unwrap_or(0.0),
        "us",
    );
    out.push(
        "runtime.write_p99_us",
        percentile_us(&plain.hist(Kind::Write), 99.0).unwrap_or(0.0),
        "us",
    );
    for (kind, name) in [(Kind::Read, "read"), (Kind::Write, "write")] {
        let h = plain.hist(kind);
        out.push(&format!("client.{name}_p50_us"), percentile_us(&h, 50.0).unwrap_or(0.0), "us");
        out.push(&format!("client.{name}_p90_us"), percentile_us(&h, 90.0).unwrap_or(0.0), "us");
    }

    out.push("net.bus_msgs_per_op", t.bus_msgs_per_op(), "1/op");
    out.push("net.proto_msgs_per_op", t.per_op(e1.net.messages - e0.net.messages), "1/op");
    out.push("net.proto_bytes_per_op", t.per_op(e1.net.bytes - e0.net.bytes), "B/op");
    for tag in PROTO_TAGS {
        let n = e1.net.tag_count(tag) - e0.net.tag_count(tag);
        out.push(&format!("net.proto.{tag}_per_op"), t.per_op(n), "1/op");
    }

    out.push("nfs.serve_shared_us", shared_span.mean_us(), "us");
    out.push("nfs.serve_shared_hit", shared_span.hit_ratio(), "ratio");
    out.push("nfs.serve_read_sharded_us", read_sharded.mean_us(), "us");
    out.push("nfs.serve_read_sharded_hit", read_sharded.hit_ratio(), "ratio");
    out.push("nfs.serve_sharded_us", sharded.mean_us(), "us");
    out.push("nfs.serve_sharded_hit", sharded.hit_ratio(), "ratio");
    out.push("nfs.serve_excl_us", excl.mean_us(), "us");
    out.push("nfs.serve_excl_calls", excl.calls as f64, "count");
    out.push("nfs.modelled_us", ratio(modelled as f64, served_hits), "us");

    out.push("core.pump_shard_us", pump_shard.mean_us(), "us");
    out.push("core.events_per_pump", ratio(pumped as f64, pump_shard.calls + pump.calls), "1/call");
    out.push("core.events_per_write", ratio(pumped as f64, writes), "1/write");
    let core_delta =
        |f: fn(&deceit::runtime::CoreReport) -> f64| core.map_or(0.0, |(a, b)| f(b) - f(a));
    out.push(
        "core.drain_batch_mean",
        core.map_or(0.0, |(a, b)| interval_mean(&a.drain_batch, &b.drain_batch)),
        "events",
    );
    out.push("core.lease_failures", core_delta(|c| c.lease_validation_failures as f64), "count");
    out.push(
        "core.migrations_executed",
        core_delta(|c| c.placement.migrations_executed as f64),
        "count",
    );

    out.push(
        "storage.sync_writes_per_write",
        ratio((e1.sync_writes - e0.sync_writes) as f64, writes),
        "1/write",
    );
    out.push(
        "storage.async_writes_per_write",
        ratio((e1.async_writes - e0.async_writes) as f64, writes),
        "1/write",
    );
    out.push("storage.bytes_per_user_byte", stored, "ratio");

    out.push("trace.path_mix_drift", drift, "ratio");
    Ok(out.metrics)
}
