//! Workloads, load threads, measurement windows and metric arithmetic.

use crate::clock::{self, ThreadClock};
use crate::inputs::{self, Msg, Rng, ZipfSchedule, PROC_CHARS};
use crate::stack::{
    self, CacheFlusher, Counters, DpClient, Front, HostTally, Stack, XrpcConn, POLL_TIMEOUT,
};
use std::iter::repeat_with;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stack builds per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Length of one slice of a measured window; rates and costs are
/// medians over the slices.
const SLICE: Duration = Duration::from_secs(1);
/// xRPC warm-up calls per connection.
const XRPC_WARM: usize = 100;
/// Datapath warm-up requests.
const DATAPATH_WARM: usize = 2_000;
/// Requests kept outstanding by the datapath load thread.
const DATAPATH_DEPTH: usize = 32;
/// Mix: distinct requests per tenant, zipf exponent, calls of one zipf
/// cycle, popularity-drawn calls per tenant per round, probe keys,
/// warm-up rounds.
const MIX_POPULATION: usize = 128;
const MIX_ZIPF_S: f64 = 0.99;
const MIX_CYCLE: usize = 1200;
const MIX_ROUND: usize = 120;
const MIX_PROBES: u32 = 8;
const MIX_WARM_ROUNDS: usize = 1;
/// The cache is emptied before every round whose index is a multiple
/// of this: once per zipf cycle, so every cycle misses on each of its
/// keys once and the misses per cycle do not depend on the seed.
const MIX_FLUSH_ROUNDS: usize = MIX_CYCLE / MIX_ROUND;
const TENANTS: [&str; 2] = ["t0", "t1"];

/// Run phases. Load threads read them; only `run` writes them.
const WARM: u8 = 0;
const WINDOW: [u8; 2] = [1, 2];
const STOP: u8 = 3;

fn slot_of(phase: u8) -> Option<usize> {
    WINDOW.iter().position(|&w| w == phase)
}

/// Phase and tracing switch shared by the load threads, the host thread
/// and the host's handlers.
pub struct Control {
    phase: AtomicU8,
    ready: AtomicUsize,
    /// Calls completed in the window they started in.
    completed: AtomicU64,
}

impl Control {
    fn new() -> Self {
        Self {
            phase: AtomicU8::new(WARM),
            ready: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
        }
    }

    fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    fn set_phase(&self, p: u8) {
        self.phase.store(p, Ordering::Release);
    }

    /// Whether the traced window is being measured: the second window,
    /// which only a traced run opens.
    pub fn tracing(&self) -> bool {
        self.phase() == WINDOW[1]
    }

    /// Counts a call started in `phase` if that window is still open.
    fn complete(&self, phase: u8) {
        if self.phase() == phase {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Called by a load thread after its warm-up: parks until the first
    /// window opens (or the run stops).
    fn arrive_and_wait(&self) {
        self.ready.fetch_add(1, Ordering::AcqRel);
        while self.phase() == WARM {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    XrpcSmall,
    XrpcMixCached,
    DatapathInts512,
    DatapathChars8000,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::XrpcSmall,
        Workload::XrpcMixCached,
        Workload::DatapathInts512,
        Workload::DatapathChars8000,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::XrpcSmall => "xrpc_small",
            Workload::XrpcMixCached => "xrpc_mix_cached",
            Workload::DatapathInts512 => "datapath_ints512",
            Workload::DatapathChars8000 => "datapath_chars8000",
        }
    }

    fn front(self) -> Front {
        match self {
            Workload::XrpcSmall => Front::Xrpc,
            Workload::XrpcMixCached => Front::XrpcCached,
            _ => Front::Datapath,
        }
    }
}

/// One load thread's requests, with the digests each tenant expects.
struct Feed {
    msgs: Vec<Msg>,
    /// `expect[t][i]`: the digest of `msgs[i]` sent by `TENANTS[t]`.
    expect: [Vec<[u8; 8]>; 2],
}

impl Feed {
    fn new(msgs: Vec<Msg>, corrupt: bool) -> Self {
        let expect = [0, 1].map(|t| {
            msgs.iter()
                .map(|m| {
                    let mut d = m.expected(TENANTS[t]);
                    if corrupt {
                        d[0] ^= 1;
                    }
                    d
                })
                .collect()
        });
        Self { msgs, expect }
    }
}

/// Generates each load thread's feed from the seed.
fn feeds(w: Workload, seed: u64, corrupt: bool) -> Vec<Feed> {
    let rng = |k: u32| Rng::new(seed.wrapping_mul(0x0100_0000_01B3) ^ k as u64);
    let msgs: Vec<Vec<Msg>> = match w {
        Workload::XrpcSmall => (0..2)
            .map(|t| {
                let mut r = rng(t);
                repeat_with(|| inputs::small(&mut r, t)).take(256).collect()
            })
            .collect(),
        Workload::XrpcMixCached => (0..2)
            .map(|t| {
                let mut m = inputs::realistic_population(&mut rng(t), t, MIX_POPULATION);
                // The probe keys follow the population; they are the same
                // for every seed and for both tenants.
                m.extend((0..MIX_PROBES).map(inputs::probe));
                m
            })
            .collect(),
        Workload::DatapathInts512 => {
            let mut r = rng(0);
            vec![repeat_with(|| inputs::int_array(&mut r, 512, 0))
                .take(64)
                .collect()]
        }
        Workload::DatapathChars8000 => {
            let mut r = rng(0);
            vec![repeat_with(|| inputs::char_array(&mut r, 8000))
                .take(16)
                .collect()]
        }
    };
    msgs.into_iter().map(|m| Feed::new(m, corrupt)).collect()
}

/// What one load thread saw.
struct LoadTally {
    /// Latency of calls started in each window, ns.
    lat: [LatHist; 2],
    /// Calls started in a window (mix: in a timed round).
    attempted: u64,
    /// Of those, answered with the other tenant's digest.
    failed: u64,
    /// Wrong answers of any other kind; the first one, described.
    bad: u64,
    first_bad: Option<String>,
    /// Every call made on this stack, warm-up included.
    calls: u64,
    /// Traced window only: wall ns inside the enqueue call, accepted
    /// enqueues, thread CPU ns inside the event loop.
    enqueue_ns: u64,
    enqueued: u64,
    poll_cpu_ns: u64,
    /// Traced only (mix): latency split by whether a cache hit is
    /// expected (a cacheable key this tenant called before in this cache
    /// epoch) or the call must take the datapath.
    hit_lat: LatHist,
    miss_lat: LatHist,
    /// Mix, over the stack's life: cacheable calls answered correctly,
    /// distinct keys among them summed over the cache epochs, and
    /// cross-tenant answers.
    cache_ok_calls: u64,
    cache_ok_keys: u64,
    cross: u64,
}

impl LoadTally {
    fn new() -> Self {
        Self {
            lat: Default::default(),
            attempted: 0,
            failed: 0,
            bad: 0,
            first_bad: None,
            calls: 0,
            enqueue_ns: 0,
            enqueued: 0,
            poll_cpu_ns: 0,
            hit_lat: LatHist::default(),
            miss_lat: LatHist::default(),
            cache_ok_calls: 0,
            cache_ok_keys: 0,
            cross: 0,
        }
    }

    fn wrong(&mut self, what: String) {
        self.bad += 1;
        self.first_bad.get_or_insert(what);
    }
}

/// Closed loop over one xRPC connection, one call in flight.
fn xrpc_loop(
    mut conn: XrpcConn,
    feed: &Feed,
    tenant: usize,
    ctl: &Control,
) -> Result<LoadTally, String> {
    let mut t = LoadTally::new();
    let n = feed.msgs.len();
    for i in 0.. {
        let phase = if i < XRPC_WARM {
            WARM
        } else {
            if i == XRPC_WARM {
                ctl.arrive_and_wait();
            }
            ctl.phase()
        };
        if phase == STOP {
            break;
        }
        let m = &feed.msgs[i % n];
        let t0 = Instant::now();
        let (status, body) = conn.call(m.proc_id, &m.wire);
        let ns = t0.elapsed().as_nanos() as u64;
        t.calls += 1;
        if status != 0 || body[..] != feed.expect[tenant][i % n] {
            t.wrong(format!(
                "call {i}: status {status}, {} response bytes",
                body.len()
            ));
        }
        if let Some(s) = slot_of(phase) {
            t.attempted += 1;
            t.lat[s].record(ns);
            ctl.complete(phase);
        }
    }
    Ok(t)
}

/// What one tenant of the mix has seen of its keys in the current cache
/// epoch: which it called, and which were answered correctly.
struct Epoch {
    called: Vec<bool>,
    answered: Vec<bool>,
}

impl Epoch {
    fn new(keys: usize) -> Self {
        Self {
            called: vec![false; keys],
            answered: vec![false; keys],
        }
    }
}

/// What the two tenants of the mix share to run their rounds in step.
struct Lockstep {
    barrier: Barrier,
    /// The phase the next round runs in, as the round leader read it.
    decision: AtomicU8,
    cache: CacheFlusher,
}

/// One tenant of the cached mix: rounds of zipf-drawn calls on its own
/// population, then the probe phase in which t0 and after it t1 call
/// every probe key. Both tenants run the same rounds, kept in step by
/// the barrier; the round leader decides from the phase whether another
/// round runs, so both always agree, and empties the cache every
/// `MIX_FLUSH_ROUNDS` rounds while neither tenant has a call in flight.
fn mix_loop(
    mut conn: XrpcConn,
    feed: &Feed,
    tenant: usize,
    seed: u64,
    ctl: &Control,
    step: &Lockstep,
) -> LoadTally {
    let mut t = LoadTally::new();
    let mut zipf = ZipfSchedule::new(MIX_POPULATION, MIX_ZIPF_S, MIX_CYCLE);
    let mut rng = Rng::new(seed ^ 0xD15C_0000 ^ tenant as u64);
    let mut epoch = Epoch::new(feed.msgs.len());
    let mut call = |t: &mut LoadTally, e: &mut Epoch, i: usize, phase: u8| {
        let m = &feed.msgs[i];
        let cacheable = m.proc_id != PROC_CHARS;
        let expect_hit = cacheable && e.called[i];
        e.called[i] = true;
        let t0 = Instant::now();
        let (status, body) = conn.call(m.proc_id, &m.wire);
        let ns = t0.elapsed().as_nanos() as u64;
        t.calls += 1;
        let slot = slot_of(phase);
        if status == 0 && body[..] == feed.expect[tenant][i] {
            if cacheable {
                t.cache_ok_calls += 1;
                if !e.answered[i] {
                    e.answered[i] = true;
                    t.cache_ok_keys += 1;
                }
            }
        } else if status == 0 && body[..] == feed.expect[1 - tenant][i] {
            t.cross += 1;
            if slot.is_some() {
                t.failed += 1;
            }
        } else {
            t.wrong(format!(
                "key {i}: status {status}, {} response bytes",
                body.len()
            ));
        }
        if let Some(s) = slot {
            t.attempted += 1;
            t.lat[s].record(ns);
            ctl.complete(phase);
            if ctl.tracing() {
                if expect_hit {
                    t.hit_lat.record(ns);
                } else {
                    t.miss_lat.record(ns);
                }
            }
        }
    };
    let mut round = |t: &mut LoadTally, e: &mut Epoch, phase: u8| {
        for _ in 0..MIX_ROUND {
            call(t, e, zipf.next(&mut rng), phase);
        }
        for prober in 0..2 {
            step.barrier.wait();
            if prober == tenant {
                for p in 0..MIX_PROBES as usize {
                    call(t, e, MIX_POPULATION + p, phase);
                }
            }
        }
    };
    for _ in 0..MIX_WARM_ROUNDS {
        round(&mut t, &mut epoch, WARM);
    }
    ctl.arrive_and_wait();
    for r in MIX_WARM_ROUNDS.. {
        let flush = r % MIX_FLUSH_ROUNDS == 0;
        if step.barrier.wait().is_leader() {
            let phase = ctl.phase();
            if flush && phase != STOP {
                step.cache.flush();
            }
            step.decision.store(phase, Ordering::Release);
        }
        step.barrier.wait();
        let phase = step.decision.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        if flush {
            // A new cache epoch: every key misses once more.
            epoch = Epoch::new(feed.msgs.len());
        }
        round(&mut t, &mut epoch, phase);
    }
    t
}

/// Completion-side state of the datapath loop.
struct DpShared {
    ctl: Arc<Control>,
    tally: Mutex<DpDone>,
}

struct DpDone {
    completed: u64,
    lat: [LatHist; 2],
    bad: u64,
    first_bad: Option<String>,
}

/// Closed loop straight into the offload client, `DATAPATH_DEPTH`
/// requests outstanding.
fn datapath_loop(
    mut client: DpClient,
    feed: &Feed,
    ctl: Arc<Control>,
) -> Result<LoadTally, String> {
    let mut t = LoadTally::new();
    let shared = Arc::new(DpShared {
        ctl: ctl.clone(),
        tally: Mutex::new(DpDone {
            completed: 0,
            lat: Default::default(),
            bad: 0,
            first_bad: None,
        }),
    });
    let completed = |s: &DpShared| s.tally.lock().expect("tally lock").completed;
    let n = feed.msgs.len();
    let mut issued = 0u64;
    let mut warm = true;
    loop {
        let phase = if warm { WARM } else { ctl.phase() };
        if phase == STOP {
            break;
        }
        let traced = ctl.tracing();
        while issued - completed(&shared) < DATAPATH_DEPTH as u64
            && (!warm || issued < DATAPATH_WARM as u64)
        {
            let i = issued as usize % n;
            let m = &feed.msgs[i];
            let expect = feed.expect[0][i];
            let sh = shared.clone();
            let t0 = Instant::now();
            let done: stack::Completion = Box::new(move |payload, status| {
                let ns = t0.elapsed().as_nanos() as u64;
                let mut g = sh.tally.lock().expect("tally lock");
                g.completed += 1;
                if status != 0 || payload != expect {
                    g.bad += 1;
                    g.first_bad.get_or_insert(format!(
                        "request {i}: status {status}, {} response bytes",
                        payload.len()
                    ));
                }
                if let Some(s) = slot_of(phase) {
                    g.lat[s].record(ns);
                    sh.ctl.complete(phase);
                }
            });
            let accepted = client.call(m.proc_id, &m.wire, done)?;
            if traced {
                t.enqueue_ns += t0.elapsed().as_nanos() as u64;
            }
            if !accepted {
                break;
            }
            issued += 1;
            if slot_of(phase).is_some() {
                t.attempted += 1;
                t.enqueued += traced as u64;
            }
        }
        let cpu0 = traced.then(clock::thread_cpu_ns);
        client.poll(POLL_TIMEOUT)?;
        if let Some(cpu0) = cpu0 {
            t.poll_cpu_ns += clock::thread_cpu_ns() - cpu0;
        }
        if warm && completed(&shared) == DATAPATH_WARM as u64 {
            warm = false;
            ctl.arrive_and_wait();
        }
    }
    while completed(&shared) < issued || client.outstanding() > 0 {
        client.poll(POLL_TIMEOUT)?;
    }
    drop(client);
    let g = Arc::into_inner(shared)
        .ok_or("a completion outlived the client")?
        .tally
        .into_inner()
        .expect("tally lock");
    t.calls = g.completed;
    t.lat = g.lat;
    t.bad = g.bad;
    t.first_bad = g.first_bad;
    Ok(t)
}

type LoadHandle = JoinHandle<Result<LoadTally, String>>;

/// Starts the load threads of `w` on `stack`. Returns them and whether
/// they are xRPC clients (their CPU is then neither host nor DPU).
fn spawn_loads(
    w: Workload,
    stack: &mut Stack,
    ctl: &Arc<Control>,
    feeds: &Arc<Vec<Feed>>,
    seed: u64,
) -> Result<(Vec<LoadHandle>, bool), String> {
    let mut loads = Vec::new();
    match w {
        Workload::XrpcSmall | Workload::XrpcMixCached => {
            let lockstep = stack.cache_flusher().map(|cache| {
                Arc::new(Lockstep {
                    barrier: Barrier::new(2),
                    decision: AtomicU8::new(WARM),
                    cache,
                })
            });
            for (k, tenant) in TENANTS.iter().enumerate() {
                let conn = stack.connect(tenant)?;
                let (ctl, feeds, lockstep) = (ctl.clone(), feeds.clone(), lockstep.clone());
                loads.push(std::thread::spawn(move || match lockstep {
                    None => xrpc_loop(conn, &feeds[k], k, &ctl),
                    Some(step) => Ok(mix_loop(conn, &feeds[k], k, seed, &ctl, &step)),
                }));
            }
            Ok((loads, true))
        }
        _ => {
            let client = stack.take_client(TENANTS[0]).ok_or("no offload client")?;
            let (ctl, feeds) = (ctl.clone(), feeds.clone());
            loads.push(std::thread::spawn(move || {
                datapath_loop(client, &feeds[0], ctl)
            }));
            Ok((loads, false))
        }
    }
}

/// Everything read at one window boundary.
#[derive(Clone, Copy)]
struct Snap {
    at: Instant,
    completed: u64,
    process_cpu: u64,
    host_cpu: u64,
    client_cpu: u64,
    switches: i64,
    ctr: Counters,
}

/// Reads a window boundary. The host and load threads must still be
/// running: an exited thread's CPU clock cannot be read.
fn snap(
    stack: &Stack,
    ctl: &Control,
    host: ThreadClock,
    clients: &[ThreadClock],
) -> Result<Snap, String> {
    let gone = || "a thread ended inside a measured window".to_string();
    let mut client_cpu = 0;
    for c in clients {
        client_cpu += c.ns().ok_or_else(gone)?;
    }
    Ok(Snap {
        at: Instant::now(),
        completed: ctl.completed.load(Ordering::Relaxed),
        process_cpu: clock::process_cpu_ns(),
        host_cpu: host.ns().ok_or_else(gone)?,
        client_cpu,
        switches: clock::usage().voluntary_switches,
        ctr: stack.counters(),
    })
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The outcome of one run.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Lines printed before the result: figures that are not metrics.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness faults; empty means correct.
    pub faults: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latency histogram with log-spaced buckets 1% wide, so memory stays
/// fixed however many calls a run makes (a growing sample vector would
/// show up in `peak_rss_mib`).
struct LatHist {
    counts: Vec<u64>,
}

/// Buckets span 1 ns to 1.01^2048 ns, about 0.7 s.
const LAT_BUCKETS: usize = 2048;
const LAT_GROWTH: f64 = 1.01;

impl Default for LatHist {
    fn default() -> Self {
        Self {
            counts: vec![0; LAT_BUCKETS],
        }
    }
}

impl LatHist {
    fn record(&mut self, ns: u64) {
        let b = (ns.max(1) as f64).ln() / LAT_GROWTH.ln();
        self.counts[(b as usize).min(LAT_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The `q` quantile in µs (the bucket's geometric middle); 0 when
    /// empty.
    fn quantile_us(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("rank within total");
        LAT_GROWTH.powf(bucket as f64 + 0.5) / 1e3
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// End-to-end figures of one window.
struct WindowFigures {
    rps: f64,
    p50_us: f64,
    host_cpu: f64,
    dpu_cpu: f64,
    pcie: f64,
}

fn slice_rps(a: &Snap, b: &Snap) -> f64 {
    (b.completed - a.completed) as f64 / (b.at - a.at).as_secs_f64()
}

/// A window's end-to-end figures from its slice boundaries `b`: the
/// rate and per-request costs are medians over the slices, so a short
/// stall of the machine moves one slice, not the result.
fn window_figures(b: &[Snap], lat: &LatHist) -> WindowFigures {
    let per_slice = |f: &dyn Fn(&Snap, &Snap, f64) -> f64| {
        let mut v: Vec<f64> = b
            .windows(2)
            .map(|p| f(&p[0], &p[1], (p[1].completed - p[0].completed) as f64))
            .collect();
        median(&mut v)
    };
    WindowFigures {
        rps: per_slice(&|x, y, _| slice_rps(x, y)),
        p50_us: lat.quantile_us(0.5),
        host_cpu: per_slice(&|x, y, d| ratio((y.host_cpu - x.host_cpu) as f64, d)),
        dpu_cpu: per_slice(&|x, y, d| {
            let process = (y.process_cpu - x.process_cpu) as f64;
            let others = (y.host_cpu - x.host_cpu + y.client_cpu - x.client_cpu) as f64;
            ratio(process - others, d)
        }),
        pcie: per_slice(&|x, y, d| {
            let bytes = y.ctr.bytes_to_host + y.ctr.bytes_to_device;
            ratio(
                (bytes - x.ctr.bytes_to_host - x.ctr.bytes_to_device) as f64,
                d,
            )
        }),
    }
}

/// Checks what a stack's load threads and host saw, tears the stack
/// down, and appends what went wrong to `faults`.
fn check_and_teardown(
    w: Workload,
    build: usize,
    stack: Stack,
    tallies: &[LoadTally],
    faults: &mut Vec<String>,
) -> Result<HostTally, String> {
    let mut fault = |what: String| faults.push(format!("build {build}: {what}"));
    for (k, t) in tallies.iter().enumerate() {
        if let Some(first) = &t.first_bad {
            fault(format!(
                "load {k}: {} wrong responses, first: {first}",
                t.bad
            ));
        }
    }
    let calls: u64 = tallies.iter().map(|t| t.calls).sum();
    if let Some(served) = stack.calls_served() {
        if served != calls {
            fault(format!("terminator served {served} calls, {calls} made"));
        }
    }
    if w == Workload::XrpcMixCached {
        for (k, t) in tallies.iter().enumerate() {
            // A cross-tenant answer can only come from the cache, so each
            // one is a hit on top of the correct tenant's identity.
            let hits = stack.cache_hits_of(TENANTS[k]);
            let want = t.cache_ok_calls - t.cache_ok_keys + t.cross;
            if hits != want {
                fault(format!(
                    "tenant {}: {hits} cache hits, expected {} calls - {} keys + {} cross = {want}",
                    TENANTS[k], t.cache_ok_calls, t.cache_ok_keys, t.cross
                ));
            }
        }
    }
    let host = stack.teardown()?;
    if w.front() == Front::Datapath && host.served != calls {
        fault(format!(
            "host served {} requests, {calls} made",
            host.served
        ));
    }
    Ok(host)
}

fn join_loads(loads: Vec<LoadHandle>) -> Result<Vec<LoadTally>, String> {
    loads
        .into_iter()
        .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
        .collect()
}

/// One latency histogram merged over every tally.
fn merged(tallies: &[LoadTally], f: fn(&LoadTally) -> &LatHist) -> LatHist {
    let mut all = LatHist::default();
    for t in tallies {
        all.merge(f(t));
    }
    all
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Runs workload `w`: `SETUPS` stack builds with warm-up, then one
/// measured window of `seconds` on the last (two when `trace`: an
/// untraced one, then a traced one).
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
) -> Result<Outcome, String> {
    let feeds = Arc::new(feeds(w, seed, corrupt));
    let mut faults = Vec::new();
    let mut setups = Vec::new();
    let (stack, ctl, loads, xrpc_clients) = loop {
        let t0 = Instant::now();
        let ctl = Arc::new(Control::new());
        let mut stack = Stack::build(w.front(), &ctl)?;
        let (loads, xrpc_clients) = spawn_loads(w, &mut stack, &ctl, &feeds, seed)?;
        while ctl.ready.load(Ordering::Acquire) < loads.len() {
            if loads.iter().any(|h| h.is_finished()) {
                ctl.set_phase(STOP);
                join_loads(loads)?;
                return Err("a load thread ended during warm-up".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break (stack, ctl, loads, xrpc_clients);
        }
        ctl.set_phase(STOP);
        let tallies = join_loads(loads)?;
        check_and_teardown(w, setups.len(), stack, &tallies, &mut faults)?;
    };

    // Window boundaries: one snapshot per slice edge, per window.
    let host_clock = stack.host_clock();
    let client_clocks: Vec<ThreadClock> = if xrpc_clients {
        loads.iter().map(ThreadClock::of).collect()
    } else {
        Vec::new()
    };
    let windows = if trace { 2 } else { 1 };
    let slices = ((seconds / SLICE.as_secs_f64()).round() as usize).max(1);
    let slice = Duration::from_secs_f64(seconds / slices as f64);
    let mut bounds: Vec<Vec<Snap>> = Vec::new();
    let mut first = snap(&stack, &ctl, host_clock, &client_clocks)?;
    let mut allocs = (0, 0);
    for (s, &phase) in WINDOW.iter().enumerate().take(windows) {
        ctl.set_phase(phase);
        let start = Instant::now();
        let mut b = vec![first];
        for i in 1..=slices {
            let deadline = start + slice * i as u32;
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            if i == slices && s + 1 < windows {
                stack::alloc_start();
            }
            // The last boundary is read before STOP, while the load
            // threads are still running.
            let edge = snap(&stack, &ctl, host_clock, &client_clocks);
            if i == slices && s + 1 == windows {
                ctl.set_phase(STOP);
                if trace {
                    allocs = stack::alloc_stop();
                }
            }
            match edge {
                Ok(e) => b.push(e),
                Err(e) => {
                    ctl.set_phase(STOP);
                    join_loads(loads)?;
                    return Err(e);
                }
            }
        }
        first = b[slices];
        bounds.push(b);
    }
    let peak_rss_mib = clock::usage().max_rss_kib as f64 / 1024.0;
    let tallies = join_loads(loads)?;
    let cache_occupancy = stack.cache_occupancy();
    let host = check_and_teardown(w, SETUPS, stack, &tallies, &mut faults)?;

    let lat0 = merged(&tallies, |t| &t.lat[0]);
    let w0 = window_figures(&bounds[0], &lat0);
    // Wall-clock rate and latency follow the CPU time the hypervisor
    // steals from the VM more than the code, so they are printed (and
    // reported unbounded by the traced run), not bounded.
    let rates: Vec<String> = bounds[0]
        .windows(2)
        .map(|p| format!("{:.0}", slice_rps(&p[0], &p[1])))
        .collect();
    let builds: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    let notes = vec![
        format!("rps = {} 1/s (by slice: {})", w0.rps, rates.join(" ")),
        format!("p50_us = {} us", w0.p50_us),
        format!("setup_s by build: {}", builds.join(" ")),
    ];
    let metrics = if trace {
        let layer = Layer {
            w,
            feeds: &feeds,
            window: &bounds[1],
            tallies: &tallies,
            host: &host,
            cache_occupancy,
            allocs,
        };
        layer.metrics(&w0)?
    } else {
        vec![
            metric("host_cpu_ns_per_req", "ns", w0.host_cpu),
            metric("dpu_cpu_ns_per_req", "ns", w0.dpu_cpu),
            metric("pcie_bytes_per_req", "B", w0.pcie),
            metric("setup_s", "s", median(&mut setups)),
            metric("peak_rss_mib", "MiB", peak_rss_mib),
        ]
    };
    Ok(Outcome {
        metrics,
        notes,
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        faults,
    })
}

/// What the per-layer metrics are computed from: the traced window.
struct Layer<'a> {
    w: Workload,
    feeds: &'a [Feed],
    window: &'a [Snap],
    tallies: &'a [LoadTally],
    host: &'a HostTally,
    cache_occupancy: (u64, u64),
    allocs: (u64, u64),
}

impl Layer<'_> {
    fn metrics(self, w0: &WindowFigures) -> Result<Vec<Metric>, String> {
        let (a, b) = (&self.window[0], &self.window[self.window.len() - 1]);
        let d = (b.completed - a.completed) as f64;
        let lat1 = merged(self.tallies, |t| &t.lat[1]);
        let per_req = |n: f64| ratio(n, d);
        let delta = |f: fn(&Counters) -> u64| (f(&b.ctr) - f(&a.ctr)) as f64;
        let sum = |f: fn(&LoadTally) -> u64| self.tallies.iter().map(f).sum::<u64>() as f64;
        let w1 = window_figures(self.window, &lat1);
        let p99 = lat1.quantile_us(0.99);
        let xrpc = self.w.front() != Front::Datapath;
        let lookups = delta(|c| c.cache_hits + c.cache_misses);
        let own: Vec<&Msg> = self.feeds.iter().flat_map(|f| f.msgs.iter()).collect();
        let h = self.host;
        Ok(vec![
            metric("e2e.rps", "1/s", w0.rps),
            metric("e2e.p50_us", "us", w0.p50_us),
            metric("grpc.call_p99_us", "us", if xrpc { p99 } else { 0.0 }),
            metric(
                "terminator.ctx_switches_per_req",
                "count",
                per_req((b.switches - a.switches) as f64),
            ),
            metric("sched.shed", "count", delta(|c| c.shed)),
            metric(
                "cache.hit_ratio",
                "ratio",
                ratio(delta(|c| c.cache_hits), lookups),
            ),
            metric("cache.lookups", "count", lookups),
            metric(
                "cache.hit_p50_us",
                "us",
                merged(self.tallies, |t| &t.hit_lat).quantile_us(0.5),
            ),
            metric(
                "cache.miss_p50_us",
                "us",
                merged(self.tallies, |t| &t.miss_lat).quantile_us(0.5),
            ),
            metric("cache.entries", "count", self.cache_occupancy.0 as f64),
            metric("cache.bytes", "B", self.cache_occupancy.1 as f64),
            metric(
                "offload.enqueue_ns_per_req",
                "ns",
                ratio(sum(|t| t.enqueue_ns), sum(|t| t.enqueued)),
            ),
            metric(
                "offload.poll_cpu_ns_per_req",
                "ns",
                per_req(sum(|t| t.poll_cpu_ns)),
            ),
            metric("offload.call_p99_us", "us", if xrpc { 0.0 } else { p99 }),
            metric(
                "protowire.deser_ns_per_msg",
                "ns",
                stack::deser_ns_per_msg(&own, Duration::from_millis(200))?,
            ),
            metric(
                "rpcrdma.crc32c_ns_per_kib",
                "ns/KiB",
                stack::crc32c_ns_per_kib(Duration::from_millis(100)),
            ),
            metric(
                "rpcrdma.reqs_per_block",
                "count",
                ratio(delta(|c| c.reqs_enqueued), delta(|c| c.blocks_sent)),
            ),
            metric(
                "rpcrdma.credit_stalls_per_kreq",
                "count",
                per_req(1e3 * delta(|c| c.credit_stalls)),
            ),
            metric(
                "simnet.bytes_to_host_per_req",
                "B",
                per_req(delta(|c| c.bytes_to_host)),
            ),
            metric(
                "simnet.bytes_to_device_per_req",
                "B",
                per_req(delta(|c| c.bytes_to_device)),
            ),
            metric(
                "simnet.dma_transfers_per_req",
                "count",
                per_req(delta(|c| c.dma_transfers)),
            ),
            metric(
                "compat.poll_cpu_ns_per_wake",
                "ns",
                ratio(h.poll_cpu_ns as f64, h.wakes as f64),
            ),
            metric(
                "compat.reqs_per_wake",
                "count",
                ratio(h.processed as f64, (h.wakes - h.idle_wakes) as f64),
            ),
            metric(
                "compat.idle_wakes_per_req",
                "count",
                per_req(h.idle_wakes as f64),
            ),
            metric(
                "compat.handler_ns_per_req",
                "ns",
                ratio(h.handler_ns as f64, h.handled as f64),
            ),
            metric(
                "alloc.allocs_per_req",
                "count",
                per_req(self.allocs.0 as f64),
            ),
            metric("alloc.bytes_per_req", "B", per_req(self.allocs.1 as f64)),
            metric("overhead.rps", "1/s", w1.rps - w0.rps),
            metric("overhead.p50_us", "us", w1.p50_us - w0.p50_us),
            metric(
                "overhead.host_cpu_ns_per_req",
                "ns",
                w1.host_cpu - w0.host_cpu,
            ),
            metric("overhead.dpu_cpu_ns_per_req", "ns", w1.dpu_cpu - w0.dpu_cpu),
            metric("overhead.pcie_bytes_per_req", "B", w1.pcie - w0.pcie),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_within_one_percent() {
        let mut h = LatHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        let mut other = LatHist::default();
        other.record(5_000_000_000);
        h.merge(&other);
        let p50 = h.quantile_us(0.5);
        assert!((p50 / 500.0 - 1.0).abs() < 0.01, "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((p99 / 990.0 - 1.0).abs() < 0.01, "p99 {p99}");
        assert_eq!(LatHist::default().quantile_us(0.5), 0.0);
    }
}
