//! Every call the benchmark makes into the program's API lives in this
//! module: building the offload stack, the host's digest handlers, the
//! load-side call wrappers, the program's own counters, and the
//! standalone layer timings. A change to the program's front-end API
//! ports this file alone.

use crate::clock::{self, ThreadClock};
use crate::inputs::{Digest, Msg, PROC_CHARS, PROC_INTS, PROC_SMALL};
use crate::run::Control;
use pbo_adt::{NativeObject, NativeWriter, ViewError, WriterConfig};
use pbo_core::compat::{NativeMdHandler, PayloadMode};
use pbo_core::terminator::ForwardRequest;
use pbo_core::{
    CacheConfig, CompatServer, CountingAllocator, ForwardMode, OffloadClient, ResponseCache,
    SchedConfig, ServiceSchema, TenantScheduler, TenantSpec, XrpcTerminator, ALLOC_TRACKER,
};
use pbo_grpc::{GrpcChannel, Metadata, TENANT_KEY};
use pbo_metrics::Registry;
use pbo_protowire::{DeserLimits, StackDeserializer};
use pbo_rpcrdma::{establish, Config, RetryClass};
use pbo_simnet::{Fabric, TcpFabric};
use pbo_trace::Tracer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counts every allocation; only the traced window turns counting on.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// xRPC listen address of the terminator on the simulated TCP fabric.
const ADDR: &str = "dpu:50051";
/// Connection label of the one RPC-over-RDMA connection.
const CONN: &str = "bench";
/// Cache TTL: longer than any run, so nothing expires.
const CACHE_TTL_NS: u64 = 3_600_000_000_000;
/// How long one datapath load poll may sleep when idle.
pub const POLL_TIMEOUT: Duration = Duration::from_millis(1);
/// How long one host poll may sleep when idle. A request wakes the host
/// at once, so this only sets how often an idle host wakes for nothing;
/// at 1 ms those timer wakes were a third of the host's CPU per xRPC
/// request and swung with the machine's load.
const HOST_POLL_TIMEOUT: Duration = Duration::from_millis(20);

/// The front end a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `XrpcTerminator::spawn` in offload mode.
    Xrpc,
    /// `XrpcTerminator::spawn_cached`: scheduler and response cache.
    XrpcCached,
    /// `OffloadClient` driven directly by the load thread.
    Datapath,
}

/// Counts the host thread and its handlers keep while traced.
#[derive(Default)]
pub struct HostTally {
    pub wakes: u64,
    pub idle_wakes: u64,
    pub processed: u64,
    pub poll_cpu_ns: u64,
    pub handler_ns: u64,
    pub handled: u64,
    /// Requests the host server processed over its whole life.
    pub served: u64,
}

/// Traced handler time and calls: `[ns, calls]`.
type HandlerTally = [AtomicU64; 2];

/// The program's own counters, read at a window boundary.
#[derive(Clone, Copy)]
pub struct Counters {
    pub bytes_to_host: u64,
    pub bytes_to_device: u64,
    pub dma_transfers: u64,
    pub reqs_enqueued: u64,
    pub blocks_sent: u64,
    pub credit_stalls: u64,
    pub shed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// One built offload stack: fabric, host thread, and front end.
pub struct Stack {
    fabric: Fabric,
    registry: Arc<Registry>,
    tcp: TcpFabric,
    terminator: Option<XrpcTerminator>,
    cache: Option<ResponseCache>,
    client: Option<OffloadClient>,
    host: JoinHandle<Result<HostTally, String>>,
    host_stop: Arc<AtomicBool>,
    handler_tally: Arc<HandlerTally>,
}

impl Stack {
    /// Builds the stack with the paper's client/server configuration:
    /// schema and ADT, `establish` (registration, ADT ship and verify),
    /// the host server with digest handlers on its own thread, and the
    /// front end.
    pub fn build(front: Front, ctl: &Arc<Control>) -> Result<Self, String> {
        let bundle = ServiceSchema::paper_bench();
        let fabric = Fabric::new();
        let registry = Arc::new(Registry::new());
        let client_cfg = Config::paper_client();
        let ep = establish(
            &fabric,
            client_cfg,
            Config::paper_server(),
            &registry,
            CONN,
            Some(&bundle.adt_bytes()),
        );
        let client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
            .map_err(|e| format!("ADT verification: {e}"))?;
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        let handler_tally: Arc<HandlerTally> = Arc::new(Default::default());
        for proc_id in [PROC_SMALL, PROC_INTS, PROC_CHARS] {
            server.register_native_md(
                &bundle,
                proc_id,
                digest_handler(proc_id, ctl.clone(), handler_tally.clone()),
            );
        }
        let host_stop = Arc::new(AtomicBool::new(false));
        let host = {
            let (ctl, stop) = (ctl.clone(), host_stop.clone());
            std::thread::spawn(move || host_loop(server, &ctl, &stop))
        };

        let tcp = TcpFabric::new();
        let (mut terminator, mut cache, mut direct) = (None, None, None);
        match front {
            Front::Xrpc => {
                terminator = Some(XrpcTerminator::spawn(
                    &tcp,
                    ADDR,
                    client,
                    ForwardMode::Offload,
                ));
            }
            Front::XrpcCached => {
                let mut sched: TenantScheduler<ForwardRequest> =
                    TenantScheduler::new(SchedConfig {
                        tenants: vec![TenantSpec::new("t0", 1), TenantSpec::new("t1", 1)],
                        credit_window: client_cfg.credits,
                        ..SchedConfig::default()
                    });
                sched.bind_metrics(&registry);
                let c = ResponseCache::new(CacheConfig::default());
                c.declare(PROC_SMALL, CACHE_TTL_NS);
                c.declare(PROC_INTS, CACHE_TTL_NS);
                terminator = Some(XrpcTerminator::spawn_cached(
                    &tcp,
                    ADDR,
                    client,
                    ForwardMode::Offload,
                    sched,
                    c.clone(),
                    &Tracer::disabled(),
                    CONN,
                ));
                cache = Some(c);
            }
            Front::Datapath => direct = Some(client),
        }
        Ok(Self {
            fabric,
            registry,
            tcp,
            terminator,
            cache,
            client: direct,
            host,
            host_stop,
            handler_tally,
        })
    }

    /// Opens an xRPC connection to the terminator that labels every call
    /// with `tenant`.
    pub fn connect(&self, tenant: &str) -> Result<XrpcConn, String> {
        let ch = GrpcChannel::connect(&self.tcp, ADDR).map_err(|e| format!("connect: {e}"))?;
        let mut md = Metadata::new();
        md.insert(TENANT_KEY, tenant);
        Ok(XrpcConn { ch, md })
    }

    /// Hands the DPU-side client to a datapath load thread.
    pub fn take_client(&mut self, tenant: &str) -> Option<DpClient> {
        let mut md = Metadata::new();
        md.insert(TENANT_KEY, tenant);
        self.client.take().map(|client| DpClient {
            client,
            md: md.encode(),
        })
    }

    /// CPU clock of the host poller thread.
    pub fn host_clock(&self) -> ThreadClock {
        ThreadClock::of(&self.host)
    }

    /// xRPC calls the terminator has served (`None` without one).
    pub fn calls_served(&self) -> Option<u64> {
        self.terminator.as_ref().map(|t| t.calls_served())
    }

    /// Reads the link, protocol, scheduler and cache counters.
    pub fn counters(&self) -> Counters {
        let pcie = self.fabric.link().stats();
        let client = &[("conn", CONN), ("side", "client")];
        let value = |name: &str| self.registry.counter_value(name, client).unwrap_or(0);
        let (cache_hits, cache_misses) = self.cache.as_ref().map_or((0, 0), |c| {
            let s = c.snapshot();
            s.tenants
                .iter()
                .fold((0, 0), |(h, m), t| (h + t.hits, m + t.misses))
        });
        Counters {
            bytes_to_host: pcie.bytes_to_host,
            bytes_to_device: pcie.bytes_to_device,
            dma_transfers: pcie.transfers_to_host + pcie.transfers_to_device,
            reqs_enqueued: value("rpc_requests_enqueued_total"),
            blocks_sent: value("rpc_blocks_sent_total"),
            credit_stalls: value("rpc_credit_stalls_total"),
            shed: self.registry.counter_sum("sched_shed_total"),
            cache_hits,
            cache_misses,
        }
    }

    /// Cache hits counted for `tenant`'s partition.
    pub fn cache_hits_of(&self, tenant: &str) -> u64 {
        self.cache.as_ref().map_or(0, |c| {
            c.snapshot()
                .tenants
                .iter()
                .filter(|t| t.tenant == tenant)
                .map(|t| t.hits)
                .sum()
        })
    }

    /// A handle that empties the response cache (`None` without one).
    pub fn cache_flusher(&self) -> Option<CacheFlusher> {
        self.cache.clone().map(CacheFlusher)
    }

    /// Cache occupancy: `(entries, bytes)`.
    pub fn cache_occupancy(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), |c| {
            let (bytes, entries) = c.occupancy();
            (entries as u64, bytes)
        })
    }

    /// Stops the front end and the host thread, and returns the host's
    /// tallies. Call after every load thread has drained and ended.
    pub fn teardown(mut self) -> Result<HostTally, String> {
        if let Some(t) = self.terminator.take() {
            t.shutdown().map_err(|e| format!("terminator: {e}"))?;
        }
        drop(self.client.take());
        self.host_stop.store(true, Ordering::Release);
        let mut tally = self
            .host
            .join()
            .map_err(|_| "host thread panicked".to_string())??;
        tally.handler_ns = self.handler_tally[0].load(Ordering::Relaxed);
        tally.handled = self.handler_tally[1].load(Ordering::Relaxed);
        Ok(tally)
    }
}

/// Host poller: `CompatServer::event_loop` until stopped, then drains.
fn host_loop(
    mut server: CompatServer,
    ctl: &Control,
    stop: &AtomicBool,
) -> Result<HostTally, String> {
    let mut tally = HostTally::default();
    while !stop.load(Ordering::Acquire) {
        let cpu0 = ctl.tracing().then(clock::thread_cpu_ns);
        let n = server
            .event_loop(HOST_POLL_TIMEOUT)
            .map_err(|e| format!("host event loop: {e}"))?;
        if let Some(cpu0) = cpu0 {
            tally.poll_cpu_ns += clock::thread_cpu_ns() - cpu0;
            tally.wakes += 1;
            tally.idle_wakes += (n == 0) as u64;
            tally.processed += n as u64;
        }
    }
    while server
        .event_loop(Duration::ZERO)
        .map_err(|e| format!("host drain: {e}"))?
        > 0
    {}
    tally.served = server.snapshot().requests;
    Ok(tally)
}

/// The host's business logic: a digest of the native object it was
/// handed, plus the caller's tenant.
fn digest_handler(proc_id: u16, ctl: Arc<Control>, tally: Arc<HandlerTally>) -> NativeMdHandler {
    Arc::new(move |md, view, out| {
        let t0 = ctl.tracing().then(Instant::now);
        let status = match view_digest(proc_id, view) {
            Ok(d) => {
                out.extend_from_slice(&d.finish(md.tenant()));
                0
            }
            Err(_) => 13,
        };
        if let Some(t0) = t0 {
            tally[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            tally[1].fetch_add(1, Ordering::Relaxed);
        }
        status
    })
}

fn view_digest(proc_id: u16, view: &NativeObject<'_>) -> Result<Digest, ViewError> {
    let mut d = Digest::new(proc_id);
    match proc_id {
        PROC_SMALL => {
            d.word(view.get_u32(1)? as u64);
            d.word(view.get_u32(2)? as u64);
            d.word(view.get_u64(3)?);
            d.word(view.get_f32(4)?.to_bits() as u64);
            d.word(view.get_bool(5)? as u64);
        }
        PROC_INTS => d.u32s(view.get_repeated(1)?.as_u32_slice()?),
        _ => d.bytes(view.get_bytes(1)?),
    }
    Ok(d)
}

/// Empties the response cache: `ResponseCache::flush`, which also bumps
/// its epoch so a store issued before the flush cannot land after it.
pub struct CacheFlusher(ResponseCache);

impl CacheFlusher {
    pub fn flush(&self) {
        self.0.flush();
    }
}

/// One xRPC client connection.
pub struct XrpcConn {
    ch: GrpcChannel,
    md: Metadata,
}

impl XrpcConn {
    /// Blocking unary call: `(status, response bytes)`. A transport
    /// failure reads as status `u16::MAX` with the error text as the
    /// body, so the caller counts it as a wrong answer and its load
    /// thread keeps the round barrier alive.
    pub fn call(&mut self, proc_id: u16, wire: &[u8]) -> (u16, Vec<u8>) {
        self.ch
            .call_raw_with_metadata(proc_id, &self.md, wire)
            .unwrap_or_else(|e| (u16::MAX, format!("xRPC call: {e}").into_bytes()))
    }
}

/// Completion callback of a datapath call: `(response bytes, status)`.
pub type Completion = Box<dyn FnOnce(&[u8], u16) + Send>;

/// The DPU-side offload client, driven by a load thread.
pub struct DpClient {
    client: OffloadClient,
    md: Vec<u8>,
}

impl DpClient {
    /// Deserializes `wire` into the outgoing block and enqueues it.
    /// `Ok(false)` means backpressure: poll, then retry.
    pub fn call(&mut self, proc_id: u16, wire: &[u8], done: Completion) -> Result<bool, String> {
        match self.client.call_offloaded_md(proc_id, wire, &self.md, done) {
            Ok(()) => Ok(true),
            Err(e) if e.retry_class() == RetryClass::Transient => Ok(false),
            Err(e) => Err(format!("call_offloaded: {e}")),
        }
    }

    /// Flushes and delivers completions; returns how many.
    pub fn poll(&mut self, timeout: Duration) -> Result<usize, String> {
        self.client
            .event_loop(timeout)
            .map_err(|e| format!("offload event loop: {e}"))
    }

    /// Requests awaiting their response.
    pub fn outstanding(&mut self) -> usize {
        self.client.rpc().outstanding()
    }
}

/// Standalone DPU-side deserialization (`StackDeserializer` into a
/// `NativeWriter`) of `msgs`, ns per message, at least `min` long.
pub fn deser_ns_per_msg(msgs: &[&Msg], min: Duration) -> Result<f64, String> {
    let bundle = ServiceSchema::paper_bench();
    let schema = bundle.schema().clone();
    let cap = msgs.iter().map(|m| m.wire.len()).max().unwrap_or(0) * 4 + 1024;
    let mut scratch = vec![0u8; cap + 8];
    let skew = (8 - scratch.as_ptr() as usize % 8) % 8;
    let arena = &mut scratch[skew..];
    let host_base = arena.as_ptr() as u64;
    let (mut n, t0) = (0u64, Instant::now());
    while n == 0 || t0.elapsed() < min {
        for m in msgs {
            let desc = bundle
                .request_descriptor(m.proc_id)
                .ok_or("unknown procedure")?;
            let mut w = NativeWriter::new(bundle.adt(), desc, arena, WriterConfig { host_base })
                .map_err(|e| e.to_string())?;
            StackDeserializer::new(&schema)
                .with_limits(DeserLimits::hardened())
                .deserialize(desc, std::hint::black_box(&m.wire), &mut w)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(w.finish().map_err(|e| e.to_string())?);
            n += 1;
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / n as f64)
}

/// Standalone `crc32c` over an 8 KiB block, ns per KiB.
pub fn crc32c_ns_per_kib(min: Duration) -> f64 {
    let block: Vec<u8> = (0..8192u32).map(|i| (i * 31 + 7) as u8).collect();
    let (mut n, t0) = (0u64, Instant::now());
    while n == 0 || t0.elapsed() < min {
        std::hint::black_box(pbo_rpcrdma::crc32c(std::hint::black_box(&block)));
        n += 1;
    }
    t0.elapsed().as_nanos() as f64 / (n * 8) as f64
}

/// Starts counting allocations of every thread.
pub fn alloc_start() {
    ALLOC_TRACKER.start();
}

/// Stops counting: `(allocations, bytes requested)`.
pub fn alloc_stop() -> (u64, u64) {
    let s = ALLOC_TRACKER.stop();
    (s.allocs, s.bytes)
}
