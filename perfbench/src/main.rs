//! Measurement child of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary and runs one iteration per
//! process, so every iteration starts from an empty in-memory result cache:
//!
//! ```text
//! perfbench campaign --seed S --out DIR --cache-dir DIR [--spans FILE]
//! perfbench volta    --seed S --seconds T [--spans FILE]
//! ```
//!
//! `campaign` runs the `--quick` campaign through the same public calls
//! `experiments` makes (`Evaluator::new`, `campaign::plan`,
//! `campaign::run`), saving every artifact under `--out`. `volta` runs the
//! memory-bound BLK+TRD co-run on `GpuConfig::volta()` at TLP (8,8) with
//! the library-default engine: episodes of set-up, warm-up and `LAPS` laps
//! of `LAP_CYCLES`, repeated until `--seconds` have passed.
//!
//! Both print one JSON object on stdout: wall and CPU time of the timed
//! region, set-up times, and the counters the public API returns. With
//! `--spans`, the child also records a span around every public call it
//! makes (plus the program's own `sched_unit` and profiler records), writes
//! the spans to FILE at the end and reports self time per layer.

use ebm_bench::{campaign, profiler, BenchArgs, Report};
use ebm_core::eval::{Evaluator, EvaluatorConfig};
use gpu_sim::machine::{EngineStats, Gpu};
use gpu_sim::trace::{NullSink, TraceEvent, TraceSink};
use gpu_types::{AppId, AppWindow, GpuConfig, MemCounters, TlpCombo, TlpLevel};
use gpu_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Campaign set-ups per process (`Evaluator::new` + `campaign::plan`); only
/// the last one runs, and `setup_s` is their median.
const CAMPAIGN_SETUPS: usize = 5;
/// Warm-up before the Volta co-run's timed laps: long enough for the L1s
/// and the L2 to fill, so the laps measure steady-state cost.
const WARMUP_CYCLES: u64 = 5_000;
/// Cycles per `Gpu::run` chunk of the Volta co-run (one lap).
const LAP_CYCLES: u64 = 5_000;
/// Laps per Volta episode. Every episode repeats the same simulation from
/// a fresh machine, so the `[sim]` metrics and the pinned snapshots repeat
/// bit for bit whatever the host speed, and host time is a median over
/// identical work.
const LAPS: usize = 8;

// ---------------------------------------------------------------------------
// Host measurements

/// Counts heap allocations while [`COUNTING`] is set (traced runs only), so
/// the untraced runs pay one relaxed load per allocation and nothing more.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of the whole process, every thread
/// included (threads that have exited too).
fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, which is all getrusage(2) writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&u.utime) + t(&u.stime)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Spans

/// One timed interval around a call into a layer, relative to the
/// recorder's origin.
struct Span {
    name: String,
    layer: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span store; written out once, at the end of the run.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.list.push(Span {
            name: name.into(),
            layer,
            parent,
            start,
            end,
        });
        self.list.len() - 1
    }

    /// Times `f` as a span.
    fn time<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(name, layer, parent, start, end);
        r
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover (children may overlap when they ran on other threads).
    fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.list.len()];
        for (i, s) in self.list.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.list.iter().enumerate() {
            let mut iv: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.list[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = Duration::ZERO;
            let mut cur: Option<(Duration, Duration)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let own = (s.end.saturating_sub(s.start)).saturating_sub(covered);
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own.as_secs_f64(),
                None => by_layer.push((s.layer, own.as_secs_f64())),
            }
        }
        by_layer
    }

    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":{},\"name\":{},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                json_str(s.layer),
                json_str(&s.name),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        std::fs::write(path, out)
    }
}

/// Trace sink of traced campaign runs: keeps the program's events in memory
/// and records a `gpu-sim::trace` span around every `emit` call.
struct CollectSink {
    origin: Instant,
    events: Vec<TraceEvent>,
    emit_spans: Vec<(Duration, Duration)>,
}

impl TraceSink for CollectSink {
    fn emit(&mut self, event: TraceEvent) {
        let start = self.origin.elapsed();
        self.events.push(event);
        self.emit_spans.push((start, self.origin.elapsed()));
    }
}

// ---------------------------------------------------------------------------
// JSON output

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_list(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(","))
}

/// A JSON object built field by field, in insertion order.
#[derive(Default)]
struct Obj(Vec<(String, String)>);

impl Obj {
    fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.0.push((key.to_string(), value));
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, json_f64(v))
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn layers_json(spans: &Spans) -> String {
    let mut o = Obj::default();
    for (layer, secs) in spans.self_time_by_layer() {
        o.num(layer, secs);
    }
    o.render()
}

// ---------------------------------------------------------------------------
// Command line

struct Opts {
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 42,
        seconds: 1.0,
        out: None,
        cache_dir: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--cache-dir" => o.cache_dir = Some(PathBuf::from(value()?)),
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "campaign" || cmd == "volta" => {
            parse_opts(rest).and_then(|o| {
                if cmd == "campaign" {
                    run_campaign(&o)
                } else {
                    run_volta(&o)
                }
            })
        }
        _ => Err("usage: perfbench campaign|volta --seed S [options]".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// campaign_cold / campaign_warm

/// Label prefix of a campaign work unit (`sweep:BFS_FFT` → `sweep`), with a
/// trailing arity digit folded away (`bestfixed3` → `bestfixed`).
fn unit_kind(label: &str) -> &str {
    let kind = label.split(':').next().unwrap_or(label);
    kind.trim_end_matches(|c: char| c.is_ascii_digit())
}

fn run_campaign(o: &Opts) -> Result<String, String> {
    let out = o.out.clone().ok_or("campaign needs --out")?;
    let cache_dir = o.cache_dir.clone().ok_or("campaign needs --cache-dir")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let args = BenchArgs {
        quick: true,
        out: Some(out.clone()),
        cache_dir: Some(cache_dir),
        ..BenchArgs::default()
    };
    args.apply_settings();
    let cfg = EvaluatorConfig {
        seed: o.seed,
        ..EvaluatorConfig::quick()
    };
    let traced = o.spans.is_some();
    let mut spans = Spans::new();

    // Set-up, repeated: only the last evaluator and plan are run.
    let mut setup_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut prepared = None;
    for _ in 0..CAMPAIGN_SETUPS {
        drop(prepared.take());
        // Only the set-up that is kept counts towards per-layer self time.
        spans.list.clear();
        let t = Instant::now();
        let root_start = spans.now();
        let root = spans.push("setup", "bench", None, root_start, root_start);
        let ev = spans.time("Evaluator::new", "ebm-core", Some(root), || {
            Evaluator::new(cfg.clone())
        });
        let tp = Instant::now();
        let plan = spans.time("campaign::plan", "ebm-bench::campaign", Some(root), || {
            campaign::plan(&args, &ev)
        });
        plan_s.push(tp.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        spans.list[root].end = spans.now();
        prepared = Some((ev, plan));
    }
    let (ev, plan) = prepared.expect("at least one set-up ran");
    let planned = plan.planned();
    let requested = plan.requested();
    // Spans the program recorded during set-up are not part of the run.
    let _ = profiler::take_spans();

    let mut sink = CollectSink {
        origin: spans.origin,
        events: Vec::new(),
        emit_spans: Vec::new(),
    };
    let origin = spans.origin;
    let mut emits: Vec<(String, Duration, Duration)> = Vec::new();
    let mut save = |report: &Report| {
        let start = origin.elapsed();
        let path = ebm_bench::out_path(&format!("{}.txt", report.id()));
        let written = std::fs::write(&path, report.render());
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        emits.push((report.id().to_string(), start, origin.elapsed()));
    };

    let cache0 = gpu_sim::cache::stats();
    let cycles0 = gpu_sim::metrics::cycles_simulated();
    COUNTING.store(traced, Ordering::Relaxed);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let cpu0 = cpu_seconds();
    let run_start = spans.now();
    let t0 = Instant::now();
    let stats = if traced {
        campaign::run(plan, &ev, &mut sink, &mut save)
    } else {
        campaign::run(plan, &ev, &mut NullSink, &mut save)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let run_end = spans.now();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    COUNTING.store(false, Ordering::Relaxed);
    let cycles = gpu_sim::metrics::cycles_simulated() - cycles0;
    let cache1 = gpu_sim::cache::stats();

    let mut j = Obj::default();
    j.raw("setup_s", json_list(setup_s.iter().map(|&v| json_f64(v))))
        .raw("plan_s", json_list(plan_s.iter().map(|&v| json_f64(v))))
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .int("cycles", cycles)
        .num("peak_rss_mb", peak_rss_mb())
        .int("available_parallelism", available_parallelism() as u64)
        .int("planned", planned as u64)
        .int("requested", requested as u64)
        .int("executed", stats.executed as u64)
        .int("workers", stats.workers as u64)
        .num("busy_s", stats.busy_s)
        .num("sched_wall_s", stats.wall_s)
        .num("utilization", stats.utilization())
        .int("cache_hits", cache1.hits - cache0.hits)
        .int("cache_disk_hits", cache1.disk_hits - cache0.disk_hits)
        .int("cache_misses", cache1.misses - cache0.misses)
        .int("cache_stores", cache1.stores - cache0.stores)
        .int(
            "cache_inflight_joined",
            cache1.inflight_joined - cache0.inflight_joined,
        );

    if let Some(path) = &o.spans {
        let run = spans.push(
            "campaign::run",
            "ebm-bench::campaign",
            None,
            run_start,
            run_end,
        );
        // Units: placed from the program's sched_unit records. A unit that
        // simulated nothing was served by the result cache.
        let mut kinds: Vec<(String, f64, u64)> = Vec::new();
        let mut longest_unit_s: f64 = 0.0;
        let mut unit_cycles = 0u64;
        for e in &sink.events {
            if let TraceEvent::SchedUnit {
                label,
                start_ms,
                wall_ms,
                cycles,
                ..
            } = e
            {
                let start = run_start + Duration::from_secs_f64(start_ms / 1e3);
                let end = start + Duration::from_secs_f64(wall_ms / 1e3);
                let layer = if *cycles == 0 {
                    "gpu-sim::cache"
                } else {
                    "ebm-core"
                };
                spans.push(label.clone(), layer, Some(run), start, end);
                let kind = unit_kind(label);
                match kinds.iter_mut().find(|e| e.0 == kind) {
                    Some((_, s, n)) => {
                        *s += wall_ms / 1e3;
                        *n += 1;
                    }
                    None => kinds.push((kind.to_string(), wall_ms / 1e3, 1)),
                }
                longest_unit_s = longest_unit_s.max(wall_ms / 1e3);
                unit_cycles += cycles;
            }
        }
        // Figure renders: the profiler's `figure` span covers render plus
        // emit and closes as the emit callback returns.
        let figures: Vec<_> = profiler::take_spans()
            .into_iter()
            .filter(|s| s.level == "figure")
            .collect();
        let trace_spans = std::mem::take(&mut sink.emit_spans);
        for (id, start, end) in &emits {
            let wall = figures
                .iter()
                .find(|f| &f.name == id)
                .map_or(0.0, |f| f.wall_s);
            let fstart = end
                .saturating_sub(Duration::from_secs_f64(wall))
                .max(run_start);
            let fig = spans.push(id.clone(), "ebm-bench::figures", Some(run), fstart, *end);
            spans.push(
                format!("emit {id}"),
                "ebm-bench::figures",
                Some(fig),
                *start,
                *end,
            );
            for &(a, b) in trace_spans
                .iter()
                .filter(|(a, _)| *a >= fstart && a < start)
            {
                spans.push("TraceSink::emit", "gpu-sim::trace", Some(fig), a, b);
            }
        }
        spans
            .write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut kj = Obj::default();
        for (k, s, n) in &kinds {
            kj.raw(k, format!("{{\"s\":{},\"units\":{n}}}", json_f64(*s)));
        }
        let mut t = Obj::default();
        t.raw("layers", layers_json(&spans))
            .raw("kinds", kj.render())
            .num("longest_unit_s", longest_unit_s)
            .int("unit_cycles", unit_cycles)
            .int("allocs", allocs);
        j.raw("traced", t.render());
    }
    Ok(j.render())
}

// ---------------------------------------------------------------------------
// volta_corun

/// The counters one Volta snapshot pins: per app `CoreStats` and
/// `MemCounters`, then the `EngineStats` step counts.
struct Snapshot {
    now: u64,
    core: Vec<gpu_simt::CoreStats>,
    mem: Vec<MemCounters>,
    engine: EngineStats,
}

impl Snapshot {
    fn take(gpu: &Gpu, spans: &mut Spans, parent: Option<usize>) -> Self {
        let apps: Vec<AppId> = (0..gpu.n_apps()).map(|a| AppId::new(a as u8)).collect();
        let core = spans.time("Gpu::core_stats", "gpu-simt", parent, || {
            apps.iter().map(|&a| gpu.core_stats(a)).collect()
        });
        let mem = spans.time("Gpu::counters", "gpu-mem", parent, || {
            apps.iter().map(|&a| gpu.counters(a)).collect()
        });
        let engine = spans.time("Gpu::engine_stats", "gpu-sim::machine", parent, || {
            gpu.engine_stats()
        });
        Snapshot {
            now: gpu.now(),
            core,
            mem,
            engine,
        }
    }

    fn to_json(&self) -> String {
        let mut o = Obj::default();
        o.int("now", self.now);
        let core = self.core.iter().map(|c| {
            let mut a = Obj::default();
            a.int("cycles", c.cycles)
                .int("insts", c.insts)
                .int("mem_stall_cycles", c.mem_stall_cycles)
                .int("struct_stall_cycles", c.struct_stall_cycles)
                .int("idle_cycles", c.idle_cycles)
                .int("warp_mem_wait_cycles", c.warp_mem_wait_cycles)
                .int("active_warp_cycles", c.active_warp_cycles);
            a.render()
        });
        o.raw("core", json_list(core));
        let mem = self.mem.iter().map(|m| {
            let mut a = Obj::default();
            a.int("l1_accesses", m.l1_accesses)
                .int("l1_misses", m.l1_misses)
                .int("l2_accesses", m.l2_accesses)
                .int("l2_misses", m.l2_misses)
                .int("dram_bytes", m.dram_bytes)
                .int("row_hits", m.row_hits)
                .int("row_misses", m.row_misses)
                .int("warp_insts", m.warp_insts);
            a.render()
        });
        o.raw("mem", json_list(mem));
        let e = &self.engine;
        let mut a = Obj::default();
        a.int("stepped", e.stepped)
            .int("fast_forwarded", e.fast_forwarded)
            .int("core_steps", e.core_steps)
            .int("core_steps_skipped", e.core_steps_skipped)
            .int("partition_steps", e.partition_steps)
            .int("partition_steps_skipped", e.partition_steps_skipped)
            .int("xbar_steps", e.xbar_steps)
            .int("xbar_steps_skipped", e.xbar_steps_skipped);
        o.raw("engine", a.render());
        o.render()
    }
}

/// `[sim]` metrics of the window between two snapshots, per application.
fn window_metrics(cfg: &GpuConfig, a: &Snapshot, b: &Snapshot) -> String {
    let cycles = b.now - a.now;
    let mut apps = Vec::new();
    for i in 0..a.core.len() {
        let core_cycles = (b.core[i].cycles - a.core[i].cycles).max(1) as f64;
        let w = AppWindow::new(b.mem[i] - a.mem[i], cycles, cfg.peak_bw_bytes_per_cycle());
        let mut o = Obj::default();
        o.num("ipc", w.ipc())
            .num(
                "mem_stall_frac",
                (b.core[i].mem_stall_cycles - a.core[i].mem_stall_cycles) as f64 / core_cycles,
            )
            .num(
                "struct_stall_frac",
                (b.core[i].struct_stall_cycles - a.core[i].struct_stall_cycles) as f64
                    / core_cycles,
            )
            .num("l1_miss_rate", w.counters.l1_miss_rate())
            .num("l2_miss_rate", w.counters.l2_miss_rate())
            .num("row_hit_rate", w.counters.row_hit_rate())
            .num("dram_bw_frac", w.attained_bw())
            .num("eb", w.effective_bandwidth());
        apps.push(o.render());
    }
    let (ea, eb) = (&a.engine, &b.engine);
    let steps = |e: &EngineStats| e.core_steps + e.partition_steps + e.xbar_steps;
    let skipped =
        |e: &EngineStats| e.core_steps_skipped + e.partition_steps_skipped + e.xbar_steps_skipped;
    let kcycles = cycles as f64 / 1e3;
    let mut e = Obj::default();
    e.int("cycles", cycles)
        .int("steps", steps(eb) - steps(ea))
        .num(
            "stepped_frac",
            (eb.stepped - ea.stepped) as f64 / cycles as f64,
        )
        .num(
            "core_steps_per_kcycle",
            (eb.core_steps - ea.core_steps) as f64 / kcycles,
        )
        .num(
            "partition_steps_per_kcycle",
            (eb.partition_steps - ea.partition_steps) as f64 / kcycles,
        )
        .num(
            "xbar_steps_per_kcycle",
            (eb.xbar_steps - ea.xbar_steps) as f64 / kcycles,
        )
        .num(
            "component_skip_frac",
            (skipped(eb) - skipped(ea)) as f64
                / (skipped(eb) - skipped(ea) + steps(eb) - steps(ea)) as f64,
        );
    format!("{{\"apps\":{},\"engine\":{}}}", json_list(apps), e.render())
}

fn run_volta(o: &Opts) -> Result<String, String> {
    let cfg = GpuConfig::volta();
    let w = Workload::pair("BLK", "TRD");
    let combo = TlpCombo::uniform(TlpLevel::new(8).ok_or("TLP level 8 is invalid")?, 2);
    let traced = o.spans.is_some();
    let mut spans = Spans::new();
    let mut episodes = Vec::new();
    let mut window = String::new();
    let t_all = Instant::now();
    loop {
        // Only the last episode's spans are kept (every episode repeats the
        // same simulation), so self times are per episode.
        spans.list.clear();
        let t = Instant::now();
        let start = spans.now();
        let root = spans.push("setup", "bench", None, start, start);
        let mut gpu = spans.time("Gpu::new", "gpu-sim::machine", Some(root), || {
            Gpu::new(&cfg, w.apps(), o.seed)
        });
        spans.time("Gpu::set_combo", "gpu-sim::machine", Some(root), || {
            gpu.set_combo(&combo)
        });
        spans.time("Gpu::run warm-up", "gpu-sim::machine", Some(root), || {
            gpu.run(WARMUP_CYCLES)
        });
        let setup_s = t.elapsed().as_secs_f64();
        spans.list[root].end = spans.now();

        let first = Snapshot::take(&gpu, &mut spans, None);
        let mut snapshots = vec![first.to_json()];
        let mut laps_wall = Vec::new();
        let mut laps_cpu = Vec::new();
        COUNTING.store(traced, Ordering::Relaxed);
        let allocs0 = ALLOCS.load(Ordering::Relaxed);
        let mut last = None;
        for _ in 0..LAPS {
            let cpu0 = cpu_seconds();
            let t = Instant::now();
            let start = spans.now();
            gpu.run(LAP_CYCLES);
            let end = spans.now();
            laps_wall.push(t.elapsed().as_secs_f64());
            laps_cpu.push(cpu_seconds() - cpu0);
            let lap = spans.push("Gpu::run", "gpu-sim::machine", None, start, end);
            let snap = Snapshot::take(&gpu, &mut spans, Some(lap));
            snapshots.push(snap.to_json());
            last = Some(snap);
        }
        let lap_allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
        COUNTING.store(false, Ordering::Relaxed);
        if episodes.is_empty() {
            window = window_metrics(&cfg, &first, &last.expect("LAPS > 0"));
        }
        let wall: f64 = laps_wall.iter().sum();
        let mut e = Obj::default();
        e.num("setup_s", setup_s)
            .raw(
                "laps_wall_s",
                json_list(laps_wall.iter().map(|&v| json_f64(v))),
            )
            .raw(
                "laps_cpu_s",
                json_list(laps_cpu.iter().map(|&v| json_f64(v))),
            )
            .int("lap_allocs", lap_allocs)
            .raw("snapshots", json_list(snapshots));
        episodes.push(e.render());
        // Drop the machine before the next set-up so peak RSS counts one.
        drop(gpu);
        if t_all.elapsed().as_secs_f64() + setup_s + wall > o.seconds {
            break;
        }
    }
    let mut j = Obj::default();
    j.int("lap_cycles", LAP_CYCLES)
        .int("laps", LAPS as u64)
        .num("peak_rss_mb", peak_rss_mb())
        .int("available_parallelism", available_parallelism() as u64)
        .raw("window", window)
        .raw("episodes", json_list(episodes));
    if let Some(path) = &o.spans {
        spans
            .write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        j.raw("layers", layers_json(&spans));
    }
    Ok(j.render())
}
