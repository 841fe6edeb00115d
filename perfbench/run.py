#!/usr/bin/env python3
"""The repository benchmark: the `--quick` campaign cold and warm, and a
Volta-scale co-run (see METRICS.md next to this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the measurement child (the
cargo package in this directory, a workspace of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one child process per
iteration in fresh temporary output and cache directories under
`.perfbench_tmp/`, checks every output, and prints the metrics by name with
their unit and [host]/[sim] tag. The last stdout line is one JSON object:
`correct`, `attempted`, `failed` (checks) and `metrics` (every end-to-end
metric with --trace 0, every per-layer metric with --trace 1). The exit
code is nonzero when a check failed.

Maintenance modes (each also run from the repository root):

    run.py --self-test           a perturbed byte or counter must fail a check
    run.py --write-pins 0-20,42  re-pin output digests (after a model change)
    run.py --compare A B         compare two result logs, like hosts only

Each run appends its full record (host fingerprint, environment, metrics)
to `.perfbench_out/results.jsonl`; traced runs also leave their spans there.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("campaign_cold", "campaign_warm", "volta_corun")

# (name, unit, better, bound, tag). Mirrored by BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "host"),
    ("wall_s", "s", "lower", 0.25, "host"),
    ("cpu_s", "s", "lower", 0.25, "host"),
    ("sim_cycles_per_s", "1/s", "higher", 0.25, "host"),
    ("peak_rss_mb", "MiB", "lower", 0.1, "host"),
]

KINDS = ("sweep", "alone", "fixed", "pbs", "scheme", "bestfixed", "offlinefixed")
APPS = ("app0", "app1")

# (name, unit, better, tag)
PER_LAYER = (
    [
        ("campaign.plan_s", "s", "lower", "host"),
        ("campaign.units_planned", "count", "lower", "sim"),
        ("campaign.units_requested", "count", "lower", "sim"),
        ("campaign.busy_s", "s", "lower", "host"),
        ("campaign.idle_worker_s", "s", "lower", "host"),
        ("campaign.longest_unit_s", "s", "lower", "host"),
        ("campaign.utilization", "ratio", "higher", "host"),
        ("campaign.self_s", "s", "lower", "host"),
        ("figures.self_s", "s", "lower", "host"),
        ("figures.uncached_cycles", "count", "lower", "sim"),
        ("figures.pbs_ws_gain", "x", "higher", "sim"),
        ("figures.pbs_fi_gain", "x", "higher", "sim"),
    ]
    + [(f"eval.{k}_s", "s", "lower", "host") for k in KINDS]
    + [(f"eval.{k}_units", "count", "lower", "sim") for k in KINDS]
    + [
        ("eval.self_s", "s", "lower", "host"),
        ("cache.hits", "count", "higher", "sim"),
        ("cache.disk_hits", "count", "higher", "sim"),
        ("cache.misses", "count", "lower", "sim"),
        ("cache.stores", "count", "lower", "sim"),
        ("cache.inflight_joined", "count", "lower", "host"),
        ("cache.hit_rate", "ratio", "higher", "sim"),
        ("cache.disk_bytes", "bytes", "lower", "sim"),
        ("cache.self_s", "s", "lower", "host"),
        ("engine.cycles", "count", "higher", "sim"),
        ("engine.stepped_frac", "ratio", "lower", "sim"),
        ("engine.core_steps_per_kcycle", "1/kcycle", "lower", "sim"),
        ("engine.partition_steps_per_kcycle", "1/kcycle", "lower", "sim"),
        ("engine.xbar_steps_per_kcycle", "1/kcycle", "lower", "sim"),
        ("engine.component_skip_frac", "ratio", "higher", "sim"),
        ("engine.ns_per_step", "ns", "lower", "host"),
        ("engine.allocs_per_kcycle", "1/kcycle", "lower", "host"),
        ("engine.run_chunk_ms.p50", "ms", "lower", "host"),
        ("engine.run_chunk_ms.p90", "ms", "lower", "host"),
        ("engine.cycles_per_cpu_s", "1/s", "higher", "host"),
        ("engine.self_s", "s", "lower", "host"),
    ]
    + [(f"simt.ipc.{a}", "1/cycle", "higher", "sim") for a in APPS]
    + [(f"simt.mem_stall_frac.{a}", "ratio", "lower", "sim") for a in APPS]
    + [(f"simt.struct_stall_frac.{a}", "ratio", "lower", "sim") for a in APPS]
    + [("simt.self_s", "s", "lower", "host")]
    + [(f"mem.l1_miss_rate.{a}", "ratio", "lower", "sim") for a in APPS]
    + [(f"mem.l2_miss_rate.{a}", "ratio", "lower", "sim") for a in APPS]
    + [(f"mem.row_hit_rate.{a}", "ratio", "higher", "sim") for a in APPS]
    + [(f"mem.dram_bw_frac.{a}", "ratio", "higher", "sim") for a in APPS]
    + [(f"mem.eb.{a}", "ratio", "higher", "sim") for a in APPS]
    + [
        ("mem.self_s", "s", "lower", "host"),
        ("trace.overhead_pct", "%", "lower", "host"),
        ("trace.self_s", "s", "lower", "host"),
    ]
)

# Span layer (workspace module) -> per-layer self-time metric.
LAYER_METRIC = {
    "ebm-bench::campaign": "campaign.self_s",
    "ebm-bench::figures": "figures.self_s",
    "ebm-core": "eval.self_s",
    "gpu-sim::cache": "cache.self_s",
    "gpu-sim::machine": "engine.self_s",
    "gpu-simt": "simt.self_s",
    "gpu-mem": "mem.self_s",
    "gpu-sim::trace": "trace.self_s",
}

# Every campaign artifact whose bytes are checked (PROFILE.json is never
# written by the benchmark: it is host timing, not simulated output).
ARTIFACTS = [
    f"{a}.txt"
    for a in (
        "tab04 fig01 fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig10 hs "
        "fig11 sens_part ablation phased sampling sched ccws dram_policy threeapp"
    ).split()
] + ["fig11_FI.csv", "fig11_WS.csv"]

# Environment the children run under: the library defaults (unset), with
# progress output off so stderr stays quiet.
PINNED_ENV = {
    "EBM_THREADS": None,
    "EBM_SIM_THREADS": None,
    "EBM_CACHE": None,
    "EBM_CACHE_DIR": None,
    "EBM_CACHE_VERIFY": None,
    "EBM_LOG": "off",
}


class BenchError(Exception):
    """The benchmark itself cannot run (build failure, missing sources)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Build, environment, host fingerprint


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("EBM_")}
    for k, v in PINNED_ENV.items():
        if v is not None:
            env[k] = v
    return env


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    for path in (manifest, os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        if not os.path.isfile(path):
            raise BenchError(f"missing {os.path.relpath(path, ROOT)}: not a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"build failed with exit code {r.returncode}")
    binary = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isfile(binary):
        raise BenchError(f"build produced no {binary}")
    return binary


def host_fingerprint(seed, available_parallelism):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = r.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "available_parallelism": available_parallelism,
        "cpu_model": cpu,
        "rustc": rustc,
        "commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
    }


def source_digest():
    """Digest of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


# Host fields that must match for two results to be compared.
COMPARABLE = ("nproc", "available_parallelism", "cpu_model", "rustc")


# ---------------------------------------------------------------------------
# Children


class Run:
    """One benchmark run: its scratch directory, children and checks."""

    def __init__(self, binary, seed, perturb=False):
        self.binary = binary
        self.seed = seed
        self.perturb = perturb
        self.checks = []
        self.available_parallelism = None
        os.makedirs(TMP, exist_ok=True)
        self.dir = os.path.join(TMP, f"run-{os.getpid()}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.n = 0
        pins = {}
        if os.path.isfile(PINS):
            with open(PINS) as f:
                pins = json.load(f)
        self.campaign_pin = pins.get("campaign", {}).get(str(seed))
        self.volta_pin = pins.get("volta", {}).get(str(seed))

    def fresh(self, name):
        self.n += 1
        path = os.path.join(self.dir, f"{self.n:03d}-{name}")
        os.makedirs(path)
        return path

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        if not ok:
            log(f"CHECK FAILED {name} {detail}")
        return ok

    def child(self, args, timeout=170):
        cmd = [self.binary] + args + ["--seed", str(self.seed)]
        t0 = time.monotonic()
        try:
            r = subprocess.run(
                cmd, env=child_env(), capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.check("child finished", False, " ".join(args[:1]) + " timed out")
            return None, time.monotonic() - t0
        elapsed = time.monotonic() - t0
        ok = r.returncode == 0 and r.stdout.strip()
        if not self.check("child exited cleanly (no panic)", ok, f"exit {r.returncode}"):
            log(r.stderr[-2000:])
            return None, elapsed
        try:
            res = json.loads(r.stdout.strip().splitlines()[-1])
        except ValueError:
            self.check("child printed its result", False, r.stdout[-200:])
            return None, elapsed
        self.available_parallelism = res.get("available_parallelism")
        return res, elapsed

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Campaign workloads


def campaign_iteration(run, cache_dir, traced=False, label="campaign"):
    out = run.fresh(label)
    args = ["campaign", "--out", out, "--cache-dir", cache_dir]
    spans = None
    if traced:
        spans = os.path.join(out, "..", os.path.basename(out) + "-spans.jsonl")
        args += ["--spans", spans]
    res, elapsed = run.child(args)
    digests = {}
    for name in ARTIFACTS:
        path = os.path.join(out, name)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                data = f.read()
            if run.perturb and name == "fig09.txt" and label != "fill":
                data = bytes([data[0] ^ 1]) + data[1:]
            digests[name] = digest(data) if data else None
        else:
            digests[name] = None
    if res is not None:
        res["digests"] = digests
        res["gains"] = pbs_gains(out)
        res["elapsed"] = elapsed
        res["spans_file"] = spans
    return res, elapsed


def pbs_gains(out):
    """`Gmean (all)` of PBS-WS in fig09 and PBS-FI in fig10."""
    gains = {}
    for fig, scheme in (("fig09.txt", "PBS-WS"), ("fig10.txt", "PBS-FI")):
        try:
            with open(os.path.join(out, fig)) as f:
                lines = f.read().splitlines()
        except OSError:
            continue
        header = None
        for line in lines:
            if line.startswith("workload"):
                header = []
                for tok in line[len("workload"):].split():
                    if tok.startswith("(") and header:
                        header[-1] += " " + tok
                    else:
                        header.append(tok)
            elif line.startswith("Gmean (all)") and header and scheme in header:
                values = line[len("Gmean (all)"):].split()
                gains[scheme] = float(values[header.index(scheme)])
    return gains


def check_campaign(run, res, phase, reference=None):
    """Checks one campaign iteration against the pins, or — for a seed
    without pins — against `reference` digests and pin-free invariants."""
    if res is None:
        for name in ARTIFACTS:
            run.check(f"{phase} artifact {name}", False, "child failed")
        return
    pin = run.campaign_pin
    for name in ARTIFACTS:
        got = res["digests"].get(name)
        if got is None:
            run.check(f"{phase} artifact {name}", False, "missing or empty")
        elif pin is not None:
            run.check(f"{phase} artifact {name}", got == pin["artifacts"].get(name), "digest differs from pin")
        elif reference is not None:
            run.check(f"{phase} artifact {name}", got == reference.get(name), "differs from cold run")
        else:
            run.check(f"{phase} artifact {name}", True)
    run.check(f"{phase} units executed", res["executed"] == res["planned"], f"{res['executed']} of {res['planned']}")
    run.check(f"{phase} PBS gains rendered", len(res["gains"]) == 2, str(res["gains"]))
    if phase == "warm":
        run.check("warm reads only the cache", res["cache_misses"] == 0 and res["cache_stores"] == 0,
                  f"{res['cache_misses']} misses, {res['cache_stores']} stores")
    else:
        run.check(f"{phase} stores every miss", res["cache_stores"] == res["cache_misses"] and res["cache_disk_hits"] == 0,
                  f"{res['cache_stores']} stores, {res['cache_misses']} misses")
    if pin is not None:
        stats = {k: res[k] for k in ("planned", "requested", "cycles")}
        want = pin["warm" if phase == "warm" else "cold"]
        run.check(f"{phase} plan and cycle counts", stats == want, f"{stats} vs {want}")


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def iterate(seconds, one, min_iters=1):
    """Runs `one(i)` until `seconds` would be exceeded by another iteration."""
    results = []
    t0 = time.monotonic()
    while True:
        res, elapsed = one(len(results))
        results.append(res)
        if res is None:
            break
        if len(results) >= min_iters and time.monotonic() - t0 + elapsed > seconds:
            break
    return results


def campaign_e2e(results):
    ok = [r for r in results if r is not None]
    if not ok:
        return None
    return {
        "setup_s": median([s for r in ok for s in r["setup_s"]]),
        "wall_s": median([r["wall_s"] for r in ok]),
        "cpu_s": median([r["cpu_s"] for r in ok]),
        "sim_cycles_per_s": median([r["cycles"] / r["wall_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        # Model outputs, printed beside the host metrics.
        "figures.pbs_ws_gain": ok[-1]["gains"].get("PBS-WS", 0.0),
        "figures.pbs_fi_gain": ok[-1]["gains"].get("PBS-FI", 0.0),
    }


def campaign_layers(traced, untraced, cache_dir):
    """Per-layer metrics of the traced iterations (times are medians)."""
    m = {}
    t = traced[-1]
    tr = t["traced"]

    def med(f):
        return median([f(r) for r in traced])

    m["campaign.plan_s"] = med(lambda r: median(r["plan_s"]))
    m["campaign.units_planned"] = t["planned"]
    m["campaign.units_requested"] = t["requested"]
    m["campaign.busy_s"] = med(lambda r: r["busy_s"])
    m["campaign.idle_worker_s"] = med(lambda r: max(0.0, r["workers"] * r["sched_wall_s"] - r["busy_s"]))
    m["campaign.longest_unit_s"] = med(lambda r: r["traced"]["longest_unit_s"])
    m["campaign.utilization"] = med(lambda r: r["utilization"])
    m["figures.uncached_cycles"] = t["cycles"] - tr["unit_cycles"]
    m["figures.pbs_ws_gain"] = t["gains"].get("PBS-WS", 0.0)
    m["figures.pbs_fi_gain"] = t["gains"].get("PBS-FI", 0.0)
    for k in KINDS:
        m[f"eval.{k}_s"] = med(lambda r: r["traced"]["kinds"].get(k, {}).get("s", 0.0))
        m[f"eval.{k}_units"] = tr["kinds"].get(k, {}).get("units", 0)
    hits, misses = t["cache_hits"], t["cache_misses"]
    m["cache.hits"] = hits
    m["cache.disk_hits"] = t["cache_disk_hits"]
    m["cache.misses"] = misses
    m["cache.stores"] = t["cache_stores"]
    m["cache.inflight_joined"] = t["cache_inflight_joined"]
    m["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.disk_bytes"] = dir_bytes(cache_dir)
    m["engine.cycles"] = t["cycles"]
    m["engine.allocs_per_kcycle"] = med(lambda r: r["traced"]["allocs"] / (r["cycles"] / 1e3))
    m["engine.cycles_per_cpu_s"] = med(lambda r: r["cycles"] / r["cpu_s"])
    for layer, name in LAYER_METRIC.items():
        m[name] = med(lambda r: r["traced"]["layers"].get(layer, 0.0))
    base = median([r["wall_s"] for r in untraced])
    m["trace.overhead_pct"] = (med(lambda r: r["wall_s"]) / base - 1.0) * 100.0
    return m


def campaign_cold(run, seconds, trace):
    def one(i):
        cache = run.fresh("cache")
        traced = trace and i == 1
        res, elapsed = campaign_iteration(run, cache, traced=traced, label="cold")
        check_campaign(run, res, "cold")
        if res is not None:
            res["cache_dir"] = cache
        return res, elapsed

    # A traced run makes one untraced and one traced iteration.
    results = iterate(seconds, one, min_iters=2 if trace else 1)
    untraced = [r for r in results if r is not None and "traced" not in r]
    traced = [r for r in results if r is not None and "traced" in r]
    if trace:
        if not traced or not untraced:
            return None
        keep_spans(run, traced[-1], "campaign_cold")
        return campaign_layers(traced, untraced, traced[-1]["cache_dir"])
    return campaign_e2e(untraced)


def campaign_warm(run, seconds, trace):
    cache = run.fresh("cache")
    fill, _ = campaign_iteration(run, cache, label="fill")
    check_campaign(run, fill, "fill")
    if fill is None:
        return None
    reference = fill["digests"]

    def one(i):
        traced = trace and i % 2 == 1
        res, elapsed = campaign_iteration(run, cache, traced=traced, label="warm")
        check_campaign(run, res, "warm", reference)
        if res is not None:
            run.check("warm disk hits equal cold stores", res["cache_disk_hits"] == fill["cache_stores"],
                      f"{res['cache_disk_hits']} vs {fill['cache_stores']}")
        return res, elapsed

    results = iterate(seconds, one, min_iters=2 if trace else 1)
    untraced = [r for r in results if r is not None and "traced" not in r]
    traced = [r for r in results if r is not None and "traced" in r]
    if trace:
        if not traced or not untraced:
            return None
        keep_spans(run, traced[-1], "campaign_warm")
        return campaign_layers(traced, untraced, cache)
    return campaign_e2e(untraced)


def keep_spans(run, res, workload):
    os.makedirs(OUT, exist_ok=True)
    dest = os.path.join(OUT, f"{workload}-seed{run.seed}-spans.jsonl")
    shutil.copyfile(res["spans_file"], dest)
    log(f"spans: {os.path.relpath(dest, ROOT)}")


# ---------------------------------------------------------------------------
# volta_corun


def check_volta(run, res):
    """Checks the first episode's snapshots against the pins (or, for a
    seed without pins, against conservation invariants), and every later
    episode against the first: they repeat the same simulation."""
    if res is None:
        run.check("volta snapshots", False, "child failed")
        return
    episodes = [e["snapshots"] for e in res["episodes"]]
    if run.perturb:
        episodes[0][1]["mem"][0]["l1_misses"] += 1
    snaps = episodes[0]
    pins = run.volta_pin
    for i, s in enumerate(snaps):
        name = f"volta snapshot {i} (cycle {s['now']})"
        if pins is not None:
            run.check(name + " pinned", i < len(pins) and digest(canonical(s)) == pins[i], "digest differs from pin")
        run.check(name + " invariants", snapshot_invariants(s, snaps[i - 1] if i else None))
    for n, other in enumerate(episodes[1:], 1):
        run.check(f"volta episode {n} repeats episode 0", other == snaps)
    run.check("volta window complete", len(snaps) == res["laps"] + 1 and res["window"])


def snapshot_invariants(s, prev):
    """Pin-free conservation checks of one snapshot (and against the one
    before): every cycle is stepped or skipped, every component slot is
    stepped or skipped, misses never exceed accesses, counters only grow."""
    now, e = s["now"], s["engine"]
    n_cores = (e["core_steps"] + e["core_steps_skipped"]) // max(now, 1)
    n_parts = (e["partition_steps"] + e["partition_steps_skipped"]) // max(now, 1)
    ok = e["stepped"] + e["fast_forwarded"] == now
    ok &= e["core_steps"] + e["core_steps_skipped"] == n_cores * now
    ok &= e["partition_steps"] + e["partition_steps_skipped"] == n_parts * now
    ok &= e["xbar_steps"] + e["xbar_steps_skipped"] == 2 * now
    ok &= sum(c["cycles"] for c in s["core"]) == n_cores * now
    for c, m in zip(s["core"], s["mem"]):
        ok &= c["insts"] == m["warp_insts"]
        ok &= m["l1_misses"] <= m["l1_accesses"] and m["l2_misses"] <= m["l2_accesses"]
    if prev is not None:
        for part in ("core", "mem"):
            for a, b in zip(prev[part], s[part]):
                ok &= all(b[k] >= a[k] for k in a)
        ok &= all(e[k] >= prev["engine"][k] for k in e)
    return ok


def volta_child(run, seconds, traced):
    out = run.fresh("volta")
    args = ["volta", "--seconds", str(seconds)]
    spans = os.path.join(out, "spans.jsonl")
    if traced:
        args += ["--spans", spans]
    res, _ = run.child(args)
    check_volta(run, res)
    if res is not None:
        res["spans_file"] = spans
        eps = res["episodes"]
        res["ep_wall"] = [sum(e["laps_wall_s"]) for e in eps]
        res["ep_cpu"] = [sum(e["laps_cpu_s"]) for e in eps]
        res["ep_cycles"] = res["lap_cycles"] * res["laps"]
    return res


def volta_e2e(res):
    wall = median(res["ep_wall"])
    return {
        "setup_s": median([e["setup_s"] for e in res["episodes"]]),
        "wall_s": wall,
        "cpu_s": median(res["ep_cpu"]),
        "sim_cycles_per_s": res["ep_cycles"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def volta_corun(run, seconds, trace):
    if not trace:
        res = volta_child(run, seconds, False)
        return volta_e2e(res) if res else None
    # Untraced then traced, each for half the time; every episode is the
    # same simulation, so the overhead compares median episode times.
    base = volta_child(run, seconds / 2, False)
    res = volta_child(run, seconds / 2, True)
    if base is None or res is None:
        return None
    keep_spans(run, res, "volta_corun")
    m = {}
    win = res["window"]
    eng = win["engine"]
    m["engine.cycles"] = eng["cycles"]
    for k in ("stepped_frac", "core_steps_per_kcycle", "partition_steps_per_kcycle",
              "xbar_steps_per_kcycle", "component_skip_frac"):
        m[f"engine.{k}"] = eng[k]
    wall = median(res["ep_wall"])
    laps = [w for e in res["episodes"] for w in e["laps_wall_s"]]
    m["engine.ns_per_step"] = wall * 1e9 / eng["steps"]
    m["engine.allocs_per_kcycle"] = median([e["lap_allocs"] for e in res["episodes"]]) / (eng["cycles"] / 1e3)
    m["engine.run_chunk_ms.p50"] = percentile(laps, 0.5) * 1e3
    m["engine.run_chunk_ms.p90"] = percentile(laps, 0.9) * 1e3
    m["engine.cycles_per_cpu_s"] = res["ep_cycles"] / median(res["ep_cpu"])
    for i, a in enumerate(APPS):
        app = win["apps"][i]
        m[f"simt.ipc.{a}"] = app["ipc"]
        m[f"simt.mem_stall_frac.{a}"] = app["mem_stall_frac"]
        m[f"simt.struct_stall_frac.{a}"] = app["struct_stall_frac"]
        for k in ("l1_miss_rate", "l2_miss_rate", "row_hit_rate", "dram_bw_frac", "eb"):
            m[f"mem.{k}.{a}"] = app[k]
    for layer, name in LAYER_METRIC.items():
        m[name] = res["layers"].get(layer, 0.0)
    m["trace.overhead_pct"] = (wall / median(base["ep_wall"]) - 1.0) * 100.0
    return m


RUNNERS = {
    "campaign_cold": campaign_cold,
    "campaign_warm": campaign_warm,
    "volta_corun": volta_corun,
}


# ---------------------------------------------------------------------------
# Reporting


def metric_specs(trace):
    if trace:
        return [(n, u, tag) for n, u, _, tag in PER_LAYER]
    return [(n, u, tag) for n, u, _, _, tag in END_TO_END]


def report(workload, seed, seconds, trace, values, run):
    attempted = len(run.checks)
    failed = sum(1 for _, ok, _ in run.checks if not ok)
    fp = host_fingerprint(seed, run.available_parallelism)
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host: " + " ".join(f"{k}={json.dumps(v)}" for k, v in fp.items()))
    print("env: " + " ".join(f"{k}={v if v is not None else 'unset'}" for k, v in PINNED_ENV.items()))
    metrics = {}
    for name, unit, tag in metric_specs(trace):
        v = float(values.get(name, 0.0)) if values else 0.0
        metrics[name] = {"value": v, "unit": unit}
        print(f"  {name:<36} {v:>16.6g} {unit:<9} [{tag}]")
    if values and trace:
        print("self time by layer:")
        for layer, name in LAYER_METRIC.items():
            print(f"  {layer:<36} {values.get(name, 0.0):>16.6g} s         [host]")
    if values and not trace:
        for name in ("figures.pbs_ws_gain", "figures.pbs_fi_gain"):
            if name in values:
                print(f"  {name:<36} {values[name]:>16.6g} {'x':<9} [sim]")
    failed_frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<36} {failed_frac:>16.6g} {'ratio':<9} ({failed} of {attempted} checks failed)")
    correct = values is not None and failed == 0 and attempted > 0
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": fp,
        "env": PINNED_ENV,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "time": time.time(),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_workload(binary, workload, seed, seconds, trace, perturb=False):
    run = Run(binary, seed, perturb)
    try:
        return run, RUNNERS[workload](run, seconds, trace)
    finally:
        run.close()


# ---------------------------------------------------------------------------
# Maintenance modes


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def write_pins(binary, seeds):
    pins = {"campaign": {}, "volta": {}}
    if os.path.isfile(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    for seed in seeds:
        run = Run(binary, seed)
        run.campaign_pin = run.volta_pin = None
        try:
            cache = run.fresh("cache")
            cold, _ = campaign_iteration(run, cache, label="cold")
            warm, _ = campaign_iteration(run, cache, label="warm")
            volta = volta_child(run, 0, False)
        finally:
            run.close()
        if cold is None or warm is None or volta is None or warm["digests"] != cold["digests"]:
            raise BenchError(f"seed {seed}: cannot pin a failing or non-repeating run")
        if any(not ok for _, ok, _ in run.checks):
            raise BenchError(f"seed {seed}: pin-free checks failed")
        pins["campaign"][str(seed)] = {
            "artifacts": cold["digests"],
            "cold": {k: cold[k] for k in ("planned", "requested", "cycles")},
            "warm": {k: warm[k] for k in ("planned", "requested", "cycles")},
        }
        snaps = volta["episodes"][0]["snapshots"]
        pins["volta"][str(seed)] = [digest(canonical(s)) for s in snaps]
        log(f"pinned seed {seed}")
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")


def self_test(binary):
    """Checks that the checks bite: unperturbed runs pass, a flipped artifact
    byte and a bumped counter each fail, and BENCHMARK.json matches."""
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    same = e2e == [t[:4] for t in END_TO_END] and layer == [t[:3] for t in PER_LAYER]
    same &= [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    log(f"self-test: BENCHMARK.json matches run.py: {same}")
    ok &= same
    with open(PINS) as f:
        seed = int(min(json.load(f)["campaign"], key=int))
    for workload, perturb in (("volta_corun", False), ("volta_corun", True), ("campaign_warm", True)):
        run, values = run_workload(binary, workload, seed, 0, False, perturb)
        failed = [name for name, good, _ in run.checks if not good]
        frac = len(failed) / max(len(run.checks), 1)
        want = "failed_frac > 0" if perturb else "failed_frac = 0"
        good = (frac > 0) == perturb and values is not None
        if workload == "campaign_warm":
            # The cold fill is never perturbed: its checks must all pass.
            good &= not any(name.startswith("fill") for name in failed)
        log(f"self-test: {workload} perturb={perturb}: failed_frac={frac:.3f} "
            f"({len(failed)} of {len(run.checks)}), want {want}: {'ok' if good else 'FAIL'}")
        ok &= good
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def compare(path_a, path_b):
    """Median per workload and metric of two result logs. Rows whose host
    fingerprints differ are flagged and not scored."""

    def load(path):
        rows = {}
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                rows.setdefault((r["workload"], r["trace"]), []).append(r)
        return rows

    a, b = load(path_a), load(path_b)
    bounds = {n: (better, bound) for n, _, better, bound, _ in END_TO_END}
    worse = 0
    for key in sorted(set(a) & set(b)):
        ha = {tuple(r["host"][k] for k in COMPARABLE) for r in a[key]}
        hb = {tuple(r["host"][k] for k in COMPARABLE) for r in b[key]}
        if len(ha | hb) != 1:
            print(f"{key[0]} trace={key[1]}: FLAGGED, host fingerprints differ, not scored: {sorted(ha | hb)}")
            continue
        for name in a[key][0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in a[key]]
            ma = median(va)
            mb = median([r["metrics"][name]["value"] for r in b[key]])
            change = (mb - ma) / ma if ma else 0.0
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                loss = change if better == "lower" else -change
                q = statistics.quantiles(va, n=4) if len(va) >= 4 else [ma, ma, ma]
                if ma and (q[2] - q[0]) / ma > bound:
                    verdict = "unresolved (A's own spread exceeds the bound)"
                else:
                    verdict = "WORSE" if loss > bound else "ok"
                worse += verdict == "WORSE"
            print(f"{key[0]:<14} {name:<36} {ma:>14.6g} -> {mb:>14.6g} {change:+8.2%} {verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-pins", metavar="SEEDS")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        if args.write_pins:
            write_pins(binary, parse_seeds(args.write_pins))
            return 0
        if not args.workload:
            p.error("--workload is required")
        run, values = run_workload(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    return report(args.workload, args.seed, args.seconds, bool(args.trace), values, run)


if __name__ == "__main__":
    sys.exit(main())
