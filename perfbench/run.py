#!/usr/bin/env python3
"""EmMark end-to-end benchmark: one workload, one seed, every answer checked.

    python3 perfbench/run.py --workload dispute --seed 1 --seconds 20 --trace 0

Workloads (README.md in this directory says why each exists):
  dispute  2 closed-loop clients (line + HTTP/1.1) against
           `emmark_cli serve --process-shards --shards 2`: extract/verify/trace
  enroll   2 connections x 8 outstanding against `emmark_cli serve --shards 2`:
           insert + extract of the files it wrote
  ppl      perplexity() passes back to back, in process

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a separate traced run. The last stdout line is the result JSON.
The program is built from source under .bench_build/ (or $CARGO_TARGET_DIR)
on first use; zoo checkpoints are trained once into the same directory.
"""
import argparse
import collections
import fcntl
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
import oracle  # noqa: E402
import script  # noqa: E402
import serving  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

SETUPS = 9  # set-ups per run; setup_s reports their median
WARMUP_S = 1.0
PPL_TOKENS = 2048
PEEL_REQUESTS = 100
VERBS = ("insert", "extract", "verify", "trace")
# The run record's latency_tail_ms: the highest percentile a run's sample
# supports with at least ten samples beyond it (~2,000 requests per serving
# run, ~100 passes per ppl run), fixed per workload so runs stay comparable.
# It is not an end-to-end metric: ppl's tail spread 0.25-0.33 of its median
# over ten runs on a shared 4-vCPU host, and every end-to-end metric must
# exist on every workload.
TAIL_PERCENTILE = {"dispute": 99, "enroll": 99, "ppl": 90}

END_TO_END = {
    "latency_p50_ms": "ms", "throughput_rps": "1/s",
    "cpu_ms_per_op": "ms", "rss_peak_mb": "MiB", "setup_s": "s",
}
PER_LAYER = {
    "net.supervisor_hop_ms": "ms", "net.server_hop_ms": "ms",
    "net.poll_cycles_per_req": "count", "net.poll_busy_us": "us",
    "net.line_p50_ms": "ms", "net.http_p50_ms": "ms",
    **{f"cli.{v}.{p}_ms": "ms" for v in VERBS for p in ("queue", "run", "flush")},
    "cli.session_ms": "ms", "cli.failed": "count", "cli.shed": "count",
    "wm.engine.queue_wait_ms": "ms", "wm.engine.exec_ms": "ms", "wm.engine.direct_ms": "ms",
    "model_zoo.store.build_ms": "ms", "model_zoo.store.hit_ratio": "ratio",
    "model_zoo.store.checkout_ms": "ms", "model_zoo.store.resident_bytes": "bytes",
    **{f"wm.{op}_ms": "ms" for op in ("derive", "insert", "extract", "verify", "trace",
                                      "evidence_create")},
    **{f"util.serialize.{op}_ms": "ms" for op in ("save_codes", "record_save", "evidence_save",
                                                  "load_codes", "record_load", "evidence_load",
                                                  "set_load")},
    "util.serialize.bytes_per_insert": "bytes",
    "kernels.score_ns_per_code": "ns", "kernels.extract_ns_per_bit": "ns",
    "kernels.gemm_gflops": "GFLOP/s", "kernels.dequant_gbps": "GB/s",
    **{f"eval.{p}_ms": "ms" for p in ("gemm", "dequant", "attention", "softmax_nll")},
    **{f"nn.{op}_ms": "ms" for op in ("embed", "norm", "ffn_act", "lm_head")},
    "eval.forwards_per_pass": "count", "eval.tokens_per_forward": "count",
    "unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
}
COMPUTED = ("kernels.gemm_flops_per_pass", "kernels.dequant_bytes_per_pass",
            "kernels.codes_scored_per_derive")


class Context:
    def __init__(self, args, tools, zoo, run_dir):
        self.workload, self.seed, self.seconds, self.trace = (
            args.workload, args.seed, args.seconds, bool(args.trace))
        self.tools, self.zoo, self.run_dir = tools, zoo, run_dir
        self.env = dict(os.environ, EMMARK_CACHE=zoo, TMPDIR=os.path.join(run_dir, "tmp"))
        self.inserts = {}  # enroll insert id -> total_bits, for the oracle
        self.detail = {}
        self.servers = []


# --- build and zoo ------------------------------------------------------------

def build(targets):
    """Configures and builds the benchmark package (the repository's library
    and CLI plus the in-process tools) into BUILD/cmake."""
    cmake_dir = os.path.join(BUILD, "cmake")
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=True)
        subprocess.run(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
                        "--target", *targets], stdout=log, stderr=log, check=True)
    return {"cli": os.path.join(cmake_dir, "emmark", "emmark_cli"),
            "e2e": os.path.join(cmake_dir, "perfbench_e2e"),
            "layers": os.path.join(cmake_dir, "perfbench_layers")}


def prepare_zoo(tools):
    """Trains every spec's zoo checkpoint once per checkout (excluded from set-up)."""
    zoo = os.path.join(BUILD, "zoo")
    marker = os.path.join(zoo, "trained")
    if not os.path.exists(marker):
        os.makedirs(zoo, exist_ok=True)
        specs = sorted(set(script.DISPUTE_SPECS + script.ENROLL_SPECS + (script.PPL_SPEC,)))
        for model, quant in specs:
            run_json([tools["e2e"], "clean-codes", "--cache", zoo, "--model", model,
                      "--quant", quant, "--out", os.path.join(zoo, "probe.codes")])
        open(marker, "w").close()
    return zoo


def run_json(cmd, cwd=None, env=None):
    """Runs an in-process tool or CLI child; returns its last stdout line as JSON."""
    out = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, check=True, text=True,
                         timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_quiet(cmd, ctx):
    subprocess.run(cmd, cwd=ctx.run_dir, env=ctx.env, stdout=subprocess.DEVNULL, check=True,
                   timeout=170)


# --- machine record -----------------------------------------------------------

def machine_record(ctx):
    cpu, flags = "unknown", set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
            elif line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    # The dispatcher picks the highest level the CPU supports unless forced.
    auto = next((level for level, need in (("avx512", {"avx512f", "avx512bw", "avx512vl"}),
                                            ("avx2", {"avx2"}), ("sse2", {"sse2"}))
                 if need <= flags), "scalar")
    head = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    digest = hashlib.sha1()
    for base, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                digest.update(name.encode() + f.read())
    fs, best = "unknown", ""
    where = os.path.realpath(ctx.run_dir)
    with open("/proc/mounts") as f:
        for line in f:
            mount, fstype = line.split()[1:3]
            if where.startswith(mount) and len(mount) > len(best):
                fs, best = fstype, mount
    level = os.environ.get("EMMARK_KERNEL") or f"{auto} (auto)"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "kernel_level": level,
            "pool_threads": os.environ.get("EMMARK_THREADS") or "default (hardware threads)",
            "git_head": head, "src_sha1": digest.hexdigest(), "artifact_fs": fs}


# --- request accounting -------------------------------------------------------

class Recorder:
    """Oracle verdicts, latencies and (traced) root spans of one phase."""

    def __init__(self, traced):
        self.lat_ms = []  # inf for failed or refused requests
        self.kinds = collections.Counter()
        self.by_door = collections.defaultdict(list)
        self.spans = [] if traced else None
        self.lock = threading.Lock()

    def record(self, entry, door, t0, t1, reply, inserts):
        kind, msg = oracle.classify(reply)
        if kind == "ok":
            oracle.check(entry, msg, inserts)
        ms = (t1 - t0) / 1e6 if kind == "ok" else math.inf
        with self.lock:
            self.kinds[kind] += 1
            self.lat_ms.append(ms)
            self.by_door[door].append(ms)
            if self.spans is not None:
                self.spans.append({"id": entry.id, "door": door, "verb": entry.verb,
                                   "model": entry.model, "send_ns": t0, "recv_ns": t1,
                                   "kind": kind})

    def merge(self, other):
        self.lat_ms += other.lat_ms
        self.kinds.update(other.kinds)
        for door, ms in other.by_door.items():
            self.by_door[door] += ms


def closed_loop(client, entries, door, rec, inserts):
    """One client with one request outstanding."""
    def loop(deadline):
        while time.perf_counter() < deadline:
            entry = next(entries)
            t0 = time.perf_counter_ns()
            try:
                reply = client.request(entry)
            except OSError:
                reply = None
            rec.record(entry, door, t0, time.perf_counter_ns(), reply, inserts)
            if reply is None:
                return
    return loop


def windowed_loop(client, entries, rec, inserts, window):
    """One pipelined connection keeping `window` requests outstanding."""
    def loop(deadline):
        inflight = collections.deque()
        while True:
            while len(inflight) < window and time.perf_counter() < deadline:
                entry = next(entries)
                inflight.append((entry, time.perf_counter_ns()))
                client.send(entry.line())
            if not inflight:
                return
            try:
                reply = client.recv_line()
            except OSError:
                reply = None
            entry, t0 = inflight.popleft()
            rec.record(entry, "line", t0, time.perf_counter_ns(), reply, inserts)
            if reply is None:
                for entry, t0 in inflight:
                    rec.record(entry, "line", t0, time.perf_counter_ns(), None, inserts)
                return
    return loop


def run_clients(loops, seconds):
    """Runs each client loop on its own thread until the deadline has passed
    and its outstanding requests are answered; returns the wall seconds."""
    errors = []
    deadline = time.perf_counter() + seconds

    def guard(loop):
        try:
            loop(deadline)
        except BaseException as e:  # re-raised on the main thread
            errors.append(e)
    threads = [threading.Thread(target=guard, args=(loop,)) for loop in loops]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def percentiles(lat_ms, wall_s, tail):
    """(p50, p<tail>, samples beyond it), nearest rank. A failed request
    counts as having waited the whole phase: it misses any latency limit."""
    lat = sorted(min(x, wall_s * 1e3) for x in lat_ms)
    k = math.ceil(tail / 100 * len(lat)) - 1
    return statistics.median(lat), lat[k], len(lat) - 1 - k


# --- serving workloads --------------------------------------------------------

def prepare_dispute(ctx):
    """Owner artifacts, a 4-device fleet, a rogue device and clean codes per spec."""
    cli, base = ctx.tools["cli"], 1000 + ctx.seed
    for model, quant in script.DISPUTE_SPECS:
        art = script.art_dir(model)
        os.makedirs(art, exist_ok=True)
        common = ["--model", model, "--quant", quant, "--cache", ctx.zoo]
        run_quiet([cli, "insert", *common, "--seed", str(base), "--signature-seed", str(base + 1),
                   "--record", f"{art}/owner.rec", "--codes", f"{art}/owner.codes",
                   "--evidence", f"{art}/owner.evid"], ctx)
        run_quiet([cli, "enroll", *common, "--seed", str(base + 2), "--devices",
                   str(script.FLEET_DEVICES), "--set", f"{art}/fleet.fps",
                   "--codes-dir", f"{art}/fleet"], ctx)
        run_quiet([cli, "enroll", *common, "--seed", str(base + 3), "--devices", "1",
                   "--set", f"{art}/rogue.fps", "--codes-dir", f"{art}/rogue"], ctx)
        os.replace(f"{art}/rogue/{script.device_id(0)}.codes", f"{art}/rogue.codes")
        run_quiet([ctx.tools["e2e"], "clean-codes", *common, "--out", f"{art}/clean.codes"], ctx)


def launch(ctx, args, specs, process_shards, setups):
    """`setups` fresh launches, each timed from spawning the front door until
    every spec has answered once; the last server keeps running."""
    times = []
    for i in range(setups):
        start = time.perf_counter()
        server = serving.Server(ctx.tools["cli"], args, ctx.run_dir, ctx.env, process_shards)
        ctx.servers.append(server)
        client = serving.LineClient(server.port)
        for model, quant in specs:
            reply = client.request(script.Entry(f"setup{i}-{model}", "insert", model, quant, (), {}))
            if oracle.classify(reply)[0] != "ok":
                raise RuntimeError(f"set-up request failed: {reply}")
        times.append(time.perf_counter() - start)
        client.close()
        if i < setups - 1:
            server.stop()
    return server, times


def merged(scrapes):
    out = collections.Counter()
    for s in scrapes:
        out.update(s)
    return out


def scrape_layers(before, after, requests):
    """Per-layer metrics from two `metrics` scrapes around a traced window."""
    S = serving
    m = {"net.poll_cycles_per_req": S.delta(before, after, "emmark_server_poll_cycle_seconds_count")
         / max(requests, 1),
         "net.poll_busy_us": 1e3 * S.mean_ms(before, after, "emmark_server_poll_cycle_seconds"),
         "cli.failed": S.delta(before, after, "emmark_request_failures_total"),
         "cli.shed": S.delta(before, after, "emmark_requests_shed_total"),
         "wm.engine.queue_wait_ms": S.mean_ms(before, after, "emmark_engine_queue_wait_seconds"),
         "wm.engine.exec_ms": S.mean_ms(before, after, "emmark_engine_exec_seconds"),
         "model_zoo.store.resident_bytes": S.total(after, "emmark_store_resident_bytes")}
    for verb in VERBS:
        if S.delta(before, after, "emmark_requests_total", f'verb="{verb}"'):
            for phase in ("queue", "run", "flush"):
                m[f"cli.{verb}.{phase}_ms"] = S.mean_ms(
                    before, after, "emmark_request_latency_seconds", f'verb="{verb}",phase="{phase}"')
    hits = S.delta(before, after, "emmark_store_events_total", 'event="hit"')
    misses = S.delta(before, after, "emmark_store_events_total", 'event="miss"')
    m["model_zoo.store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    builds = S.total(before, "emmark_store_build_seconds_count")
    m["model_zoo.store.build_ms"] = (1e3 * S.total(before, "emmark_store_build_seconds_sum") / builds
                                     if builds else 0.0)
    return m


def peel_means(entries, entry_points, ctx):
    """Mean latency per entry point of `entries` replayed one at a time,
    each request sent to every entry point in turn (order alternating), so
    all entry points see the same requests under the same conditions."""
    recs = [Recorder(False) for _ in entry_points]
    for i, entry in enumerate(entries):
        order = list(zip(recs, entry_points))
        for rec, client_for in order[::-1] if i % 2 else order:
            t0 = time.perf_counter_ns()
            reply = client_for(entry).request(entry)
            rec.record(entry, "line", t0, time.perf_counter_ns(), reply, ctx.inserts)
    for rec in recs:
        if rec.kinds["ok"] != len(entries):
            raise RuntimeError(f"peel replay failed requests: {dict(rec.kinds)}")
    return [statistics.fmean(rec.lat_ms) for rec in recs]


def serve_workload(ctx, kind, seconds):
    dispute = kind == "dispute"
    specs = script.DISPUTE_SPECS if dispute else script.ENROLL_SPECS
    args = ["--shards", "2", "--cache", ctx.zoo]
    if dispute:
        prepare_dispute(ctx)
        os.makedirs("sock", exist_ok=True)
        args += ["--process-shards", "--socket-dir", "sock"]
    else:
        for c in range(2):
            os.makedirs(f"slots/c{c}", exist_ok=True)
    server, setups = launch(ctx, args, specs, dispute, 1 if ctx.trace else SETUPS)

    if dispute:
        clients = {"line": serving.LineClient(server.port), "http": serving.HttpClient(server.port)}
        streams = {d: script.dispute_entries(ctx.seed, d) for d in clients}
        make = lambda rec: [closed_loop(clients[d], streams[d], d, rec, ctx.inserts)
                            for d in clients]
    else:
        clients = [serving.LineClient(server.port) for _ in range(2)]
        streams = [script.enroll_entries(ctx.seed, c) for c in range(2)]
        make = lambda rec: [windowed_loop(clients[c], streams[c], rec, ctx.inserts,
                                          script.ENROLL_WINDOW) for c in range(2)]
    run_clients(make(Recorder(False)), WARMUP_S)

    if not ctx.trace:
        pids = server.pids()
        cpu0 = serving.cpu_seconds(pids)
        rec = Recorder(False)
        wall = run_clients(make(rec), seconds)
        cpu1 = serving.cpu_seconds(pids)
        hwm = {pid: serving.vm_hwm_kib(pid) for pid in pids}
        server.stop()
        p50, p_tail, beyond = percentiles(rec.lat_ms, wall, TAIL_PERCENTILE[kind])
        attempted = sum(rec.kinds.values())
        ctx.detail.update(counts=dict(sent=attempted, **rec.kinds), latency_tail_ms=p_tail,
                          tail_percentile=TAIL_PERCENTILE[kind], samples_beyond_tail=beyond,
                          processes={pid: {"cpu_s": cpu1.get(pid, 0) - cpu0.get(pid, 0),
                                           "vmhwm_kib": hwm[pid]} for pid in pids},
                          setup_runs_s=setups)
        metrics = {"latency_p50_ms": p50, "throughput_rps": rec.kinds["ok"] / wall,
                   "cpu_ms_per_op": 1e3 * sum(cpu1[p] - cpu0.get(p, 0) for p in cpu1) / attempted,
                   "rss_peak_mb": sum(hwm.values()) / 1024,
                   "setup_s": statistics.median(setups)}
        return metrics, attempted, attempted - rec.kinds["ok"]

    # Traced run: untraced and traced segments alternate, with metrics
    # scrapes just before and after them.
    admin = serving.LineClient(server.port)
    before = admin.scrape()
    recs = {False: Recorder(False), True: Recorder(True)}
    for segment in range(4):
        run_clients(make(recs[segment % 2 == 1]), seconds / 4)
    after = admin.scrape()
    everything = Recorder(False)
    for rec in recs.values():
        everything.merge(rec)
    requests = sum(everything.kinds.values())
    m = scrape_layers(before, after, requests)
    traced = recs[True]
    m["trace.overhead_frac"] = (statistics.median(traced.lat_ms)
                                / statistics.median(recs[False].lat_ms) - 1)
    m["net.line_p50_ms"] = statistics.median(traced.by_door["line"])

    if dispute:
        # Peel 1: the same script prefix, same ids, via the fleet port and
        # straight to each spec's worker socket; the workers' own scrapes
        # give the server-side total phase of both.
        peel = list(itertools.islice(script.dispute_entries(ctx.seed, "line"), PEEL_REQUESTS))
        workers = {shard: serving.LineClient(unix_path=path)
                   for shard, (_, path) in server.workers.items()}
        w_before = merged(c.scrape() for c in workers.values())
        fleet_ms, worker_ms = peel_means(
            peel, [lambda e: admin, lambda e: workers[script.ring_shard(e.model, e.quant)]], ctx)
        w_after = merged(c.scrape() for c in workers.values())
        server_total = serving.mean_ms(w_before, w_after, "emmark_request_latency_seconds",
                                       'phase="total"')
        m["net.http_p50_ms"] = statistics.median(traced.by_door["http"])
        m["net.supervisor_hop_ms"] = fleet_ms - worker_ms
        m["net.server_hop_ms"] = worker_ms - server_total
        top_ms = fleet_ms
    else:
        peel = list(itertools.islice(script.enroll_entries(ctx.seed, 0), PEEL_REQUESTS))
        top_ms = statistics.fmean(x for x in everything.lat_ms if math.isfinite(x))
        m["net.server_hop_ms"] = top_ms - serving.mean_ms(
            before, after, "emmark_request_latency_seconds", 'phase="total"')
    m["unattributed_frac"] = max(0.0, m["net.server_hop_ms"]) / top_ms
    hwm = {pid: serving.vm_hwm_kib(pid) for pid in server.pids()}
    server.stop()

    # Peels 2-4 in process: session, engine, direct layer calls.
    with open("peel.txt", "w") as f:
        f.writelines(e.line() + "\n" for e in peel)
    out = run_json([ctx.tools["layers"], "peel", "--cache", ctx.zoo, "--script", "peel.txt",
                    "--shards", "2", "--specs", ",".join(f"{mo}:{q}" for mo, q in specs)],
                   env=ctx.env)
    if out.pop("failures"):
        raise RuntimeError("in-process peel replay saw failed requests")
    m.update(out)
    if kind == ctx.workload:
        write_spans(ctx, traced.spans)
        ctx.detail.update(counts=dict(sent=requests, **everything.kinds),
                          processes_vmhwm_kib=hwm, peel_requests=len(peel))
    return m, requests, requests - everything.kinds["ok"]


def write_spans(ctx, spans):
    """Root spans are kept in memory during the run and written at exit."""
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    path = os.path.join(BUILD, "traces", f"{ctx.workload}-s{ctx.seed}.jsonl")
    with open(path, "w") as f:
        f.writelines(json.dumps(s) + "\n" for s in spans)
    ctx.detail["spans"] = path


# --- ppl ----------------------------------------------------------------------

def ppl(ctx, kind, seconds):
    model, quant = script.PPL_SPEC
    common = ["--cache", ctx.zoo, "--model", model, "--quant", quant, "--seed", str(ctx.seed),
              "--tokens", str(PPL_TOKENS)]
    if ctx.trace:
        out = run_json([ctx.tools["layers"], "eval", *common, "--seconds", str(seconds)],
                       env=ctx.env)
        oracle.check_ppl(out.pop("ref_bits"), out.pop("pass_bits"))
        passes = int(out.pop("passes"))
        return out, passes, 0
    out = run_json([ctx.tools["e2e"], "ppl", *common, "--seconds", str(seconds),
                    "--setups", str(SETUPS)], env=ctx.env)
    oracle.check_ppl(out["ref_bits"], out["pass_bits"])
    passes, wall = len(out["pass_ms"]), out["wall_s"]
    p50, p_tail, beyond = percentiles(out["pass_ms"], wall, TAIL_PERCENTILE[kind])
    tokens = passes * out["scored_tokens"]
    ctx.detail.update(counts={"sent": passes, "ok": passes}, latency_tail_ms=p_tail,
                      tail_percentile=TAIL_PERCENTILE[kind], samples_beyond_tail=beyond,
                      ppl_tokens_per_s=tokens / wall, ppl=out["ppl"],
                      scored_tokens_per_pass=out["scored_tokens"],
                      processes={"perfbench_e2e": {"cpu_s": out["cpu_s"],
                                                   "vmhwm_kib": out["vmhwm_kib"]}},
                      setup_runs_s=out["setup_s"], pool_threads=out["pool_threads"])
    metrics = {"latency_p50_ms": p50, "throughput_rps": passes / wall,
               "cpu_ms_per_op": 1e3 * out["cpu_s"] / (tokens / 1000),
               "rss_peak_mb": out["vmhwm_kib"] / 1024,
               "setup_s": statistics.median(out["setup_s"])}
    return metrics, passes, 0


WORKLOADS = {"dispute": serve_workload, "enroll": serve_workload, "ppl": ppl}


def complement(ctx, values):
    """Fills the per-layer rows the named workload does not exercise (the
    eval path on a serving workload, the supervisor and HTTP door on enroll,
    every serving layer on ppl) from short traced runs of the workloads that
    do, so that every row is a measurement. The record names the source."""
    wanted = list(PER_LAYER) + list(COMPUTED)
    for other, run_traced in WORKLOADS.items():
        missing = [name for name in wanted if name not in values]
        if other == ctx.workload or not missing:
            continue
        measured = run_traced(ctx, other, ctx.seconds / 4)[0]
        filled = [name for name in missing if name in measured]
        values.update((name, measured[name]) for name in filled)
        ctx.detail.setdefault("rows_from", {})[other] = filled


# --- main ---------------------------------------------------------------------

def result_metrics(ctx, values):
    """Exactly the declared metrics of this run kind, each with its unit (a
    median that only failed requests reached reads 0)."""
    names = PER_LAYER if ctx.trace else END_TO_END
    ctx.detail["computed"] = {k: values.pop(k) for k in COMPUTED if k in values}
    ctx.detail["extra"] = {k: v for k, v in values.items() if k not in names}
    finite = lambda v: v if math.isfinite(v) else 0.0
    return {name: {"value": finite(float(values.get(name, 0.0))), "unit": unit}
            for name, unit in names.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    try:
        with open(os.path.join(BUILD, "lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            tools = build(["emmark_cli", "perfbench_e2e"]
                          + (["perfbench_layers"] if args.trace else []))
            zoo = prepare_zoo(tools)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed ({e}); see {BUILD}/build.log", file=sys.stderr)
        return 2

    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    os.chdir(run_dir)  # artifact and socket paths in requests are relative to it
    ctx = Context(args, tools, zoo, run_dir)
    ctx.detail["machine"] = machine_record(ctx)
    correct, code = True, 0
    try:
        values, attempted, failed = WORKLOADS[args.workload](ctx, args.workload, args.seconds)
        if ctx.trace:
            complement(ctx, values)
    except oracle.WrongAnswer as e:
        print(f"perfbench: WRONG ANSWER: {e}", file=sys.stderr)
        values, attempted, failed, correct, code = {}, 1, 1, False, 1
    finally:
        for server in ctx.servers:
            server.stop()
        os.chdir(BUILD)
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = result_metrics(ctx, values)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **ctx.detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
