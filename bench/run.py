#!/usr/bin/env python3
"""Benchmark driver for sforge: four closed-loop workloads, one client each.

    python3 bench/run.py --workload extremal --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --report [--seconds 25]   # every end-to-end metric, all workloads
    python3 bench/run.py --smoke                   # minimum size, plus corrupted-answer checks

An untraced run calls the workload's jobs for ``--seconds``, each job
getting the same share of the time, and reports each job's fastest call in
units of a yardstick timed alongside.  A traced run repeats the job
list in passes.  Every answer is checked; a wrong answer counts as failed,
never as fast.  With ``--trace 0`` the last line of standard output is the
end-to-end result; with ``--trace 1`` it is the per-layer result of a
separate traced run.  Metric names and units come
from BENCHMARK.json.  sforge is imported from ``src`` of the checkout this
file sits in, and only from there.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
# the yardstick gets this many jobs' share of a run: its fastest call
# divides every job's, so it needs more calls than one job to be as steady
REFERENCE_WEIGHT = 3
P90_MIN_JOBS = 100  # p90 is reported only with at least ten jobs beyond it
ROADMAP_PACKING_SHARE = 0.80


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_sforge():
    """Import sforge from this checkout's src, refusing any other copy."""
    if not (SRC / "sforge" / "__init__.py").is_file():
        die(f"no sforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sforge

    if Path(sforge.__file__).resolve().parent != (SRC / "sforge").resolve():
        die(f"imported sforge from {sforge.__file__}, not from {SRC}")
    return sforge


def metric_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int, workload: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
    }
    if workload == "cli":
        import workloads

        env["cli_launcher"] = workloads.cli_launcher()[1]
    return env


# -- the closed loop --------------------------------------------------------


@dataclass
class Measurement:
    best: dict = field(default_factory=dict)  # job index -> fastest call, seconds
    calls: dict = field(default_factory=dict)  # job index -> number of calls
    failures: list = field(default_factory=list)
    attempted: int = 0
    searches: set = field(default_factory=set)  # indices of search jobs
    uncertified: set = field(default_factory=set)  # ... with a call that did not certify
    passes: int = 0
    wall_s: float = 0.0
    child_rss_kb: int = 0

    def job_best(self) -> list:
        """Each job's fastest call in the run.

        The jobs are deterministic, so calls differ only by interference.
        On a shared machine the interference comes in slices far shorter
        than a second: a 10 ms call repeated over a few seconds nearly
        always finds a clean slice, while the mean of those seconds can be
        up to 1.7x slower.  The fastest call is the job's own cost.  Only
        the fastest is kept, so the benchmark's memory does not grow with
        the number of calls.
        """
        return list(self.best.values())

    @property
    def job_geomean_ms(self) -> float:
        """Geometric mean of the jobs' fastest calls.

        Every job weighs the same, so the few jobs of a second or more,
        which get few calls and cannot dodge interference, do not set the
        number on their own, and a change that speeds one job by a factor
        moves it by the same amount whatever that job's size.
        """
        best = self.job_best()
        return math.exp(sum(math.log(x) for x in best) / len(best)) * 1e3


def measure(jobs, seconds: float, tracer=None) -> Measurement:
    """Run whole passes over ``jobs`` until ``seconds`` have elapsed.

    Used by the traced run, whose layer numbers are per pass.  Only the
    sforge call is timed; checks run after it, untraced.
    """
    m = Measurement()
    start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            call(m, i, job, tracer)
        m.passes += 1
        if time.perf_counter() - start >= seconds:
            break
    m.wall_s = time.perf_counter() - start
    return m


def measure_even(jobs, seconds: float, probe=None, probes: int = 0,
                 weights=None) -> Measurement:
    """Call ``jobs`` for ``seconds``, giving each the same timed time.

    The next call always goes to the job with the least timed time so
    far, after one call of each in list order.  A short job is thus
    called again and again, at moments spread over the whole run, and its
    fastest call finds a quiet moment even when the machine is busy for
    seconds at a time.  The fastest call also leaves out the first call's
    lazy table fills.  Every answer is checked, outside the timing.
    ``weights`` (default all 1) scale the shares.  ``probe`` is called
    ``probes`` times between calls, evenly spread over the run.
    """
    m = Measurement()
    weights = weights or [1] * len(jobs)
    queue = [(0.0, i) for i in range(len(jobs))]
    start = time.perf_counter()
    due = [start + seconds * (k + 0.5) / probes for k in range(probes)]
    while queue[0][0] == 0.0 or time.perf_counter() - start < seconds:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            probe()
            continue
        key, i = heapq.heappop(queue)
        heapq.heappush(queue, (key + call(m, i, jobs[i], None) / weights[i], i))
    for _ in due:
        probe()
    m.wall_s = time.perf_counter() - start
    return m


def call(m: Measurement, i: int, job, tracer) -> float:
    """One timed call of ``job`` and the check of its answer; returns the
    call's latency in seconds."""
    m.attempted += 1
    m.calls[i] = m.calls.get(i, 0) + 1
    t0 = time.perf_counter()
    try:
        result = tracer.job(job.name, job.run) if tracer else job.run()
        error = None
    except Exception as exc:  # a job that raises is a failed job
        error = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    m.best[i] = min(m.best.get(i, dt), dt)
    if error:
        m.failures.append(f"{job.name}: {error}")
        return dt
    if tracer:
        tracer.enabled = False
    try:
        error = job.check(result)
    except Exception as exc:  # a check that raises is a failed answer
        error = f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.enabled = True
    if error:
        m.failures.append(f"{job.name}: {error}")
    if job.certified is not None:
        m.searches.add(i)
        if error is not None or not job.certified(result):
            m.uncertified.add(i)
    m.child_rss_kb = max(m.child_rss_kb, getattr(result, "maxrss_kb", 0))
    return dt


def p90_or_none(values):
    if len(values) < P90_MIN_JOBS:
        return None
    p90 = statistics.quantiles(values, n=10)[8]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time importing sforge and generating the inputs."""
    t0 = time.perf_counter()
    import_sforge()
    if workload == "cli":
        import sforge.cli  # noqa: F401  the layer the cli workload starts
    import workloads

    workloads.WORKLOADS[workload](seed, workloads.load_frozen())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_once(workload: str, seed: int) -> float:
    """One fresh-process setup, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        die(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- end-to-end run ---------------------------------------------------------


def reference_loop() -> int:
    """A fixed millisecond of pure-Python work like sforge's own: integer
    bit tricks, small dicts and sets, calls.  It is the yardstick of the
    machine's speed during a run."""
    acc, seen, bits = 0, {}, set()
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFFF
        low = m & -m
        acc += low.bit_length() + m.bit_count()
        seen[m & 1023] = seen.get(m & 1023, 0) + 1
        if m & 7 == 0:
            bits.add(m >> 10)
    return acc + len(seen) + len(bits)


def reference_job(workloads, workload: str):
    """The yardstick job: the reference loop in-process, or for ``cli``,
    whose requests are child processes, a child that starts the
    interpreter and does nothing.  Child processes slow down under a busy
    neighbour more than in-process code does, so the in-process loop does
    not track them; sforge changes neither yardstick."""
    if workload == "cli":
        argv = [sys.executable, "-c", "pass"]
        env = workloads.child_env()
        return workloads.Job(  # returns the exit code only: not the requests' memory
            "reference child", lambda: workloads.run_child(argv, env).code,
            lambda code: None if code == 0 else f"reference child exited {code}")
    expected = reference_loop()
    return workloads.Job(
        "reference loop", reference_loop,
        lambda v: None if v == expected else f"reference loop gave {v}, not {expected}")


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.  The yardstick (``reference_job``) is scheduled
    like one more job, and the gated latencies are in units of its fastest
    call: on a shared machine a neighbour can slow every call by 1.5x for
    a whole run, and such a slowdown slows the yardstick alike.  The same
    numbers in ms are reported beside them.  ``setup_s`` is the median of
    fresh-process setups spread over the run, so that one busy stretch does
    not set it."""
    import workloads

    jobs = workloads.WORKLOADS[workload](seed, workloads.load_frozen())
    setups = []
    m = measure_even(jobs + [reference_job(workloads, workload)], seconds,
                     lambda: setups.append(setup_once(workload, seed)), SETUP_PROBES,
                     [1] * len(jobs) + [REFERENCE_WEIGHT])
    ref_ms = m.best.pop(len(jobs)) * 1e3
    m.attempted -= m.calls.pop(len(jobs))
    setup_s = statistics.median(setups)
    geomean_ms = m.job_geomean_ms
    p50_ms = statistics.median(m.job_best()) * 1e3
    if workload == "cli":
        rss_kb = m.child_rss_kb  # the largest child's
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = p90_or_none(m.job_best())
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_geomean_ref": (geomean_ms / ref_ms, "ref"),
        "job_p50_ref": (p50_ms / ref_ms, "ref"),
        "job_geomean_ms": (geomean_ms, "ms"),
        "job_p50_ms": (p50_ms, "ms"),
        "reference_ms": (ref_ms, "ms"),
        "jobs_per_s": (len(m.best) / sum(m.job_best()), "1/s"),
        "job_p90_ms": (None if p90 is None else p90 * 1e3, "ms"),
        "failed_frac": (len(m.failures) / m.attempted, "fraction"),
        "certified_frac": (1 - len(m.uncertified) / len(m.searches) if m.searches else None,
                           "fraction"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return {"measurement": m, "metrics": metrics}


# -- traced run -------------------------------------------------------------


def _hit_probe(tr, args, kwargs, result, dur):
    stop_at = kwargs.get("stop_at", args[1] if len(args) > 1 else None)
    if stop_at is not None and len(result) >= stop_at:
        tr.count("max_disjoint.hits")


def _global_probe(tr, args, kwargs, result, dur):
    tr.count(f"check_global.{result.mode}_s", dur)
    if result.mode == "exhaustive":
        F = args[0]
        tr.count("check_global.cells", (1 << F.ground.n) * len(F.members))


def _counter(key, value_of):
    def probe(tr, args, kwargs, result, dur):
        tr.count(key, value_of(result))
    return probe


def install_tracer(tracer) -> None:
    from sforge import boolean, bounds, domains, family, packing, pipelines, spread, sunflowers

    tracer.patch(packing, "max_disjoint", "packing.max_disjoint", _hit_probe)
    tracer.patch(sunflowers, "find_sunflower", "sunflowers.find_sunflower")
    tracer.patch(sunflowers, "max_sunflower_free", "sunflowers.max_sunflower_free",
                 _counter("search.nodes", lambda r: r.nodes))
    tracer.patch(sunflowers, "phi_exact", "sunflowers.phi_exact")
    tracer.patch(bounds, "verify_instance", "bounds.verify_instance")
    tracer.patch(bounds, "bound_rhs", "bounds.bound_rhs")
    tracer.patch(boolean, "check_global", "boolean.check_global", _global_probe)
    tracer.patch(spread, "spread_lemma_mc", "spread.spread_lemma_mc",
                 _counter("mc.trials", lambda r: r.trials))
    tracer.patch(spread, "check_spread", "spread.check_spread")
    tracer.patch(spread, "remove_elements_spread", "spread.remove_elements_spread")
    tracer.patch(domains, "check_rt_spread", "domains.check_rt_spread")
    tracer.patch(domains, "check_tau_homogeneous", "domains.check_tau_homogeneous")
    tracer.patch(domains.Domain, "binomial", "domains.Domain.binomial")
    tracer.patch(family.SetFamily, "from_sets", "family.SetFamily.from_sets")
    for fn in ("spread_approximation", "reduce_intersections", "cluster_system",
               "down_closed_cover", "simplify", "peel_high_uniformity", "delta_filter"):
        probe = {
            "delta_filter": _counter("delta_filter.rounds", lambda r: r.rounds),
            "spread_approximation": _counter("spread_approximation.parts",
                                             lambda r: len(r.parts)),
            "peel_high_uniformity": _counter("peel_high_uniformity.extractions",
                                             lambda r: len(r.extractions)),
        }.get(fn)
        tracer.patch(pipelines, fn, f"pipelines.{fn}", probe)


def src_lines() -> dict:
    out = {}
    for path in sorted((SRC / "sforge").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out[path.stem] = sum(1 for _ in fh)
    out["total"] = sum(out.values())
    return out


def layer_metrics(tr, setup_tr, passes: int) -> dict:
    """Per-pass layer numbers from a traced run (setup spans separately)."""
    per = 1 / passes
    c = tr.counters
    jobs_s = sum(st[1] for name, st in tr.stats.items() if name.startswith("job:"))
    md_calls = tr.calls("packing.max_disjoint")
    msf_s = tr.total_ms("sunflowers.max_sunflower_free") / 1e3
    mc_s = tr.total_ms("spread.spread_lemma_mc") / 1e3
    out = {
        "packing.max_disjoint.calls": md_calls * per,
        "packing.max_disjoint.self_ms": tr.self_ms("packing.max_disjoint") * per,
        "packing.max_disjoint.us_per_call":
            tr.total_ms("packing.max_disjoint") * 1e3 / md_calls if md_calls else 0.0,
        "packing.max_disjoint.hit_frac": c.get("max_disjoint.hits", 0) / md_calls if md_calls else 0.0,
        "packing.max_disjoint.job_share":
            tr.self_ms("packing.max_disjoint") / 1e3 / jobs_s if jobs_s else 0.0,
        "sunflowers.search.nodes": c.get("search.nodes", 0) * per,
        "sunflowers.search.nodes_per_s": c.get("search.nodes", 0) / msf_s if msf_s else 0.0,
        "sunflowers.max_sunflower_free.self_ms": tr.self_ms("sunflowers.max_sunflower_free") * per,
        "sunflowers.find_sunflower.calls": tr.calls("sunflowers.find_sunflower") * per,
        "sunflowers.find_sunflower.self_ms": tr.self_ms("sunflowers.find_sunflower") * per,
        "bounds.verify_instance.self_ms": tr.self_ms("bounds.verify_instance") * per,
        "bounds.bound_rhs.calls": tr.calls("bounds.bound_rhs") * per,
        "boolean.check_global.exhaustive_ms": c.get("check_global.exhaustive_s", 0) * 1e3 * per,
        "boolean.check_global.diagonal_ms": c.get("check_global.diagonal_s", 0) * 1e3 * per,
        "boolean.check_global.cells": c.get("check_global.cells", 0) * per,
        "spread.spread_lemma_mc.trials_per_s": c.get("mc.trials", 0) / mc_s if mc_s else 0.0,
        "spread.spread_lemma_mc.self_ms": tr.self_ms("spread.spread_lemma_mc") * per,
        "spread.check_spread.calls": tr.calls("spread.check_spread") * per,
        "spread.check_spread.self_ms": tr.self_ms("spread.check_spread") * per,
        "spread.remove_elements_spread.self_ms": tr.self_ms("spread.remove_elements_spread") * per,
        "domains.check_rt_spread.self_ms": tr.self_ms("domains.check_rt_spread") * per,
        "domains.check_tau_homogeneous.self_ms": tr.self_ms("domains.check_tau_homogeneous") * per,
        "domains.Domain.binomial.ms": setup_tr.total_ms("domains.Domain.binomial"),
        "family.SetFamily.from_sets.ms": setup_tr.total_ms("family.SetFamily.from_sets"),
        "pipelines.delta_filter.rounds": c.get("delta_filter.rounds", 0) * per,
        "pipelines.spread_approximation.parts": c.get("spread_approximation.parts", 0) * per,
        "pipelines.peel_high_uniformity.extractions":
            c.get("peel_high_uniformity.extractions", 0) * per,
    }
    for fn in ("spread_approximation", "reduce_intersections", "cluster_system",
               "down_closed_cover", "simplify", "peel_high_uniformity", "delta_filter"):
        out[f"pipelines.{fn}.self_ms"] = tr.self_ms(f"pipelines.{fn}") * per
    return out


def _child_ms(argv, env) -> tuple[float, str]:
    import workloads

    t0 = time.perf_counter()
    res = workloads.run_child(argv, env)
    if res.code != 0:
        die(f"{argv[:3]} exited {res.code}")
    return (time.perf_counter() - t0) * 1e3, res.stderr.decode()


def _import_times(stderr: str) -> dict:
    """Cumulative microseconds per top-level module from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative)
    return out


def cli_layers(jobs, seconds: float, tr) -> tuple[dict, Measurement, float]:
    """The cli workload's layers: process start, imports and dispatch from
    child processes, and the scenario runner in-process with its op table
    traced.  Returns the layer numbers, the request loop and the tracing
    overhead of the in-process scenario."""
    import workloads
    from sforge import scenario

    env = workloads.child_env()
    probes = 5  # best of, like the requests themselves
    interp = min(_child_ms([sys.executable, "-c", "pass"], env)[0] for _ in range(probes))
    bare = min(_child_ms([sys.executable, "-c", "import sforge.cli"], env)[0]
               for _ in range(probes))
    imports, numpy_imports = [], []
    for _ in range(probes):
        _, err = _child_ms([sys.executable, "-X", "importtime", "-c", "import sforge.cli"], env)
        times = _import_times(err)
        imports.append(times.get("sforge.cli", 0) / 1e3)
        numpy_imports.append(times.get("numpy", 0) / 1e3)
    m = measure(jobs, seconds)
    p50 = statistics.median(m.job_best()) * 1e3

    path = str(ROOT / workloads.SCENARIO)
    runs = 20
    scenario.run_scenario(path)  # warm: lazy tables and imports
    t0 = time.perf_counter()
    for _ in range(runs):
        scenario.run_scenario(path)
    untraced = time.perf_counter() - t0
    tr.patch_table(scenario._OPS, "scenario.run_scenario.")
    t0 = time.perf_counter()
    for _ in range(runs):
        m.attempted += 1
        result = tr.job("run_scenario", lambda: scenario.run_scenario(path))
        if result.exit_code != 0:
            m.failures.append(f"in-process scenario exited {result.exit_code}")
    traced = time.perf_counter() - t0
    out = {
        "cli.interpreter_ms": interp,
        "cli.import_ms": min(imports),
        "cli.import_numpy_ms": min(numpy_imports),
        # wall clock on both sides: -X importtime inflates the import itself
        "cli.dispatch_ms": p50 - bare,
    }
    for name, st in tr.stats.items():
        if name.startswith("scenario.run_scenario."):
            out[name + "_ms"] = st[1] * 1e3 / runs
    return out, m, 1 - untraced / traced


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer numbers: input generation traced on its own, then the
    jobs traced for ``seconds``.  The overhead compares with an untraced
    run of half that length over a separately generated job list."""
    import workloads
    from tracer import Tracer

    frozen = workloads.load_frozen()
    make = workloads.WORKLOADS[workload]
    setup_tr, tr = Tracer(), Tracer()
    try:
        base_jobs = make(seed, frozen)
        install_tracer(setup_tr)
        jobs = setup_tr.job("setup", lambda: make(seed, frozen))
        setup_tr.uninstall()
        if workload == "cli":
            out, m, overhead = cli_layers(jobs, seconds, tr)
        else:
            base = measure(base_jobs, seconds / 2)
            install_tracer(tr)
            m = measure(jobs, seconds, tr)
            tr.uninstall()
            overhead = 1 - sum(base.job_best()) / sum(m.job_best())
            m.failures += base.failures
            m.attempted += base.attempted
            out = {}
    finally:
        setup_tr.uninstall()
        tr.uninstall()
    layers = layer_metrics(tr, setup_tr, m.passes)
    layers.update(out)
    lines = src_lines()
    layers["src.lines"] = lines.pop("total")
    for module, count in lines.items():
        layers[f"src.lines.{module}"] = count
    layers["trace.overhead_frac"] = overhead
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
    return {"measurement": m, "layers": layers}


# -- output -----------------------------------------------------------------


def emit(workload: str, seed: int, trace: int, m: Measurement, values: dict, spec_key: str,
         extra: dict) -> None:
    spec = metric_spec()[spec_key]
    metrics = {}
    for entry in spec:
        name = entry["name"]
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": environment(seed, workload),
        **({"passes": m.passes} if m.passes else {}),
        "fewest_calls": min(m.calls.values()),
        "wall_s": m.wall_s,
        "jobs": len(m.best),
        "failures": m.failures[:20],
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> None:
    import_sforge()
    if trace:
        res = traced_run(workload, seed, seconds)
        layers = res["layers"]
        note = {}
        if workload == "extremal":
            note["packing_share_vs_roadmap"] = (
                f"packing.max_disjoint self time is {layers['packing.max_disjoint.job_share']:.3f}"
                f" of extremal job time; ROADMAP states {ROADMAP_PACKING_SHARE:.2f}"
            )
        emit(workload, seed, trace, res["measurement"], layers, "per_layer", note)
        return
    res = end_to_end(workload, seed, seconds)
    values = {name: v for name, (v, _) in res["metrics"].items()}
    all_metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    emit(workload, seed, trace, res["measurement"], values, "end_to_end",
         {"all_metrics": all_metrics})


# -- report and smoke -------------------------------------------------------


def report(seed: int, seconds: float) -> int:
    """Run every workload untraced and print every end-to-end metric."""
    status = 0
    rows = []
    for workload in ("extremal", "certify", "decompose", "cli"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}\n{proc.stderr[-800:]}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((workload, detail, result))
        if not result["correct"]:
            status = 1
    for workload, detail, result in rows:
        env = detail["env"]
        print(f"== {workload}  seed={seed}  jobs={detail['jobs']}  calls={result['attempted']}"
              f"  nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
              f" click={env['click']}" + (f" launcher={env['cli_launcher']}"
                                          if "cli_launcher" in env else ""))
        for name, entry in detail["all_metrics"].items():
            value = entry["value"]
            if value is None:
                why = (f"n/a ({detail['jobs']} jobs; needs {P90_MIN_JOBS})"
                       if name == "job_p90_ms" else "n/a (no searches)")
                print(f"   {name:16s} {why}")
            else:
                print(f"   {name:16s} {value:12.4f} {entry['unit']}")
        for failure in detail["failures"]:
            print(f"   FAILED {failure}")
    return status


def smoke(seed: int) -> int:
    """Each workload once at minimum size; each checker must catch a
    deliberately corrupted answer."""
    import_sforge()
    import workloads

    frozen = workloads.load_frozen()
    status = 0
    for workload, make in workloads.WORKLOADS.items():
        jobs = make(seed, frozen, small=True)
        m = measure(jobs, 0)
        for failure in m.failures:
            print(f"{workload}: FAILED {failure}")
        caught = None
        for job in jobs:
            bad = workloads.corrupt(job.run())
            if bad is not None:
                caught = job.check(bad)
                break
        ok = not m.failures and caught is not None
        status |= not ok
        print(f"{workload}: {len(jobs)} jobs, {len(m.failures)} failed; corrupted answer "
              + (f"flagged: {caught}" if caught else "NOT flagged"))
    print("smoke " + ("ok" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("extremal", "certify", "decompose", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.report:
        return report(args.seed, args.seconds or metric_spec()["run_seconds"])
    if args.smoke:
        return smoke(args.seed)
    if not args.workload:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    seconds = args.seconds if args.seconds is not None else metric_spec()["run_seconds"]
    run_once(args.workload, args.seed, seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
