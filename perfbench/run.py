"""Client round-trip benchmark for satcloak.

    python3 perfbench/run.py --workload sat-iso --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from a checkout: the library is imported from ``src/`` next to this
directory and nowhere else.  One client works in a closed loop: it starts
the next instance only after the previous round trip (randomize, provider,
verify the honest answer, verify a tampered one) is done.  Whole cycles
over the workload's size classes run until ``--seconds`` are used, so every
size class has the same number of samples.  BLAS/OpenMP threads are
pinned to 1.

Client phases are timed in CPU seconds of this process
(``time.process_time``), which leaves out time the process is descheduled.
On a shared host the CPU itself also runs faster or slower for seconds to
minutes at a time, by up to half.  So right before every timed phase the
benchmark times a fixed reference kernel that does not call the library
(``ReferenceKernel``), and the end-to-end times are given at reference
speed: the phase's CPU seconds times ``REF_NOMINAL_S`` over the kernel's
time.  The raw CPU seconds and the kernel's median time are in the summary
line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
summary with the run's metadata, a per-size-class table of raw times and
sizes, and a digest of every artifact and key.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: the median CPU time of five fresh processes that each start
  the interpreter, import the library and run the warm-up, one fully
  checked round trip per size class at tiny sizes (the self-test), each
  scaled by the kernel's time right before it.  The measuring process runs
  the same warm-up before timing;
* ``randomize_s.p50``, ``verify_s.p50``, ``reject_s.p50``: client time per
  instance, the geometric mean over the size classes of each class's
  median, so every size class weighs the same.
  Randomize runs from original text to artifact text and key JSON; verify
  from key JSON, original text and the honest answer line to the accepted
  assignment; reject is the same path for the tampered answer;
* ``instances_per_s``: round trips per second of randomize plus verify
  time, one instance of each size class at its class's median time, so
  weighted toward the largest size;
* ``artifact_bytes`` and ``key_bytes``: mean per instance;
* ``client_peak_rss_mb``: per instance, the peak resident memory of the
  client phases above what the process held before them, measured in a
  fresh process that gets the original texts and the provider's answer
  lines and does only the client's work (``--client-memory``); the median
  of each size class averaged over the classes, over the instances of the
  first ``MEMORY_CYCLES`` cycles, after timing;
* ``success_rate``: one minus failed over attempted operations (three per
  instance).  Any failure also sets ``correct`` to false and the exit
  code to 1.

``--trace 1`` runs every instance twice, untraced and traced, alternating
which goes first, and reports per instance: busy CPU seconds
(``<span>.s``), calls and errors of every span, the client phases' self
time, the size counters, and the tracing overhead from the paired
differences.  Per-layer times are raw CPU seconds.  The spans go to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from tracing import Tracer

THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Spans reported by the traced run, each a public call the client makes,
# plus the provider's forward map, which is not client time.
SPANS = (
    "cnf.parse_dimacs",
    "cnf.validate",
    "cnf.emit_dimacs",
    "cnf.to_three_cnf",
    "isomorph.iso_randomize",
    "matrixrand.encode_linear",
    "matrixrand.randomize_system",
    "matrixrand.emit_opb",
    "solsetrand.gf_randomize",
    "objective.max3sat_to_mincost",
    "objective.parse_cost_sidecar",
    "objective.emit_cost_sidecar",
    "objective.randomize_mincost",
    "objective.derandomize_mincost",
    "orchestrator.make_record",
    "orchestrator.record_to_json",
    "orchestrator.record_from_json",
    "orchestrator.validate_solution",
    "provider.forward",
)
PHASES = ("randomize", "verify", "reject")
SIZES = (
    "original_vars",
    "original_clauses",
    "three_vars",
    "circuit_gates",
    "artifact_vars",
    "artifact_clauses",
    "artifact_nonzeros",
    "substitution_nonzeros",
)
SETUP_REPS = 5
MEMORY_CYCLES = 2
# CPU seconds the reference kernel takes at reference speed.  On a 2-vCPU
# Intel Xeon VM with Python 3.11 and numpy 2.4 its median over a run was
# 0.015-0.022 s, depending on the load other tenants put on the host.
REF_NOMINAL_S = 0.015


class ReferenceKernel:
    """Fixed work in the same kinds of operation as the client that never
    calls the library, so a change to the library leaves its time alone.
    About 60% is Python text and dict work (parse a 3CNF text into
    integers, rename its variables, write it back out) and the rest a numpy
    integer matrix product; on a shared 2-vCPU host the two parts drift
    differently, and their sum tracks every workload better than either
    one."""

    def __init__(self):
        rng = np.random.default_rng(20250521)
        self.num_vars = 2000
        lits = rng.integers(1, self.num_vars + 1, size=(4250, 3))
        lits *= rng.choice((-1, 1), size=lits.shape)
        self.text = "".join(f"{a} {b} {c} 0\n" for a, b, c in lits.tolist())
        self.left = rng.integers(-3, 4, size=(160, 240))
        self.right = rng.integers(-3, 4, size=(240, 160))

    def __call__(self) -> float:
        """CPU seconds of one run of the kernel."""
        gc.collect()
        t0 = time.process_time()
        rows = [tuple(map(int, ln.split())) for ln in self.text.splitlines()]
        rename = {v: (v * 7919) % self.num_vars + 1
                  for v in range(1, self.num_vars + 1)}
        out = "".join(f"{rename[abs(a)]} {rename[abs(b)]} {rename[abs(c)]} 0\n"
                      for a, b, c, _ in rows)
        total = int(np.abs(self.left @ self.right).sum())
        elapsed = time.process_time() - t0
        if out.count("\n") != len(rows) or total <= 0:
            raise RuntimeError("reference kernel gave a wrong result")
        return elapsed


def _import_library():
    """Import satcloak from this checkout's ``src`` only."""
    if not (SRC / "satcloak" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'satcloak'} not found; run from a satcloak checkout")
    sys.path.insert(0, str(SRC))
    import satcloak

    if Path(satcloak.__file__).resolve().parent != SRC / "satcloak":
        sys.exit(f"error: imported satcloak from {satcloak.__file__}, not {SRC}")
    import client

    return client


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Sample:
    """One instance's round trip."""

    def __init__(self, label: str, ident: int):
        self.label = label
        self.ident = ident
        self.times = dict.fromkeys(PHASES, 0.0)
        self.ref_s = dict.fromkeys(PHASES, REF_NOMINAL_S)
        self.answers: tuple[str, str] | None = None
        self.peak_bytes: int | None = None
        self.failed = 0
        self.artifact_bytes = 0
        self.key_bytes = 0
        self.digest = ""
        self.sizes: dict[str, int] = {}

    def at_ref_speed(self, phase: str) -> float:
        return self.times[phase] * REF_NOMINAL_S / self.ref_s[phase]


@contextmanager
def _phase(sample: Sample, phase: str, ref):
    """Time one client phase in CPU seconds, after the reference kernel
    ``ref`` when one is given.  The phase starts right after a full garbage
    collection, so the collector's pauses inside it depend on its own
    allocations and not on what ran before it."""
    if ref is not None:
        sample.ref_s[phase] = ref()
    gc.collect()
    t0 = time.process_time()
    yield
    sample.times[phase] = time.process_time() - t0


def round_trip(client, cls, seed: int, ident: int, tr, ref=None) -> Sample:
    """Generate, randomize, provide, verify and reject one instance.

    Only the three client phases are timed.  A wrong result or an
    unexpected exception counts as a failed operation.
    """
    sample = Sample(cls.label, ident)
    inst = client.make_instance(cls, seed, ident)
    tr.instance = ident
    phase = "randomize"
    try:
        with _phase(sample, phase, ref), tr.span("client.randomize"):
            d = client.randomize(inst, tr)
        client.record_sizes(d)
        sample.sizes = d.sizes
        sample.artifact_bytes = sum(len(t) for t in d.artifact_texts)
        sample.key_bytes = len(d.key)
        sample.digest = d.digest()
        phase = "verify"
        honest, tampered, expected = client.provide(inst, d, tr)
        sample.answers = honest, tampered
        d.release()
        for phase, answer in (("verify", honest), ("reject", tampered)):
            with _phase(sample, phase, ref), tr.span(f"client.{phase}"):
                result = client.verify(d, answer, tr)
            ok = (client.accepted_correctly(result, expected)
                  if phase == "verify" else result is None)
            if not ok:
                print(f"error: {cls.label} instance {ident}: {phase} gave "
                      f"the wrong result", file=sys.stderr)
                sample.failed += 1
    except Exception:
        print(f"error: {cls.label} instance {ident} failed in {phase}",
              file=sys.stderr)
        traceback.print_exc()
        sample.failed += len(PHASES) - PHASES.index(phase)
    return sample


def run_cycles(client, workload, seed: int, tracers, budget_s: float, ref=None):
    """Whole cycles over the workload's size classes, as many as fit
    ``budget_s`` (at least one).

    Every instance runs once per tracer; with two tracers, which goes first
    alternates from one instance to the next.  Returns one list of samples
    per tracer and the number of cycles.
    """
    runs = [[] for _ in tracers]
    start = time.perf_counter()
    done = 0
    ident = 0
    while True:
        if done:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / done >= budget_s:
                break
        for cls in workload.cycle:
            order = list(range(len(tracers)))
            if ident % 2:
                order.reverse()
            for k in order:
                runs[k].append(
                    round_trip(client, cls, seed, ident, tracers[k], ref))
            ident += 1
        done += 1
    return runs, done


def _class_medians(samples, value) -> list[float]:
    by_class: dict[str, list[float]] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(value(s))
    return [statistics.median(v) for v in by_class.values()]


def _class_table(samples, tr) -> dict:
    """Per size class: raw phase medians, bytes, size counters and, when
    traced, the mean busy seconds of each span per instance."""
    table = {}
    for label in dict.fromkeys(s.label for s in samples):
        group = [s for s in samples if s.label == label]
        row = {"instances": len(group)}
        for phase in PHASES:
            row[f"{phase}_s.p50"] = statistics.median(s.times[phase] for s in group)
        row["artifact_bytes"] = statistics.fmean(s.artifact_bytes for s in group)
        row["key_bytes"] = statistics.fmean(s.key_bytes for s in group)
        for name in SIZES:
            values = [s.sizes[name] for s in group if name in s.sizes]
            if values:
                row[f"sizes.{name}"] = statistics.fmean(values)
        if tr.enabled:
            totals = tr.totals({s.ident for s in group})
            row["stages_s"] = {k: t["busy"] / len(group) for k, t in totals.items()}
        table[label] = row
    return table


def _peak_mb(samples) -> float:
    measured = [s for s in samples if s.peak_bytes is not None]
    if not measured:
        return 0.0
    return statistics.fmean(_class_medians(measured, lambda s: s.peak_bytes)) / 2**20


def _ref_p50(samples) -> float:
    return statistics.median(s.ref_s[p] for s in samples for p in PHASES)


def _run_digest(samples) -> str:
    return hashlib.sha256("".join(s.digest for s in samples).encode()).hexdigest()


def _client_s(sample) -> float:
    return sum(sample.times.values())


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(samples, setup_times) -> dict:
    """End-to-end metrics, every time at reference speed."""
    setup_s = statistics.median(t * REF_NOMINAL_S / r for t, r in setup_times)
    attempted = len(PHASES) * len(samples)
    failed = sum(s.failed for s in samples)
    round_trip_s = _class_medians(
        samples, lambda s: s.at_ref_speed("randomize") + s.at_ref_speed("verify"))
    return {
        "setup_s": _metric(setup_s, "s"),
        **{f"{phase}_s.p50": _metric(statistics.geometric_mean(
            _class_medians(samples, lambda s: s.at_ref_speed(phase))), "s")
           for phase in PHASES},
        "instances_per_s": _metric(len(round_trip_s) / sum(round_trip_s), "1/s"),
        "artifact_bytes": _metric(
            statistics.fmean(s.artifact_bytes for s in samples), "bytes"),
        "key_bytes": _metric(statistics.fmean(s.key_bytes for s in samples), "bytes"),
        "client_peak_rss_mb": _metric(_peak_mb(samples), "MB"),
        "success_rate": _metric(1.0 - failed / attempted, "ratio"),
    }


def _per_layer(tr, traced, untraced) -> dict:
    n = len(traced)
    totals = tr.totals()
    metrics = {}
    for name in SPANS:
        t = totals.get(name, {"busy": 0.0, "calls": 0, "errors": 0})
        metrics[f"{name}.s"] = _metric(t["busy"] / n, "s")
        metrics[f"{name}.calls"] = _metric(t["calls"] / n, "count")
        metrics[f"{name}.errors"] = _metric(t["errors"] / n, "count")
    for phase in PHASES:
        t = totals[f"client.{phase}"]
        metrics[f"client.{phase}.s"] = _metric(t["busy"] / n, "s")
        metrics[f"client.{phase}.self_s"] = _metric(t["self"] / n, "s")
    for name in SIZES:
        metrics[f"sizes.{name}"] = _metric(
            statistics.fmean(s.sizes.get(name, 0) for s in traced), "count")
    # Each instance ran untraced and traced back to back, so the paired
    # differences leave out the host's slower drifts in speed.
    diffs = [_client_s(t) - _client_s(u) for u, t in zip(untraced, traced)]
    base = sum(_client_s(u) for u in untraced)
    metrics["trace.instances"] = _metric(n, "count")
    metrics["trace.overhead_s"] = _metric(statistics.fmean(diffs), "s")
    metrics["trace.overhead_pct"] = _metric(100.0 * sum(diffs) / base, "%")
    return metrics


def _warm_up(client, workload, seed: int) -> list:
    """One checked round trip per tiny size class: the self-test."""
    return [round_trip(client, cls, seed, -1 - k, Tracer(False))
            for k, cls in enumerate(workload.warmup)]


def _setup_times(workload: str, seed: int, ref) -> list[tuple[float, float]]:
    """CPU seconds (user plus system) of fresh processes that each start
    the interpreter, import the library and run the workload's warm-up,
    each with the reference kernel's time right before it.  A failed set-up
    fails the run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--self-test",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPS):
        ref_s = ref()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append((after.ru_utime - before.ru_utime
                      + after.ru_stime - before.ru_stime, ref_s))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"set-up of {workload} failed")
    return times


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def client_memory(client) -> int:
    """``--client-memory``: run one instance's client phases from the job
    on stdin and print their peak resident memory above the process's
    resident memory before them, the disguise's digest and whether the
    honest answer was accepted and the tampered one rejected."""
    job = json.load(sys.stdin)
    inst = client.Instance(
        cls=client.SizeClass(job["kind"], job["size"]), num_vars=0, lits=None,
        x=None, costs=None, seed=job["seed"], text=job["text"],
        costs_text=job["costs_text"])
    honest, tampered = job.pop("answers")
    tr = Tracer(False)
    gc.collect()
    base = _rss_bytes()
    d = client.randomize(inst, tr)
    digest = d.digest()
    d.release()
    d.artifact_texts = []  # sent to the provider
    gc.collect()
    accepted = client.verify(d, honest, tr) is not None
    rejected = client.verify(d, tampered, tr) is None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - base
    print(json.dumps({"peak_bytes": peak, "digest": digest,
                      "accepted": accepted, "rejected": rejected}))
    return 0


def _measure_memory(client, cls, seed: int, sample: Sample) -> None:
    """Set ``sample.peak_bytes`` from a ``--client-memory`` process, which
    must produce the same disguise and the same verdicts; a process that
    does not fails the sample."""
    if sample.failed:
        return
    inst = client.make_instance(cls, seed, sample.ident)
    job = {"kind": cls.kind, "size": cls.size, "seed": inst.seed,
           "text": inst.text, "costs_text": inst.costs_text,
           "answers": sample.answers}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--client-memory"],
        input=json.dumps(job), cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = (proc.returncode == 0 and result["digest"] == sample.digest
              and result["accepted"] and result["rejected"])
    except (IndexError, ValueError, KeyError):
        ok = False
    if not ok:
        print(f"error: {cls.label} instance {sample.ident}: the client-memory "
              f"process differs\n{proc.stderr}", file=sys.stderr)
        sample.failed = len(PHASES)
        return
    sample.peak_bytes = result["peak_bytes"]


def self_test(names, seed: int) -> int:
    client = _import_library()
    failed = 0
    for name in names:
        samples = _warm_up(client, client.WORKLOADS[name], seed)
        bad = sum(s.failed for s in samples)
        print(f"{name}: {len(samples)} round trips, {bad} failed")
        failed += bad
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the warm-up of --workload (default: all) and exit")
    ap.add_argument("--client-memory", action="store_true",
                    help="measure one instance's client phases, job on stdin")
    args = ap.parse_args(argv)
    os.environ.update(THREAD_PINS)
    client = _import_library()
    if args.client_memory:
        return client_memory(client)
    if args.workload is not None and args.workload not in client.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(client.WORKLOADS)}")
    if args.self_test:
        return self_test([args.workload] if args.workload else client.WORKLOADS,
                         args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    workload = client.WORKLOADS[args.workload]
    warm = _warm_up(client, workload, args.seed)

    if args.trace:
        tr = Tracer(True)
        (untraced, samples), cycles = run_cycles(
            client, workload, args.seed, [Tracer(False), tr], args.seconds)
        same = [a.digest for a in untraced] == [b.digest for b in samples]
        if not same:
            print("error: traced and untraced digests differ", file=sys.stderr)
        metrics = _per_layer(tr, samples, untraced)
        metrics["trace.digests_match"] = _metric(int(same), "count")
        measured = untraced + samples
    else:
        tr = Tracer(False)
        ref = ReferenceKernel()
        ref()
        setup_times = _setup_times(workload.name, args.seed, ref)
        (samples,), cycles = run_cycles(
            client, workload, args.seed, [tr], args.seconds, ref)
        for k, s in enumerate(samples[:MEMORY_CYCLES * len(workload.cycle)]):
            _measure_memory(client, workload.cycle[k % len(workload.cycle)],
                            args.seed, s)
        same = True
        metrics = _end_to_end(samples, setup_times)
        measured = samples

    failed = sum(s.failed for s in warm + measured)
    attempted = len(PHASES) * len(warm + measured)
    correct = failed == 0 and same
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "instances": len(samples),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "digest": _run_digest(samples),
        "classes": _class_table(samples, tr),
    }
    if not args.trace:
        summary["setup_s.runs"] = setup_times
        summary["ref_s.p50"] = _ref_p50(samples)
        summary["ref_nominal_s"] = REF_NOMINAL_S
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}-{args.seed}.json"
        trace_file.write_text(json.dumps({"summary": summary, "spans": tr.records()}))
        summary["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
