#!/usr/bin/env python3
"""Benchmark of the escalier CLI on fixed request lists.

Run from the repository root:

    python3 bench/run.py                       # every workload, all metrics
    python3 bench/run.py --workload census-stable --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload gf-exact --trace 1     # per-layer metrics
    python3 bench/selftest.py                  # harness self-test, tiny inputs

Every request runs through ``escalier.cli.run`` in its own fresh child
process, one at a time (a closed loop with one client), so each request pays
what a CLI user pays: interpreter start, imports and cold in-process caches.
A pass runs the workload's whole request list; passes repeat until the next
one would end after ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``, per workload).  ``wall_s``, ``solve_s`` and ``slowest_s``
are each the minimum over the run's passes, taken per metric; ``setup_s`` is
the median over all requests.  A fixed calibration loop runs in the parent
before each request, and the four times are reported in calibrated seconds:
seconds on a machine where that loop takes ``CAL_NOMINAL_S``, so that a
machine that is slow for a whole run does not read as a slower program.  The
times as measured are printed on a ``# uncalibrated:`` line.  The parent
checks every answer against ``bench/reference.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and one traced pass (see ``bench/tracing.py``) and prints the per-layer
metrics, the tracing overhead among them; the spans are written to
``.bench_trace/``.

The seed shuffles the request order of every pass; every seed runs the
same named points, because the cost of a census grows steeply with p and a
moved point would read as run-to-run noise.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A request fails on an
unexpected exit code, a time-out or an answer that disagrees with the
reference table; ``correct`` is false only for a wrong answer.  A failed
request is charged its own time plus the workload's per-request time limit in
``wall_s``, ``solve_s`` and ``slowest_s``, so fixing a crash never reads as a
slowdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
TRACE_DIR = ROOT / ".bench_trace"
# A traced child is slower; its deadline is this multiple of the limit.
TRACED_LIMIT_FACTOR = 4
# The speed of the shared 2-vCPU VMs this benchmark was written on drifts by
# up to 1.8x over tens of seconds, for every process alike, so that whole
# 30-second runs can be slow.  The end-to-end times are therefore scaled to
# seconds on a machine where a fixed calibration loop takes CAL_NOMINAL_S,
# using the first quartile of the loop's times over the run (see
# end_to_end_metrics).
CAL_TOP = 1000
CAL_NOMINAL_S = 0.04


# -- requests and workloads ----------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One escalier command line and how its answer is checked."""

    argv: tuple[str, ...]
    check: str  # "total", "listing", "verify" or "digest"
    key: str  # entry of the reference table ("" for verify)

    def __str__(self) -> str:
        return " ".join(self.argv)


def census_key(n: int, klass: str, p: int) -> str:
    return f"{n} {klass} {p}"


@dataclass(frozen=True)
class Spec:
    """A request at its named point."""

    command: str  # count | list | verify | gf
    n: int = 0
    klass: str = "stable"
    p: int = 0  # Hilbert constant, or --max-p for verify
    gf_args: tuple[str, ...] = ()

    def request(self) -> Request:
        p = self.p
        common = ("--vars", str(self.n), "--class", self.klass)
        if self.command == "count":
            argv = ("count", *common, "--hilbert", str(p))
            check, key = "total", census_key(self.n, self.klass, p)
        elif self.command == "list":
            argv = ("list", *common, "--hilbert", str(p))
            check, key = "listing", census_key(self.n, self.klass, p)
        elif self.command == "verify":
            argv = ("verify", *common, "--max-p", str(p))
            check, key = "verify", ""
        else:
            argv = ("gf", *self.gf_args)
            check, key = "digest", " ".join(self.gf_args)
        return Request(argv + ("--format", "json"), check, key)


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-request time limit
    specs: tuple[Spec, ...]


def gf_spec(*args: str) -> Spec:
    return Spec("gf", gf_args=args)


# The per-request limits are a few times the slowest request of each list;
# they are what a failed request is charged.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("census-stable", 20.0, tuple(
            Spec("count", 3, "stable", p) for p in (60, 80, 100))),
        Workload("census-sstable", 30.0, tuple(
            Spec("count", 3, "strongly-stable", p) for p in (20, 30, 40))),
        Workload("list-verify", 5.0, (
            Spec("list", 3, "stable", 20),
            Spec("list", 3, "strongly-stable", 20),
            Spec("list", 2, "stable", 50),
            Spec("verify", 3, "stable", 12),
            Spec("verify", 3, "strongly-stable", 12),
            Spec("verify", 2, "stable", 20),
            Spec("count", 2, "stable", 100),
            # Dies with RecursionError at the commit that added this
            # benchmark; it stays as a counted failure.
            Spec("count", 2, "stable", 5000),
        )),
        Workload("gf-exact", 10.0, (
            gf_spec("shifted", "--shape", "8,8,8,8,8,8,8", "--a", "20,17,14,11,8,5,2",
                "--b", "1,1,1,1,1,1,1", "--c", "1", "--d", "0"),
            gf_spec("shifted", "--shape", "9,9,9,9,9,9,9,9",
                "--a", "24,21,18,15,12,9,6,3", "--b", "1,1,1,1,1,1,1,1",
                "--c", "1", "--d", "0"),
            gf_spec("strict", "--shape", "7,6,5,4,3,2,1", "--a", "20,19,18,17,16,15,14",
                "--b", "1,1,1,1,1,1,1", "--c", "1", "--d", "1"),
        )),
    )
}


def requests_for(workload: Workload) -> list[Request]:
    return [spec.request() for spec in workload.specs]


# -- checking answers ------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def gf_digest(coeffs: list[str]) -> str:
    text = json.dumps(coeffs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _answer_problem(req: Request, reference: dict, doc) -> str | None:
    """What is wrong with a parsed answer, or None when it matches."""
    if req.check == "verify":
        expected = int(req.argv[req.argv.index("--max-p") + 1])
        rows = doc["rows"]
        if doc["ok"] is True and len(rows) == expected and all(r["match"] for r in rows):
            return None
        return "verify did not report ok for every p"
    if req.check == "digest":
        got = gf_digest(doc["coeffs"])
        return None if got == reference["gf"][req.key]["sha256"] else f"coefficient digest {got[:12]}"
    want = reference["census"][req.key]["total"]
    if req.check == "total":
        return None if doc["total"] == want else f"total {doc['total']}, expected {want}"
    if len(doc) != want:
        return f"{len(doc)} ideals listed, expected {want}"
    if len({tuple(map(tuple, item["generators"])) for item in doc}) != len(doc):
        return "an ideal is listed twice"
    return None


def check_answer(req: Request, reference: dict, code: int, stdout: bytes) -> tuple[str, str]:
    """Classify a finished request as ("ok" | "wrong" | "error", detail)."""
    try:
        doc = json.loads(stdout) if stdout.strip() else None
    except ValueError:
        doc = None
    if req.check == "verify" and isinstance(doc, dict) and doc.get("ok") is False:
        return "wrong", "verify reports a pipeline/oracle mismatch"
    if code != 0:
        return "error", f"exit code {code}"
    if doc is None:
        return "error", "no JSON document on stdout"
    try:
        problem = _answer_problem(req, reference, doc)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"unexpected answer shape ({exc!r})"
    return ("ok", "") if problem is None else ("wrong", problem)


# -- running one request -----------------------------------------------------------


@dataclass
class Outcome:
    request: Request
    status: str  # ok | wrong | error | timeout
    detail: str
    elapsed_s: float  # spawn to exit, as the parent sees it
    setup_s: float | None  # spawn until the child is about to call cli.run
    solve_s: float | None  # inside cli.run
    rss_mb: float
    out_bytes: int
    trace: dict | None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def charged_s(self, limit_s: float, speed: float) -> float:
        spent = self.solve_s if self.solve_s is not None else self.elapsed_s
        return spent * speed if self.ok else spent * speed + limit_s


def child_command(req: Request, report_fd: int, traced: bool, request_id: int) -> list[str]:
    return [sys.executable, str(CHILD), str(report_fd), str(int(traced)),
            str(request_id), *req.argv]


def _drain(proc: subprocess.Popen, report, deadline: float) -> tuple[dict, bool]:
    """Read the child's stdout, stderr and report pipe until all close.

    Kills the child at the deadline; returns the bytes read per pipe and
    whether the deadline passed."""
    chunks = {f: bytearray() for f in (proc.stdout, proc.stderr, report)}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            timeout = None
            if not timed_out:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    # Not proc.kill(): it may reap the child before os.wait4.
                    os.kill(proc.pid, signal.SIGKILL)
                    timed_out = True
                    timeout = None
            for key, _ in sel.select(timeout):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj] += data
                else:
                    sel.unregister(key.fileobj)
    return chunks, timed_out


def run_request(req: Request, reference: dict, limit_s: float, traced: bool,
                request_id: int) -> Outcome:
    report_r, report_w = os.pipe()
    try:
        t_spawn = time.monotonic()
        with subprocess.Popen(
            child_command(req, report_w, traced, request_id),
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(report_w,),
        ) as proc:
            os.close(report_w)
            report_w = -1
            try:
                with open(report_r, "rb") as report:
                    report_r = -1
                    chunks, timed_out = _drain(proc, report, t_spawn + limit_s)
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout, stderr = bytes(chunks[proc.stdout]), bytes(chunks[proc.stderr])
            raw_report = bytes(chunks[report])
    finally:
        for fd in (report_r, report_w):
            if fd >= 0:
                os.close(fd)
    try:
        rep = json.loads(raw_report) if raw_report else None
    except ValueError:
        rep = None
    if timed_out:
        state, detail = "timeout", f"killed after the {limit_s:g} s limit"
    else:
        state, detail = check_answer(req, reference, proc.returncode, stdout)
        if rep is None and state == "ok":
            state, detail = "error", "child sent no timing report"
    if state == "error":
        tail = stderr.decode(errors="replace").strip().splitlines()
        if tail:
            detail += f" ({tail[-1][:160]})"
    return Outcome(
        request=req,
        status=state,
        detail=detail,
        elapsed_s=t_exit - t_spawn,
        setup_s=rep["ready"] - t_spawn if rep else None,
        solve_s=rep["solve_s"] if rep else None,
        rss_mb=usage.ru_maxrss / 1024.0,
        out_bytes=len(stdout),
        trace=rep.get("trace") if rep else None,
    )


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python loop takes.

    The loop is the distinct-part DP of make_reference.py (list indexing and
    integer additions, as in escalier's inner loops) and shares no code with
    escalier, so a change to escalier cannot move it."""
    t0 = time.perf_counter()
    q = [1] + [0] * CAL_TOP
    for k in range(1, CAL_TOP + 1):
        for j in range(CAL_TOP, k - 1, -1):
            q[j] += q[j - k]
    return time.perf_counter() - t0


@dataclass
class Pass:
    outcomes: list[Outcome]
    wall_s: float  # first spawn to last exit, calibration loops excluded
    cal: list[float]  # calibration times, before each request and after the last


def run_pass(requests: list[Request], reference: dict, limit_s: float,
             traced: bool = False) -> Pass:
    """Run every request once, with a calibration loop before each request
    and after the last."""
    if traced:
        limit_s *= TRACED_LIMIT_FACTOR
    cal = [calibrate()]
    t0 = time.monotonic()
    outcomes = []
    for i, req in enumerate(requests):
        if i:
            cal.append(calibrate())
        outcomes.append(run_request(req, reference, limit_s, traced, i))
    wall = time.monotonic() - t0 - sum(cal[1:])
    cal.append(calibrate())
    return Pass(outcomes, wall, cal)


# -- metrics ------------------------------------------------------------------------

END_TO_END_UNITS = {
    "wall_s": "s",
    "solve_s": "s",
    "slowest_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def run_speed(passes: list[Pass]) -> float:
    """CAL_NOMINAL_S over the first quartile of the run's calibration times.

    Both the times of a workload (the minimum over passes) and this quartile
    are taken from the fast moments of the run, so their ratio stays put when
    the whole run is slowed.  A workload is not scaled pass by pass, because
    a few 40 ms loops misjudge the speed of one pass."""
    cal = [c for p in passes for c in p.cal]
    return CAL_NOMINAL_S / statistics.quantiles(cal, n=4)[0]


def end_to_end_metrics(passes: list[Pass], limit_s: float, speed: float) -> dict:
    """The four times are multiplied by ``speed`` (see run_speed; 1.0 leaves
    them as measured).  Wall, solve and slowest time are each the minimum over
    the run's passes, taken per metric, so they may come from different
    passes: interference from other processes only ever slows a pass down, so
    the minimum is the steadiest estimate.  Set-up time is the median over
    every request of the run."""
    walls, solves, slowest, setups = [], [], [], []
    for p in passes:
        failed = sum(not o.ok for o in p.outcomes)
        charged = [o.charged_s(limit_s, speed) for o in p.outcomes]
        walls.append(p.wall_s * speed + failed * limit_s)
        solves.append(sum(charged))
        slowest.append(max(charged))
        setups += [o.setup_s * speed for o in p.outcomes if o.setup_s is not None]
    every = [o for p in passes for o in p.outcomes]
    values = {
        "wall_s": min(walls),
        "solve_s": min(solves),
        "slowest_s": min(slowest),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(o.rss_mb for o in every),
        "ok_frac": sum(o.ok for o in every) / len(every),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


MODULES = ("cli", "counting", "qpolys", "partitions", "bijections", "barcode",
           "monomials", "oracle")

# metric prefix -> key the child's tracer records it under
TRACED_CALLS = {
    "counting.bar_lists_3vars": "counting.bar_lists_3vars",
    "counting.a_vectors_strongly": "counting.a_vectors_strongly",
    "qpolys.gf_strict": "qpolys.gf_strict",
    "qpolys.gf_shifted": "qpolys.gf_shifted",
    "qpolys.det": "qpolys.det",
    "qpolys.gauss_binomial": "qpolys.gauss_binomial",
    "qpolys.intpoly_mul": "qpolys.IntPoly.__mul__",
    "qpolys.exact_div": "qpolys.IntPoly.exact_div",
    "partitions.count_Q": "partitions.count_Q",
    "partitions.enumerate_distinct": "partitions.enumerate_distinct",
    "partitions.enumerate_plane_partitions": "partitions.enumerate_plane_partitions",
    "bijections.list_ideals": "bijections.list_ideals",
    "barcode.decode": "barcode.decode",
    "monomials.minimal_generators": "monomials.minimal_generators",
    "monomials.ideal_of": "monomials.MonomialIdeal.of",
    "oracle.enumerate_order_ideals": "oracle.enumerate_order_ideals",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[Outcome], untraced: list[Outcome]) -> dict:
    calls, secs, selfs, counters = Counter(), Counter(), Counter(), Counter()
    spans = 0
    for o in traced:
        if o.trace is None:
            continue
        calls.update(o.trace["calls"])
        secs.update(o.trace["seconds"])
        selfs.update(o.trace["self_s"])
        counters.update(o.trace["counters"])
        spans += len(o.trace["spans"])
    out = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for module in MODULES:
        put(f"{module}.self_s", selfs[module], "s")
    put("cli.out_bytes", sum(o.out_bytes for o in traced), "bytes")
    for name, key in TRACED_CALLS.items():
        put(f"{name}.calls", calls[key], "count")
        put(f"{name}.s", secs[key], "s")
    put("counting.barlists",
        calls["counting.count_stable_barlist"] + calls["counting.count_sstable_barlist"],
        "count")
    put("counting.a_vectors_strongly.vectors",
        counters["counting.a_vectors_strongly.vectors"], "count")
    put("qpolys.gf_shifted.nonzero_ratio",
        _ratio(counters["qpolys.gf_shifted.nonzero"], counters["qpolys.gf_shifted.truncated"]),
        "ratio")
    put("qpolys.det.large_untruncated_calls",
        counters["qpolys.det.large_untruncated"], "count")
    gb_calls, gb_misses = calls["qpolys.gauss_binomial"], counters["qpolys.gauss_binomial.misses"]
    put("qpolys.gauss_binomial.misses", gb_misses, "count")
    put("qpolys.gauss_binomial.hit_ratio", _ratio(gb_calls - gb_misses, gb_calls), "ratio")
    put("qpolys.gauss_binomial.miss_s", counters["qpolys.gauss_binomial.miss_s"], "s")
    put("qpolys.intpoly_mul.coeff_products",
        counters["qpolys.intpoly_mul.coeff_products"], "computed")
    put("partitions.enumerate_plane_partitions.results",
        counters["partitions.enumerate_plane_partitions.results"], "count")
    put("bijections.items", counters["bijections.list_ideals.items"], "count")
    tests = ("monomials.is_stable", "monomials.is_strongly_stable")
    put("monomials.stability_tests.calls", sum(calls[k] for k in tests), "count")
    put("monomials.stability_tests.s", sum(secs[k] for k in tests), "s")
    enumerated = counters["oracle.order_ideals"]
    put("oracle.order_ideals", enumerated, "count")
    put("oracle.pass_ratio", _ratio(counters["oracle.passed"], enumerated), "ratio")
    put("trace.spans", spans, "count")
    put("trace.overhead_s",
        sum(o.solve_s or 0.0 for o in traced) - sum(o.solve_s or 0.0 for o in untraced), "s")
    return dict(sorted(out.items()))


# -- running a workload -----------------------------------------------------------


@dataclass
class Result:
    workload: str
    outcomes: list[Outcome]
    metrics: dict
    passes: int
    note: str = ""  # the uncalibrated times and the run's speed

    @property
    def correct(self) -> bool:
        return not any(o.status == "wrong" for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict) -> Result:
    requests = requests_for(workload)
    rng = random.Random(seed)

    def shuffled() -> list[Request]:
        order = list(requests)
        rng.shuffle(order)
        return order

    if trace:
        order = shuffled()
        untraced = run_pass(order, reference, workload.limit_s).outcomes
        traced = run_pass(order, reference, workload.limit_s, traced=True).outcomes
        _write_spans(workload.name, seed, traced)
        return Result(workload.name, untraced + traced, layer_metrics(traced, untraced), 2)
    passes, durations = [], []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(run_pass(shuffled(), reference, workload.limit_s))
        durations.append(time.monotonic() - start)
        if time.monotonic() - t0 + statistics.median(durations) > seconds:
            break
    outcomes = [o for p in passes for o in p.outcomes]
    speed = run_speed(passes)
    measured = end_to_end_metrics(passes, workload.limit_s, 1.0)
    note = " ".join(f"{k}={measured[k]['value']:.4f}"
                    for k in ("wall_s", "solve_s", "slowest_s", "setup_s"))
    note += f" speed={speed:.4f}"
    return Result(workload.name, outcomes, end_to_end_metrics(passes, workload.limit_s, speed),
                  len(passes), note)


def _write_spans(workload: str, seed: int, traced: list[Outcome]) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for o in traced:
            if o.trace is not None:
                fh.write(json.dumps({"request": o.trace["request"], "argv": list(o.request.argv),
                                     "spans": o.trace["spans"]}) + "\n")


# -- reporting --------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def print_result(result: Result, seed: int, trace: bool, meta: dict) -> None:
    print(f"# workload={result.workload} seed={seed} trace={int(trace)} "
          f"passes={result.passes} python={meta['python']} nproc={meta['nproc']} "
          f"cpu={meta['cpu']!r}")
    if result.note:
        print(f"# uncalibrated: {result.note}")
    for o in result.outcomes:
        if not o.ok:
            print(f"# FAILED [{o.status}] {o.request}: {o.detail}")
    for name, m in result.metrics.items():
        print(f"{result.workload:15s} {name:45s} {m['value']:>16.6f} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure whole passes of each workload for about this long "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "escalier" / "cli.py").is_file():
        print(f"error: no escalier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    reference = load_reference()
    meta = machine()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              reference)
        print_result(result, args.seed, bool(args.trace), meta)
        results.append(result)
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(len(r.outcomes) for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
