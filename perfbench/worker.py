"""One benchmark run of one workload, in a fresh process.

Started by `run.py` with the checkout's `src` first on `PYTHONPATH`.  Prints
`ready` once set-up is done (importing `outerspatial`, generating the
instances, serialising the first pass), then runs a closed loop, one
operation at a time, in whole passes over the workload's case list until
`--seconds` have passed, and prints one JSON result line.  With
`--setup-only` it exits after `ready`.

Every operation gets freshly labelled text, so no label-keyed module cache
of the program can answer it.  The correctness gate runs after each
operation, outside its timing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads as wl
from instances import POSITIVE, Instance, render
from tracing import COUNTED, Tracer

OP_CEILING_S = 30.0
# The per-operation tail is p75: at the 40 operations an untraced run makes
# at least, it is the highest percentile with ten samples beyond it.
TAIL_PERCENTILE = 75
MIN_OPS = 40
PROBES = 5


class OpTimeout(BaseException):
    """Raised in the main thread when an operation passes its wall ceiling."""


def _alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def ceiling(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Run:
    """The workload's cases, the timed operation, its gate and the tallies."""

    def __init__(self, args) -> None:
        from outerspatial import decider, fileformat
        self.decider, self.fileformat = decider, fileformat
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        if args.workload == "cli":
            from outerspatial import cli
            self.cli = cli
            self.cases = [(cmd, f) for f in wl.cli_files() for cmd in wl.CLI_COMMANDS]
            self.instances = [f.instance for _, f in self.cases]
            self._tmp = tempfile.TemporaryDirectory(dir=args.root / ".perfbench_out")
            self.path = Path(self._tmp.name) / "complex.txt"
        else:
            self.instances = wl.instances(args.workload, args.seed)
        self.texts0 = [self.text(0, i) for i in range(len(self.instances))]

    def close(self) -> None:
        if self.args.workload == "cli":
            self._tmp.cleanup()

    def text(self, pass_no: int, i: int) -> str:
        return render(self.instances[i], wl.tag(self.args.seed, self.args.workload, pass_no, i))

    def case_name(self, i: int) -> str:
        if self.args.workload == "cli":
            return f"{self.cases[i][0]} {self.instances[i].name}"
        return self.instances[i].name

    def fail(self, where: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(f"{where}: {message}")

    def timed(self, fn, *args):
        """(seconds, nominal seconds, result) of fn under the ceiling, traced when a tracer is set.

        The reference task runs right before and right after, outside the timing.
        """
        tracer = self.tracer
        before = speed.reference_s()
        with ceiling(OP_CEILING_S):
            if tracer is not None:
                tracer.active = True
            try:
                t0 = time.perf_counter()
                got = fn(*args)
                dt = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.active = False
        return dt, speed.nominal(dt, before, speed.reference_s()), got

    def decide(self, text: str):
        """The `decide` command without process start: text to report."""
        complex = self.fileformat.parse_complex(text)
        verdict = self.decider.decide_outerspatial(complex)
        return complex, verdict, self.fileformat.format_verdict(verdict)

    def check_decide(self, expect: str, complex, verdict, report: str) -> str | None:
        """Why a decide result is wrong, or None."""
        first = report.split("\n", 1)[0]
        if first != f"verdict: {expect}":
            return f"got {first!r}, built as {expect}"
        if expect == POSITIVE:
            cert = self.fileformat.parse_certificate_report(report)
            if not self.decider.verify_certificate(complex, cert):
                return "report certificate does not re-verify"
        elif not self.decider.verify_obstruction(complex, verdict.obstruction):
            return "obstruction does not re-verify"
        return None

    def check_cli(self, cmd: str, f: wl.CliFile, text: str, code: int, out: str) -> str | None:
        inst = f.instance
        if cmd == "validate":
            ok = code == 0 and out == "ok\n"
        elif cmd == "surface":
            ok = code == 0 and out.count("\n") == 1 and f": {f.surface} (euler" in out
        elif cmd == "links":
            ok = (code == 0 and out.count("link at ") == len(inst.vertices)
                  and out.count("outerplanar: no") == f.non_outerplanar)
        else:
            if code != (0 if inst.expect == POSITIVE else 1):
                return f"decide exited {code}"
            complex, verdict, _ = self.decide(text)
            return self.check_decide(inst.expect, complex, verdict, out)
        return None if ok else f"exit {code}, unexpected output"

    def op(self, pass_no: int, i: int) -> tuple[float, float, str] | None:
        """One timed operation plus its gate: (seconds, nominal seconds, report), or None if it failed."""
        text = self.texts0[i] if pass_no == 0 else self.text(pass_no, i)
        inst: Instance = self.instances[i]
        where = self.case_name(i)
        self.attempted += 1
        gc.collect()
        try:
            if self.args.workload == "cli":
                cmd, f = self.cases[i]
                self.path.write_text(text)
                dt, nominal, (code, out) = self.timed(self.invoke, [cmd, str(self.path)])
                report = f"$ {cmd} {inst.name}\n{out}"
                with ceiling(OP_CEILING_S):
                    problem = self.check_cli(cmd, f, text, code, out)
            else:
                dt, nominal, (complex, verdict, report) = self.timed(self.decide, text)
                with ceiling(OP_CEILING_S):
                    problem = self.check_decide(inst.expect, complex, verdict, report)
        except (OpTimeout, subprocess.TimeoutExpired):
            problem = f"passed the {OP_CEILING_S:g} s ceiling"
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(where, problem)
            return None
        return dt, nominal, report

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        """A CLI call: a cold subprocess, or `cli.main` in-process when traced."""
        if self.args.trace:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "outerspatial.cli", *argv],
                              capture_output=True, text=True, cwd=self.args.root,
                              timeout=OP_CEILING_S)
        return proc.returncode, proc.stdout

    def passes(self, seconds: float, min_ops: int, first_pass: int = 0
               ) -> tuple[list[list[float]], list[list[float]], int, list[str]]:
        """Whole passes until `seconds` have passed and `min_ops` operations ran.

        Returns each case's latencies in seconds and in nominal seconds,
        the number of passes and the first pass's reports.
        """
        cases: list[list[float]] = [[] for _ in self.instances]
        nominal: list[list[float]] = [[] for _ in self.instances]
        reports: list[str] = []
        n = 0
        deadline = time.perf_counter() + seconds
        while n * len(cases) < min_ops or time.perf_counter() < deadline:
            for i, lat in enumerate(cases):
                if self.tracer is not None:
                    self.tracer.op_id = n * len(cases) + i
                got = self.op(first_pass + n, i)
                if got is not None:
                    lat.append(got[0])
                    nominal[i].append(got[1])
                    if n == 0:
                        reports.append(got[2])
            n += 1
        return cases, nominal, n, reports


def pass_seconds(cases: list[list[float]]) -> float:
    """Seconds one pass takes: the sum over cases of each case's median latency.

    Per-case medians keep one slow operation from moving the figure.
    """
    return sum(statistics.median(lat) for lat in cases if lat)


def probe(argv: list[str], root: Path) -> float:
    """Median over a few runs of a short child: the seconds it prints, else its wall time."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=root,
                              timeout=OP_CEILING_S, check=True)
        wall = time.perf_counter() - t0
        times.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return statistics.median(times)


def layer_metrics(tracer, vertices: int, ops: int, passes: int) -> dict[str, float]:
    """Per-pass self seconds and calls for every span name, plus derived ratios."""
    own = tracer.self_times()
    names = tracer.names
    self_s = [0.0] * len(names)
    calls = list(tracer.counts)
    for nid, s in zip(tracer.name, own):
        self_s[nid] += s
        calls[nid] += 1
    out: dict[str, float] = {}
    for nid, name in enumerate(names):
        if name not in COUNTED:
            out[f"{name}.s"] = self_s[nid] / passes
        out[f"{name}.calls"] = calls[nid] / passes
    link = names.index("complexes.link_graph")
    with_link = {op for nid, op in zip(tracer.name, tracer.op) if nid == link}
    out["complexes.link_builds_per_vertex"] = calls[link] / vertices
    out["decider.fast_path_ratio"] = 1 - len(with_link) / ops
    out["trace.self_sum_s"] = sum(own) / passes
    out["trace.spans"] = len(tracer) / passes
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    run = Run(args)
    print("ready", flush=True)
    if args.setup_only:
        run.close()
        return 0
    result: dict = {}
    if not args.trace:
        cases, nominal, passes, reports = run.passes(args.seconds, MIN_OPS)
        lat = sorted(x for c in nominal for x in c)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["metrics"] = {
            "decide_s": [pass_seconds(nominal), passes],
            "peak_rss_mb": [resource.getrusage(who).ru_maxrss / 1024, 1],
        }
        result["wall_decide_s"] = pass_seconds(cases)
        result["latency_s"] = {"p50": percentile(lat, 50),
                               f"p{TAIL_PERCENTILE}": percentile(lat, TAIL_PERCENTILE),
                               "n": len(lat)}
    else:
        # The same loop untraced, then traced: the difference is the overhead.
        cases, _, untraced_passes, reports = run.passes(args.seconds / 2, 1)
        run.tracer = Tracer()
        run.tracer.install()
        traced, _, passes, _ = run.passes(args.seconds / 2, 1, first_pass=untraced_passes)
        sizes = [len(x.vertices) for x in run.instances]
        layers = layer_metrics(run.tracer, sum(sizes) * passes, len(sizes) * passes, passes)
        # Mean pass seconds here, so that the spans' self times add up exactly.
        traced_s = sum(map(sum, traced)) / passes
        layers["trace.decide_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - sum(map(sum, cases)) / untraced_passes
        layers["trace.unattributed_s"] = traced_s - layers["trace.self_sum_s"]
        layers["cli.interpreter_s"] = probe([sys.executable, "-c", "pass"], args.root)
        layers["cli.import_s"] = probe(
            [sys.executable, "-c", "import time; t = time.perf_counter(); "
             "import outerspatial.cli; print(time.perf_counter() - t)"], args.root)
        stem = args.root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}"
        run.tracer.write(stem)
        result["layers"] = layers
        result["spans_file"] = str(stem.with_suffix(".bin").relative_to(args.root))
    result["case_s"] = {run.case_name(i): statistics.median(lat)
                        for i, lat in enumerate(cases) if lat}
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                  passes=passes,
                  sha256=hashlib.sha256("".join(reports).encode()).hexdigest())
    run.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
