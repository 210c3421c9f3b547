"""Benchmark of the etaparity command line on the paper's full-scale runs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each workload is one or more CLI commands, run one
process at a time, repeated as whole rounds until S seconds have passed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: median wall time,
CPU time and peak RSS of the CLI processes per round, and the median
set-up time (interpreter start plus ``import etaparity.cli``) of fresh
processes.  With ``--trace 1`` every round is run twice, untraced and
through ``tracer.py``, and the metrics are per-layer times and counts
taken from the traced spans.  See README.md for the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SUITE_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = HERE / "tracer.py"
CHECKS = HERE / "checks.py"

# The console-script entry point of the package, spelled out so that the
# checkout's src/ is used rather than any installed copy.
ENTRY = "import sys; from etaparity.cli import main; sys.exit(main())"
SETUP_PROBE = "import etaparity.cli"
SETUP_PER_ROUND = 2

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit, in the order of BENCHMARK.json
PER_LAYER = {
    "f2series.mul_s": "s", "f2series.mul_calls": "count",
    "f2series.mul_shift_ops": "count", "f2series.mul_bytes": "bytes",
    "f2series.square_s": "s", "f2series.power_s": "s",
    "f2series.scan_s": "s", "f2series.scan_reads": "count",
    "genforms.eta_build_s": "s", "genforms.eta_builds": "count",
    "genforms.eta_bits": "bits", "genforms.generator_s": "s",
    "density.cache_requests": "count", "density.cache_hits": "count",
    "density.sieve_s": "s", "density.direct_s": "s", "density.formula_s": "s",
    "hecke.t_op_s": "s", "hecke.u_op_s": "s", "hecke.is_prime_calls": "count",
    "level1.generator_power_s": "s", "level1.hecke_on_genpoly_s": "s",
    "level1.code_matrix_s": "s", "level9.kernel_s": "s", "level9.abelian_s": "s",
    "cheby.combinatorial_s": "s",
    **{f"suites.{name}_s": "s" for name in SUITE_NAMES},
    "walks.parity_s": "s", "walks.format_s": "s", "walks.rows": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
# counts that must repeat exactly between traced rounds
EXACT_COUNTS = ("f2series.mul_calls", "genforms.eta_builds", "density.cache_hits",
                "f2series.scan_reads", "walks.rows")


@dataclass
class Proc:
    """One finished CLI process."""

    code: int
    t0: float
    t1: float
    cpu_s: float
    rss_mb: float
    stdout: Path
    spans: Path | None = None

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def spawn(argv: list[str], stdout: Path, env: dict) -> Proc:
    """Run argv to its end; wall, CPU and peak RSS are this child's own."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # wait4 gives the rusage of this child alone; RUSAGE_CHILDREN would
        # report the largest RSS of every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, t0, t1, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout)


@dataclass
class Round:
    procs: list[Proc]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def run_round(workload: str, outdir: Path, env: dict, traced: bool) -> Round:
    for stale in outdir.iterdir():
        stale.unlink()
    procs = []
    for i, cmd in enumerate(WORKLOADS[workload]):
        args = [a.replace("{out}", str(outdir)) for a in cmd]
        stdout = outdir / f"cmd{i}.out"
        if traced:
            spans = outdir / f"cmd{i}.spans.jsonl"
            proc = spawn([sys.executable, str(TRACER), str(spans), *args], stdout, env)
            proc.spans = spans
        else:
            proc = spawn([sys.executable, "-c", ENTRY, *args], stdout, env)
        procs.append(proc)
    return Round(procs)


class Checker:
    """Checks workload outputs in a separate process, and reuses the
    verdict for byte-identical outputs.

    The checks need far more memory than this process.  A child started
    by vfork inherits the parent's peak RSS in its own ru_maxrss, so the
    parent is kept smaller than any CLI process it measures.
    """

    def __init__(self, workload: str, outdir: Path, env: dict):
        self.workload = workload
        self.outdir = outdir
        self.env = env
        self._seen: dict[str, list[tuple[str, bool, str]]] = {}

    def __call__(self, rnd: Round) -> list[tuple[str, bool, str]]:
        digest = hashlib.sha256()
        for proc in rnd.procs:
            digest.update(str(proc.code).encode())
        for path in sorted(self.outdir.iterdir()):
            if path.suffix in (".out", ".csv"):
                with open(path, "rb") as fh:
                    while chunk := fh.read(1 << 20):
                        digest.update(chunk)
        key = digest.hexdigest()
        if key not in self._seen:
            done = subprocess.run(
                [sys.executable, str(CHECKS), self.workload, str(self.outdir)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, check=True)
            self._seen[key] = [tuple(op) for op in json.loads(done.stdout)]
        return self._seen[key]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    reasons: list[str] = field(default_factory=list)

    def add(self, rnd: Round, ops: list[tuple[str, bool, str]]) -> None:
        bad = [op for op in ops if not op[1]]
        self.attempted += len(ops)
        self.failed += len(bad)
        # An output the program reported as good must pass every check;
        # an operation the program itself failed (nonzero exit) is only
        # counted as failed.
        if bad and all(p.code == 0 for p in rnd.procs):
            self.correct = False
        for name, _, reason in bad[:3]:
            self.reasons.append(f"{name}: {reason}")


def check_import(env: dict) -> None:
    """Import the package once, untimed: this compiles its bytecode and
    confirms that the import comes from this checkout."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE + "; print(etaparity.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if Path(probe.stdout.strip()).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"etaparity imported from {probe.stdout.strip()}, not {SRC}")


def time_setup(env: dict) -> float:
    """Wall time of one fresh process that starts and imports the CLI."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def load_spans(path: Path) -> tuple[list[dict], dict]:
    spans, counters = [], {}
    if not path.is_file():  # the traced command died before writing
        return spans, counters
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
                if record["missing"]:
                    print(f"trace: not found, reported as 0: {record['missing']}",
                          file=sys.stderr)
            else:
                spans.append(record)
    return spans, counters


def layer_values(spans: list[dict], counters: dict) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced command, and the self time
    of each span name.

    A layer's time is the union of its spans (a span nested in a span of
    the same name is not counted twice); a self time subtracts the spans
    directly beneath it.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["t1"] - s["t0"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        name, dur = s["name"], s["t1"] - s["t0"]
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur - child_time.get(s["id"], 0.0)
        if all(a["name"] != name for a in ancestors(s)):
            incl[name] = incl.get(name, 0.0) + dur
    misses = {next((a["id"] for a in ancestors(s) if a["name"] == "density.cache"), None)
              for s in spans if s["name"] == "genforms.eta_build"} - {None}

    def total(key, name):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    # a time metric "<span name>_s" is the union time of that span name
    values = {metric: incl.get(metric[:-2], 0.0)
              for metric, unit in PER_LAYER.items() if unit == "s"}
    values.update({
        "f2series.mul_calls": calls.get("f2series.mul", 0),
        "f2series.mul_shift_ops": counters.get("f2series.mul_shift_ops", 0),
        "f2series.mul_bytes": counters.get("f2series.mul_bytes", 0),
        "f2series.scan_reads": total("reads", "f2series.scan"),
        "genforms.eta_builds": calls.get("genforms.eta_build", 0),
        "genforms.eta_bits": total("n", "genforms.eta_build"),
        "density.cache_requests": calls.get("density.cache", 0),
        "density.cache_hits": calls.get("density.cache", 0) - len(misses),
        "hecke.is_prime_calls": counters.get("hecke.is_prime", 0),
        "walks.format_s": self_t.get("walks.emit", 0.0),
        "walks.rows": total("n", "walks.emit"),
        "cli.self_s": self_t.get("cli.main", 0.0),
    })
    return values, self_t


def traced_round_values(rnd: Round) -> tuple[dict, dict, float]:
    """Per-layer values and self times summed over the commands of one
    traced round, and the time its processes spent outside cli.main."""
    out: dict[str, float] = {}
    selfs: dict[str, float] = {}
    outside = 0.0
    for proc in rnd.procs:
        spans, counters = load_spans(proc.spans)
        vals, self_t = layer_values(spans, counters)
        for name, t in self_t.items():
            selfs[name] = selfs.get(name, 0.0) + t
        for key, val in vals.items():
            out[key] = out.get(key, 0) + val
        roots = [s for s in spans if s["name"] == "cli.main"]
        if roots:
            # interpreter start, imports and tracer set-up before main,
            # and span output and exit after it
            outside += (roots[0]["t0"] - proc.t0) + (proc.t1 - roots[-1]["t1"])
    return out, selfs, outside


def report_trace(workload: str, plain: list[Round], traced: list[Round],
                 values: list[tuple[dict, dict, float]]) -> dict[str, float]:
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        got = [v[0][name] for v in values]
        if PER_LAYER[name] == "s":
            metrics[name] = statistics.median(got)
        else:
            if len(set(got)) != 1:
                level = "ERROR" if name in EXACT_COUNTS else "note"
                print(f"trace {level}: {name} differs between rounds: {got}",
                      file=sys.stderr)
            metrics[name] = got[0]
    untraced = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced
    # Where the time of the first traced round went: self time per span
    # name, plus what lies outside cli.main.
    _, selfs, outside = values[0]
    print(f"[{workload}] untraced wall {untraced:.3f} s, traced wall "
          f"{traced_wall:.3f} s, overhead {metrics['trace.overhead_s']:.3f} s",
          file=sys.stderr)
    print(f"[{workload}] traced round: {sum(selfs.values()):.3f} s self time in spans "
          f"+ {outside:.3f} s start-up/exit = {sum(selfs.values()) + outside:.3f} s "
          f"(wall {traced[0].wall_s:.3f} s)", file=sys.stderr)
    for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
        if t >= 0.005:
            print(f"    {name:<28} self {t:8.3f} s", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="the workloads are the paper's fixed runs, so "
                             "the seed changes no input")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "etaparity" / "cli.py").is_file():
        print(f"error: no etaparity sources under {SRC}", file=sys.stderr)
        return 2

    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    check_import(env)
    check = Checker(args.workload, outdir, env)
    tally = Tally()
    setup: list[float] = []
    plain: list[Round] = []
    traced: list[Round] = []
    values: list[tuple[dict, dict, float]] = []
    spent: list[float] = []
    start = time.perf_counter()
    # Set-up samples are spread over the run, and a round is started only
    # when a typical round still fits in the time left, so that a run lasts
    # about --seconds however long its rounds are.
    while not spent or (time.perf_counter() - start
                        + statistics.median(spent) <= args.seconds):
        t0 = time.perf_counter()
        setup += [time_setup(env) for _ in range(SETUP_PER_ROUND)]
        rnd = run_round(args.workload, outdir, env, traced=False)
        tally.add(rnd, check(rnd))
        plain.append(rnd)
        if args.trace:
            rnd = run_round(args.workload, outdir, env, traced=True)
            tally.add(rnd, check(rnd))
            traced.append(rnd)
            values.append(traced_round_values(rnd))
        spent.append(time.perf_counter() - t0)

    for reason in tally.reasons[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    if args.trace:
        metrics = report_trace(args.workload, plain, traced, values)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        print(f"[{args.workload}] {len(plain)} rounds; wall "
              f"{[round(r.wall_s, 3) for r in plain]}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
