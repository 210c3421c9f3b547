"""Run one etaparity CLI command in-process with timing spans around each layer.

Usage: python perfbench/tracer.py SPANS.jsonl ARG...

Imports ``etaparity.cli`` (from PYTHONPATH), wraps the public functions of
each module at every name that is bound to them, calls ``cli.main(ARGS)``
and writes the spans, one JSON object per line, to SPANS.jsonl.  Spans
live in memory until the command ends.  ``from x import f`` binds ``f``
again in the importing module, so a wrapper installed only in the defining
module would miss calls such as ``suites.power`` or ``walks.mul``; the
installer therefore replaces the function in every loaded etaparity
module and in module-level dicts (``suites.SUITES``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

import numpy as np


class Recorder:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, fn, attrs=None):
        """A wrapper of fn that records one span per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            record = {"name": name, "parent": stack[-1]["id"] if stack else None}
            if attrs is not None:
                record.update(attrs(args, kwargs))
            with self._lock:
                record["id"] = len(self.spans)
                self.spans.append(record)
            stack.append(record)
            record["t0"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record["t1"] = time.perf_counter()
                stack.pop()
        return wrapper

    def count(self, name: str, fn, amounts=None):
        """A wrapper of fn that only adds to counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + 1
                if amounts is not None:
                    for key, val in amounts(args, kwargs).items():
                        self.counters[key] = self.counters.get(key, 0) + val
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"counters": self.counters,
                                 "missing": self.missing}) + "\n")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _reads(args, kwargs) -> dict:
    return {"reads": int(np.size(_arg(args, kwargs, 1, "indices")))}


def _size(args, kwargs) -> dict:
    return {"n": int(_arg(args, kwargs, 1, "n"))}


def _shift_bytes(args, kwargs) -> dict:
    # _xor_shifted(dst, src, shift): dst[w:w+take] ^= src[:take] << b, plus
    # a spill pass when b != 0; each pass reads src and dst and writes dst.
    dst, src, shift = args
    take = max(0, min(len(src), len(dst) - (shift >> 6)))
    passes = 1 if shift & 63 == 0 else 2
    return {"f2series.mul_bytes": 24 * take * passes}


# (module, attribute, span name, span attributes from the call's arguments)
SPANNED = [
    ("etaparity.f2series", "mul", "f2series.mul", None),
    ("etaparity.f2series", "square", "f2series.square", None),
    ("etaparity.f2series", "power", "f2series.power", None),
    ("etaparity.f2series", "F2Series.coeffs_at", "f2series.scan", _reads),
    ("etaparity.genforms", "p_r_series", "genforms.eta_build", _size),
    ("etaparity.genforms", "delta_series", "genforms.generator", None),
    ("etaparity.genforms", "c_series", "genforms.generator", None),
    ("etaparity.genforms", "f_series", "genforms.generator", None),
    ("etaparity.genforms", "eta_product_pnt", "genforms.generator", None),
    ("etaparity.genforms", "congruence_theta", "genforms.generator", None),
    ("etaparity.density", "PrimeSieve.__init__", "density.sieve", None),
    ("etaparity.density", "eta_power_series", "density.cache", None),
    ("etaparity.density", "eta_density_direct", "density.direct", None),
    ("etaparity.density", "eta_density_formula", "density.formula", None),
    ("etaparity.hecke", "t_op", "hecke.t_op", None),
    ("etaparity.hecke", "u_op", "hecke.u_op", None),
    ("etaparity.level1", "generator_power", "level1.generator_power", None),
    ("etaparity.level1", "hecke_on_genpoly", "level1.hecke_on_genpoly", None),
    ("etaparity.level1", "code_matrix", "level1.code_matrix", None),
    ("etaparity.level9", "verify_u2_u3_kernel", "level9.kernel", None),
    ("etaparity.level9", "abelian_form", "level9.abelian", None),
    ("etaparity.level9", "verify_abelian_law", "level9.abelian", None),
    ("etaparity.cheby", "combinatorial_count", "cheby.combinatorial", None),
    ("etaparity.walks", "partition_parity", "walks.parity", None),
    ("etaparity.walks", "emit_walk", "walks.emit", _size),
    ("etaparity.cli", "main", "cli.main", None),
]
# Hot calls get a counter instead of a span:
# (module, attribute, counter name, further counters from the arguments)
COUNTED = [
    ("etaparity.hecke", "is_prime", "hecke.is_prime", None),
    ("etaparity.f2series", "_xor_shifted", "f2series.mul_shift_ops", _shift_bytes),
]


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


def install(rec: Recorder, suite_names: dict) -> None:
    """Replace each target at every binding site in loaded etaparity modules."""
    targets = [(m, a, rec.span, name, extra) for m, a, name, extra in SPANNED]
    targets += [(m, a, rec.count, name, extra) for m, a, name, extra in COUNTED]
    targets += [("etaparity.suites", fn.__name__, rec.span, f"suites.{suite}", None)
                for suite, fn in suite_names.items()]
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "etaparity" or name.startswith("etaparity.")]
    for module, attr, wrap, name, extra in targets:
        try:
            owner, leaf, orig = _resolve(module, attr)
        except AttributeError:
            rec.missing.append(f"{module}.{attr}")
            continue
        wrapped = wrap(name, orig, extra)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            val[dkey] = wrapped


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("etaparity.cli")
    suites = importlib.import_module("etaparity.suites")
    rec = Recorder()
    install(rec, dict(suites.SUITES))
    try:
        return cli.main(cli_args)
    finally:
        rec.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
