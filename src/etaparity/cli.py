"""Command-line surface: expand forms, run density scans, verify, emit walks.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
resource errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# The package makes no BLAS call, so numpy (first loaded by the walks
# import below) gets a one-thread OpenBLAS instead of a worker that spins
# idle beside every run.  A value set by the user is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each command imports the other package modules it runs in its own body.
# walks alone stays here, with numpy and its leaves f2series, genforms and
# primes: perfbench/tracer.py wraps only the modules loaded before it
# installs, so a walks first loaded by cmd_walk would run untraced.
from . import walks

ROUTE_AGREE_TOLERANCE = 0.02


def _parse_r_spec(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        lo, sep, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if sep else lo)
        except ValueError:
            raise ValueError(f"bad r value {part!r}; use a, a..b or a,b,c") from None
        if lo > hi:
            raise ValueError(f"r range {part!r} is empty")
        out.extend(range(lo, hi + 1))
    if min(out) < 1:
        raise ValueError("r values must be positive")
    return out


def _at_least(low: int):
    """An argparse type for integers no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _suite_prime_bound(text: str) -> int:
    """An argparse type for a suite prime bound: at least
    suites.MIN_PRIME_BOUND, read only when a bound is given."""
    from .suites import MIN_PRIME_BOUND
    return _at_least(MIN_PRIME_BOUND)(text)


def _expand_series(form: str, n: int):
    from .genforms import eta_product_pnt, f_series, p_r_series
    if form == "delta":
        return p_r_series(24, n)
    if form == "C":
        return p_r_series(1, n)
    if form == "F":
        return f_series(n)
    if form == "pnt":
        return eta_product_pnt(n)
    if form.startswith("P:"):
        return p_r_series(int(form[2:]), n)
    if form.startswith("alpha:"):
        from .level1 import genpoly_series
        from .level9 import ABELIAN_CLASSES, abelian_form
        i = int(form[6:])
        if i not in ABELIAN_CLASSES:
            raise ValueError(f"alpha index must be one of {ABELIAN_CLASSES}")
        return genpoly_series(abelian_form(i), n)
    raise ValueError(f"unknown form {form!r}; use delta|C|F|P:r|alpha:i|pnt")


def cmd_expand(args) -> int:
    from .primes import require_memory
    # a lower estimate: the packed q-domain series alone, one bit a coefficient
    require_memory(args.coeffs // 8,
                   f"expanding {args.coeffs} coefficients needs at least")
    series = _expand_series(args.form, args.coeffs)
    support = [int(e) for e in series.support()]
    if args.format == "json":
        import json
        print(json.dumps({"form": args.form, "coeffs": args.coeffs,
                          "support": support}))
    else:
        print(" ".join(map(str, support)))
    return 0


def _density_rows(r_values: list[int], prime_bound: int):
    """The report rows of every r, in order, from one batch of scans, and
    whether every r passes."""
    from . import density
    rows, ok = [], True
    for r, (direct, formula) in zip(r_values,
                                    density.eta_densities(r_values, prime_bound)):
        exact = density.eta_density_exact(r)
        routes_ok = abs(direct.value - formula.value) <= ROUTE_AGREE_TOLERANCE
        exact_ok = exact is None or abs(direct.value - float(exact)) <= direct.tolerance
        ok = ok and routes_ok and exact_ok
        rows += [density.density_report_row(r, prime_bound, "direct", direct),
                 density.density_report_row(r, prime_bound, "formula", formula)]
    return rows, ok


@contextlib.contextmanager
def _replacing(path: str, mode: str = "w"):
    """A sink (text, or binary for mode "wb") on a sibling file of PATH that
    replaces PATH when the block completes.  Opening it fails fast on an
    unwritable directory, and a block that raises leaves PATH as it was
    (absent, or its old contents).  A symlink is followed; a pipe or device
    such as /dev/stdout is written directly, since it cannot be replaced.
    An error in opening the sibling file names PATH."""
    target = os.path.realpath(path)
    newline = None if "b" in mode else ""
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, newline=newline) as sink:
            yield sink
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        sink = open(tmp, mode, newline=newline)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with sink:
            yield sink
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cmd_density(args) -> int:
    r_values = _parse_r_spec(args.r)
    with (_replacing(args.out) if args.out
          else contextlib.nullcontext(sys.stdout)) as sink:
        all_rows, ok = _density_rows(r_values, args.prime_bound)
        if args.format == "json":
            import json
            json.dump(all_rows, sink, indent=1)
            sink.write("\n")
        elif args.format == "csv":
            import csv

            from .density import REPORT_COLUMNS
            writer = csv.DictWriter(sink, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            writer.writerows(all_rows)
        else:
            for row in all_rows:
                exact = f" exact={row['exact']}" if row["exact"] else ""
                sink.write(
                    f"r={row['r']:>4} {row['route']:<7} value={row['value']} "
                    f"~ {row['nearest_dyadic']}{exact}\n")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    import inspect
    import json

    from . import suites
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    overall = True
    reports = []
    for name in names:
        fn = suites.SUITES.get(name)
        if fn is None:
            print(f"unknown suite {name!r}; choose from "
                  f"{sorted(suites.SUITES) + ['all']}", file=sys.stderr)
            return 2
        kwargs = {}
        if args.prime_bound is not None and \
                "prime_bound" in inspect.signature(fn).parameters:
            kwargs["prime_bound"] = args.prime_bound
        result = fn(**kwargs)
        reports.append(result.as_dict())
        overall = overall and result.passed
    print(json.dumps(reports if len(reports) > 1 else reports[0], indent=1))
    return 0 if overall else 1


def cmd_walk(args) -> int:
    with _replacing(args.out, "wb") as sink:
        walks.emit_walk(args.kind, args.n, sink)
    print(f"wrote {args.n} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaparity",
        description="Mod-2 eta-power coefficient parity: expansions, "
                    "Hecke operators, and density scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print the support of a form")
    p_expand.add_argument("form", help="delta|C|F|P:r|alpha:i|pnt")
    p_expand.add_argument("--coeffs", type=_at_least(1), default=100)
    p_expand.add_argument("--format", choices=("text", "json"), default="text")
    p_expand.set_defaults(func=cmd_expand)

    p_density = sub.add_parser("density", help="empirical/exact parity densities")
    p_density.add_argument("--r", required=True,
                           help="single value, range a..b, or comma list")
    p_density.add_argument("--prime-bound", type=int, default=100_000)
    p_density.add_argument("--format", choices=("csv", "json", "text"),
                           default="text")
    p_density.add_argument("--out", default=None)
    p_density.set_defaults(func=cmd_density)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True,
                          help="a suite name, or 'all'; an unknown name "
                               "lists the suites")
    p_verify.add_argument("--prime-bound", type=_suite_prime_bound, default=None,
                          help="for the suites that scan primes; a bound below "
                               "their minimum is rejected")
    p_verify.set_defaults(func=cmd_verify)

    p_walk = sub.add_parser("walk", help="emit a parity random walk as CSV")
    p_walk.add_argument("--kind", choices=walks.WALK_KINDS, default="all")
    p_walk.add_argument("--n", type=_at_least(1), default=1_000_000)
    p_walk.add_argument("--out", required=True)
    p_walk.set_defaults(func=cmd_walk)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MemoryError, ValueError, OSError) as exc:  # PrecisionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
