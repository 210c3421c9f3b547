"""The benchmark's workloads: the paper's full-scale CLI runs.

Kept free of numpy so that the measuring process stays small (see
``run.Checker``).
"""

TABLE_R = range(1, 133)
TABLE_BOUND = 100_000
DEEP_R = 127
DEEP_BOUND = 1_000_000
WALKS = (("all", 1_000_000, "walk-all.csv"), ("delta-subseq", 100_000, "walk-delta.csv"))
SUITE_NAMES = ("abelian", "bounds", "combinatorial", "dihedral-code",
               "hecke-grading", "identities", "level9", "thmB", "thmD")

# Each workload is a tuple of CLI commands, run in order as one round;
# "{out}" is the output directory.  Standard output of command i goes to
# {out}/cmd{i}.out.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "table": (("density", "--r", f"{TABLE_R[0]}..{TABLE_R[-1]}",
               "--prime-bound", str(TABLE_BOUND), "--format", "csv",
               "--out", "{out}/table.csv"),),
    "deep": (("density", "--r", str(DEEP_R), "--prime-bound", str(DEEP_BOUND),
              "--format", "csv"),),
    "verify": (("verify", "--suite", "all"),),
    "walk": tuple(("walk", "--kind", kind, "--n", str(n), "--out", "{out}/" + name)
                  for kind, n, name in WALKS),
}
