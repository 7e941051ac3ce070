"""Interleaved in-process A/B timing of this checkout's comreg against a parent tree.

Both packages are loaded in one interpreter under distinct package names
(the parent twice, the second copy an A/A control), with one BLAS thread.
Each round runs the benchmark's own workloads (bench/workloads.py) once
per package, in an order that rotates from round to round, with that
package bound to the name comreg while its workload prepares and runs:

- bootstrap: an airfreight-bootstrap operation (a 100-replicate bootstrap)
- fit_com:   the airfreight COM-Poisson fit, the "fit" stage of that
             workload's preparation
- n868:      an overdispersed-n868 operation (fit, dispersion test,
             diagnostics and model comparison of one n = 868 dataset)

It prints, per workload, the parent's median time, the paired median
ratio of the change's time to the parent's, the share of rounds in which
the change was faster, the A/A control's paired median ratio and the
number of rounds whose output digests differ between parent and change;
then the same timing columns for each stage of the n868 operation (fit,
test, diagnose and compare, as the workload times them in Op.stages).

Usage: python3 scripts/ab_inprocess.py (--parent REV | --parent-src DIR) [--rounds 300]

--parent REV exports REV's src/ with git archive; --parent-src DIR reads
a directory holding the comreg package (for example another checkout's src).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # before numpy loads its BLAS

import argparse
import importlib.util
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1    # the run seed the workloads derive their inputs from
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

WORKLOADS = ("bootstrap", "fit_com", "n868")
N868_STAGES = ("fit", "test", "diagnose", "compare")


def load_package(src: Path, name: str):
    """The comreg package under src, imported as the top-level package name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "comreg" / "__init__.py", submodule_search_locations=[str(src / "comreg")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)    # its __init__ imports every submodule the workloads use
    return pkg


def export_rev(rev: str, into: Path) -> Path:
    """src/ of a git revision of this repository, unpacked under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


@contextmanager
def bound(pkg):
    """The workloads' `from comreg import ...` reads pkg while the block runs."""
    sys.modules["comreg"] = pkg
    try:
        yield
    finally:
        del sys.modules["comreg"]


class Subject:
    """One loaded package with its two benchmark workloads, prepared under it."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.boot = workloads.AirfreightBootstrap(ROOT, SEED)
        self.n868 = workloads.Overdispersed868(ROOT, SEED)
        with bound(pkg):
            self.boot.prepare(workloads.Op(items=0))
            self.n868.prepare(workloads.Op(items=0))

    def run(self, name: str, k: int):
        """(seconds, digest, seconds per stage) of round k of workload name."""
        with bound(self.pkg):
            if name == "fit_com":
                op = workloads.Op(items=0)
                self.boot.prepare(op)
                fr = self.boot.fr
                return (op.stages["fit"], workloads._digest(fr.beta, fr.cov, fr.loglik, fr.extra),
                        {})
            op = (self.boot if name == "bootstrap" else self.n868).run(k)
        if not op.ok:
            raise AssertionError(f"{name} round {k} under {self.pkg.__name__} failed its checks")
        return op.wall, op.digest, op.stages


def run(parent_src: Path, rounds: int) -> dict:
    """Interleave the rounds; per workload and n868 stage, (ratio, faster share, A/A ratio,
    mismatches, ms), with mismatches None for a stage."""
    subjects = {"A": Subject(load_package(parent_src, "comreg_parent")),
                "B": Subject(load_package(ROOT / "src", "comreg_change")),
                "C": Subject(load_package(parent_src, "comreg_control"))}
    rows = [*WORKLOADS, *(f"n868.{stage}" for stage in N868_STAGES)]
    times = {r: {s: [] for s in subjects} for r in rows}
    mismatches = dict.fromkeys(WORKLOADS, 0)
    orders = ("ABC", "CBA", "BCA", "ACB", "CAB", "BAC")
    for k in range(rounds):
        for w in WORKLOADS:
            out = {}
            for s in orders[(k + len(w)) % len(orders)]:
                seconds, out[s], stages = subjects[s].run(w, k)
                times[w][s].append(seconds)
                for stage in N868_STAGES if w == "n868" else ():
                    times[f"n868.{stage}"][s].append(stages[stage])
            mismatches[w] += out["A"] != out["B"]
    report = {}
    for r in rows:
        a, b, c = (np.array(times[r][s]) for s in "ABC")
        report[r] = (float(np.median(b / a)), float(np.mean(b < a)),
                     float(np.median(c / a)), mismatches.get(r), float(np.median(a)) * 1e3)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--parent", metavar="REV", help="git revision to compare against")
    which.add_argument("--parent-src", metavar="DIR", type=Path,
                       help="directory holding the parent's comreg package")
    parser.add_argument("--rounds", type=int, default=300)
    args = parser.parse_args()
    tmp = None
    try:
        if args.parent is not None:
            tmp = Path(tempfile.mkdtemp(prefix="ab-parent-"))
            parent_src = export_rev(args.parent, tmp)
        else:
            parent_src = args.parent_src.resolve()
        report = run(parent_src, args.rounds)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.rounds} rounds, one BLAS thread; ratios are change / parent, paired per round")
    print(f"{'workload':<14} {'parent ms':>9} {'ratio':>7} {'faster':>7} {'A/A':>7} {'mismatches':>10}")
    for w, (ratio, faster, control, bad, ms) in report.items():
        print(f"{w:<14} {ms:9.2f} {ratio:7.3f} {faster:7.0%} {control:7.3f} "
              f"{'-' if bad is None else bad:>10}")


if __name__ == "__main__":
    main()
