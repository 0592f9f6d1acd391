"""One sha256 per benchmark operation, built-in catalog, figure and script, to compare trees.

    python scripts/digests.py [--root DIR]

Prints one line "<name> <sha256>" per artifact:

* each operation of the three benchmark workloads (perfbench/workloads.py,
  imported read-only) at each seed, hashed from its oracle's verdict and
  output digest, as `<workload>/s<seed>/<label>`;
* each built-in field's `catalog_attractors` at alpha = 1/3, hashed from the
  JSON of its attractors' `to_dict()`, exponents included, as
  `catalog/<field>`;
* each `reproduce` bundle (`singularflow.figures`), hashed from its files'
  sorted names and bytes, as `reproduce/<figure>`;
* each end-to-end script of the tree's `scripts/`, run at its defaults on
  the tree's `src/` with any `--outdir` a fresh directory, hashed from its
  stdout (that directory replaced by `OUTDIR`) and the files it writes, as
  `script/<name>`;
* each command-line run of the CI workflow (.github/workflows/tier1.yml),
  its config written to a file and run through `cli.main` into a fresh
  directory, hashed from that directory's sorted file names and bytes, as
  `cli/<name>`.

DIR (default: the checkout this script is in) is the tree whose `src/` and
`perfbench/` are run, so the same script can hash two trees, such as a
change and its parent, in one process environment:

    python scripts/digests.py > tree.txt
    python scripts/digests.py --root ../parent > parent.txt
    diff parent.txt tree.txt

Bits can differ across machines and Python versions, but not between two
runs on one machine, so only a comparison made on one machine means
anything; no golden digests are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # as the benchmark runs

SEEDS = (1, 2, 3)
MODULES = ("fields", "integrators", "renorm", "attractors", "regularize", "continuation", "cli",
           "figures")
ALPHA = 1.0 / 3.0
# each end-to-end script with its arguments; "{outdir}" is a fresh directory
SCRIPTS = (
    ("saddle_inviscid_limits", ("--outdir", "{outdir}")),
    ("sphere_phase_scan", ()),
)
_SADDLE = "field = saddle2d\nalpha = 0.3333333333333333\n"
_BLEND = "regularization.kind = polynomial_blend\nregularization.g0 = 1.0, -2.0\n"
_ONRAY = f"{_SADDLE}x0 = -2.0, 0.0\nt0 = 0.0\nt1 = 4.0\n{_BLEND}"
# each command-line run of the CI workflow: (name, subcommand, config)
CLI_RUNS = (
    ("classify-sphere3d", "classify",
     "field = sphere3d\nalpha = 0.3333333333333333\nx0 = 0.0, 0.0, -1.0\n"),
    ("classify-ray", "classify", f"{_SADDLE}x0 = -2.0, 0.0\n"),
    ("simulate-tiny", "simulate", f"{_SADDLE}x0 = -1e-8, 0.0\nt1 = 1.0\n"),
    ("sweep-radii", "sweep",
     f"{_SADDLE}x0 = -1.0, 0.0\nt1 = 2.5\n{_BLEND}nu.list = 0.1, 0.1000001, 0.01\n"),
    ("sweep-cycle", "sweep",
     "field = sphere3d\nalpha = 0.3333333333333333\nx0 = 0.0, 0.0, -1.0\nt0 = 0.0\nt1 = 4.01\n"
     "regularization.kind = polynomial_blend\nregularization.g0 = 0.0, 0.1, 1.0\n"
     "nu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\n"
     "nu.geometric.chi = 0.7\nnu.geometric.n_first = 1\nnu.geometric.n_last = 9\n"
     "sweep.t_start = 3.1\nsweep.t_stop = 4.0\nsweep.t_points = 90\n"),
    ("sweep-offray", "sweep",
     f"{_SADDLE}x0 = -0.9396926207859083, 0.3420201433256689\nt0 = 0.0\nt1 = 2.8\n{_BLEND}"
     "nu.list = 0.1, 0.03, 0.01\n"),
    ("sweep-onray", "sweep", f"{_ONRAY}nu.list = 0.1, 0.03, 0.01\n"),
    ("sweep-onray-up", "sweep", f"{_ONRAY}nu.list = 0.01, 0.03, 0.1\n"),
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def operation_digests(workloads, mods):
    for workload, generate in workloads.WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                ops = generate(random.Random(seed), tmp)
                ctx = workloads.Context(mods)
                for op in ops:
                    with tempfile.TemporaryDirectory(dir=tmp) as workdir:
                        ctx.workdir = workdir
                        outcome = op.check(op.call(ctx), ctx)
                    yield f"{workload}/s{seed}/{op.label}", sha(f"{outcome.ok}|{outcome.digest}")


def catalog_digests(mods):
    fields, attractors = mods["fields"], mods["attractors"]
    for name in fields.BUILTIN_NAMES:
        field = fields.builtin_field(name, None if name == "sphere3d" else ALPHA)
        catalog = [a.to_dict() for a in attractors.catalog_attractors(field)]
        yield f"catalog/{name}", sha(json.dumps(catalog))


def bundle_digests(mods):
    figures = mods["figures"]
    for figure in figures.FIGURE_IDS:
        with tempfile.TemporaryDirectory() as outdir:
            figures.reproduce(figure, outdir)
            yield f"reproduce/{figure}", files_digest(hashlib.sha256(), outdir)


def files_digest(digest, outdir):
    for name in sorted(os.listdir(outdir)):
        data = Path(outdir, name).read_bytes()
        # name and length first, so no two bundles hash the same stream
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def script_digests(root):
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for name, args in SCRIPTS:
        with tempfile.TemporaryDirectory() as outdir:
            command = [sys.executable, str(root / "scripts" / f"{name}.py")]
            command += [a.format(outdir=outdir) for a in args]
            stdout = subprocess.run(command, env=env, cwd=outdir, capture_output=True, text=True,
                                    check=True).stdout
            digest = hashlib.sha256(stdout.replace(outdir, "OUTDIR").encode())
            yield f"script/{name}", files_digest(digest, outdir)


def cli_digests(mods):
    cli = mods["cli"]
    for name, command, config in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            path, outdir = Path(tmp, "run.cfg"), Path(tmp, "out")
            path.write_text(config)
            code = cli.main([command, str(path), "--outdir", str(outdir), "--quiet"])
            if code != 0:
                raise RuntimeError(f"cli {name} exited {code}")
            yield f"cli/{name}", files_digest(hashlib.sha256(), outdir)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the tree to hash (default: this checkout)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    mods = {m: importlib.import_module(f"singularflow.{m}") for m in MODULES}
    package = Path(mods["fields"].__file__).resolve().parent
    if package != root / "src" / "singularflow":
        print(f"error: imported singularflow from {package}, not from {root}", file=sys.stderr)
        return 2
    workloads = importlib.import_module("workloads")
    for name, digest in itertools.chain(operation_digests(workloads, mods), catalog_digests(mods),
                                        bundle_digests(mods), script_digests(root),
                                        cli_digests(mods)):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
