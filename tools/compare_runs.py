"""Check that the working tree's run directories are byte-identical to a base revision's.

Usage: python tools/compare_runs.py [--base REV]   (REV defaults to HEAD)

The base's ``src/`` is extracted with ``git archive`` into a temporary
directory. Each side (the base, then the working tree's ``src/``) builds the
same inputs with its own synth: every ``perfbench`` workload at dataset
seeds 1-3 (``workloads.build_inputs``); the cities of ``vibrancy synth
--seed 7 --cells 200 --k-true 3 --day-types weekday weekend`` and of the same
options with ``--days 2 --categories 7`` (several dates a day type, an odd
category count); and the CI workflow's cities: ``--seed 7 --cells 1500
--k-true 3``, whose 17.5 MB traffic file is read in byte ranges, and two
750-cell cities over both day types, run at the local level (4 scopes,
cut into groups, one per CPU) and pooled at the global level. It then runs
``python -m vibrancy.cli run`` on each config, with one BLAS thread and no
bytecode written. Both sides work in the same temporary directory, one after
the other, because a manifest records the input paths.

Every input file, every run-directory file and each run's exit code and
output are hashed. The script prints each run that failed, each path whose
bytes differ (or that one side lacks), then ``N files compared, M differ``,
and exits 1 if a run failed or M > 0. It needs no network and writes
nothing inside the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SYNTH_CITY = ["--seed", "7", "--cells", "200", "--k-true", "3",
              "--day-types", "weekday", "weekend"]
SYNTH_CITIES = {"synth-7": SYNTH_CITY,
                "synth-7-days2-cat7": SYNTH_CITY + ["--days", "2", "--categories", "7"],
                "ci-1500": ["--seed", "7", "--cells", "1500", "--k-true", "3"]}
# the CI workflow's two-city fleet: city -> synth options, then level -> day types
FLEET = {name: ["--seed", seed, "--cells", "750", "--k-true", "3", "--name", name,
                "--day-types", "weekday", "weekend"] for name, seed in (("alpha", "7"),
                                                                        ("beta", "8"))}
FLEET_RUNS = {"local": "weekday, weekend", "global": "weekday"}


def _fleet_config(level: str, day_types: str) -> str:
    """The CI workflow's config over the fleet's cities, in its directory."""
    lines = ["seed = 4", f"level = {level}", f"day_types = {day_types}",
             "service_taxonomy = alpha/service_taxonomy.csv",
             "third_place_taxonomy = alpha/third_places.csv"]
    for name in FLEET:
        lines += [f"[city.{name}]", f"region = {name}/region.json",
                  f"traffic = {name}/traffic.csv", f"pois = {name}/pois.csv",
                  f"truth = {name}/truth_labels.csv"]
    return "\n".join(lines) + "\n"


# Builds every workload's datasets into argv[1], one directory per workload
# and seed, and prints each config path.
_BUILD = """
import sys
from pathlib import Path
from spans import Tracer
from workloads import WORKLOADS, build_inputs
for name, workload in WORKLOADS.items():
    for seed in map(int, sys.argv[2:]):
        print(build_inputs(workload, seed, Path(sys.argv[1]) / f"{name}-{seed}", Tracer()).config)
"""


def _run(argv: list[str], env: dict = None, log: Path = None) -> str:
    """Run ``argv`` and return its stdout; with ``log``, write its exit code,
    stdout and stderr there instead of failing on a nonzero exit."""
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if log is not None:
        log.write_text(f"exit {done.returncode}\n{done.stdout}{done.stderr}", encoding="utf-8")
    elif done.returncode:
        sys.exit(f"{' '.join(argv)} failed:\n{done.stderr}")
    return done.stdout


def _hashes(src: Path, work: Path) -> tuple[dict[str, str], list[str]]:
    """Build and run every dataset with the ``vibrancy`` package under
    ``src`` in an empty ``work``: the SHA-256 of every file left there, and
    the logs of the runs that failed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "perfbench")]))
    configs = {Path(p).parent.name: Path(p)  # run name -> config
               for p in _run([sys.executable, "-c", _BUILD, str(work / "inputs"),
                              *map(str, SEEDS)], env).split()}
    synth = [sys.executable, "-m", "vibrancy.cli", "synth"]
    for name, options in SYNTH_CITIES.items():
        city = work / "inputs" / name
        _run([*synth, *options, "--out", str(city)], env)
        configs[name] = city / "pipeline.cfg"
    fleet = work / "inputs" / "fleet"
    for name, options in FLEET.items():
        _run([*synth, *options, "--out", str(fleet / name)], env)
    for level, day_types in FLEET_RUNS.items():
        configs[f"fleet-{level}"] = fleet / f"{level}.cfg"
        configs[f"fleet-{level}"].write_text(_fleet_config(level, day_types), encoding="utf-8")
    for name, config in configs.items():
        out = work / "runs" / name
        out.parent.mkdir(parents=True, exist_ok=True)
        _run([sys.executable, "-m", "vibrancy.cli", "run", "--config", str(config),
              "--out", str(out)], env, log=out.with_suffix(".log"))
    logs = sorted((work / "runs").glob("*.log"))
    failed = [str(log.relative_to(work)) for log in logs
              if not log.read_text(encoding="utf-8").startswith("exit 0\n")]
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare with (HEAD)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        tmp = Path(tmp)
        archive = tmp / "base.tar"
        _run(["git", "-C", str(ROOT), "archive", "--output", str(archive), args.base, "src"])
        base_src = tmp / "base"
        base_src.mkdir()
        _run(["tar", "-xf", str(archive), "-C", str(base_src)])
        work = tmp / "work"
        sides = []
        for src in (base_src / "src", ROOT / "src"):
            work.mkdir()
            sides.append(_hashes(src, work))
            shutil.rmtree(work)
    (base, base_failed), (tree, tree_failed) = sides
    for side, failed in (("the base", base_failed), ("the working tree", tree_failed)):
        for log in failed:
            print(f"{log}: the run failed on {side}")
    paths = sorted(base.keys() | tree.keys())
    differ = [p for p in paths if base.get(p) != tree.get(p)]
    for path in differ:
        print(path if path in base and path in tree else
              f"{path} (only in {'the base' if path in base else 'the working tree'})")
    print(f"{len(paths)} files compared, {len(differ)} differ")
    return 1 if differ or base_failed or tree_failed else 0


if __name__ == "__main__":
    sys.exit(main())
