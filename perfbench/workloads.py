"""Benchmark workloads: synthetic cities generated from a seed.

Each workload is a set of synthetic cities plus a `vibrancy run` config.
Inputs come only from the public synth API (`generate_for_day_types` and
`write_city`), so the program under test sees nothing but files. The same
seed gives byte-identical inputs; every seed plants k_true = 3 archetypes
at noise sigma = 1.0, which the correctness gate expects to recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

K_TRUE = 3
NOISE_SIGMA = 1.0
K_MIN, K_MAX, RESTARTS = 3, 10, 10


@dataclass(frozen=True)
class Workload:
    name: str
    n_cities: int
    n_cells: int
    n_categories: int
    n_days: int  # dates per day type
    day_types: tuple[str, ...]
    slots_per_bin: int  # traffic rows per (bin, category, direction) and date

    def scopes(self) -> int:
        return self.n_cities * len(self.day_types)


# Why these three: each puts most of a run into different layers, so a change
# to one layer moves one workload and should leave the others where they are.
# Sizes keep one `vibrancy run` near 1.5-2 s on a 2-CPU box, so a 36 s
# window holds about 20 samples; BENCHMARK.json says what each should move.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest_wide", n_cities=1, n_cells=30, n_categories=12, n_days=2,
            day_types=("weekday", "weekend"), slots_per_bin=2,
        ),
        Workload(
            "cluster_tall", n_cities=1, n_cells=360, n_categories=4, n_days=1,
            day_types=("weekday",), slots_per_bin=1,
        ),
        Workload(
            "city_fleet", n_cities=6, n_cells=16, n_categories=4, n_days=1,
            day_types=("weekday", "weekend"), slots_per_bin=1,
        ),
    )
}


def sub_seed(seed: int, i: int) -> int:
    """The i-th seed derived from ``seed`` (for a dataset, or a city in one)."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


@dataclass
class Inputs:
    config: Path
    rows: int  # traffic data rows over all cities
    csv_bytes: int  # traffic CSV bytes over all cities


def build_inputs(workload: Workload, seed: int, out_dir: Path, tr: Tracer) -> Inputs:
    """Generate the workload's cities into ``out_dir`` and write its config,
    under a ``synth.setup`` span."""
    from vibrancy.synth import SynthSpec, generate_for_day_types, write_city

    categories = tuple(f"cat{i:02d}" for i in range(workload.n_categories))
    rows = csv_bytes = 0
    sections = []
    with tr.span("synth.setup"):
        for j in range(workload.n_cities):
            name = f"city{j}"
            spec = SynthSpec(
                seed=sub_seed(seed, j), n_cells=workload.n_cells, k_true=K_TRUE,
                categories=categories, noise_sigma=NOISE_SIGMA, n_days=workload.n_days,
                slots_per_bin=workload.slots_per_bin, region_name=name,
            )
            with tr.span("synth.generate_for_day_types"):
                truth = generate_for_day_types(spec, workload.day_types)
            with tr.span("synth.write_city"):
                paths = write_city(truth, out_dir / name)
            rows += len(truth.traffic)
            csv_bytes += paths["traffic"].stat().st_size
            sections.append(
                f"[city.{name}]\n"
                f"region = {name}/region.json\n"
                f"traffic = {name}/traffic.csv\n"
                f"pois = {name}/pois.csv\n"
                f"truth = {name}/truth_labels.csv\n"
            )
        config = out_dir / "bench.cfg"
        config.write_text(
            f"seed = {seed}\n"
            "level = local\n"
            f"day_types = {', '.join(workload.day_types)}\n"
            f"k_min = {K_MIN}\nk_max = {K_MAX}\nrestarts = {RESTARTS}\n"
            "service_taxonomy = city0/service_taxonomy.csv\n"
            "third_place_taxonomy = city0/third_places.csv\n\n" + "\n".join(sections),
            encoding="utf-8",
        )
    tr.add("synth.rows", rows)
    return Inputs(config, rows, csv_bytes)
