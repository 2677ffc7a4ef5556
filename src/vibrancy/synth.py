"""Deterministic synthetic cities with planted archetypes.

The generator assigns each cell one of k archetype signature matrices,
perturbs it with seeded Gaussian noise, and decomposes the noisy totals
into 15-minute traffic rows (a TrafficTable) so the whole ingest and
aggregation path is exercised end to end. POIs are drawn from Poisson
intensities tied to each cell's archetype, which plants a known
association between cluster membership and third-place covariates: one
``poisson`` call draws the count of every (cell, POI label) pair, and one
``random`` call then places all the POIs uniformly in their cells.
Everything derives from one seed through three named substreams
(assignment, noise, POIs), so regenerating from the same spec yields
byte-identical files.

``write_city`` writes the traffic CSV one batch of ``_WRITE_BATCH`` rows at
a time. It formats each distinct (timestamp, service, direction) once, and
within a batch each distinct cell and volume once, then joins each line
from those three texts, so its memory does not grow with the table.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta
from functools import partial
from itertools import chain
from math import ceil, sqrt
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .clustering import adjusted_rand_index, export_labels_csv
from .errors import InvalidSpecError
from .features import THIRD_PLACE_CATEGORIES, THIRD_PLACE_HEADER
from .grid import CellId, CityRegion, GridSpec, save_region
from .ingest import DIRECTIONS, POI_HEADER, TAXONOMY_HEADER, TRAFFIC_HEADER, PoiRecord
from .ingest import _WRITE_BATCH, Taxonomy, TrafficTable, write_csv
from .signatures import DAY_TYPES, N_BINS, WEEKDAY, day_type_of

WINDOW_START = date(2019, 3, 16)
WINDOW_DAYS = 77

#: POI labels emitted per third-place category, with their OSM source keys
SYNTH_POI_LABELS = {
    "commercial_services": ("bank", "pharmacy", "hairdresser", "post_office"),
    "commercial_venues": ("supermarket", "clothes", "bakery", "marketplace"),
    "eating_and_drinking": ("restaurant", "bar", "cafe", "pub"),
    "outdoor": ("park", "garden", "playground", "pitch"),
    "organised_activities": ("sports_centre", "swimming_pool", "theatre", "cinema"),
}

SYNTH_POI_SOURCES = {
    "bank": "amenity", "pharmacy": "amenity", "hairdresser": "shop",
    "post_office": "amenity", "supermarket": "shop", "clothes": "shop",
    "bakery": "shop", "marketplace": "amenity", "restaurant": "amenity",
    "bar": "amenity", "cafe": "amenity", "pub": "amenity", "park": "leisure",
    "garden": "leisure", "playground": "leisure", "pitch": "leisure",
    "sports_centre": "leisure", "swimming_pool": "leisure",
    "theatre": "amenity", "cinema": "amenity",
}

#: every synth POI label, category by category in ``THIRD_PLACE_CATEGORIES`` order
_POI_LABELS = tuple(label for cat in THIRD_PLACE_CATEGORIES for label in SYNTH_POI_LABELS[cat])

_VALID_SLOTS = (1, 2, 4, 8)  # keep 15-minute alignment when splitting a 2h bin


def window_dates(day_type: str, n_days: int) -> list[date]:
    """First n dates of the study window matching the day type."""
    out: list[date] = []
    for i in range(WINDOW_DAYS):
        d = WINDOW_START + timedelta(days=i)
        if day_type_of(d) == day_type:
            out.append(d)
            if len(out) == n_days:
                return out
    raise InvalidSpecError(f"window holds fewer than {n_days} {day_type} dates")


def default_archetypes(k: int, depth: int, base: float = 2.0, amplitude: float = 20.0) -> np.ndarray:
    """Well-separated smooth daily curves: archetype a peaks 12a/k bins into the
    day, with a small per-category phase shift."""
    bins = np.arange(N_BINS, dtype=np.float64)
    arch = np.empty((k, N_BINS, depth))
    for a in range(k):
        for d in range(depth):
            mu = (12.0 * a / k + 1.5 * d) % 12.0
            delta = np.minimum(np.abs(bins - mu), 12.0 - np.abs(bins - mu))
            arch[a, :, d] = base + amplitude * np.exp(-0.5 * (delta / 1.5) ** 2)
    return arch


def default_poi_intensity(k: int, low: float = 0.2, high: float = 8.0) -> np.ndarray:
    """Expected POIs per category per cell, rising with the archetype index."""
    out = np.empty((k, len(THIRD_PLACE_CATEGORIES)))
    for a in range(k):
        out[a, :] = low + (high - low) * (a / (k - 1) if k > 1 else 1.0)
    return out


def _label_intensity(poi_intensity: np.ndarray) -> np.ndarray:
    """Expected POIs per label, one column per ``_POI_LABELS`` entry: each
    category's intensity (a column of ``poi_intensity``) over its label count."""
    sizes = np.array([len(SYNTH_POI_LABELS[cat]) for cat in THIRD_PLACE_CATEGORIES])
    category = np.repeat(np.arange(len(sizes)), sizes)
    return poi_intensity[:, category] / sizes[category]


@dataclass
class SynthSpec:
    seed: int
    n_cells: int
    k_true: int = 3
    categories: tuple[str, ...] = ("cat00", "cat01", "cat02", "cat03")
    archetypes: Optional[np.ndarray] = None  # (k_true, 12, D)
    noise_sigma: float = 1.0
    poi_intensity: Optional[np.ndarray] = None  # (k_true, 5)
    day_type: str = WEEKDAY
    n_days: int = 1
    slots_per_bin: int = 2
    region_name: str = "synthcity"
    cell_size: float = 100.0

    def __post_init__(self):
        if self.k_true < 2:
            raise InvalidSpecError("k_true must be at least 2")
        if self.n_cells < self.k_true:
            raise InvalidSpecError("need at least one cell per archetype")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidSpecError("noise_sigma must be finite and nonnegative")
        if self.day_type not in DAY_TYPES:
            raise InvalidSpecError(f"day_type must be one of {DAY_TYPES}")
        if self.slots_per_bin not in _VALID_SLOTS:
            raise InvalidSpecError(f"slots_per_bin must be one of {_VALID_SLOTS}")
        if self.n_days < 1:
            raise InvalidSpecError("n_days must be at least 1")
        self.categories = tuple(self.categories)
        if not self.categories:
            raise InvalidSpecError("need at least one category")
        if len(set(self.categories)) < len(self.categories):
            raise InvalidSpecError(f"category repeated in {list(self.categories)}")
        if self.archetypes is None:
            self.archetypes = default_archetypes(self.k_true, len(self.categories))
        self.archetypes = np.asarray(self.archetypes, dtype=np.float64)
        if self.archetypes.shape != (self.k_true, N_BINS, len(self.categories)):
            raise InvalidSpecError(
                f"archetypes must be ({self.k_true}, {N_BINS}, {len(self.categories)})"
            )
        if not np.isfinite(self.archetypes).all() or (self.archetypes < 0).any():
            raise InvalidSpecError("archetype values must be finite and nonnegative")
        if self.poi_intensity is None:
            self.poi_intensity = default_poi_intensity(self.k_true)
        self.poi_intensity = np.asarray(self.poi_intensity, dtype=np.float64)
        if self.poi_intensity.shape != (self.k_true, len(THIRD_PLACE_CATEGORIES)):
            raise InvalidSpecError(
                f"poi_intensity must be ({self.k_true}, {len(THIRD_PLACE_CATEGORIES)})"
            )
        if not np.isfinite(self.poi_intensity).all() or (self.poi_intensity < 0).any():
            raise InvalidSpecError("poi_intensity must be finite and nonnegative")
        try:  # numpy refuses a mean near 2**63 or above
            np.random.default_rng(0).poisson(_label_intensity(self.poi_intensity))
        except ValueError as exc:
            raise InvalidSpecError(f"poi_intensity is too large to draw from: {exc}") from None

    def separation(self) -> float:
        """Smallest pairwise distance between archetype matrices."""
        best = np.inf
        for i in range(self.k_true):
            for j in range(i + 1, self.k_true):
                d = sqrt(((self.archetypes[i] - self.archetypes[j]) ** 2).sum())
                best = min(best, d)
        return best

    def separation_ratio(self) -> float:
        return np.inf if self.noise_sigma == 0 else self.separation() / self.noise_sigma


@dataclass
class SynthTruth:
    spec: SynthSpec
    region: CityRegion
    cells: list[CellId]  # scan order; aligns with archetype_of
    archetype_of: np.ndarray  # (n,), planted labels 1..k_true
    traffic: TrafficTable
    pois: list[PoiRecord]
    service_taxonomy: Taxonomy
    place_taxonomy: Taxonomy
    targets: np.ndarray = field(repr=False, default=None)  # (n, 12, D) noisy curves


def _plant(spec: SynthSpec):
    """Archetype assignment and noisy per-cell target curves (streams 0 and 1)."""
    seqs = np.random.SeedSequence(spec.seed).spawn(3)
    rng_assign = np.random.default_rng(seqs[0])
    rng_noise = np.random.default_rng(seqs[1])
    rng_poi = np.random.default_rng(seqs[2])

    n = spec.n_cells
    archetype_of = np.array([(i % spec.k_true) + 1 for i in range(n)], dtype=np.int64)
    rng_assign.shuffle(archetype_of)
    targets = spec.archetypes[archetype_of - 1].copy()
    if spec.noise_sigma > 0:
        targets += spec.noise_sigma * rng_noise.standard_normal(targets.shape)
        np.maximum(targets, 0.0, out=targets)
    return archetype_of, targets, rng_poi


def planted_stack(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Shortcut past the traffic table: the (n, 12, D) target curves and the
    planted labels, exactly as generate() would aggregate them per day."""
    archetype_of, targets, _ = _plant(spec)
    return targets, archetype_of


def generate(spec: SynthSpec) -> SynthTruth:
    """Produce the full synthetic city: region, traffic rows, and POIs."""
    return generate_for_day_types(spec, [spec.day_type])


def generate_for_day_types(spec: SynthSpec, day_types: Sequence[str]) -> SynthTruth:
    """One synthetic city whose traffic covers several day types.

    The city is planted once (archetypes, noisy targets, POIs): the seed
    streams do not depend on the day type. Its traffic holds each day
    type's rows in turn, and the returned spec carries the first day type.
    """
    if not day_types:
        raise InvalidSpecError("need at least one day type")
    for day_type in day_types:
        if day_type not in DAY_TYPES:
            raise InvalidSpecError(f"day_type must be one of {DAY_TYPES}")
    if len(set(day_types)) < len(day_types):
        raise InvalidSpecError(f"day type repeated in {list(day_types)}")
    spec = replace(spec, day_type=day_types[0])
    n_cols = ceil(sqrt(spec.n_cells))
    n_rows = ceil(spec.n_cells / n_cols)
    grid = GridSpec(0.0, 0.0, n_cols, n_rows, spec.cell_size, spec.region_name)
    cells = [CellId(i % n_cols, i // n_cols) for i in range(spec.n_cells)]
    region = CityRegion(grid, frozenset(cells))

    archetype_of, targets, rng_poi = _plant(spec)
    pois = _draw_pois(spec, grid, archetype_of, rng_poi)

    # two services per category, which the traffic rows alternate
    service_taxonomy = Taxonomy({f"svc-{cat}-{x}": cat for cat in spec.categories for x in "ab"},
                                spec.categories)
    place_taxonomy = Taxonomy(
        {label: cat for cat in THIRD_PLACE_CATEGORIES for label in SYNTH_POI_LABELS[cat]},
        THIRD_PLACE_CATEGORIES,
    )
    return SynthTruth(
        spec=spec,
        region=region,
        cells=cells,
        archetype_of=archetype_of,
        traffic=_traffic(spec, targets, n_cols, day_types, tuple(service_taxonomy.mapping)),
        pois=pois,
        service_taxonomy=service_taxonomy,
        place_taxonomy=place_taxonomy,
        targets=targets,
    )


def _draw_pois(spec: SynthSpec, grid: GridSpec, archetype_of: np.ndarray,
               rng: np.random.Generator) -> list[PoiRecord]:
    """The city's POIs, from two draws on the POI stream.

    One ``poisson`` call draws every (cell, label) count from the matrix of
    ``_label_intensity`` rows picked by each cell's archetype; one
    ``random((total, 2))`` call then places each POI uniformly in its cell.
    POIs run by cell (scan order), then label in ``SYNTH_POI_LABELS`` order,
    then draw.
    """
    counts = rng.poisson(_label_intensity(spec.poi_intensity)[archetype_of - 1]).ravel()
    cell, label = np.divmod(np.repeat(np.arange(len(counts)), counts), len(_POI_LABELS))
    offset = rng.random((len(cell), 2))
    x = grid.origin_x + (cell % grid.n_cols + offset[:, 0]) * grid.cell_size
    y = grid.origin_y + (cell // grid.n_cols + offset[:, 1]) * grid.cell_size
    names = np.array(_POI_LABELS, dtype=object)[label].tolist()
    fields = zip(x.tolist(), y.tolist(), names, map(SYNTH_POI_SOURCES.__getitem__, names))
    # The collector tracks every record, a tuple, and the collections so many
    # new ones set off would rescan them all: about half the time, unpaused.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # tuple.__new__ makes each record without PoiRecord.__new__'s Python frame
        return list(map(partial(tuple.__new__, PoiRecord), fields))
    finally:
        if enabled:
            gc.enable()


def _traffic(spec: SynthSpec, targets: np.ndarray, n_cols: int,
             day_types: Sequence[str], services: tuple[str, ...]) -> TrafficTable:
    """The traffic rows that carry ``targets`` on each day type's dates.

    Each nonzero target of a cell, bin and category is split evenly over
    the bin's ``slots_per_bin`` equal slots, alternating the category's two
    services (``services[2 * category]`` and the next), and over both
    directions. Rows are ordered by day type, cell, date, bin, category,
    slot, then downlink before uplink.
    """
    slots, n_days = spec.slots_per_bin, spec.n_days
    per_target = 2 * slots  # rows per nonzero target and date
    step = timedelta(minutes=120 // slots)
    dates = [day for day_type in day_types for day in window_dates(day_type, n_days)]
    stamps = tuple(
        datetime(day.year, day.month, day.day) + (b * slots + s) * step
        for day in dates for b in range(N_BINS) for s in range(slots)
    )
    n, _, depth = targets.shape
    # day type, cell, date and bin * depth + category of each nonzero target
    # on each date, in row order
    nonzero = (targets != 0).reshape(1, n, 1, N_BINS * depth)
    t, i, day, bd = np.nonzero(
        np.broadcast_to(nonzero, (len(day_types), n, n_days, N_BINS * depth)))
    slot = np.tile(np.arange(slots).repeat(2), len(i))
    stamp = ((t * n_days + day) * N_BINS + bd // depth).repeat(per_target) * slots + slot
    return TrafficTable(
        col=(i % n_cols).repeat(per_target),
        row=(i // n_cols).repeat(per_target),
        stamp=stamp.astype(np.int32),
        service=((bd % depth * 2).repeat(per_target) + slot % 2).astype(np.int32),
        direction=np.tile(np.arange(2, dtype=np.int8), len(i) * slots),
        volume=(targets.reshape(n, -1)[i, bd] / per_target).repeat(per_target),
        stamps=stamps,
        services=services,
        directions=DIRECTIONS,
    )


def _texts(keys: np.ndarray, texts_of) -> np.ndarray:
    """The text of each of ``keys``, as an object array: ``texts_of`` maps
    the sorted distinct keys to their texts, so each is formatted once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(texts_of(distinct), dtype=object)[inverse]


def _traffic_lines(t: TrafficTable):
    """The data lines of ``t``'s traffic CSV, ``_WRITE_BATCH`` rows at a time.

    The ``timestamp,service,direction,`` text of each distinct triple is
    formatted once; within a batch, so is the ``col,row,`` text of each
    distinct cell and the ``repr`` of each distinct volume bit pattern (so
    ``-0.0`` keeps its sign). Each line joins its three texts.
    """
    stamps = [ts.strftime("%Y-%m-%dT%H:%M") for ts in t.stamps]
    n_services, n_directions = len(t.services), len(t.directions)
    # each triple's text, kept across batches: there are at most
    # len(stamps) * n_services * n_directions, however long the table
    triples: dict[int, str] = {}

    def triple_texts(keys):
        out = []
        for key in keys.tolist():
            if key not in triples:
                rest, d = divmod(key, n_directions)
                stamp, service = divmod(rest, n_services)
                triples[key] = f"{stamps[stamp]},{t.services[service]},{t.directions[d]},"
            out.append(triples[key])
        return out

    for lo in range(0, len(t), _WRITE_BATCH):
        rows = slice(lo, lo + _WRITE_BATCH)
        # a cell's key: the ranks of its col and of its row among the batch's
        cols, col_of = np.unique(t.col[rows], return_inverse=True)
        cell_rows, row_of = np.unique(t.row[rows], return_inverse=True)
        cols, cell_rows, n = cols.tolist(), cell_rows.tolist(), len(cell_rows)
        cell = _texts(col_of * n + row_of,
                      lambda keys: [f"{cols[k // n]},{cell_rows[k % n]}," for k in keys.tolist()])
        triple = _texts((t.stamp[rows].astype(np.int64) * n_services + t.service[rows])
                        * n_directions + t.direction[rows], triple_texts)
        volume = _texts(t.volume[rows].view(np.int64),
                        lambda bits: list(map(repr, bits.view(np.float64).tolist())))
        yield map("".join, zip(cell.tolist(), triple.tolist(), volume.tolist()))


def write_city(truth: SynthTruth, out_dir) -> dict[str, Path]:
    """Write the CSV and JSON files the ingest layer consumes, plus the planted
    truth labels. Deterministic bytes for a given spec."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "region": out / "region.json",
        "traffic": out / "traffic.csv",
        "pois": out / "pois.csv",
        "truth": out / "truth_labels.csv",
        "service_taxonomy": out / "service_taxonomy.csv",
        "third_places": out / "third_places.csv",
    }
    save_region(truth.region, paths["region"])
    write_csv(paths["traffic"], TRAFFIC_HEADER, chain.from_iterable(_traffic_lines(truth.traffic)))
    write_csv(paths["pois"], POI_HEADER, (f"{p.x!r},{p.y!r},{p.label},{p.source_category}"
                                          for p in truth.pois))
    export_labels_csv(truth.cells, truth.archetype_of, paths["truth"], "archetype")
    write_csv(paths["service_taxonomy"], TAXONOMY_HEADER,
              map(",".join, truth.service_taxonomy.mapping.items()))
    write_csv(paths["third_places"], THIRD_PLACE_HEADER,
              map(",".join, truth.place_taxonomy.mapping.items()))
    return paths
