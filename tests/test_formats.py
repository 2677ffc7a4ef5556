"""File formats shared across stages: the framed binary layout behind tensor
and cluster-model files, the logit model file, and the config codec behind
config files and run manifests."""

import json
import math
import struct
import tracemalloc
from dataclasses import MISSING, fields

import pytest

from conftest import tensor_of
from vibrancy.clustering import kmeans, read_model, write_model
from vibrancy.config import (
    CityConfig,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from vibrancy.errors import DataError, is_json, json_field
from vibrancy.grid import CellId, CityRegion, GridSpec, grid_to_dict, load_region, save_region
from vibrancy.logit import MultinomialLogit, fit, load_logit, save_logit
from vibrancy.signatures import (
    TensorSegment,
    read_framed,
    read_tensor,
    relative_risk,
    write_framed,
    write_tensor,
)


def _split(raw: bytes):
    (blob_len,) = struct.unpack("<I", raw[4:8])
    return raw[:4], raw[8 : 8 + blob_len], raw[8 + blob_len :]


def _frame(magic: bytes, blob: bytes, payload: bytes) -> bytes:
    return magic + struct.pack("<I", len(blob)) + blob + payload


def _with_version(raw: bytes, version) -> bytes:
    magic, blob, payload = _split(raw)
    header = json.loads(blob)
    header["version"] = version
    return _frame(magic, json.dumps(header).encode("utf-8"), payload)


def _header_edit(edit):
    """A corruption of a framed file's bytes by ``edit`` of its parsed header."""
    def corrupt(raw: bytes) -> bytes:
        magic, blob, payload = _split(raw)
        header = json.loads(blob)
        edit(header)
        return _frame(magic, json.dumps(header).encode("utf-8"), payload)
    return corrupt


BOTH = ("sig", "clusters_bin")

# case id -> (the framed files it applies to, corruption of the file's bytes)
CORRUPTIONS = {
    "bad magic": (BOTH, lambda raw: b"XXXX" + raw[4:]),
    "unknown version": (BOTH, lambda raw: _with_version(raw, 99)),
    "header cut short": (BOTH, lambda raw: raw[: 8 + len(_split(raw)[1]) // 2]),
    "header not JSON": (BOTH, lambda raw: _frame(raw[:4], b"{not json", _split(raw)[2])),
    "payload cut short": (BOTH, lambda raw: raw[:-100]),
    "payload too long": (BOTH, lambda raw: raw + bytes(8)),
    "converged a string": (("clusters_bin",), _header_edit(
        lambda header: header.update(converged="false"))),
    "n_iter a fraction": (("clusters_bin",), _header_edit(
        lambda header: header.update(n_iter=4.7))),
    "cell not integers": (("sig",), _header_edit(
        lambda header: header["cells"].__setitem__(1, [0.5, 0]))),
}


def _tensor_file(path, rng):
    tensor = tensor_of(rng.uniform(size=(5, 12, 3)))
    tensor.segments = [TensorSegment("toytown", GridSpec(0, 0, 5, 1), 0, 5)]
    write_tensor(relative_risk(tensor), path)
    return read_tensor


def _model_file(path, rng):
    write_model(kmeans(rng.uniform(size=(8, 12, 3)), 2, seed=1), path)
    return read_model


FRAMED_FILES = {"sig": _tensor_file, "clusters_bin": _model_file}
FRAMED_CASES = [(kind, case) for kind in BOTH for case in sorted(CORRUPTIONS)
                if kind in CORRUPTIONS[case][0]]


@pytest.mark.parametrize("kind, corruption", FRAMED_CASES,
                         ids=[f"{kind}-{case}" for kind, case in FRAMED_CASES])
def test_corrupt_framed_file_is_a_data_error_naming_it(tmp_path, rng, kind, corruption):
    path = tmp_path / "artifact"
    read = FRAMED_FILES[kind](path, rng)
    read(path)  # the intact file reads back
    path.write_bytes(CORRUPTIONS[corruption][1](path.read_bytes()))
    with pytest.raises(DataError) as info:
        read(path)
    assert str(path) in str(info.value)


def test_unreadable_framed_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        read_tensor(tmp_path / "absent.sig")


def test_framed_payload_is_written_in_place_and_read_with_one_copy(tmp_path, rng):
    # a 7.32 MiB payload: the writer takes it from the array's own buffer, and
    # the reader holds the file's bytes and one array copy of the payload
    values = rng.normal(size=(2000, 12, 40))
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        write_framed(path, b"TEST", {"shape": list(values.shape)}, values)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_framed(path, b"TEST", "test", lambda h: h["shape"], lambda h, v: v)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blob = json.dumps({"shape": list(values.shape), "version": 1},
                      separators=(",", ":")).encode()
    assert path.read_bytes() == _frame(b"TEST", blob, values.tobytes())
    assert back.tobytes() == values.tobytes() and back.flags.writeable
    assert written < 0.01 * values.nbytes
    assert read < 2.05 * values.nbytes


def _edit_json(edit):
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


LOGIT_CORRUPTIONS = {
    "not JSON": lambda text: text[: len(text) // 2],
    "not an object": lambda text: "[1, 2]",
    "missing key": _edit_json(lambda doc: doc.pop("weights")),
    "bad value": _edit_json(lambda doc: doc.update({"lambda": "heavy"})),
    "classes not a list": _edit_json(lambda doc: doc.update({"classes": 3})),
    "weights of the wrong shape": _edit_json(lambda doc: doc["weights"].pop()),
    "converged a string": _edit_json(lambda doc: doc.update({"converged": "no"})),
    "n_iter a fraction": _edit_json(lambda doc: doc.update({"n_iter": 7.9})),
    "lambda a bool": _edit_json(lambda doc: doc.update({"lambda": True})),
    "class a string": _edit_json(lambda doc: doc.update({"classes": ["1", "2"]})),
}


@pytest.mark.parametrize("corruption", sorted(LOGIT_CORRUPTIONS))
def test_corrupt_logit_file_is_a_data_error_naming_it(tmp_path, rng, corruption):
    path = tmp_path / "model.json"
    X = rng.normal(size=(30, 3))
    save_logit(fit(X, (X[:, 0] > 0).astype(int) + 1, lam=1.0), path)
    load_logit(path)  # the intact file reads back
    path.write_text(LOGIT_CORRUPTIONS[corruption](path.read_text()))
    with pytest.raises(DataError) as info:
        load_logit(path)
    assert str(path) in str(info.value)


def test_nan_loss_and_integer_lambda_read_back(tmp_path):
    path = tmp_path / "model.json"
    save_logit(MultinomialLogit((1, 2), [[0.5], [-0.5]], [0.0, 0.0], 1, ("x",)), path)
    doc = json.loads(path.read_text())
    assert doc["lambda"] == 1 and type(doc["lambda"]) is int
    assert math.isnan(doc["final_loss"])
    model = load_logit(path)
    assert model.lam == 1.0 and type(model.lam) is float
    assert math.isnan(model.final_loss)


def test_unreadable_logit_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="absent.json"):
        load_logit(tmp_path / "absent.json")


GRID = grid_to_dict(GridSpec(0, 0, 5, 2))

# each bad entry follows a good one, so the file still lists active cells
REGION_CORRUPTIONS = {
    "cell entry too short": {"active_cells": [[0, 1], [1]]},
    "cell entry too long": {"active_cells": [[0, 1], [1, 1, 3]]},
    "cell entry not a list": {"active_cells": [[0, 1], 7]},
    "cell entry not integers": {"active_cells": [[0, 1], ["a", 1]]},
    "cell entry a float": {"active_cells": [[0, 1], [1.5, 1]]},
    "cell list not a list": {"active_cells": {"col": 1, "row": 1}},
    "run entry too short": {"active_runs": [[0, 0, 2], [1, 1]]},
    "run entry not a list": {"active_runs": [[0, 0, 2], "1,1,2"]},
    "run entry not integers": {"active_runs": [[0, 0, 2], [1, 1, None]]},
    "run length negative": {"active_runs": [[0, 0, 2], [1, 1, -2]]},
    "declared area not a number": {"declared_area_km2": "large"},
    "cell_size a bool": {"grid": {**GRID, "cell_size": True}},
    "origin_x a string": {"grid": {**GRID, "origin_x": "12"}},
    "region_name a number": {"grid": {**GRID, "region_name": 5}},
}


def test_json_integer_in_a_float_field_reads_as_a_float(tmp_path):
    path = tmp_path / "region.json"
    save_region(CityRegion(GridSpec(0, 0, 5, 2), frozenset({CellId(0, 0)}), 1), path)
    assert json.loads(path.read_text())["declared_area_km2"] == 1
    region = load_region(path)
    for value in (region.grid.origin_x, region.grid.origin_y, region.declared_area_km2):
        assert type(value) is float


@pytest.mark.parametrize("value, kind, holds", [
    (3, int, True), (3, float, True), (3.0, int, False), (3.7, float, True),
    (True, int, False), (True, float, False), (True, bool, True), (1, bool, False),
    ("3", int, False), ("no", bool, False), ("x", str, True), (5, str, False),
    ([1], list, True), ("a", list, False), ({}, dict, True), (None, dict, False),
])
def test_one_predicate_decides_a_json_type(value, kind, holds):
    assert is_json(value, kind) is holds
    if holds:
        assert json_field({"key": value}, "key", kind) == value
    else:
        with pytest.raises(TypeError, match="key"):
            json_field({"key": value}, "key", kind)


def test_json_field_returns_a_float_for_a_float_field():
    assert type(json_field({"x": 2}, "x", float)) is float
    with pytest.raises(ValueError, match="x"):
        json_field({"x": 10**400}, "x", float)


@pytest.mark.parametrize("corruption", sorted(REGION_CORRUPTIONS))
def test_corrupt_region_file_is_a_data_error_naming_it(tmp_path, corruption):
    path = tmp_path / "region.json"
    save_region(CityRegion(GridSpec(0, 0, 5, 2), frozenset({CellId(0, 0), CellId(1, 0)})), path)
    assert json.loads(path.read_text())["grid"] == GRID
    load_region(path)  # the intact file reads back
    doc = json.loads(path.read_text())
    doc.update(REGION_CORRUPTIONS[corruption])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_region(path)
    assert str(path) in str(info.value)


def _non_default_config(root) -> PipelineConfig:
    cities = [
        CityConfig(name, root / f"{name}_region.json", root / f"{name}_traffic.csv",
                   root / f"{name}_pois.csv", root / f"{name}_truth.csv")
        for name in ("alpha", "beta")
    ]
    config = PipelineConfig(
        cities=cities,
        service_taxonomy=root / "services.csv",
        third_place_taxonomy=root / "third_places.csv",
        day_types=["weekend", "weekday"],
        level="global",
        k_min=4,
        k_max=7,
        seed=11,
        restarts=2,
        lam=0.25,
        rr_cap=1000.0,
        min_label_count=3,
        drop_silent_cells=True,
        mean_per_day=True,
        holdout=0.2,
    )
    for f in fields(config):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        assert getattr(config, f.name) != default, f.name
    return config


def _config_text(config: PipelineConfig) -> str:
    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, list):
            return ", ".join(value)
        return str(value)

    doc = config_to_dict(config)
    lines = [f"{k} = {text(v)}" for k, v in doc.items() if k != "cities"]
    for city in doc["cities"]:
        lines.append(f"[city.{city['name']}]")
        lines += [f"{k} = {v}" for k, v in city.items() if k != "name"]
    return "\n".join(lines) + "\n"


class TestConfigCodec:
    def test_dict_round_trip_keeps_every_field(self, tmp_path):
        config = _non_default_config(tmp_path.resolve())
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config

    def test_written_config_file_round_trip_keeps_every_field(self, tmp_path):
        config = _non_default_config(tmp_path.resolve())
        path = tmp_path / "every_field.cfg"
        path.write_text(_config_text(config))
        assert parse_config(path) == config

    def test_manifest_config_keys_are_pinned(self, tmp_path):
        doc = config_to_dict(_non_default_config(tmp_path))
        assert set(doc) == {
            "cities", "service_taxonomy", "third_place_taxonomy", "day_types", "level",
            "k_min", "k_max", "seed", "restarts", "lambda", "rr_cap", "min_label_count",
            "drop_silent_cells", "mean_per_day", "holdout",
        }
        assert doc["lambda"] == 0.25
        assert all(set(c) == {"name", "region", "traffic", "pois", "truth"}
                   for c in doc["cities"])

    def test_manifest_config_missing_a_key_is_rejected(self, tmp_path):
        doc = config_to_dict(_non_default_config(tmp_path))
        del doc["lambda"]
        with pytest.raises(DataError):
            config_from_dict(doc)

    # each value was once coerced to the key's type; now only that type reads
    @pytest.mark.parametrize("key, value", [
        ("k_min", 3.7), ("k_max", 10.0), ("restarts", 2.9), ("seed", True),
        ("min_label_count", 3.5), ("lambda", True), ("holdout", "0.2"),
        ("rr_cap", "1000"), ("drop_silent_cells", "no"), ("mean_per_day", "off"),
        ("day_types", "weekend"), ("cities", {"name": "alpha"}),
    ])
    def test_manifest_config_value_of_another_type_is_rejected(self, tmp_path, key, value):
        doc = config_to_dict(_non_default_config(tmp_path))
        doc[key] = value
        with pytest.raises(DataError, match=key):
            config_from_dict(doc)

    def test_manifest_city_name_of_another_type_is_rejected(self, tmp_path):
        doc = config_to_dict(_non_default_config(tmp_path))
        doc["cities"][0]["name"] = 5
        with pytest.raises(DataError, match="name"):
            config_from_dict(doc)

    def test_manifest_float_takes_an_integer(self, tmp_path):
        doc = config_to_dict(_non_default_config(tmp_path))
        doc.update({"lambda": 2, "rr_cap": 1000})
        config = config_from_dict(json.loads(json.dumps(doc)))
        assert (config.lam, config.rr_cap) == (2.0, 1000.0)
        assert type(config.lam) is float and type(config.rr_cap) is float

