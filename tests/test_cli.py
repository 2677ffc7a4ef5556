import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import vibrancy.ingest
import vibrancy.pipeline
import vibrancy.signatures
from vibrancy.cli import main
from vibrancy.clustering import read_model
from vibrancy.config import city_name_error, parse_config
from vibrancy.errors import ConfigError
from vibrancy.ingest import parse_pois
from vibrancy.pipeline import run_pipeline
from vibrancy.signatures import day_type_of
from vibrancy.synth import SynthSpec, generate_for_day_types, write_city

from test_ingest import reference_parse_pois


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): sha(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def city_dir(tmp_path_factory):
    """One small synthetic city shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("city")
    spec = SynthSpec(seed=5, n_cells=48, k_true=2, noise_sigma=0.8, region_name="alpha")
    truth = generate_for_day_types(spec, ["weekday", "weekend"])
    write_city(truth, out)
    (out / "pipeline.cfg").write_text(
        "seed = 9\nlevel = local\nday_types = weekday, weekend\n"
        "k_min = 2\nk_max = 4\nrestarts = 3\nlambda = 1.0\n"
        "service_taxonomy = service_taxonomy.csv\n"
        "third_place_taxonomy = third_places.csv\n\n"
        "[city.alpha]\nregion = region.json\ntraffic = traffic.csv\n"
        "pois = pois.csv\ntruth = truth_labels.csv\n"
    )
    return out


@pytest.fixture(scope="module")
def run_dir(city_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["run", "--config", str(city_dir / "pipeline.cfg"), "--out", str(out)])
    assert code == 0
    return out


class TestConfigParser:
    def test_full_round(self, city_dir):
        config = parse_config(city_dir / "pipeline.cfg")
        assert config.seed == 9
        assert config.day_types == ["weekday", "weekend"]
        assert config.k_min == 2 and config.k_max == 4
        assert config.cities[0].name == "alpha"
        assert config.cities[0].region.is_file()

    def test_comments_quotes_and_types(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# top comment\nseed = 3   # inline\nlambda = 2.5\n"
            "drop_silent_cells = true\nday_types = weekday\n"
            'service_taxonomy = "svc.csv"\nthird_place_taxonomy = tp.csv\n'
            "[city.x]\nregion = r.json\ntraffic = t.csv\npois = p.csv\n"
        )
        config = parse_config(path)
        assert config.seed == 3 and config.lam == 2.5
        assert config.drop_silent_cells is True
        assert config.service_taxonomy.name == "svc.csv"

    @pytest.mark.parametrize("setting, field, value", [
        ("day_types = weekday", "day_types", ["weekday"]),
        ('restarts = "4"', "restarts", 4),
        ("lambda = 1", "lam", 1.0),
        ("rr_cap = 1e6", "rr_cap", 1e6),
        ("drop_silent_cells = TRUE", "drop_silent_cells", True),
        ("mean_per_day = False", "mean_per_day", False),
        ("day_types = 'weekend', weekday", "day_types", ["weekend", "weekday"]),
    ])
    def test_each_value_is_read_by_its_key_type(self, tmp_path, setting, field, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"{setting}\nservice_taxonomy = s.csv\nthird_place_taxonomy = t.csv\n"
                        "[city.x]\nregion = r.json\ntraffic = t.csv\npois = p.csv\n")
        read = getattr(parse_config(path), field)
        assert read == value and type(read) is type(value)

    @pytest.mark.parametrize("body", [
        "seed = 1\n",  # no taxonomies
        "service_taxonomy = a\nthird_place_taxonomy = b\n[city.x]\nregion = r\n",
        "service_taxonomy = a\nthird_place_taxonomy = b\nk_min = 9\nk_max = 3\n"
        "[city.x]\nregion = r\ntraffic = t\npois = p\n",
        "service_taxonomy = a\nthird_place_taxonomy = b\nlevel = cosmic\n"
        "[city.x]\nregion = r\ntraffic = t\npois = p\n",
        "seed = 1\nseed = 2\n",
        "[section]\n",
        "service_taxonomy = a\nthird_place_taxonomy = b\nk_min = three\n"
        "[city.x]\nregion = r\ntraffic = t\npois = p\n",
    ])
    def test_bad_configs_rejected(self, tmp_path, body):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("header, city", [
        ("[city.x]  # note", "x"),
        ("[city.x] # note ] with a bracket", "x"),
        ("  [ city.y ]", "y"),
    ])
    def test_comment_after_a_section_header(self, tmp_path, header, city):
        path = tmp_path / "c.cfg"
        path.write_text("service_taxonomy = s.csv\nthird_place_taxonomy = t.csv\n"
                        f"{header}\nregion = r.json\ntraffic = t.csv\npois = p.csv\n")
        assert [c.name for c in parse_config(path).cities] == [city]

    def test_hash_inside_a_section_header_is_in_the_city_name(self, city_dir, tmp_path,
                                                               capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text((city_dir / "pipeline.cfg").read_text()
                       .replace("[city.alpha]", "[city.a#b]  # a comment"))
        with pytest.raises(ConfigError, match="city name 'a#b' is not one plain path"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'a#b'" in _one_line_data_error(capsys, cfg)
        assert not out.exists()


@pytest.mark.parametrize("setting", [
    "seed = -1", "lambda = nan", "lambda = inf", "lambda = -0.5", "rr_cap = nan",
    "rr_cap = inf", "rr_cap = -1", "rr_cap = 0", "restarts = 0", "k_min = three",
    "day_types = weekday, weekend, weekday", "drop_silent_cells = no", "mean_per_day = off",
    "k_min = 3.7", "restarts = 2.9", "seed = true", "lambda = true", "k_max = 1e1",
])
def test_bad_config_value_is_a_one_line_data_error_naming_the_file(city_dir, tmp_path, capsys,
                                                                     setting):
    key = setting.split("=")[0].strip()
    lines = (city_dir / "pipeline.cfg").read_text().splitlines()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([setting] + [ln for ln in lines if ln.split("=")[0].strip() != key])
                   + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = _one_line_data_error(capsys, cfg)
    assert err.startswith(f"data error: {cfg}: ") and "Traceback" not in err
    assert key in err
    assert not out.exists()


def test_missing_input_names_the_config_that_names_it(city_dir, tmp_path, capsys):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    cfg = city / "pipeline.cfg"
    cfg.write_text(cfg.read_text().replace("= traffic.csv", "= traffiC.csv"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = _one_line_data_error(capsys, cfg)
    missing = (city / "traffiC.csv").resolve()
    assert f"input file {missing} does not exist (named in config {cfg})" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda pois: pois.rename(pois.with_name("moved.csv")), "is missing"),
    (lambda pois: pois.write_text(pois.read_text() + "1.0,2.0,cafe,amenity\n"),
     "changed since the recorded run"),
], ids=["missing", "changed"])
def test_manifest_input_error_names_the_manifest(city_dir, tmp_path, capsys, edit, message):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    assert main(["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    manifest = tmp_path / "a" / "manifest.json"
    pois = (city / "pois.csv").resolve()
    edit(pois)
    out = tmp_path / "b"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = _one_line_data_error(capsys, manifest)
    assert f"manifest input {pois} {message} (listed in manifest {manifest})" in err
    assert not out.exists()


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc["config"].update(k_min=3.7), "k_min"),
    (lambda doc: doc["config"].update(drop_silent_cells="no"), "drop_silent_cells"),
    (lambda doc: doc.update(inputs=[1]), "inputs"),
], ids=["k_min a fraction", "drop_silent_cells a string", "inputs a list"])
def test_manifest_value_of_another_type_is_a_one_line_data_error(run_dir, tmp_path, capsys,
                                                                 edit, key):
    doc = json.loads((run_dir / "manifest.json").read_text())
    edit(doc)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert key in _one_line_data_error(capsys, manifest)
    assert not out.exists()


@pytest.mark.parametrize("option, key, value", [
    ("--level=global", "level", "global"),
    ("--drop-silent-cells", "drop_silent_cells", True),
    ("--mean-per-day", "mean_per_day", True),
])
def test_run_override_lands_in_the_manifest_config(city_dir, tmp_path, option, key, value):
    out = tmp_path / "out"
    assert main(["run", "--config", str(city_dir / "pipeline.cfg"), "--out", str(out),
                 option]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config[key] == value
    assert getattr(parse_config(city_dir / "pipeline.cfg"), key) != value  # not the config's


class TestRun:
    def test_artifacts_and_results(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for day in ("weekday", "weekend"):
            scope = run_dir / "alpha" / day
            for name in (
                "signatures_raw.sig", "signatures_rr.sig", "kselection.json",
                "clusters.bin", "labels.csv", "labels.geojson", "features.csv",
                "model.json", "coefficients.csv", "metrics.json",
            ):
                assert (scope / name).is_file(), name
            result = manifest["results"][f"alpha/{day}"]
            assert result["chosen_k"] == 2
            assert result["ari_vs_truth"] == 1.0
        assert len(manifest["results"]) == 2  # day-type fan-out
        assert manifest["config"]["seed"] == 9

    def test_manifest_hashes_are_accurate(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for rel, digest in manifest["artifacts"].items():
            assert sha(run_dir / rel) == digest

    def test_rerun_from_manifest_is_bitwise_identical(self, run_dir, tmp_path):
        again = tmp_path / "again"
        code = main(["run", "--manifest", str(run_dir / "manifest.json"),
                     "--out", str(again)])
        assert code == 0
        assert tree_hashes(again) == tree_hashes(run_dir)

    def test_each_traffic_file_is_read_once(self, city_dir, tmp_path, monkeypatch):
        calls = []
        stream_traffic = vibrancy.pipeline.stream_traffic

        def counting_stream_traffic(source, grid, consume):
            calls.append(source)
            return stream_traffic(source, grid, consume)

        monkeypatch.setattr(vibrancy.pipeline, "stream_traffic", counting_stream_traffic)
        manifest = run_pipeline(parse_config(city_dir / "pipeline.cfg"), tmp_path / "o")
        assert len(manifest["results"]) == 2  # weekday and weekend scopes
        assert calls == [city_dir / "traffic.csv"]

    def test_quality_counts_rejected_rows_and_the_fit(self, city_dir, run_dir, tmp_path):
        city = tmp_path / "city"
        shutil.copytree(city_dir, city)
        traffic = (city / "traffic.csv").read_text().splitlines()
        first = traffic[1].split(",")
        bad_traffic = [
            ",".join(first[:4] + ["sideways"] + first[5:]),
            ",".join(["999"] + first[1:]),
            ",".join(first[:5] + ["lots"]),
            ",".join(first[:5]),
        ]
        off_region = ",".join(["6", "6"] + first[2:])  # in the grid, not an active cell
        (city / "traffic.csv").write_text("\n".join(traffic + bad_traffic + [off_region]) + "\n")
        day_of_row = Counter(day_type_of(datetime.fromisoformat(line.split(",")[2]))
                             for line in traffic[1:] + [off_region])
        pois = (city / "pois.csv").read_text().splitlines()
        bad_pois = ["1.0,2.0,cafe,tourism", "north,2.0,cafe,amenity"]
        (city / "pois.csv").write_text("\n".join(pois + bad_pois) + "\n")
        manifest = run_pipeline(parse_config(city / "pipeline.cfg"), tmp_path / "o")
        clean = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["artifacts"] == clean["artifacts"]  # rejected rows change nothing
        for day in ("weekday", "weekend"):
            quality = manifest["quality"][f"alpha/{day}"]
            assert quality["cities"] == {"alpha": {
                "traffic": {"accepted": len(traffic), "rejected": {
                    "malformed": 2, "unknown_direction": 1, "out_of_bounds": 1},
                    "other_day_type": len(traffic) - day_of_row[day],
                    "outside_region": int(day_type_of(datetime.fromisoformat(first[2])) == day)},
                "pois": {"accepted": len(pois) - 1, "rejected": {
                    "malformed": 1, "unknown_source_category": 1}},
                "silent_cells_dropped": 0,
            }}
            assert quality["cells_without_truth"] == 0
            model = json.loads((tmp_path / "o" / "alpha" / day / "model.json").read_text())
            assert quality["logit"] == {key: model[key] for key in (
                "converged", "n_iter", "final_grad_norm")}
            assert quality["capped_columns"] == clean["quality"][f"alpha/{day}"]["capped_columns"]
            scope = tmp_path / "o" / "alpha" / day
            kselection = json.loads((scope / "kselection.json").read_text())
            chosen = read_model(scope / "clusters.bin")
            kmeans = quality["kmeans"]
            assert set(kmeans) == {"n_iter", "converged", "unconverged_restarts"}
            assert set(kmeans["n_iter"]) == set(kmeans["converged"]) == set(kselection["scores"])
            assert kmeans["n_iter"][str(chosen.k)] == chosen.n_iter
            assert kmeans["converged"][str(chosen.k)] is chosen.converged
            assert all(n >= 2 for n in kmeans["n_iter"].values())
            assert kmeans["unconverged_restarts"] == 0

    def test_quality_names_the_rare_labels_removed(self, city_dir, run_dir, tmp_path):
        city = tmp_path / "city"
        shutil.copytree(city_dir, city)
        with open(city / "pois.csv", "a", encoding="utf-8") as fh:
            fh.write("10.0,10.0,kiosk,shop\n" * 3 + "20.0,20.0,fountain,amenity\n")
        manifest = run_pipeline(parse_config(city / "pipeline.cfg"), tmp_path / "o")
        pois, _ = parse_pois(city / "pois.csv")
        counts = Counter(p.label for p in pois)
        expected = {label: n for label, n in sorted(counts.items()) if n < 10}
        assert {"kiosk": 3, "fountain": 1}.items() <= expected.items()
        clean = json.loads((run_dir / "manifest.json").read_text())
        for day in ("weekday", "weekend"):
            rare = manifest["quality"][f"alpha/{day}"]["rare_labels"]
            assert rare == expected and list(rare) == sorted(rare)
            assert clean["quality"][f"alpha/{day}"]["rare_labels"] == {
                label: n for label, n in expected.items() if label not in ("kiosk", "fountain")}
        assert manifest["artifacts"] == clean["artifacts"]  # rare labels change nothing

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"format": "vibrancy-run-manifest"}',
        '{"format": "vibrancy-run-manifest", "config": {}}',
    ], ids=["not an object", "no config", "empty config"])
    def test_malformed_manifest_is_a_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "o")]) == 2
        _one_line_data_error(capsys, path)

    def test_missing_traffic_aborts_with_stage(self, city_dir, tmp_path, capsys):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(
            "service_taxonomy = {0}/service_taxonomy.csv\n"
            "third_place_taxonomy = {0}/third_places.csv\n"
            "day_types = weekday\n"
            "[city.alpha]\nregion = {0}/region.json\n"
            "traffic = {0}/absent.csv\npois = {0}/pois.csv\n".format(city_dir)
        )
        code = main(["run", "--config", str(bad_cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ingest" in err and "absent.csv" in err


class TestChainingEqualsRun:
    def test_subcommands_reproduce_run_artifacts(self, city_dir, run_dir, tmp_path):
        chain = tmp_path / "chain" / "alpha" / "weekday"
        chain.mkdir(parents=True)
        c = str(city_dir)
        assert main([
            "signatures", "--region", f"{c}/region.json", "--traffic", f"{c}/traffic.csv",
            "--service-taxonomy", f"{c}/service_taxonomy.csv", "--day-type", "weekday",
            "--segment-name", "alpha",
            "--out-raw", str(chain / "signatures_raw.sig"),
            "--out-rr", str(chain / "signatures_rr.sig"),
        ]) == 0
        assert main([
            "cluster", "--rr", str(chain / "signatures_rr.sig"),
            "--k-min", "2", "--k-max", "4", "--seed", "9", "--restarts", "3",
            "--out-dir", str(chain),
        ]) == 0
        assert main([
            "features", "--region", f"{c}/region.json", "--pois", f"{c}/pois.csv",
            "--third-places", f"{c}/third_places.csv", "--min-count", "10",
            "--cells-from", str(chain / "labels.csv"),
            "--out", str(chain / "features.csv"),
        ]) == 0
        assert main([
            "fit", "--features", str(chain / "features.csv"),
            "--labels", str(chain / "labels.csv"),
            "--lambda", "1.0", "--seed", "9", "--out-dir", str(chain),
        ]) == 0
        run_scope = run_dir / "alpha" / "weekday"
        for name in (
            "signatures_raw.sig", "signatures_rr.sig", "kselection.json",
            "clusters.bin", "labels.csv", "labels.geojson", "features.csv",
            "model.json", "coefficients.csv", "metrics.json",
        ):
            assert sha(chain / name) == sha(run_scope / name), name


    def test_pool_pois_reproduces_a_global_scope_features(self, tmp_path):
        # at the global level the rare-label count pools every city's POIs;
        # features --pool-pois takes the other cities' POI files into that count
        for name, seed in (("alpha", 7), ("beta", 8)):
            spec = SynthSpec(seed=seed, n_cells=200, k_true=3, region_name=name)
            write_city(generate_for_day_types(spec, ["weekday"]), tmp_path / name)
        cfg = tmp_path / "global.cfg"
        cfg.write_text(
            "level = global\nday_types = weekday\nk_min = 2\nk_max = 4\nrestarts = 2\n"
            "min_label_count = 400\nservice_taxonomy = alpha/service_taxonomy.csv\n"
            "third_place_taxonomy = alpha/third_places.csv\n"
            + "".join(f"[city.{n}]\nregion = {n}/region.json\ntraffic = {n}/traffic.csv\n"
                      f"pois = {n}/pois.csv\n" for n in ("alpha", "beta")))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        scope = tmp_path / "run" / "global" / "weekday"
        alpha = tmp_path / "alpha"
        argv = ["features", "--region", str(alpha / "region.json"),
                "--pois", str(alpha / "pois.csv"),
                "--third-places", str(alpha / "third_places.csv"), "--min-count", "400",
                "--cells-from", str(scope / "labels_alpha.csv")]
        pooled, alone = tmp_path / "pooled.csv", tmp_path / "alone.csv"
        assert main([*argv, "--pool-pois", str(tmp_path / "beta" / "pois.csv"),
                     "--out", str(pooled)]) == 0
        assert main([*argv, "--out", str(alone)]) == 0
        assert sha(pooled) == sha(scope / "features_alpha.csv")
        assert sha(alone) != sha(pooled)

    def test_fit_no_standardize_records_raw_covariates(self, run_dir, tmp_path):
        scope = run_dir / "alpha" / "weekday"
        assert main(["fit", "--features", str(scope / "features.csv"),
                     "--labels", str(scope / "labels.csv"), "--no-standardize",
                     "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "metrics.json").read_text())["standardized"] is False
        assert json.loads((tmp_path / "model.json").read_text())["standardization"] is None
        assert json.loads((scope / "metrics.json").read_text())["standardized"] is True


def _two_city_global_config(tmp_path: Path) -> Path:
    """Two synthetic cities, alpha and beta, with one plant, pooled in one
    ``level = global`` weekday scope."""
    for name, seed in (("alpha", 5), ("beta", 6)):
        spec = SynthSpec(seed=seed, n_cells=36, k_true=2, noise_sigma=0.8,
                         region_name=name)
        write_city(generate_for_day_types(spec, ["weekday"]), tmp_path / name)
    cfg = tmp_path / "global.cfg"
    cfg.write_text(
        "seed = 4\nlevel = global\nday_types = weekday\n"
        "k_min = 2\nk_max = 4\nrestarts = 3\n"
        f"service_taxonomy = alpha/service_taxonomy.csv\n"
        f"third_place_taxonomy = alpha/third_places.csv\n\n"
        "[city.alpha]\nregion = alpha/region.json\ntraffic = alpha/traffic.csv\n"
        "pois = alpha/pois.csv\ntruth = alpha/truth_labels.csv\n\n"
        "[city.beta]\nregion = beta/region.json\ntraffic = beta/traffic.csv\n"
        "pois = beta/pois.csv\ntruth = beta/truth_labels.csv\n"
    )
    return cfg


class TestGlobalLevel:
    def test_two_city_global_run(self, tmp_path):
        cfg = _two_city_global_config(tmp_path)
        cities = {name: tmp_path / name for name in ("alpha", "beta")}
        out = tmp_path / "gout"
        manifest = run_pipeline(parse_config(cfg), out)
        scope = out / "global" / "weekday"
        for name in (
            "signatures_raw_alpha.sig", "signatures_raw_beta.sig", "signatures_rr.sig",
            "kselection.json", "clusters.bin",
            "labels_alpha.csv", "labels_beta.csv",
            "labels_alpha.geojson", "labels_beta.geojson",
            "features_alpha.csv", "features_beta.csv",
            "model.json", "coefficients.csv", "metrics.json",
        ):
            assert (scope / name).is_file(), name
        result = manifest["results"]["global/weekday"]
        # same plant in both cities: archetypes should be recovered jointly
        assert result["ari_vs_truth"] == 1.0
        labels_a = (scope / "labels_alpha.csv").read_text().splitlines()
        assert len(labels_a) == 37  # header + 36 cells
        pooled = Counter(p.label for name in ("alpha", "beta")
                         for p in parse_pois(cities[name] / "pois.csv")[0])
        assert manifest["quality"]["global/weekday"]["rare_labels"] == {
            label: n for label, n in sorted(pooled.items()) if n < 10}


@pytest.mark.parametrize("level", ["local", "global"])
def test_no_traffic_table_survives_ingest(city_dir, tmp_path, monkeypatch, level):
    """A run streams each traffic file into its city's day-type tensors: it
    builds no TrafficTable, and once every city is read it holds none of the
    batches the tensors were built from."""
    _assert_no_traffic_table_survives_ingest(city_dir, tmp_path, monkeypatch, level)


@pytest.mark.parametrize("level", ["local", "global"])
def test_no_traffic_table_survives_a_split_ingest(city_dir, tmp_path, monkeypatch, level):
    """The same when each traffic file is read in two byte ranges: no
    process builds a TrafficTable (a worker that did would fail, and its file
    be read again whole), and the batches this process read are freed."""
    monkeypatch.setattr(vibrancy.pipeline, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    merged, merge = [], vibrancy.signatures.DayTypeTensors.merge

    def merge_range(tensors, kept):
        merged.append(os.getpid())
        merge(tensors, kept)

    monkeypatch.setattr(vibrancy.signatures.DayTypeTensors, "merge", merge_range)
    _assert_no_traffic_table_survives_ingest(city_dir, tmp_path, monkeypatch, level)
    # a worker's range of each file, merged in the run process
    assert merged == [os.getpid()] * (1 if level == "local" else 2)


def _assert_no_traffic_table_survives_ingest(city_dir, tmp_path, monkeypatch, level):
    batches, accepted = [], []
    stream_traffic, select_k = vibrancy.pipeline.stream_traffic, vibrancy.pipeline.select_k

    def stream_and_watch(source, grid, consume, span=None):
        def watched(columns, stamps, services):
            batches.append(([weakref.ref(c) for c in columns], len(columns[0])))
            consume(columns, stamps, services)
        report = stream_traffic(source, grid, watched, span=span)
        accepted.append(report.accepted)
        return report

    def select_k_without_batches(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for refs, _ in batches for ref in refs)
        return select_k(*args, **kwargs)

    def no_table(*args, **kwargs):
        raise AssertionError("a TrafficTable was built")

    for module in (vibrancy.ingest, vibrancy.signatures):
        monkeypatch.setattr(module, "TrafficTable", no_table)
    monkeypatch.setattr(vibrancy.pipeline, "stream_traffic", stream_and_watch)
    monkeypatch.setattr(vibrancy.pipeline, "select_k", select_k_without_batches)
    cfg = city_dir / "pipeline.cfg" if level == "local" else _two_city_global_config(tmp_path)
    manifest = run_pipeline(parse_config(cfg), tmp_path / "out")
    assert len(accepted) == len(manifest["config"]["cities"])
    assert sum(n for _, n in batches) == sum(accepted)
    assert max(n for _, n in batches) < min(accepted)  # no batch holds a whole file
    assert len(manifest["results"]) == (2 if level == "local" else 1)


@pytest.mark.parametrize("level", ["local", "global"])
def test_raw_tensors_are_freed_before_clustering(city_dir, tmp_path, monkeypatch, level):
    """Once a scope's relative risk is computed, the raw tensors it came from,
    and at the global level their concatenation, are no longer held. On one
    CPU, so that every scope runs in this process, where the watch sees it
    (``test_scope_fan_out.py`` watches the scopes of a run on two)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    raws = {}
    read, relative_risk, select_k = (vibrancy.pipeline.read_city_tensors,
                                     vibrancy.pipeline.relative_risk,
                                     vibrancy.pipeline.select_k)

    def watched(tensor):
        raws.setdefault(tensor.day_type, []).append(weakref.ref(tensor.values))
        return tensor

    def read_and_watch(*args, **kwargs):
        tensors, dropped, report = read(*args, **kwargs)
        for tensor in tensors.values():
            watched(tensor)
        return tensors, dropped, report

    def select_k_without_raws(rr, **kwargs):
        gc.collect()
        assert [ref() for ref in raws[rr.day_type]] == [None] * len(raws[rr.day_type])
        return select_k(rr, **kwargs)

    monkeypatch.setattr(vibrancy.pipeline, "read_city_tensors", read_and_watch)
    monkeypatch.setattr(vibrancy.pipeline, "relative_risk",
                        lambda tensor, **kwargs: relative_risk(watched(tensor), **kwargs))
    monkeypatch.setattr(vibrancy.pipeline, "select_k", select_k_without_raws)
    cfg = city_dir / "pipeline.cfg" if level == "local" else _two_city_global_config(tmp_path)
    manifest = run_pipeline(parse_config(cfg), tmp_path / "out")
    assert sum(len(refs) for refs in raws.values()) == (4 if level == "local" else 3)
    assert len(manifest["results"]) == (2 if level == "local" else 1)


def _json_edit(edit):
    """A corruption of a JSON file's bytes by ``edit`` of its parsed document."""
    def apply(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()
    return apply


KSELECTION = "alpha/weekday/kselection.json"
MODEL = "alpha/weekday/model.json"

# case id -> (file under the run directory, corruption of its bytes)
BAD_RUN_FILES = {
    "only format and config": ("manifest.json", _json_edit(
        lambda doc: [doc.clear(), doc.update(format="vibrancy-run-manifest", config={})])),
    "no environment": ("manifest.json", _json_edit(lambda doc: doc.pop("environment"))),
    "environment not an object": ("manifest.json", _json_edit(
        lambda doc: doc.update(environment=["vibrancy 0.1.0"]))),
    "no level": ("manifest.json", _json_edit(lambda doc: doc["config"].pop("level"))),
    "seed not a number": ("manifest.json", _json_edit(
        lambda doc: doc["config"].update(seed="nine"))),
    "no results": ("manifest.json", _json_edit(lambda doc: doc.pop("results"))),
    "results not an object": ("manifest.json", _json_edit(
        lambda doc: doc.update(results=[1, 2]))),
    "scope not an object": ("manifest.json", _json_edit(
        lambda doc: doc["results"].update({"alpha/weekday": 3}))),
    "no chosen_k": ("manifest.json", _json_edit(
        lambda doc: doc["results"]["alpha/weekday"].pop("chosen_k"))),
    "silhouette not a number": ("manifest.json", _json_edit(
        lambda doc: doc["results"]["alpha/weekday"].update(silhouette="high"))),
    "accuracy a bool": ("manifest.json", _json_edit(
        lambda doc: doc["results"]["alpha/weekday"].update(accuracy=True))),
    "kselection not UTF-8": (KSELECTION, lambda data: b"\xff" + data),
    "kselection cut short": (KSELECTION, lambda data: data[: len(data) // 2]),
    "kselection without scores": (KSELECTION, _json_edit(lambda doc: doc.pop("scores"))),
    "kselection scores not an object": (KSELECTION, _json_edit(
        lambda doc: doc.update(scores=[0.5, 0.6]))),
    "kselection score not a number": (KSELECTION, _json_edit(
        lambda doc: doc["scores"].update({"2": "high"}))),
    "model weights row short": (MODEL, _json_edit(lambda doc: doc["weights"][0].pop())),
    "model weights row long": (MODEL, _json_edit(
        lambda doc: [row.append(1.0) for row in doc["weights"]])),
    "model weight a string": (MODEL, _json_edit(lambda doc: doc["weights"][1].__setitem__(2, "abc"))),
    "model converged a string": (MODEL, _json_edit(lambda doc: doc.update(converged="no"))),
    "model n_iter a fraction": (MODEL, _json_edit(lambda doc: doc.update(n_iter=7.9))),
    "model lambda a bool": (MODEL, _json_edit(lambda doc: doc.update({"lambda": True}))),
}


class TestReport:
    def test_report_prints_summary(self, run_dir, capsys):
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "alpha/weekday" in out
        assert "silhouette by k" in out
        assert "total_diversity" in out

    def test_report_prints_quality(self, run_dir, capsys):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        for day in ("weekday", "weekend"):
            quality = manifest["quality"][f"alpha/{day}"]
            rows = quality["cities"]["alpha"]
            assert rows["traffic"]["other_day_type"] > 0
            assert (f"\nquality [alpha/{day}]:\n"
                    f"  alpha traffic rows: {rows['traffic']['accepted']} accepted, 0 rejected\n"
                    f"  alpha POI rows: {rows['pois']['accepted']} accepted, 0 rejected\n"
                    f"  alpha traffic rows left out of the tensor: "
                    f"{rows['traffic']['other_day_type']} of another day type, "
                    "0 outside the region\n"
                    "  alpha silent cells dropped: 0\n"
                    f"  capped relative-risk columns: {quality['capped_columns']}\n"
                    "  k-means unconverged restarts: 0\n"
                    f"  logit: converged, {quality['logit']['n_iter']} iterations\n"
                    "  cells without a planted label: 0\n"
                    "  rare POI labels removed: none\n") in out

    def test_report_prints_what_quality_it_finds(self, run_dir, tmp_path, capsys):
        def edit(doc):
            quality = doc["quality"]
            quality["alpha/weekday"]["cities"]["alpha"]["traffic"] = {
                "accepted": 90, "rejected": {"out_of_bounds": 1, "malformed": 2}}
            quality["alpha/weekday"]["cities"]["alpha"]["pois"] = "unknown"
            quality["alpha/weekday"]["cities"]["alpha"]["silent_cells_dropped"] = 2.5
            quality["alpha/weekday"]["rare_labels"] = {"fountain": 1, "kiosk": 3}
            quality["alpha/weekday"]["cells_without_truth"] = 2
            for key in ("capped_columns", "kmeans"):
                del quality["alpha/weekday"][key]
            quality["alpha/weekday"]["logit"] = {"n_iter": 4}
            del quality["alpha/weekend"]

        for name in RUN_FILES:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        path = tmp_path / "manifest.json"
        path.write_bytes(_json_edit(edit)(path.read_bytes()))
        assert main(["report", "--run-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("\nquality [alpha/weekday]:\n"
                "  alpha traffic rows: 90 accepted, 3 rejected (2 malformed, 1 out_of_bounds)\n"
                "  logit: 4 iterations\n"
                "  cells without a planted label: 2 (no ARI vs truth)\n"
                "  rare POI labels removed: fountain 1, kiosk 3\n"
                "\nsilhouette by k [alpha/weekday]") in out
        assert "quality [alpha/weekend]" not in out
        assert "alpha/weekend" in out

    def test_report_needs_manifest(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", sorted(BAD_RUN_FILES))
    def test_report_on_a_bad_manifest_is_a_data_error(self, run_dir, tmp_path, capsys, case):
        rel, edit = BAD_RUN_FILES[case]
        for name in RUN_FILES:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        path = tmp_path / rel
        path.write_bytes(edit(path.read_bytes()))
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        _one_line_data_error(capsys, path)
        assert capsys.readouterr().out == ""


CHUNK = vibrancy.pipeline._HASH_CHUNK


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 1000, CHUNK, 3 * CHUNK + 17],
                             ids=["empty", "part of a chunk", "one chunk", "several chunks"])
    def test_digest_is_the_sha256_of_the_bytes(self, tmp_path, rng, size):
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        (tmp_path / "f").write_bytes(data)
        assert vibrancy.pipeline.file_sha256(tmp_path / "f") == hashlib.sha256(data).hexdigest()

    def test_memory_stays_near_one_chunk(self, tmp_path):
        (tmp_path / "f").write_bytes(bytes(range(256)) * (40 * CHUNK // 256))
        tracemalloc.start()
        try:
            vibrancy.pipeline.file_sha256(tmp_path / "f")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-file read would peak at 40 chunks
        assert peak < 2 * CHUNK


class TestBuiltinSha256:
    """``pipeline._builtin_sha256`` takes ``_sha2`` (Python 3.12+), else
    ``_sha256``, else ``hashlib``; each gives the same digests."""

    @pytest.mark.parametrize("case", ["_sha2", "_sha256", "hashlib"])
    def test_each_module_gives_the_same_digest(self, tmp_path, rng, monkeypatch, case):
        calls, builtin = [], vibrancy.pipeline._sha256

        def fake(*args):
            calls.append(args)
            return builtin(*args)

        modules = {"_sha2": None, "_sha256": None}  # None in sys.modules: its import fails
        if case != "hashlib":
            modules[case] = type(sys)(case)
            modules[case].sha256 = fake
        for name, module in modules.items():
            monkeypatch.setitem(sys.modules, name, module)
        constructor = vibrancy.pipeline._builtin_sha256()
        assert constructor is (hashlib.sha256 if case == "hashlib" else fake)
        monkeypatch.setattr(vibrancy.pipeline, "_sha256", constructor)
        data = rng.integers(0, 256, size=3 * CHUNK + 17, dtype=np.uint8).tobytes()
        (tmp_path / "f").write_bytes(data)
        assert vibrancy.pipeline.file_sha256(tmp_path / "f") == hashlib.sha256(data).hexdigest()
        assert len(calls) == (case != "hashlib")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["cluster", "--bogus"]) == 1
        assert main(["definitely-not-a-command"]) == 1

    @pytest.mark.parametrize("command, bad", [
        ("cluster", ["--restarts", "0"]),
        ("cluster", ["--restarts", "-2"]),
        ("cluster", ["--k-min", "1"]),
        ("cluster", ["--k-min", "5", "--k-max", "4"]),
        ("run", ["--restarts", "0"]),
        ("run", ["--lambda", "nan"]),
        ("run", ["--holdout", "1"]),
        ("run", ["--k-min", "5", "--k-max", "4"]),
        ("run --manifest", ["--seed", "5"]),
        ("run --manifest", ["--restarts", "0"]),
        ("cluster", ["--seed", "-1"]),
        ("cluster", ["--cap", "nan"]),
        ("signatures", ["--cap", "-5"]),
        ("synth", ["--seed", "-1"]),
        ("fit", ["--seed", "-1", "--holdout", "0.25"]),
        ("fit", ["--lambda", "-1"]),
        ("fit", ["--lambda", "nan"]),
        ("fit", ["--holdout", "1.5"]),
    ], ids=["no restarts", "negative restarts", "k-min below 2", "k-min above k-max",
            "run no restarts", "run lambda nan", "run holdout 1", "run k-min above k-max",
            "run manifest with seed", "run manifest with restarts", "cluster negative seed",
            "cluster cap nan", "signatures negative cap", "synth negative seed",
            "fit negative seed", "fit negative lambda", "fit lambda nan", "fit holdout 1.5"])
    def test_cluster_ranges_are_usage_errors(self, city_dir, run_dir, tmp_path, capsys,
                                             command, bad):
        out = tmp_path / "c"
        scope = run_dir / "alpha" / "weekday"
        if command == "cluster":
            argv = ["cluster", "--rr", str(scope / "signatures_rr.sig"), "--out-dir", str(out)]
        elif command == "signatures":
            argv = ["signatures", "--region", str(city_dir / "region.json"),
                    "--traffic", str(city_dir / "traffic.csv"),
                    "--service-taxonomy", str(city_dir / "service_taxonomy.csv"),
                    "--day-type", "weekday", "--out-raw", str(out / "raw.sig")]
        elif command == "synth":
            argv = ["synth", "--out", str(out)]
        elif command == "fit":
            argv = ["fit", "--features", str(scope / "features.csv"),
                    "--labels", str(scope / "labels.csv"), "--out-dir", str(out)]
        elif command == "run":
            argv = ["run", "--config", str(city_dir / "pipeline.cfg"), "--out", str(out)]
        else:
            argv = ["run", "--manifest", str(run_dir / "manifest.json"), "--out", str(out)]
        assert main([*argv, *bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert bad[0] in err  # the option is named
        assert not out.exists()

    def test_data_error_is_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_numeric_error_is_three(self, city_dir, tmp_path, capsys):
        chain = tmp_path / "nm"
        chain.mkdir()
        assert main([
            "signatures", "--region", str(city_dir / "region.json"),
            "--traffic", str(city_dir / "traffic.csv"),
            "--service-taxonomy", str(city_dir / "service_taxonomy.csv"),
            "--day-type", "weekday", "--segment-name", "alpha",
            "--out-raw", str(chain / "raw.sig"), "--out-rr", str(chain / "rr.sig"),
        ]) == 0
        # k_max beyond the number of cells is a numeric error
        assert main([
            "cluster", "--rr", str(chain / "rr.sig"), "--k-min", "3",
            "--k-max", "400", "--out-dir", str(chain),
        ]) == 3


class TestSynthCommand:
    def test_generates_runnable_city(self, tmp_path):
        out = tmp_path / "s"
        assert main([
            "synth", "--out", str(out), "--seed", "2", "--cells", "60",
            "--k-true", "3", "--sigma", "0.5",
        ]) == 0
        config = parse_config(out / "pipeline.cfg")
        assert config.cities[0].name == "synthcity"
        run_out = tmp_path / "r"
        assert main([
            "run", "--config", str(out / "pipeline.cfg"), "--out", str(run_out),
            "--k-min", "3", "--k-max", "5", "--restarts", "3",
        ]) == 0
        manifest = json.loads((run_out / "manifest.json").read_text())
        result = manifest["results"]["synthcity/weekday"]
        assert result["chosen_k"] == 3
        assert result["ari_vs_truth"] == 1.0

    @pytest.mark.parametrize("bad", [
        ["--sigma", "nan"],
        ["--sigma", "inf"],
        ["--day-types", "weekday", "weekday"],
    ], ids=["sigma nan", "sigma inf", "repeated day type"])
    def test_invalid_spec_exits_2_and_writes_nothing(self, tmp_path, capsys, bad):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--cells", "30", *bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert not out.exists()


class TestCityNames:
    """A city's name is one plain path component of the run directory."""

    BAD = ["../../x", "..", ".", "a/b", "a\\b", "a\x01b", "a\x7fb"]

    @pytest.mark.parametrize("name", ["alpha", "Saint-Étienne 2", "a.b", "...", "[x]"])
    def test_plain_names_pass(self, name):
        assert city_name_error(name) is None

    @pytest.mark.parametrize("name", BAD + ["", " a", "a ", "a\n", "a#b"])
    def test_other_names_are_refused(self, name):
        assert repr(name) in city_name_error(name)

    @pytest.mark.parametrize("how", ["config", "override", "manifest"])
    @pytest.mark.parametrize("name", BAD)
    def test_run_exits_2_and_writes_nothing(self, city_dir, run_dir, tmp_path, capsys, name,
                                           how):
        work = tmp_path / "deep" / "er"
        work.mkdir(parents=True)
        if how == "manifest":
            doc = json.loads((run_dir / "manifest.json").read_text())
            doc["config"]["cities"][0]["name"] = name
            source = work / "manifest.json"
            source.write_text(json.dumps(doc))
            argv = ["run", "--manifest", str(source)]
        else:
            source = work / "bad.cfg"
            source.write_text(
                f"service_taxonomy = {city_dir / 'service_taxonomy.csv'}\n"
                f"third_place_taxonomy = {city_dir / 'third_places.csv'}\n\n"
                f"[city.{name}]\nregion = {city_dir / 'region.json'}\n"
                f"traffic = {city_dir / 'traffic.csv'}\npois = {city_dir / 'pois.csv'}\n")
            argv = ["run", "--config", str(source)] + (["--seed", "3"] if how == "override" else [])
        out = work / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = _one_line_data_error(capsys, source)
        assert "is not one plain path component" in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [source]

    @pytest.mark.parametrize("name", BAD + ["", "a#b", " a", "a\n"])
    def test_synth_name_is_a_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--cells", "30", "--name", name]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --name: city name") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_leaves_synth_out():
    # a run needs no synth code; `vibrancy synth` imports it when it runs
    code = "import sys, vibrancy.cli\nprint('vibrancy.synth' in sys.modules)\n"
    src = str(Path(vibrancy.pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def _one_line_data_error(capsys, path) -> str:
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert str(path) in err
    return err


class TestTensorKinds:
    def test_raw_rejects_a_relative_risk_tensor(self, run_dir, tmp_path, capsys):
        rr = run_dir / "alpha" / "weekday" / "signatures_rr.sig"
        assert main(["cluster", "--raw", str(rr), "--out-dir", str(tmp_path)]) == 2
        assert "--rr" in _one_line_data_error(capsys, rr)

    def test_rr_rejects_a_raw_tensor(self, run_dir, tmp_path, capsys):
        raw = run_dir / "alpha" / "weekday" / "signatures_raw.sig"
        assert main(["cluster", "--rr", str(raw), "--out-dir", str(tmp_path)]) == 2
        assert "--raw" in _one_line_data_error(capsys, raw)

    def test_cut_tensor_is_a_data_error(self, run_dir, tmp_path, capsys):
        cut = tmp_path / "cut.sig"
        rr = (run_dir / "alpha" / "weekday" / "signatures_rr.sig").read_bytes()
        header_end = 8 + int.from_bytes(rr[4:8], "little")
        cut.write_bytes(rr[: header_end + 100])
        assert main(["cluster", "--rr", str(cut), "--out-dir", str(tmp_path)]) == 2
        _one_line_data_error(capsys, cut)

    def test_cell_that_is_not_integers_is_a_data_error(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "bad.sig"
        rr = (run_dir / "alpha" / "weekday" / "signatures_rr.sig").read_bytes()
        header_end = 8 + int.from_bytes(rr[4:8], "little")
        header = json.loads(rr[8:header_end])
        header["cells"][0] = [0.5, 0]
        blob = json.dumps(header).encode()
        bad.write_bytes(rr[:4] + len(blob).to_bytes(4, "little") + blob + rr[header_end:])
        out = tmp_path / "out"
        assert main(["cluster", "--rr", str(bad), "--out-dir", str(out)]) == 2
        assert "cells entry [0.5, 0]" in _one_line_data_error(capsys, bad)
        assert not out.exists()  # a refused input leaves no output directory


def _replace_line(text: str, line_no: int, new: str) -> str:
    lines = text.splitlines()
    lines[line_no - 1] = new
    return "\n".join(lines) + "\n"


def _duplicate_line_2(text: str) -> str:
    return _replace_line(text, 3, text.splitlines()[1])


def _line_3_values(value: str):
    """A corruption that sets every value of line 3 (all but its cell) to ``value``."""
    def corrupt(text: str) -> str:
        fields = text.splitlines()[2].split(",")
        return _replace_line(text, 3, ",".join(fields[:2] + [value] * (len(fields) - 2)))
    return corrupt


# (file to corrupt, corruption of its text, subcommand that reads it, exit
# code); exit 2 must name the line, exit 0 means the values are taken as data
BAD_CELL_ROWS = {
    "labels row not an integer": ("labels.csv", lambda t: _replace_line(t, 3, "1,x,1"),
                                  "features", 2),
    "labels row short": ("labels.csv", lambda t: _replace_line(t, 3, "1,0"), "fit", 2),
    "labels cell repeated (fit)": ("labels.csv", _duplicate_line_2, "fit", 2),
    "labels cell repeated (features)": ("labels.csv", _duplicate_line_2, "features", 2),
    "labels value nan": ("labels.csv", _line_3_values("nan"), "fit", 2),
    "labels value negative": ("labels.csv", _line_3_values("-1"), "fit", 0),
    "labels cell negative": ("labels.csv", lambda t: _replace_line(t, 3, "-1,-3,1"),
                             "features", 2),
    "features value not a number": (
        "features.csv", lambda t: _replace_line(t, 3, "1,0" + ",abc" * 12), "fit", 2),
    "features row short": ("features.csv", lambda t: _replace_line(t, 3, "1,0,1.0"), "fit", 2),
    "features cell repeated": ("features.csv", _duplicate_line_2, "fit", 2),
    "features value nan": ("features.csv", _line_3_values("nan"), "fit", 2),
    "features value infinite": ("features.csv", _line_3_values("-inf"), "fit", 2),
    "features value negative": ("features.csv", _line_3_values("-2.5"), "fit", 0),
    "truth labels value nan": ("truth_labels.csv", _line_3_values("nan"), "run", 2),
    "truth labels value negative": ("truth_labels.csv", _line_3_values("-1"), "run", 0),
    "truth labels cell negative": ("truth_labels.csv", lambda t: _replace_line(t, 3, "-1,-3,1"),
                                   "run", 0),
}


@pytest.mark.parametrize("case", sorted(BAD_CELL_ROWS))
def test_bad_cell_csv_row_is_a_data_error_at_its_line(city_dir, run_dir, tmp_path, capsys,
                                                       case):
    name, corrupt, command, code = BAD_CELL_ROWS[case]
    scope = run_dir / "alpha" / "weekday"
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    paths = {n: tmp_path / n for n in ("labels.csv", "features.csv")}
    for n, path in paths.items():
        path.write_text((scope / n).read_text())
    paths["truth_labels.csv"] = city / "truth_labels.csv"
    paths[name].write_text(corrupt(paths[name].read_text()))
    if command == "features":
        argv = ["features", "--region", f"{city}/region.json", "--pois", f"{city}/pois.csv",
                "--third-places", f"{city}/third_places.csv",
                "--cells-from", str(paths["labels.csv"]), "--out", str(tmp_path / "f.csv")]
    elif command == "fit":
        argv = ["fit", "--features", str(paths["features.csv"]),
                "--labels", str(paths["labels.csv"]), "--out-dir", str(tmp_path / "fit")]
    else:
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "run")]
    assert main(argv) == code
    if code:
        assert f"{paths[name]}:3:" in _one_line_data_error(capsys, paths[name])
    else:
        assert capsys.readouterr().err == ""
    if command == "run" and not code:
        # the truth line moved off the grid leaves its cell without a planted label
        lost = {"truth labels cell negative": 1}.get(case, 0)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert [q["cells_without_truth"] for q in manifest["quality"].values()] == [lost, lost]
        assert all(("ari_vs_truth" in r) == (not lost) for r in manifest["results"].values())


def _not_utf8(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:10] + b"\xff" + data[10:])


def _a_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _bad_header(path: Path) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["a,b"] + lines[1:]) + "\n")


def _line_3_repeats_line_2(path: Path) -> None:
    path.write_text(_duplicate_line_2(path.read_text()))


def _line_3_short(path: Path) -> None:
    path.write_text(_replace_line(path.read_text(), 3, "cafe"))


def _line_2_category_unknown(path: Path) -> None:
    text = path.read_text()
    label = text.splitlines()[1].split(",")[0]
    path.write_text(_replace_line(text, 2, f"{label},nowhere"))


def _line_2_service_renamed(path: Path) -> None:
    text = path.read_text()
    category = text.splitlines()[1].split(",")[1]
    path.write_text(_replace_line(text, 2, f"svc-renamed,{category}"))


def _empty(path: Path) -> None:
    path.write_bytes(b"")


def _no_header(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))


def _random_bytes(path: Path) -> None:
    path.write_bytes(np.random.default_rng(11).bytes(4096))


def _middle_byte_flipped(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x80  # an ASCII byte becomes a lone continuation byte
    path.write_bytes(bytes(data))


def _truncated(path: Path) -> None:
    """Cut the file in the middle of a line, as an interrupted copy leaves it."""
    data = path.read_bytes()
    end = data.find(b"\n", len(data) // 2)
    path.write_bytes(data[:end - 1] if end > 0 else data[:len(data) // 2])


def _header_only(path: Path) -> None:
    path.write_text(path.read_text().splitlines(keepends=True)[0])


def _region_edit(edit):
    """A corruption that applies ``edit`` to a region file's JSON document."""
    def corrupt(path: Path) -> None:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


def _grid_value(key: str, value):
    return _region_edit(lambda doc: doc["grid"].update({key: value}))


RUN_FILES = ("manifest.json", KSELECTION, MODEL)

# case id -> (file, corruption, line it names or None); report reads the
# run's files, run reads the city files
UNREADABLE_FILES = {
    "config not UTF-8": ("pipeline.cfg", _not_utf8, None),
    "config a directory": ("pipeline.cfg", _a_directory, None),
    "region not UTF-8": ("region.json", _not_utf8, None),
    "region a directory": ("region.json", _a_directory, None),
    "region file empty": ("region.json", _empty, None),
    "region file random bytes": ("region.json", _random_bytes, None),
    "region file truncated": ("region.json", _truncated, None),
    "region cell size NaN": ("region.json", _grid_value("cell_size", float("nan")), None),
    "region cell size infinite": ("region.json", _grid_value("cell_size", float("inf")), None),
    "region origin NaN": ("region.json", _grid_value("origin_x", float("nan")), None),
    "region extent overflows a float": ("region.json", _grid_value("cell_size", 1e308), None),
    "region column count not an integer": ("region.json", _grid_value("n_cols", 1.5), None),
    "region row count a string": ("region.json", _grid_value("n_rows", "5"), None),
    "region cell size a bool": ("region.json", _grid_value("cell_size", True), None),
    "region origin a string": ("region.json", _grid_value("origin_x", "12"), None),
    "region name a number": ("region.json", _grid_value("region_name", 5), None),
    "region active cell outside the grid": (
        "region.json", _region_edit(lambda doc: doc.update(active_cells=[[-2, 0]])), None),
    **{f"region declared area {area}": (
        "region.json", _region_edit(lambda doc, area=area: doc.update(declared_area_km2=area)), None)
       for area in (0, -5.0, float("nan"))},
    "region declared area an integer too large for a float": (
        "region.json", _region_edit(lambda doc: doc.update(declared_area_km2=10**400)), None),
    "region origin an integer too large for a float": (
        "region.json", _grid_value("origin_x", 10**400), None),
    "manifest not UTF-8": ("manifest.json", _not_utf8, None),
    "manifest a directory": ("manifest.json", _a_directory, None),
    "model not UTF-8": (MODEL, _not_utf8, None),
    "traffic header wrong": ("traffic.csv", _bad_header, None),
    "traffic file empty": ("traffic.csv", _empty, None),
    "traffic file without a header": ("traffic.csv", _no_header, None),
    "traffic file random bytes": ("traffic.csv", _random_bytes, None),
    "traffic byte flip breaks UTF-8": ("traffic.csv", _middle_byte_flipped, None),
    "POI header wrong": ("pois.csv", _bad_header, None),
    "POI file empty": ("pois.csv", _empty, None),
    "POI file without a header": ("pois.csv", _no_header, None),
    "POI file random bytes": ("pois.csv", _random_bytes, None),
    "POI byte flip breaks UTF-8": ("pois.csv", _middle_byte_flipped, None),
    "POI file without an accepted row": ("pois.csv", _header_only, None),
    "service taxonomy header wrong": ("service_taxonomy.csv", _bad_header, None),
    "service taxonomy service repeated": ("service_taxonomy.csv", _line_3_repeats_line_2, 3),
    "third-place taxonomy header wrong": ("third_places.csv", _bad_header, None),
    "third-place taxonomy row short": ("third_places.csv", _line_3_short, 3),
    "third-place taxonomy category unknown": ("third_places.csv", _line_2_category_unknown, 2),
    "service taxonomy lacks a traffic service": ("service_taxonomy.csv",
                                                 _line_2_service_renamed, None),
    **{f"{what} {case}": (name, corrupt, None)
       for what, name in [("service taxonomy", "service_taxonomy.csv"),
                          ("third-place taxonomy", "third_places.csv"),
                          ("truth labels", "truth_labels.csv")]
       for case, corrupt in [("empty", _empty), ("without a header", _no_header),
                             ("random bytes", _random_bytes), ("truncated", _truncated),
                             ("byte flip breaks UTF-8", _middle_byte_flipped)]},
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_file_is_a_one_line_data_error(city_dir, run_dir, tmp_path, capsys, case):
    name, corrupt, line = UNREADABLE_FILES[case]
    if name not in RUN_FILES:
        city = tmp_path / "city"
        shutil.copytree(city_dir, city)
        path = city / name
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "out")]
    else:
        for n in RUN_FILES:
            (tmp_path / n).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / n).write_bytes((run_dir / n).read_bytes())
        path = tmp_path / name
        argv = ["report", "--run-dir", str(tmp_path)]
    corrupt(path)
    assert main(argv) == 2
    err = _one_line_data_error(capsys, path)
    if line:
        assert f"{path}:{line}:" in err
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["region.json", "pipeline.cfg", "traffic.csv", "pois.csv"])
def test_byte_flips_exit_0_or_a_one_line_data_error(city_dir, tmp_path, capsys, name):
    """Single-bit flips over a run's JSON, config and row files: each run
    ends with exit 0, or exit 2 and one line naming the flipped file; a
    flipped path in the config names the missing input it now points to
    and the config."""
    data = (city_dir / name).read_bytes()
    flips = [(pos, (0x01, 0x20, 0x80)[i % 3])
             for i, pos in enumerate(range(1, len(data), max(1, len(data) // 30)))]
    if name == "pipeline.cfg":  # a space before a path becomes a NUL byte
        flips.append((data.index(b"= traffic.csv") + 1, 0x20))
    codes = Counter()
    for pos, mask in flips:
        city = tmp_path / f"city{pos}-{mask}"
        shutil.copytree(city_dir, city)
        flipped = bytearray(data)
        flipped[pos] ^= mask
        (city / name).write_bytes(bytes(flipped))
        code = main(["run", "--config", str(city / "pipeline.cfg"), "--out", str(city / "out"),
                     "--k-max", "3", "--restarts", "1"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        codes[code] += 1
        if code == 0:
            assert captured.err == ""
            continue
        assert code == 2, (pos, mask, captured.err)
        err = captured.err
        assert err.startswith("data error:") and err.count("\n") == 1, (pos, mask, err)
        assert str(city / name) in err, (pos, mask, err)
        shutil.rmtree(city)
    if name.endswith(".csv"):  # a flip that keeps a row file UTF-8 often only rejects a row
        assert codes[0] > 0 and codes[2] > 0
    else:
        assert codes[2] > codes[0] > 0


# traffic volumes that a run counts as a malformed row and runs on without
MALFORMED_VOLUMES = ["nan", "NaN", "inf", "-inf", "-1", "-2.5e-3", "1e400"]


@pytest.mark.parametrize("volume", MALFORMED_VOLUMES)
def test_a_non_finite_or_negative_volume_is_a_malformed_row(city_dir, run_dir, tmp_path,
                                                            capsys, volume):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    traffic = city / "traffic.csv"
    first = traffic.read_text().splitlines()[1].split(",")
    with open(traffic, "a", encoding="utf-8") as fh:
        fh.write(",".join(first[:5] + [volume]) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(city / "pipeline.cfg"), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((out / "manifest.json").read_text())
    clean = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == clean["artifacts"]
    for scope, quality in manifest["quality"].items():
        rows = quality["cities"]["alpha"]["traffic"]
        assert rows["rejected"] == {"malformed": 1}
        assert rows["accepted"] == clean["quality"][scope]["cities"]["alpha"]["traffic"]["accepted"]


def _cut_mid_line(text: str) -> str:
    middle = len(text) // 2
    return text[:text.index(",", middle) + 2]


# case id -> edit of the POI file's text that a run accepts: odd lines are
# rejected or ignored row by row
ODD_POI_LINES = {
    "truncated mid-line": _cut_mid_line,
    "CRLF line ends": lambda text: text.replace("\n", "\r\n"),
    "lone CR line ends": lambda text: text.replace("\n", "\r"),
    "quoted comma in a label": lambda text: text + '12.5,40.0,"cafe, bar",amenity\n',
    "nan, inf and negative coordinates": lambda text: text + (
        "nan,40.0,cafe,amenity\n40.0,inf,cafe,amenity\n-inf,-inf,bar,amenity\n"
        "-40.0,-12.5,cafe,amenity\n40.0,-0.5,bar,amenity\n"),
}


@pytest.mark.parametrize("case", sorted(ODD_POI_LINES))
def test_odd_poi_lines_still_run(city_dir, tmp_path, capsys, case):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    pois = city / "pois.csv"
    pois.write_bytes(ODD_POI_LINES[case](pois.read_text()).encode())
    assert main(["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("case", ["as written"] + sorted(ODD_POI_LINES))
def test_parse_pois_shares_its_strings(city_dir, tmp_path, case):
    pois = tmp_path / "pois.csv"
    text = (city_dir / "pois.csv").read_text()
    pois.write_bytes((ODD_POI_LINES[case](text) if case in ODD_POI_LINES else text).encode())
    records, report = parse_pois(pois)
    assert (records, report) == reference_parse_pois(pois)
    labels = {p.label for p in records}
    assert len(labels) < len(records)  # the file repeats labels
    assert len({id(p.label) for p in records}) == len(labels)
    assert (len({id(p.source_category) for p in records})
            == len({p.source_category for p in records}))


@pytest.mark.parametrize("command", ["run", "signatures"])
def test_service_missing_from_the_taxonomy_names_both_files(city_dir, tmp_path, capsys,
                                                            command):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    taxonomy, traffic = city / "service_taxonomy.csv", city / "traffic.csv"
    _line_2_service_renamed(taxonomy)
    if command == "run":
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "out")]
    else:
        argv = ["signatures", "--region", str(city / "region.json"), "--traffic", str(traffic),
                "--service-taxonomy", str(taxonomy), "--day-type", "weekday",
                "--out-raw", str(tmp_path / "raw.sig")]
    assert main(argv) == 2
    err = _one_line_data_error(capsys, taxonomy)
    assert f"{traffic}: service 'svc-cat00-a' not in taxonomy {taxonomy}" in err
    if command == "run":  # the tensors are built as the city is read
        assert err.startswith("data error: stage 'ingest': ")


def _traffic_row(service, day="2019-03-18", direction="uplink"):
    return f"0,0,{day}T08:00,{service},{direction},1.0".encode()


# case id -> (traffic lines before the file's rows, lines after them, what the
# one-line error says): the unknown service is raised after the whole file is
# read, for the first one met among accepted rows, of any day type
UNKNOWN_SERVICES = {
    "first accepted one named": (
        [_traffic_row("mystery", direction="sideways"), _traffic_row("enigma")],
        [_traffic_row("mystery")], "service 'enigma' not in taxonomy"),
    "met in a late batch": ([], [_traffic_row("late"), _traffic_row("later")],
                            "service 'late' not in taxonomy"),
    "on another day type": ([], [_traffic_row("mystery", day="2019-03-23")],
                            "service 'mystery' not in taxonomy"),
    "a later undecodable line wins": (
        [_traffic_row("mystery")], [b"0,0,2019-03-18T08:00,\xff,uplink,1"],
        "'utf-8' codec can't decode byte 0xff"),
}


@pytest.mark.parametrize("command", ["run", "signatures"])
@pytest.mark.parametrize("case", sorted(UNKNOWN_SERVICES))
def test_unknown_service_error_keeps_its_message_and_precedence(city_dir, tmp_path, capsys,
                                                                case, command):
    before, after, message = UNKNOWN_SERVICES[case]
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    traffic, taxonomy = city / "traffic.csv", city / "service_taxonomy.csv"
    header, *rows = traffic.read_bytes().splitlines()
    traffic.write_bytes(b"\n".join([header] + before + rows + after) + b"\n")
    if command == "run":
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "out")]
    else:
        argv = ["signatures", "--region", str(city / "region.json"), "--traffic", str(traffic),
                "--service-taxonomy", str(taxonomy), "--day-type", "weekday",
                "--out-raw", str(tmp_path / "raw.sig")]
    assert main(argv) == 2
    err = _one_line_data_error(capsys, traffic)
    stage = "stage 'ingest': " if command == "run" else ""
    if "codec" in message:
        assert err.startswith(f"data error: {stage}cannot read {traffic}: ") and message in err
    else:
        assert err == f"data error: {stage}{traffic}: {message} {taxonomy}\n"


def test_a_run_does_not_import_numpy_ma(city_dir, tmp_path):
    # np.unique without index outputs imports numpy.ma (about 1 MiB of peak RSS)
    code = (
        "import sys\n"
        "from vibrancy.config import parse_config\n"
        "from vibrancy.pipeline import run_pipeline\n"
        f"run_pipeline(parse_config({str(city_dir / 'pipeline.cfg')!r}), {str(tmp_path)!r})\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    src = str(Path(vibrancy.pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_run_does_not_import_numpy_random(city_dir, tmp_path):
    # k-means++ seeds and the holdout split come from random.Random
    code = (
        "import sys\n"
        "from vibrancy.cli import main\n"
        f"assert main(['run', '--config', {str(city_dir / 'pipeline.cfg')!r}, '--out', "
        f"{str(tmp_path)!r}, '--holdout', '0.25', '--lambda', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    src = str(Path(vibrancy.pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    metrics = json.loads((tmp_path / "alpha" / "weekday" / "metrics.json").read_text())
    assert metrics["n_eval"] == round(0.25 * metrics["n_rows"]) > 0


@pytest.mark.parametrize("name", ["traffic.csv", "pois.csv", "service_taxonomy.csv",
                                  "third_places.csv", "truth_labels.csv"])
def test_a_byte_order_mark_changes_no_artifact(city_dir, tmp_path, monkeypatch, name):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    argv = ["run", "--config", str(city / "pipeline.cfg"), "--out"]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(argv + [str(plain)]) == 0
    path = city / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    if name == "traffic.csv":  # the mark must not send the file down the csv.reader path
        monkeypatch.setattr(vibrancy.ingest, "_split_rows", None)
    assert main(argv + [str(marked)]) == 0
    files = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(marked) for p in marked.rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "manifest.json":
            assert (marked / rel).read_bytes() == (plain / rel).read_bytes(), rel
    ours, theirs = (json.loads((d / "manifest.json").read_text()) for d in (marked, plain))
    differ = [p for p in ours["inputs"] if ours["inputs"][p] != theirs["inputs"][p]]
    assert differ == [str(path)]
    ours.pop("inputs"), theirs.pop("inputs")
    assert ours == theirs


def test_features_without_an_accepted_poi_row_is_a_one_line_data_error(city_dir, tmp_path,
                                                                       capsys):
    pois = tmp_path / "pois.csv"
    pois.write_text((city_dir / "pois.csv").read_text().splitlines(keepends=True)[0])
    argv = ["features", "--region", str(city_dir / "region.json"), "--pois", str(pois),
            "--third-places", str(city_dir / "third_places.csv"),
            "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 2
    assert f"{pois}: no POI row accepted of 0 data lines" in _one_line_data_error(capsys, pois)


# case id -> traffic rows after the header, and the rejects the error names
NO_ACCEPTED_TRAFFIC = {
    "header only": ([], "of 0 data lines (rejected: none)"),
    "every row rejected": (
        ["0,0,2019-03-18T08:00,svc-cat00-a,sideways,1", "0,0,yesterday,svc-cat00-a,uplink,1",
         "", "999,0,2019-03-18T08:00,svc-cat00-a,uplink,1", "0,0"],
        "of 4 data lines (rejected: 1 unknown_direction, 2 malformed, 1 out_of_bounds)"),
}


@pytest.mark.parametrize("command", ["run", "signatures"])
@pytest.mark.parametrize("case", sorted(NO_ACCEPTED_TRAFFIC))
def test_traffic_without_an_accepted_row_is_a_one_line_data_error(city_dir, tmp_path, capsys,
                                                                   case, command):
    rows, counts = NO_ACCEPTED_TRAFFIC[case]
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    traffic = city / "traffic.csv"
    header = traffic.read_text().splitlines()[0]
    traffic.write_text("\n".join([header] + rows) + "\n")
    if command == "run":
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "out")]
    else:
        argv = ["signatures", "--region", str(city / "region.json"), "--traffic", str(traffic),
                "--service-taxonomy", str(city / "service_taxonomy.csv"),
                "--day-type", "weekday", "--out-raw", str(tmp_path / "raw.sig")]
    assert main(argv) == 2
    err = _one_line_data_error(capsys, traffic)
    assert f"{traffic}: no traffic row accepted {counts}" in err
    assert capsys.readouterr().out == ""


def _weekday_only(city: Path) -> None:
    """Keep only the weekday rows of the city's traffic file."""
    lines = (city / "traffic.csv").read_text().splitlines(keepends=True)
    (city / "traffic.csv").write_text("".join(lines[:1] + [
        line for line in lines[1:]
        if day_type_of(datetime.fromisoformat(line.split(",")[2])) == "weekday"]))


def _silent_weekend(city: Path) -> None:
    """Set the volume of every weekend row of the city's traffic file to 0."""
    lines = (city / "traffic.csv").read_text().splitlines(keepends=True)
    (city / "traffic.csv").write_text("".join(lines[:1] + [
        line if day_type_of(datetime.fromisoformat(line.split(",")[2])) == "weekday"
        else line.rsplit(",", 1)[0] + ",0\n" for line in lines[1:]]))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("edit", [_weekday_only, _silent_weekend],
                         ids=["no row of the day type", "rows of no volume"])
@pytest.mark.parametrize("command", ["run", "signatures"])
def test_a_day_type_without_traffic_is_a_one_line_data_error(city_dir, tmp_path, capsys,
                                                             monkeypatch, edit, command, cpus):
    """A configured day type whose tensor would be all zero, in the region's
    active cells, is not clustered: exit 2 with one line naming the traffic
    file and the day type. On 2 CPUs the file is read in two ranges."""
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    edit(city)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(vibrancy.pipeline, "_SPLIT_BYTES", 1)
    if command == "run":
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "out")]
    else:
        argv = ["signatures", "--region", str(city / "region.json"),
                "--traffic", str(city / "traffic.csv"),
                "--service-taxonomy", str(city / "service_taxonomy.csv"),
                "--day-type", "weekend", "--out-raw", str(tmp_path / "raw.sig")]
    assert main(argv) == 2
    err = _one_line_data_error(capsys, city / "traffic.csv")
    stage = "stage 'ingest': " if command == "run" else ""
    assert err == (f"data error: {stage}{city / 'traffic.csv'}: no traffic of day type "
                   "'weekend' in the region's active cells\n")
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists() and not (tmp_path / "raw.sig").exists()
