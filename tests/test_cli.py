import hashlib
import json
import shutil
from pathlib import Path

import pytest

import vibrancy.pipeline
from vibrancy.cli import main
from vibrancy.config import parse_config
from vibrancy.errors import ConfigError
from vibrancy.pipeline import run_pipeline
from vibrancy.synth import SynthSpec, generate_for_day_types, write_city


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
        read_traffic = vibrancy.pipeline.read_traffic

        def counting_read_traffic(source, grid):
            calls.append(source)
            return read_traffic(source, grid)

        monkeypatch.setattr(vibrancy.pipeline, "read_traffic", counting_read_traffic)
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
        (city / "traffic.csv").write_text("\n".join(traffic + bad_traffic) + "\n")
        pois = (city / "pois.csv").read_text().splitlines()
        bad_pois = ["1.0,2.0,cafe,tourism", "north,2.0,cafe,amenity"]
        (city / "pois.csv").write_text("\n".join(pois + bad_pois) + "\n")
        manifest = run_pipeline(parse_config(city / "pipeline.cfg"), tmp_path / "o")
        clean = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["artifacts"] == clean["artifacts"]  # rejected rows change nothing
        for day in ("weekday", "weekend"):
            quality = manifest["quality"][f"alpha/{day}"]
            assert quality["cities"] == {"alpha": {
                "traffic": {"accepted": len(traffic) - 1, "rejected": {
                    "malformed": 2, "unknown_direction": 1, "out_of_bounds": 1}},
                "pois": {"accepted": len(pois) - 1, "rejected": {
                    "malformed": 1, "unknown_source_category": 1}},
            }}
            model = json.loads((tmp_path / "o" / "alpha" / day / "model.json").read_text())
            assert quality["logit"] == {key: model[key] for key in (
                "converged", "n_iter", "final_grad_norm")}
            assert quality["capped_columns"] == clean["quality"][f"alpha/{day}"]["capped_columns"]

    @pytest.mark.parametrize("text", ["[1, 2]", '{"format": "vibrancy-run-manifest"}'],
                             ids=["not an object", "no config"])
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


class TestGlobalLevel:
    def test_two_city_global_run(self, tmp_path):
        cities = {}
        for name, seed in (("alpha", 5), ("beta", 6)):
            spec = SynthSpec(seed=seed, n_cells=36, k_true=2, noise_sigma=0.8,
                             region_name=name)
            write_city(generate_for_day_types(spec, ["weekday"]), tmp_path / name)
            cities[name] = tmp_path / name
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


def _json_edit(edit):
    """A corruption of a JSON file's bytes by ``edit`` of its parsed document."""
    def apply(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()
    return apply


def _text_edit(edit):
    return lambda data: edit(data.decode()).encode()


KSELECTION = "alpha/weekday/kselection.json"
COEFFICIENTS = "alpha/weekday/coefficients.csv"

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
    "coefficients row short": (COEFFICIENTS, _text_edit(
        lambda text: _replace_line(text, 3, text.splitlines()[2].rsplit(",", 1)[0]))),
    "coefficients row long": (COEFFICIENTS, _text_edit(
        lambda text: _replace_line(text, 3, text.splitlines()[2] + ",1.0"))),
    "coefficient not a number": (COEFFICIENTS, _text_edit(
        lambda text: _replace_line(text, 3, text.splitlines()[2].rsplit(",", 1)[0] + ",abc"))),
}


class TestReport:
    def test_report_prints_summary(self, run_dir, capsys):
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "alpha/weekday" in out
        assert "silhouette by k" in out
        assert "total_diversity" in out

    def test_report_needs_manifest(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", sorted(BAD_RUN_FILES))
    def test_report_on_a_bad_manifest_is_a_data_error(self, run_dir, tmp_path, capsys, case):
        rel, edit = BAD_RUN_FILES[case]
        for name in ("manifest.json", KSELECTION, COEFFICIENTS):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        path = tmp_path / rel
        path.write_bytes(edit(path.read_bytes()))
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        err = _one_line_data_error(capsys, path)
        if rel == COEFFICIENTS:
            assert f"{path}:3:" in err
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["cluster", "--bogus"]) == 1
        assert main(["definitely-not-a-command"]) == 1

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


def _replace_line(text: str, line_no: int, new: str) -> str:
    lines = text.splitlines()
    lines[line_no - 1] = new
    return "\n".join(lines) + "\n"


def _duplicate_line_2(text: str) -> str:
    return _replace_line(text, 3, text.splitlines()[1])


# (file to corrupt, corruption of its text, subcommand that reads it)
BAD_CELL_ROWS = {
    "labels row not an integer": ("labels.csv", lambda t: _replace_line(t, 3, "1,x,1"),
                                  "features"),
    "labels row short": ("labels.csv", lambda t: _replace_line(t, 3, "1,0"), "fit"),
    "labels cell repeated (fit)": ("labels.csv", _duplicate_line_2, "fit"),
    "labels cell repeated (features)": ("labels.csv", _duplicate_line_2, "features"),
    "features value not a number": (
        "features.csv", lambda t: _replace_line(t, 3, "1,0" + ",abc" * 12), "fit"),
    "features row short": ("features.csv", lambda t: _replace_line(t, 3, "1,0,1.0"), "fit"),
    "features cell repeated": ("features.csv", _duplicate_line_2, "fit"),
}


@pytest.mark.parametrize("case", sorted(BAD_CELL_ROWS))
def test_bad_cell_csv_row_is_a_data_error_at_its_line(city_dir, run_dir, tmp_path, capsys,
                                                       case):
    name, corrupt, command = BAD_CELL_ROWS[case]
    scope = run_dir / "alpha" / "weekday"
    paths = {n: tmp_path / n for n in ("labels.csv", "features.csv")}
    for n, path in paths.items():
        path.write_text((scope / n).read_text())
    paths[name].write_text(corrupt(paths[name].read_text()))
    if command == "features":
        c = str(city_dir)
        argv = ["features", "--region", f"{c}/region.json", "--pois", f"{c}/pois.csv",
                "--third-places", f"{c}/third_places.csv",
                "--cells-from", str(paths["labels.csv"]), "--out", str(tmp_path / "f.csv")]
    else:
        argv = ["fit", "--features", str(paths["features.csv"]),
                "--labels", str(paths["labels.csv"]), "--out-dir", str(tmp_path / "fit")]
    assert main(argv) == 2
    assert f"{paths[name]}:3:" in _one_line_data_error(capsys, paths[name])


def _not_utf8(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:10] + b"\xff" + data[10:])


def _a_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


# case id -> (file, corruption); run reads the city files, report the run's
UNREADABLE_FILES = {
    "config not UTF-8": ("pipeline.cfg", _not_utf8),
    "config a directory": ("pipeline.cfg", _a_directory),
    "region not UTF-8": ("region.json", _not_utf8),
    "region a directory": ("region.json", _a_directory),
    "manifest not UTF-8": ("manifest.json", _not_utf8),
    "manifest a directory": ("manifest.json", _a_directory),
    "coefficients not UTF-8": (COEFFICIENTS, _not_utf8),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_file_is_a_one_line_data_error(city_dir, run_dir, tmp_path, capsys, case):
    name, corrupt = UNREADABLE_FILES[case]
    if name in ("pipeline.cfg", "region.json"):
        city = tmp_path / "city"
        shutil.copytree(city_dir, city)
        path = city / name
        argv = ["run", "--config", str(city / "pipeline.cfg"), "--out", str(tmp_path / "out")]
    else:
        for n in ("manifest.json", KSELECTION, COEFFICIENTS):
            (tmp_path / n).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / n).write_bytes((run_dir / n).read_bytes())
        path = tmp_path / name
        argv = ["report", "--run-dir", str(tmp_path)]
    corrupt(path)
    assert main(argv) == 2
    _one_line_data_error(capsys, path)
    assert capsys.readouterr().out == ""
