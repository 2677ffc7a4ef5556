"""Pipeline configuration files.

A minimal TOML-like format: ``key = value`` lines, ``[city.<name>]``
sections, ``#`` comments. Values are strings (optionally quoted), integers,
floats, booleans (``true``/``false``), or comma-separated lists. Paths are
resolved relative to the config file's directory.

Top-level keys::

    seed = 42
    level = local              # local | global
    day_types = weekday, weekend
    k_min = 3
    k_max = 10
    restarts = 10
    lambda = 1.0
    rr_cap = 1e6
    min_label_count = 10
    drop_silent_cells = false
    mean_per_day = false
    holdout = 0.0
    service_taxonomy = services.csv
    third_place_taxonomy = third_places.csv

    [city.nancy]
    region = nancy/region.json
    traffic = nancy/traffic.csv
    pois = nancy/pois.csv
    truth = nancy/truth_labels.csv   # optional planted labels
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigError, read_text
from .signatures import DAY_TYPES, DEFAULT_RR_CAP

LEVELS = ("local", "global")


@dataclass
class CityConfig:
    name: str
    region: Path
    traffic: Path
    pois: Path
    truth: Optional[Path] = None


@dataclass
class PipelineConfig:
    cities: list[CityConfig]
    service_taxonomy: Path
    third_place_taxonomy: Path
    day_types: list[str] = field(default_factory=lambda: ["weekday", "weekend"])
    level: str = "local"
    k_min: int = 3
    k_max: int = 10
    seed: int = 0
    restarts: int = 10
    lam: float = 1.0
    rr_cap: float = DEFAULT_RR_CAP
    min_label_count: int = 10
    drop_silent_cells: bool = False
    mean_per_day: bool = False
    holdout: float = 0.0

    def validate(self) -> None:
        if not self.cities:
            raise ConfigError("config lists no cities")
        if self.level not in LEVELS:
            raise ConfigError(f"level must be one of {LEVELS}")
        for dt in self.day_types:
            if dt not in DAY_TYPES:
                raise ConfigError(f"unknown day type {dt!r}")
        if not self.day_types:
            raise ConfigError("day_types is empty")
        if not (2 <= self.k_min <= self.k_max):
            raise ConfigError("need 2 <= k_min <= k_max")
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if not (0.0 <= self.holdout < 1.0):
            raise ConfigError("holdout must be in [0, 1)")
        names = [c.name for c in self.cities]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate city names")


def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#":
            break
        out.append(ch)
    return "".join(out).strip()


def _scalar(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _value(text: str):
    stripped = text.strip()
    if len(stripped) >= 2 and stripped[0] == stripped[-1] and stripped[0] in "'\"":
        return stripped[1:-1]  # quoted values are never split
    if "," in stripped:
        return [_scalar(p) for p in stripped.split(",") if p.strip()]
    return _scalar(stripped)


def _read_sections(path: Path) -> tuple[dict, dict[str, dict]]:
    top: dict = {}
    sections: dict[str, dict] = {}
    current = top
    for line_no, raw in enumerate(read_text(path, "config file").splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name.startswith("city."):
                raise ConfigError(f"{path}:{line_no}: unknown section [{name}]")
            city = name[len("city.") :].strip()
            if not city:
                raise ConfigError(f"{path}:{line_no}: empty city name")
            if city in sections:
                raise ConfigError(f"{path}:{line_no}: duplicate section [city.{city}]")
            sections[city] = {}
            current = sections[city]
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in current:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        current[key] = _value(val)
    return top, sections


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


#: the config file and the manifest spell ``lam`` as "lambda"
_KEY_OF = {"lam": "lambda"}

#: converters keyed by field annotation (a string: annotations are postponed)
_CONVERT = {
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "list[str]": lambda v: [str(x) for x in _as_list(v)],
}


def _key(f: Field) -> str:
    return _KEY_OF.get(f.name, f.name)


def _build(cls, doc: dict, where: str, base: Optional[Path], **given):
    """Construct ``cls`` from ``doc``, reading one key per dataclass field.

    From a config file (``base`` is its directory) a missing key keeps the
    field's default and paths resolve against ``base``. From a manifest
    (``base`` is None) every key must be present and paths are kept as written.
    """
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        key = _key(f)
        if key not in doc:
            if base is None or (f.default is MISSING and f.default_factory is MISSING):
                raise ConfigError(f"{where} is missing {key!r}")
            continue
        value = doc[key]
        if "Path" not in f.type:
            try:
                kwargs[f.name] = _CONVERT[f.type](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where} {key} has a bad value {value!r}") from exc
        elif value is not None:
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{where} {key} must be a path string")
            kwargs[f.name] = Path(value) if base is None else (base / value).resolve()
    return cls(**kwargs)


def parse_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    top, sections = _read_sections(path)
    cities = [
        _build(CityConfig, body, f"[city.{name}]", path.parent, name=name)
        for name, body in sections.items()
    ]
    config = _build(PipelineConfig, top, "config", path.parent, cities=cities)
    config.validate()
    return config


def _plain(value):
    if isinstance(value, Path):
        return str(value)
    return list(value) if isinstance(value, list) else value


def _to_dict(obj) -> dict:
    return {_key(f): _plain(getattr(obj, f.name)) for f in fields(obj)}


def config_to_dict(config: PipelineConfig) -> dict:
    return {**_to_dict(config), "cities": [_to_dict(c) for c in config.cities]}


def config_from_dict(doc: dict) -> PipelineConfig:
    try:
        cities = [_build(CityConfig, c, "manifest city", None) for c in doc["cities"]]
        config = _build(PipelineConfig, doc, "manifest config", None, cities=cities)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"manifest config is malformed: {exc}") from exc
    config.validate()
    return config
