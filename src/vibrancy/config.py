"""Pipeline configuration files.

A minimal TOML-like format: ``key = value`` lines, ``[city.<name>]``
sections, ``#`` comments. Each value is read once, by its key's type below,
after one pair of quotes around it is dropped: an int by ``int(text)`` (no
fraction, no exponent), a float by ``float(text)``, a bool is ``true`` or
``false`` in any letter case, a list is split at commas, and a str or a path
is the text as written. Any other form is a ``ConfigError`` naming the file
and the key. A manifest's ``config`` holds the same keys as JSON values of
these types (a float also takes an integer). Paths are resolved relative to
the config file's directory.

Top-level keys and their types::

    seed = 42                  # int
    level = local              # str: local | global
    day_types = weekday, weekend   # list of day types
    k_min = 3                  # int
    k_max = 10                 # int
    restarts = 10              # int
    lambda = 1.0               # float
    rr_cap = 1e6               # float
    min_label_count = 10       # int
    drop_silent_cells = false  # bool
    mean_per_day = false       # bool
    holdout = 0.0              # float
    service_taxonomy = services.csv       # path
    third_place_taxonomy = third_places.csv   # path

    [city.nancy]
    region = nancy/region.json
    traffic = nancy/traffic.csv
    pois = nancy/pois.csv
    truth = nancy/truth_labels.csv   # optional planted labels
"""

from __future__ import annotations

import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigError, json_field, read_text
from .signatures import DAY_TYPES, DEFAULT_RR_CAP

LEVELS = ("local", "global")

#: bounds the config and the CLI's options share: field -> (test, what a value must be)
BOUNDS = {
    "seed": (lambda v: v >= 0, "must be nonnegative"),
    "restarts": (lambda v: v >= 1, "must be at least 1"),
    "lam": (lambda v: 0.0 <= v < math.inf, "must be finite and nonnegative"),
    "rr_cap": (lambda v: 0.0 < v < math.inf, "must be finite and positive"),
    "holdout": (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"),
}


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
        if len(set(self.day_types)) != len(self.day_types):
            raise ConfigError("day_types lists a day type twice")
        if message := bounds_error(vars(self)):
            raise ConfigError(message)
        names = [c.name for c in self.cities]
        for name in names:
            if message := city_name_error(name):
                raise ConfigError(message)
        if len(set(names)) != len(names):
            raise ConfigError("duplicate city names")


def city_name_error(name: str) -> Optional[str]:
    """Why ``name`` cannot name a city, or None. A city's name is one plain
    path component of the run directory and a config section name: not
    empty, ``.`` or ``..``, no leading or trailing whitespace, and no ``/``,
    ``\\``, ``#`` or control character (U+0000-U+001F, U+007F-U+009F)."""
    if (not name or name in (".", "..") or name != name.strip()
            or any(ch in "/\\#" or ch < " " or "\x7f" <= ch <= "\x9f" for ch in name)):
        return (f"city name {name!r} is not one plain path component (it must not be empty, "
                "'.' or '..', start or end with whitespace, or hold '/', '\\', '#' or a "
                "control character)")


def bounds_error(settings: dict, spell=None) -> Optional[str]:
    """What is wrong with the first of ``settings`` (field -> value) out of
    bounds, ``2 <= k_min <= k_max`` then ``BOUNDS``, or None; other fields are
    ignored. A field is spelled ``spell(field)``, by default its config key."""
    spell = spell or (lambda name: _KEY_OF.get(name, name))
    if "k_min" in settings and not 2 <= settings["k_min"] <= settings["k_max"]:
        return f"need 2 <= {spell('k_min')} <= {spell('k_max')}"
    for name, (holds, must) in BOUNDS.items():
        if name in settings and not holds(settings[name]):
            return f"{spell(name)} {must}"


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


def _section_name(raw: str) -> Optional[str]:
    """The name in a ``[name]`` section header line, or None if ``raw`` is
    not one. The header ends at the first ``]`` followed by nothing but a
    comment, so a ``#`` inside the brackets stays in the name."""
    text = raw.strip()
    end = text.find("]") if text.startswith("[") else -1
    while end != -1 and _strip_comment(text[end + 1 :]):
        end = text.find("]", end + 1)
    return None if end == -1 else text[1:end].strip()


def _unquote(text: str) -> str:
    """``text`` without surrounding blanks and one pair of matching quotes."""
    text = text.strip()
    return text[1:-1] if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"" else text


def _read_sections(path: Path) -> tuple[dict, dict[str, dict]]:
    top: dict = {}
    sections: dict[str, dict] = {}
    current = top
    for line_no, raw in enumerate(read_text(path, "config file").splitlines(), start=1):
        name = _section_name(raw)
        if name is not None:
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
        line = _strip_comment(raw)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in current:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        current[key] = val.strip()
    return top, sections


#: the config file and the manifest spell ``lam`` as "lambda"
_KEY_OF = {"lam": "lambda"}

#: each field's type by its annotation (a string: annotations are postponed)
_TYPE_OF = {"str": str, "int": int, "float": float, "bool": bool, "list[str]": list}


def _from_text(text: str, kind: type):
    """A config file's value ``text`` read as a ``kind`` field; quotes around
    it, or around a list item, are dropped."""
    if kind is list:
        return [_unquote(item) for item in text.split(",") if item.strip()]
    text = _unquote(text)
    return {"true": True, "false": False}[text.lower()] if kind is bool else kind(text)


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
        if doc[key] is None and f.type.startswith("Optional"):
            continue
        kind = _TYPE_OF.get(f.type, str)  # a path is a string
        try:
            value = json_field(doc, key, kind) if base is None else _from_text(doc[key], kind)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where} {key} {doc[key]!r} is not of type {kind.__name__}") from exc
        if "Path" in f.type:
            if not value or "\0" in value:
                raise ConfigError(f"{where} {key} must be a nonempty path string without NUL bytes")
            value = Path(value) if base is None else (base / value).resolve()
        kwargs[f.name] = value
    return cls(**kwargs)


def parse_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    top, sections = _read_sections(path)
    cities = [
        _build(CityConfig, body, f"{path}: [city.{name}]", path.parent, name=name)
        for name, body in sections.items()
    ]
    config = _build(PipelineConfig, top, f"{path}: config", path.parent, cities=cities)
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
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
        cities = [_build(CityConfig, c, "manifest city", None)
                  for c in json_field(doc, "cities", list)]
        config = _build(PipelineConfig, doc, "manifest config", None, cities=cities)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"manifest config is malformed: {exc}") from exc
    config.validate()
    return config
