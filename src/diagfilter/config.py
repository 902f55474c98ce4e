"""The experiment configuration: one table of fields, each with its one rule.

:data:`FIELDS` lists every field but the model's.  The plant and disturbance
types check their values by its rows, and every sample or step count comes
from :func:`whole_count`, so a value is accepted or refused alike in JSON and
in a type built directly.  Only ``errors`` and ``agc`` are imported here.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from math import ceil, isfinite
from pathlib import Path

from .agc import areas_to_dict, multivariate_topology, three_area_default, univariate_topology
from .errors import ConfigError, check_number

# training instance i draws seed + i, held-out run j seed + TEST_SEED_OFFSET + j
TEST_SEED_OFFSET = 100_000


def whole_count(span: float, unit: float, rule: str) -> int:
    """The ``unit`` intervals in ``span``, such as a horizon's samples or a
    sampling period's RK4 steps; ConfigError with the message ``rule``
    unless that is a whole number (within 1e-9 of one) of at least 1."""
    ratio = span / unit
    count = round(ratio) if isfinite(ratio) else 0
    if count < 1 or abs(ratio - count) > 1e-9:
        raise ConfigError(rule)
    return count


def hold_rows(horizon: float, hold: float) -> int:
    """Rows of a disturbance draw: one per ``hold`` begun in ``horizon``, plus one;
    capped at ``2**62 + 1``, a count no memory holds, so that it stays finite."""
    return ceil(min(horizon / hold, 2.0**62)) + 1


def _read_json(path: Path, what: str):
    """The JSON value in the file at ``path``; ConfigError, naming it ``what``,
    when it is missing, cannot be read, or does not hold JSON."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, text not in UTF-8 or an integer past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def check_memory(floats: int, names: str) -> None:
    """ConfigError unless ``floats`` doubles, sized by ``names``, fit in physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * floats > memory:
        raise ConfigError(
            f"the arrays sized by {names} need more than the "
            f"{memory / 2**30:.1f} GiB of physical memory"
        )


@dataclass(frozen=True)
class Field:
    """One configuration field: its path, default, rule, and whether the design reads it.

    A default of ``...`` marks a field a configuration must give.  ``rule``
    is ``real``, ``whole``, ``flag``, ``pair`` (two reals), ``list`` (whole
    numbers), ``rows`` (reals, or equally long lists of them) or ``name``
    (checked as code); a number lies in the interval ``bounds``, ``null``
    admits null, and an attack field belongs to the attack ``kind`` it names.
    """

    name: str
    default: object
    rule: str = "real"
    bounds: str = "(-inf, inf)"
    null: bool = False
    design: bool = True
    kind: str | None = None
    # what a value of each list rule must be
    SHAPES = {
        "pair": "null or a pair [lo, hi]",
        "list": "null or a list of whole numbers",
        "rows": "a list of numbers or of equally long lists",
    }

    def check(self, value) -> None:
        """Raise ConfigError unless ``value`` meets this field's rule."""
        name, rule = self.name, self.rule
        if value is None and self.null or rule == "name":
            return
        if rule == "flag" and not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        elif rule in self.SHAPES:
            listed = (list, tuple)
            # a matrix by rows; any other value is checked as a single row
            matrix = rule == "rows" and isinstance(value, listed) and value and all(
                isinstance(row, listed) for row in value
            )
            rows = value if matrix else [value]
            for row in rows:
                wrong = not isinstance(row, listed) or len(row) != len(rows[0])
                if wrong or rule == "pair" and len(row) != 2:
                    raise ConfigError(f"{name} must be {self.SHAPES[rule]}, got {value!r}")
                for entry in row:
                    check_number(name, entry, whole=rule == "list")
        elif rule in ("real", "whole"):
            check_number(name, value, whole=rule == "whole")
            low, high = (float(end) for end in self.bounds[1:-1].split(","))
            above = low < value if self.bounds[0] == "(" else low <= value
            if not (above and (value < high if self.bounds[-1] == ")" else value <= high)):
                raise ConfigError(f"{name} must lie in {self.bounds}")


FIELDS = (
    Field("seed", 2024, "whole", "[0, inf)"),
    Field("mode", "data_assisted", "name"),
    Field("plant.t_s", 0.5, bounds="(0, inf)"),
    Field("plant.dt", 0.001, bounds="(0, inf)"),
    Field("plant.deadband", 0.001, bounds="[0, inf)"),
    Field("plant.agc_limits", [-0.02, 0.02], "pair", null=True),
    Field("plant.sine_ties", True, "flag"),
    Field("plant.rate_limit", None, bounds="(0, inf)", null=True),
    Field("filter.d_n", 3, "whole", "[1, inf)"),
    Field("filter.pole", 0.5, bounds="(-1, 1)"),
    # margin sits between the healthy energy spread of the training-aware
    # filter (~2e-5 at this scale) and the healthy energies of the model-only
    # baseline (~4e-4 .. 9e-4), so the two modes separate on held-out runs
    Field("filter.margin", 0.0005, bounds="[0, inf)"),
    Field("filter.window_seconds", 10.0, bounds="(0, inf)"),
    # DC tracking is a univariate option: its default follows the attack
    Field("filter.track_steady_state", lambda kind: kind == "univariate", "flag"),
    # training seeds stay below the held-out seeds
    Field("train.m", 100, "whole", f"[1, {TEST_SEED_OFFSET}]"),
    Field("train.horizon_seconds", 10.0, bounds="(0, inf)"),
    Field("train.sigma", 0.02, bounds="[0, inf)"),
    Field("train.hold_seconds", 1.0, bounds="(0, inf)"),
    Field("train.channels", None, "list", null=True),
    Field("test.runs", 10, "whole", "[1, inf)", design=False),
    Field("test.horizon_seconds", 60.0, bounds="(0, inf)", design=False),
    Field("test.onset_seconds", 30.0, design=False),
    Field("attack.channel", 0, "whole", design=False, kind="univariate"),
    Field("attack.magnitude", 0.1, design=False, kind="univariate"),
    Field("attack.basis", ..., "rows", kind="multivariate"),
    Field("attack.polytope_a", ..., "rows", kind="multivariate"),
    Field("attack.polytope_b", ..., "rows", kind="multivariate"),
)
SECTIONS = ("model", "plant", "filter", "train", "test", "attack")


def _fields_of(kind) -> list[Field]:
    """The fields of a configuration whose attack is of ``kind``."""
    if kind not in ("univariate", "multivariate"):
        raise ConfigError(f"unknown attack kind {kind!r}")
    return [field for field in FIELDS if field.kind in (None, kind)]


def default_config() -> dict:
    """The canonical three-area experiment with a single corrupted tie reading."""
    model = areas_to_dict(three_area_default(), univariate_topology())
    return ExperimentConfig.from_dict({"model": model, "attack": {"kind": "univariate"}}).to_dict()


def multivariate_default_config() -> dict:
    """Coordinated-bias variant: three basis attacks on five tie readings."""
    attack = {
        "kind": "multivariate",
        "basis": [
            [0.1, 0.1, 0.0],
            [0.0, 0.15, 0.0],
            [0.1, 0.25, 0.0],
            [0.0, 0.0, 0.1],
            [0.0, 0.0, 0.1],
        ],
        "polytope_a": [[1.0, 1.0, 1.0]],
        "polytope_b": [1.5],
    }
    model = areas_to_dict(three_area_default(), multivariate_topology())
    return ExperimentConfig.from_dict({"model": model, "attack": attack}).to_dict()


@dataclass
class ExperimentConfig:
    """Validated view of one experiment's JSON configuration."""

    model: dict
    plant: dict
    filter: dict
    train: dict
    test: dict
    attack: dict
    seed: int
    mode: str

    @staticmethod
    def from_dict(raw: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        """Fill in each default :data:`FIELDS` gives and validate; a key it
        does not list and a required field left out are rejected."""
        if not isinstance(raw, dict):
            raise ConfigError("a configuration is a JSON object")
        raw = dict(raw)
        base = Path(base_dir)
        for section in ("model", "plant"):
            # a referenced file is ignored where its section is given
            key = raw.pop(f"{section}_path", None)
            if section not in raw and key is not None:
                raw[section] = _read_json(base / key, f"referenced {section} file")
        missing = [k for k in ("model", "attack") if k not in raw]
        if missing:
            raise ConfigError(f"configuration missing section(s): {', '.join(missing)}")
        for section in SECTIONS[1:]:
            if not isinstance(raw.get(section, {}), dict):
                raise ConfigError(f"configuration section {section} must be a JSON object")
        kind = raw["attack"].get("kind")
        fields = _fields_of(kind)
        given = {*raw, *(f"{s}.{key}" for s in SECTIONS[1:] for key in raw.get(s, {}))}
        if unknown := sorted(given - {f.name for f in fields} - {*SECTIONS, "attack.kind"}):
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
        values = {**raw, **{section: dict(raw.get(section, {})) for section in SECTIONS[1:]}}
        for field in fields:
            if field.default is ... and field.name not in given:
                raise ConfigError(f"configuration missing {field.name}")
            section, _, key = field.name.rpartition(".")
            default = field.default(kind) if callable(field.default) else field.default
            (values[section] if section else values).setdefault(key, copy.deepcopy(default))
        cfg = ExperimentConfig(**values)
        cfg.validate()
        cfg.seed = int(cfg.seed)
        return cfg

    @staticmethod
    def from_file(path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        """Load a JSON configuration; ``overrides`` replaces top-level fields
        (the CLI's ``--seed`` and ``--mode``) before it is validated."""
        path = Path(path)
        raw = _read_json(path, "configuration file")
        if isinstance(raw, dict) and overrides:
            raw = {**raw, **overrides}
        return ExperimentConfig.from_dict(raw, base_dir=path.parent)

    def to_dict(self) -> dict:
        return dict(vars(self))

    def value(self, name: str):
        """The value of the field ``name``, such as ``plant.t_s``."""
        section, _, key = name.rpartition(".")
        return getattr(self, section)[key] if section else getattr(self, key)

    def samples(self, name: str) -> int:
        """The samples in the span of the field ``name``; ConfigError unless ``t_s`` divides it."""
        span, t_s = float(self.value(name)), float(self.plant["t_s"])
        return whole_count(span, t_s, f"{name} must be a positive multiple of t_s")

    def validate(self):
        """Reject, before anything is simulated or written, what no phase can run.

        Each field is checked by its rule in :data:`FIELDS`, then the rules
        between fields; values are never rewritten.  Checks that need the
        assembled model (plant step, disturbance channels, attack set) run
        in :func:`~diagfilter.pipeline.build_context`, which every phase
        calls before it writes.
        """
        if self.mode not in ("data_assisted", "pure_model"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for field in _fields_of(self.attack.get("kind")):
            field.check(self.value(field.name))
        filt, test = self.filter, self.test
        samples = self.samples("train.horizon_seconds")
        self.samples("test.horizon_seconds")
        self.samples("filter.window_seconds")
        if not 0 <= test["onset_seconds"] < test["horizon_seconds"]:
            raise ConfigError("test.onset_seconds must fall inside the test horizon")
        if self.mode == "data_assisted" and samples < filt["d_n"]:
            raise ConfigError(
                f"filter.d_n {filt['d_n']} needs as many training samples; "
                f"train.horizon_seconds gives {samples}"
            )
        if self.attack["kind"] == "multivariate" and filt["track_steady_state"]:
            raise ConfigError(
                "filter.track_steady_state applies to univariate attacks only; "
                "the multivariate design has no DC normalisation"
            )

    def design_record(self) -> dict:
        """The value of each field the design reads, by name, as JSON holds it."""
        fields = _fields_of(self.attack["kind"])
        return json.loads(json.dumps({f.name: self.value(f.name) for f in fields if f.design}))
