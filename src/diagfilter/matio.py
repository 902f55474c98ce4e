"""File formats shared by the pipeline stages.

Four artefact kinds, all plain text so that external tools can regenerate
figures from them:

* matrices: CSV with a ``# rows cols`` header line (debugging dumps);
* sampled trajectories: CSV with header ``t, y_1, ..., y_{n_y}`` plus a JSON
  sidecar holding the provenance the caller gives -- the plant runs of the
  training and test phases, which every phase reads back only when that
  provenance is what it would write;
* residual traces: CSV with header ``t, r, energy, alarm``;
* filter artefacts: a small key/value text file holding each value once:
  the hash of the model configuration the filter was designed against, its
  objective and branch, the calibrated ``tau_star``, the configuration
  values the design read (its record, which alone gives the order, pole,
  mode and tracking flag) and the coefficients at 17 significant digits.
  Loading re-verifies the hash, the record, the branch and the decoupling,
  so a stale artefact fails loudly instead of producing silently wrong
  residuals.

The three CSV kinds are written by ``np.savetxt`` and read by ``np.loadtxt``;
each loader parses and checks its own header line.  Floats are written with
``%.17g`` everywhere, which round-trips IEEE doubles exactly and keeps reruns
byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from .design import FilterDesign, program_branch
from .errors import ConfigError
from .lti import StackedSystem

FILTER_FORMAT_TAG = "residual-filter-v2"
# the entries of a filter artefact after its tag, in the order they are written
FILTER_ENTRIES = ("model_hash", "objective", "branch", "tau_star", "config", "nbar")
# the record's fields that fix a design, each named as the design's attribute after its dot
RECORDED = ("filter.d_n", "filter.pole", "mode", "filter.track_steady_state")
NULL_RESIDUAL_TOL = 1e-6


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str | Path, header: str, rows: np.ndarray, fmt="%.17g") -> None:
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=header, comments="")


def _parse_body(path: str | Path, text: str, width: int, unit: str) -> np.ndarray:
    """The CSV rows below a header as a ``(rows, width)`` array.

    The width is checked here: a rectangular body of the wrong width is
    rejected, never reshaped into place.
    """
    if not text.strip():
        return np.empty((0, width))
    try:
        body = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed body: {exc}") from exc
    if body.shape[1] != width:
        raise ConfigError(f"{path}: rows have {body.shape[1]} {unit}, expected {width}")
    return body


# --- matrix CSV ---------------------------------------------------------------


def save_matrix(path: str | Path, mat: np.ndarray) -> None:
    """Write a 2-D array as CSV with a ``# rows cols`` header line."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    _write_csv(path, f"# {mat.shape[0]} {mat.shape[1]}", mat)


def load_matrix(path: str | Path) -> np.ndarray:
    header, _, text = Path(path).read_text().partition("\n")
    if not header.startswith("#"):
        raise ConfigError(f"{path}: missing '# rows cols' header")
    try:
        rows, cols = (int(tok) for tok in header[1:].split())
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed header {header!r}") from exc
    body = _parse_body(path, text, cols, "values")
    if body.shape[0] != rows:
        raise ConfigError(f"{path}: header promises {rows} rows, found {body.shape[0]}")
    return body


# --- trajectory CSV + sidecar -------------------------------------------------


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_trajectory(path: str | Path, t: np.ndarray, y: np.ndarray, meta: dict) -> None:
    """Write samples as ``t, y_1..y_ny`` CSV and the provenance sidecar.

    ``y`` is (n_y, T) to match the rest of the code base; rows of the CSV are
    time instants.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != t.size:
        raise ValueError("y must be (n_y, len(t))")
    header = "t," + ",".join(f"y_{i + 1}" for i in range(y.shape[0]))
    _write_csv(path, header, np.vstack([t, y]).T)
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_trajectory(path: str | Path) -> tuple[np.ndarray, np.ndarray, dict]:
    header, _, text = Path(path).read_text().partition("\n")
    if not header.startswith("t,"):
        raise ConfigError(f"{path}: missing trajectory header")
    columns = _parse_body(path, text, header.count(",") + 1, "columns").T.copy()
    meta_file = sidecar_path(path)
    meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
    return columns[0], columns[1:], meta


def save_residual_trace(
    path: str | Path,
    t: np.ndarray,
    r: np.ndarray,
    energy: np.ndarray,
    alarm: np.ndarray,
) -> None:
    rows = np.column_stack([t, r, energy, alarm])
    _write_csv(path, "t,r,energy,alarm", rows, fmt=["%.17g"] * 3 + ["%d"])


# --- filter artefact ----------------------------------------------------------


def model_config_hash(cfg: dict) -> str:
    """Canonical digest of a model configuration dict.

    Sorted-key compact JSON makes the digest independent of dict insertion
    order; any numeric change to the model changes the digest.
    """
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_filter(
    path: str | Path, design: FilterDesign, model_hash: str, record: dict, tau_star: float
) -> None:
    """Persist a design with its calibrated ``tau_star`` and its ``record``, the
    values of the configuration fields it read, so that a test needs the
    artefact and fresh simulations, never the training data.  The record is
    the one copy of the order, pole, mode and tracking flag, and of the
    detector's margin and window; ValueError if it disagrees with the design.
    """
    for name in RECORDED:
        value = getattr(design, name.rpartition(".")[2])
        if record.get(name) != value:
            raise ValueError(f"the record gives {name} = {record.get(name)!r}, the design {value}")
    lines = [
        FILTER_FORMAT_TAG,
        f"model_hash: {model_hash}",
        f"objective: {_fmt(design.objective)}",
        "branch: " + json.dumps(design.branch, sort_keys=True),
        f"tau_star: {_fmt(tau_star)}",
        "config: " + json.dumps(record, sort_keys=True),
        "nbar: " + " ".join(_fmt(v) for v in design.nbar),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_filter(
    path: str | Path,
    expected_hash: str | None = None,
    stacked: StackedSystem | None = None,
    expected_config: dict | None = None,
) -> tuple[FilterDesign, str]:
    """Read a filter artefact back and re-verify everything checkable.

    ``expected_hash`` guards against applying a filter to a model it was not
    designed for and ``expected_config`` against other values of the fields
    its design read; ``stacked`` additionally re-checks the unknown-input
    decoupling (the left-null-space membership of the coefficients).  The
    checks run in that order.  The order, pole, mode and tracking flag come
    from the record, ``n_r`` from the size of ``nbar``; the calibrated
    ``tau_star`` is returned in the design's ``diagnostics``.  A branch no
    design of the recorded order and attack kind chooses is malformed.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != FILTER_FORMAT_TAG:
        raise ConfigError(f"{path}: not a {FILTER_FORMAT_TAG} artefact")
    entries: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, val = (part.strip() for part in ln.partition(":"))
        if key in entries or key not in FILTER_ENTRIES:
            kind = "duplicated" if key in entries else "unknown"
            raise ConfigError(f"{path}: malformed filter artefact: {kind} entry {key!r}")
        entries[key] = val
    # without its record the artefact reads as an empty one, which the
    # record check refuses by its first field
    entries.setdefault("config", "{}")
    if missing := [key for key in FILTER_ENTRIES if key not in entries]:
        raise ConfigError(f"{path}: malformed filter artefact: no {', '.join(missing)} entry")
    try:
        model_hash = entries["model_hash"]
        objective = float(entries["objective"])
        branch = json.loads(entries["branch"])
        tau_star = float(entries["tau_star"])
        record = dict(json.loads(entries["config"]))
        nbar = np.array([float(v) for v in entries["nbar"].split()])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed filter artefact: {exc}") from exc

    if expected_hash is not None and model_hash != expected_hash:
        raise ConfigError(
            f"{path}: artefact was designed against a different model "
            f"configuration (hash {model_hash[:12]}.. != {expected_hash[:12]}..)"
        )
    if expected_config is not None:
        for name in {**expected_config, **record}:
            if expected_config.get(name, ...) != record.get(name, ...):
                was = json.dumps(record[name]) if name in record else "(not recorded)"
                raise ConfigError(
                    f"{path}: the filter was designed with {name} = {was}, the configuration "
                    f"gives {json.dumps(expected_config.get(name))}; re-run the design phase"
                )
    try:
        d_n, pole, mode, track = (record[name] for name in RECORDED)
        d_n, pole, track = int(d_n), float(pole), bool(track)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed filter artefact: record entry {exc}") from exc
    if d_n < 1 or not nbar.size or nbar.size % (d_n + 1):
        raise ConfigError(
            f"{path}: coefficient vector has {nbar.size} entries, "
            f"which d_n + 1 = {d_n + 1} does not divide"
        )
    # every branch a design of the recorded order and attack kind chooses, of
    # integers; a multivariate design's record holds its attack polytope
    multivariate = "attack.polytope_b" in record
    fits = []
    for j in range(1, 2 * d_n + 3):
        index, sign = program_branch(j)
        fits.append({"coeff_index": index, "sign": sign} | ({"program": j} if multivariate else {}))
    if branch not in fits or any(type(value) is not int for value in branch.values()):
        raise ConfigError(
            f"{path}: malformed filter artefact: branch {json.dumps(branch)} "
            f"names no design branch of order {d_n}"
        )
    if stacked is not None:
        if stacked.n_vars != nbar.size or stacked.d_n != d_n:
            raise ConfigError(f"{path}: artefact does not match the stacked system shape")
        null_resid = float(np.max(np.abs(nbar @ stacked.barH)))
        if null_resid > NULL_RESIDUAL_TOL:
            raise ConfigError(
                f"{path}: coefficients violate unknown-input decoupling "
                f"(residual {null_resid:.3e})"
            )
    design = FilterDesign(
        nbar=nbar,
        d_n=d_n,
        pole=pole,
        mode=mode,
        objective=objective,
        branch=branch,
        track_steady_state=track,
        diagnostics={"tau_star": tau_star},
    )
    return design, model_hash
