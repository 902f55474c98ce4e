"""Multi-area automatic generation control (AGC) model builder.

Each control area carries one state per tie line to a neighbour, one
frequency deviation state, one mechanical power state per participating
generator, and one AGC command state integrating the area control error
(ACE).  Measurements expose every state plus two per-area aggregates (total
tie-line exchange and total mechanical power), which is where redundant
telemetry enters the picture.

Attack channels model false data injected into tie-line telemetry.  A
corrupted individual tie reading also biases the ACE fed to the AGC
integrator; the redundant aggregate reading is monitored but not fed back,
so attacks on it stay measurement-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_number
from .lti import LinearModel, split_decay_rates


@dataclass
class GeneratorParams:
    """One generator participating in an area's AGC.

    Args:
        t_ch: turbine charging time constant (s).
        droop: speed droop (p.u. frequency per p.u. power).
        participation: AGC participation factor; factors sum to 1 per area.
    """

    t_ch: float
    droop: float
    participation: float


@dataclass
class AreaParams:
    """Parameters of one control area.

    ``neighbors`` maps neighbour area ids to tie-line stiffness coefficients;
    declarations must be symmetric across areas and use equal coefficients.
    ``ace_attack_gain`` is the gain with which a corrupted tie reading enters
    the AGC integrator; it defaults to ``agc_gain`` (the reading is simply
    part of the ACE).
    """

    area_id: int
    inertia: float
    damping: float
    bias: float
    agc_gain: float
    generators: list[GeneratorParams]
    neighbors: dict[int, float] = field(default_factory=dict)
    ace_attack_gain: float | None = None

    def validate(self):
        if self.inertia <= 0:
            raise ConfigError(f"area {self.area_id}: inertia must be positive")
        if self.damping < 0:
            raise ConfigError(f"area {self.area_id}: damping must be nonnegative")
        if not self.generators:
            raise ConfigError(f"area {self.area_id}: needs at least one generator")
        for g in self.generators:
            if g.t_ch <= 0 or g.droop <= 0:
                raise ConfigError(
                    f"area {self.area_id}: generator time constants and droop must be positive"
                )
        part = sum(g.participation for g in self.generators)
        if abs(part - 1.0) > 1e-9:
            raise ConfigError(
                f"area {self.area_id}: participation factors sum to {part}, expected 1"
            )
        if self.area_id in self.neighbors:
            raise ConfigError(f"area {self.area_id}: cannot neighbour itself")
        for j, t in self.neighbors.items():
            if t <= 0:
                raise ConfigError(
                    f"area {self.area_id}: tie stiffness toward {j} must be positive"
                )

    @property
    def n_states(self) -> int:
        return len(self.neighbors) + 2 + len(self.generators)

    @property
    def tie_neighbors(self) -> list[int]:
        """Neighbour ids in the frozen (sorted) tie-state order."""
        return sorted(self.neighbors)


@dataclass
class AttackChannel:
    """One attacked telemetry channel.

    ``target`` is ``"tie"`` for an individual tie-line reading (neighbour id
    required; the corruption also reaches the ACE) or ``"tie_total"`` for the
    redundant per-area aggregate (measurement only).
    """

    area: int
    target: str
    neighbor: int | None = None

    def validate(self):
        if self.target not in ("tie", "tie_total"):
            raise ConfigError(f"unknown attack target {self.target!r}")
        if self.target == "tie" and self.neighbor is None:
            raise ConfigError("individual tie attack needs a neighbour id")
        if self.target == "tie_total" and self.neighbor is not None:
            raise ConfigError("aggregate tie attack takes no neighbour id")


@dataclass
class AttackTopology:
    """Ordered list of attacked channels; order fixes the attack vector layout."""

    channels: list[AttackChannel] = field(default_factory=list)

    @property
    def n_f(self) -> int:
        return len(self.channels)


@dataclass
class ModelIndex:
    """Flat index arrays describing the assembled state vector.

    Used by the nonlinear plant simulator to address frequency, governor and
    AGC states without re-deriving the layout.
    """

    area_ids: list[int]
    omega_row: dict[int, int]
    agc_row: dict[int, int]
    # one entry per tie state, in global state order
    tie_rows: np.ndarray
    tie_omega_own: np.ndarray
    tie_omega_other: np.ndarray
    # one entry per generator state
    gov_rows: np.ndarray
    gov_omega: np.ndarray
    gov_droop_coef: np.ndarray


def build_area(params: AreaParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dynamics, load-disturbance and output matrices of one isolated area.

    State order: tie flows toward each neighbour (sorted by neighbour id),
    frequency deviation, per-generator mechanical power, AGC command.
    Outputs are every state followed by the aggregate tie flow and the
    aggregate mechanical power.  Cross-area frequency coupling is added by
    :func:`assemble_multiarea`.
    """
    params.validate()
    n_t = len(params.neighbors)
    n_g = len(params.generators)
    n = params.n_states
    i_omega = n_t
    i_gen0 = n_t + 1
    i_agc = n - 1

    a = np.zeros((n, n))
    for t, j in enumerate(params.tie_neighbors):
        a[t, i_omega] = params.neighbors[j]
    inv_2h = 1.0 / (2.0 * params.inertia)
    a[i_omega, :n_t] = -inv_2h
    a[i_omega, i_omega] = -params.damping * inv_2h
    a[i_omega, i_gen0 : i_gen0 + n_g] = inv_2h
    for g, gen in enumerate(params.generators):
        row = i_gen0 + g
        a[row, i_omega] = -1.0 / (gen.t_ch * gen.droop)
        a[row, row] = -1.0 / gen.t_ch
        a[row, i_agc] = gen.participation / gen.t_ch
    a[i_agc, :n_t] = -params.agc_gain
    a[i_agc, i_omega] = -params.agc_gain * params.bias

    b_d = np.zeros((n, 1))
    b_d[i_omega, 0] = -inv_2h

    c = np.zeros((n + 2, n))
    c[:n, :n] = np.eye(n)
    c[n, :n_t] = 1.0
    c[n + 1, i_gen0 : i_gen0 + n_g] = 1.0
    return a, b_d, c


def assemble_multiarea(
    areas: list[AreaParams], attacks: AttackTopology | None = None
) -> tuple[LinearModel, ModelIndex]:
    """Assemble the continuous-time interconnected model and its index map.

    The per-area blocks from :func:`build_area` sit on the diagonal; each tie
    state additionally couples to the neighbouring area's frequency with the
    negated stiffness.  One load-disturbance column per area.  Attack columns
    follow the topology's channel order: every channel gets a unit entry in
    the matching output row of ``D_f``, and individual tie channels get
    ``-ace_attack_gain`` in the area's AGC row of ``B_f``.
    """
    if attacks is None:
        attacks = AttackTopology()
    if not areas:
        raise ConfigError("need at least one area")
    ids = [a.area_id for a in areas]
    if len(set(ids)) != len(ids):
        raise ConfigError("area ids must be unique")
    by_id = {a.area_id: a for a in areas}
    for a in areas:
        a.validate()
        for j, t in a.neighbors.items():
            if j not in by_id:
                raise ConfigError(f"area {a.area_id} lists unknown neighbour {j}")
            back = by_id[j].neighbors.get(a.area_id)
            if back is None:
                raise ConfigError(
                    f"tie {a.area_id}->{j} is not declared symmetrically"
                )
            if abs(back - t) > 1e-12:
                raise ConfigError(
                    f"tie stiffness mismatch between areas {a.area_id} and {j}"
                )

    n_x = sum(a.n_states for a in areas)
    n_area = len(areas)
    state_offset, output_offset = {}, {}
    off_x = off_y = 0
    for a in areas:
        state_offset[a.area_id] = off_x
        output_offset[a.area_id] = off_y
        off_x += a.n_states
        off_y += a.n_states + 2
    n_y = off_y

    a_mat = np.zeros((n_x, n_x))
    b_d = np.zeros((n_x, n_area))
    c = np.zeros((n_y, n_x))
    omega_row, agc_row = {}, {}
    tie_rows, tie_own, tie_other = [], [], []
    gov_rows, gov_omega, gov_droop = [], [], []

    for col, a in enumerate(areas):
        a_ii, b_id, c_i = build_area(a)
        ox, oy = state_offset[a.area_id], output_offset[a.area_id]
        n_i = a.n_states
        a_mat[ox : ox + n_i, ox : ox + n_i] = a_ii
        b_d[ox : ox + n_i, col : col + 1] = b_id
        c[oy : oy + n_i + 2, ox : ox + n_i] = c_i
        omega_row[a.area_id] = ox + len(a.neighbors)
        agc_row[a.area_id] = ox + n_i - 1
    for a in areas:
        ox = state_offset[a.area_id]
        for t, j in enumerate(a.tie_neighbors):
            stiff = a.neighbors[j]
            a_mat[ox + t, omega_row[j]] = -stiff
            tie_rows.append(ox + t)
            tie_own.append(omega_row[a.area_id])
            tie_other.append(omega_row[j])
        for g, gen in enumerate(a.generators):
            row = ox + len(a.neighbors) + 1 + g
            gov_rows.append(row)
            gov_omega.append(omega_row[a.area_id])
            gov_droop.append(-1.0 / (gen.t_ch * gen.droop))

    n_f = attacks.n_f
    b_f = np.zeros((n_x, max(n_f, 0)))
    d_f = np.zeros((n_y, max(n_f, 0)))
    for k, ch in enumerate(attacks.channels):
        ch.validate()
        if ch.area not in by_id:
            raise ConfigError(f"attack channel {k} targets unknown area {ch.area}")
        area = by_id[ch.area]
        oy = output_offset[ch.area]
        if ch.target == "tie":
            ties = area.tie_neighbors
            if ch.neighbor not in ties:
                raise ConfigError(
                    f"attack channel {k}: area {ch.area} has no tie to {ch.neighbor}"
                )
            d_f[oy + ties.index(ch.neighbor), k] = 1.0
            gain = area.ace_attack_gain
            if gain is None:
                gain = area.agc_gain
            b_f[agc_row[ch.area], k] = -gain
        else:
            d_f[oy + area.n_states, k] = 1.0

    index = ModelIndex(
        area_ids=ids,
        omega_row=omega_row,
        agc_row=agc_row,
        tie_rows=np.array(tie_rows, dtype=int),
        tie_omega_own=np.array(tie_own, dtype=int),
        tie_omega_other=np.array(tie_other, dtype=int),
        gov_rows=np.array(gov_rows, dtype=int),
        gov_omega=np.array(gov_omega, dtype=int),
        gov_droop_coef=np.array(gov_droop, dtype=float),
    )
    model = LinearModel(A=a_mat, B_d=b_d, B_f=b_f, C=c, D_f=d_f, dt=None)
    return model, index


def state_labels(areas: list[AreaParams]) -> list[str]:
    labels = []
    for a in areas:
        labels += [f"tie_{a.area_id}_{j}" for j in a.tie_neighbors]
        labels.append(f"omega_{a.area_id}")
        labels += [f"pmech_{a.area_id}_{g + 1}" for g in range(len(a.generators))]
        labels.append(f"pagc_{a.area_id}")
    return labels


def output_labels(areas: list[AreaParams]) -> list[str]:
    labels = []
    for a in areas:
        labels += [f"tie_{a.area_id}_{j}" for j in a.tie_neighbors]
        labels.append(f"omega_{a.area_id}")
        labels += [f"pmech_{a.area_id}_{g + 1}" for g in range(len(a.generators))]
        labels.append(f"pagc_{a.area_id}")
        labels.append(f"tie_total_{a.area_id}")
        labels.append(f"pmech_total_{a.area_id}")
    return labels


def three_area_default() -> list[AreaParams]:
    """Reference three-area network: 2 + 3 + 2 generators, fully meshed ties.

    19 states and 25 outputs in total.  Parameter values are the package
    defaults (p.u. on a common base) and are meant as a plausible desk-scale
    benchmark, not a calibration of any particular grid.
    """
    tie = 0.545

    def gens(specs):
        return [GeneratorParams(t_ch=t, droop=0.05, participation=p) for t, p in specs]

    return [
        AreaParams(
            area_id=1,
            inertia=5.0,
            damping=1.0,
            bias=20.0,
            agc_gain=0.3,
            generators=gens([(0.30, 0.6), (0.40, 0.4)]),
            neighbors={2: tie, 3: tie},
        ),
        AreaParams(
            area_id=2,
            inertia=5.0,
            damping=1.0,
            bias=20.0,
            agc_gain=0.3,
            generators=gens([(0.30, 0.4), (0.40, 0.35), (0.50, 0.25)]),
            neighbors={1: tie, 3: tie},
        ),
        AreaParams(
            area_id=3,
            inertia=5.0,
            damping=1.0,
            bias=20.0,
            agc_gain=0.3,
            generators=gens([(0.35, 0.55), (0.45, 0.45)]),
            neighbors={1: tie, 2: tie},
        ),
    ]


def univariate_topology() -> AttackTopology:
    """Single attacked channel: the area 1 to area 2 tie-line reading."""
    return AttackTopology([AttackChannel(area=1, target="tie", neighbor=2)])


def multivariate_topology() -> AttackTopology:
    """Five attacked channels spanning individual and aggregate tie telemetry."""
    return AttackTopology(
        [
            AttackChannel(area=1, target="tie", neighbor=2),
            AttackChannel(area=1, target="tie", neighbor=3),
            AttackChannel(area=1, target="tie_total"),
            AttackChannel(area=2, target="tie", neighbor=1),
            AttackChannel(area=2, target="tie", neighbor=3),
        ]
    )


# --- configuration (de)serialisation -----------------------------------------


def areas_to_dict(areas: list[AreaParams], attacks: AttackTopology) -> dict:
    return {
        "areas": [
            {
                "id": a.area_id,
                "inertia": a.inertia,
                "damping": a.damping,
                "bias": a.bias,
                "agc_gain": a.agc_gain,
                **(
                    {"ace_attack_gain": a.ace_attack_gain}
                    if a.ace_attack_gain is not None
                    else {}
                ),
                "generators": [
                    {
                        "t_ch": g.t_ch,
                        "droop": g.droop,
                        "participation": g.participation,
                    }
                    for g in a.generators
                ],
                "neighbors": {str(j): t for j, t in sorted(a.neighbors.items())},
            }
            for a in areas
        ],
        "attacks": [
            {
                "area": ch.area,
                "target": ch.target,
                **({"neighbor": ch.neighbor} if ch.neighbor is not None else {}),
            }
            for ch in attacks.channels
        ],
    }


def _field(entry: dict, key: str, at: str, whole: bool = False):
    """``entry[key]`` under the configuration's number rule (see
    :func:`~diagfilter.errors.check_number`), as an int if ``whole``."""
    value = check_number(f"{at}.{key}", entry[key], whole)
    return int(value) if whole else float(value)


def _neighbor_id(key, at: str) -> int:
    # JSON object keys are strings; int() rejects any but a whole number's
    return int(key) if isinstance(key, str) else int(check_number(at, key, whole=True))


def areas_from_dict(cfg: dict) -> tuple[list[AreaParams], AttackTopology]:
    """Parse a model configuration dict; raises ConfigError on any defect.

    Every parameter is a finite number and not a bool, and every area and
    neighbour id a whole one.  Also asserts that the assembled closed loop
    is Hurwitz (with a finite spectrum), so a bad parameter set is rejected
    at load time rather than mid-experiment.
    """
    gen_keys = ("t_ch", "droop", "participation")
    try:
        areas = []
        for i, ad in enumerate(cfg["areas"]):
            at = f"model.areas[{i}]"
            ties = f"{at}.neighbors"
            areas.append(
                AreaParams(
                    area_id=_field(ad, "id", at, whole=True),
                    inertia=_field(ad, "inertia", at),
                    damping=_field(ad, "damping", at),
                    bias=_field(ad, "bias", at),
                    agc_gain=_field(ad, "agc_gain", at),
                    ace_attack_gain=(
                        _field(ad, "ace_attack_gain", at) if "ace_attack_gain" in ad else None
                    ),
                    generators=[
                        GeneratorParams(*(_field(g, k, f"{at}.generators[{n}]") for k in gen_keys))
                        for n, g in enumerate(ad["generators"])
                    ],
                    neighbors={
                        _neighbor_id(j, ties): _field(ad["neighbors"], j, ties)
                        for j in ad.get("neighbors", {})
                    },
                )
            )
        attacks = AttackTopology(
            [
                AttackChannel(
                    area=_field(ch, "area", f"model.attacks[{k}]", whole=True),
                    target=str(ch["target"]),
                    neighbor=(
                        _field(ch, "neighbor", f"model.attacks[{k}]", whole=True)
                        if "neighbor" in ch
                        else None
                    ),
                )
                for k, ch in enumerate(cfg.get("attacks", []))
            ]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed model configuration: {exc}") from exc
    model, _ = assemble_multiarea(areas, attacks)
    # parameters at the ends of the float range overflow the matrices or the
    # spectrum; a NaN rate fails the test below like a growing mode
    with np.errstate(all="ignore"):
        try:
            reachable_max, overall_max = split_decay_rates(model)
        except np.linalg.LinAlgError:
            reachable_max = overall_max = np.nan
    if not (reachable_max < 0.0 and overall_max <= 1e-7):
        raise ConfigError(
            "assembled closed-loop dynamics must damp every input-driven mode "
            f"(reachable max Re {reachable_max:.3e}, overall max Re {overall_max:.3e})"
        )
    return areas, attacks
