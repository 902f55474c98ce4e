"""Exception types shared across the package, and the number rule of a configuration."""

import numbers
import sys
from math import inf, isfinite


class ConfigError(ValueError):
    """A configuration file or parameter set is malformed or inconsistent."""


class SimulationBlowUp(RuntimeError):
    """The integrator left the trust region; ``run`` indexes the run in its batch."""

    def __init__(self, time: float, norm: float, detail: str = "", run: int | None = None):
        self.time = time
        self.norm = norm
        self.run = run
        where = f"at t={time:.3f} s" + (f" ({detail})" if detail else "")
        if isfinite(norm):
            msg = f"state norm {norm:.3e} exceeded limit {where}"
        else:
            msg = (
                f"state is no longer finite (norm {norm}) {where}; "
                "a smaller integration step dt may keep it stable"
            )
        super().__init__(msg)


class NoFilterError(RuntimeError):
    """Every design branch of the filter synthesis problem was infeasible."""

    def __init__(self, message: str, branch_report: list | None = None):
        super().__init__(message)
        self.branch_report = branch_report or []


class DetectorInfeasibleError(RuntimeError):
    """No residual generator can see the declared attack set (all margins <= 0)."""


class SolverError(RuntimeError):
    """A convex program terminated without a certified verdict."""


def check_number(name: str, value, whole: bool = False):
    """``value`` itself; raises ConfigError unless it is a finite number (a
    bool is not one), with ``whole`` an integral one, else one in float range."""
    # a chained comparison rejects NaN and takes integers of any size
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not -inf < value < inf:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if whole and value != int(value):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    if not whole and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got an integer too large for a float")
    return value

