"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration file or parameter set is malformed or inconsistent."""


class SimulationBlowUp(RuntimeError):
    """The integrator left the trust region; ``run`` indexes the run in its batch."""

    def __init__(self, time: float, norm: float, detail: str = "", run: int | None = None):
        self.time = time
        self.norm = norm
        self.run = run
        msg = f"state norm {norm:.3e} exceeded limit at t={time:.3f} s"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class NoFilterError(RuntimeError):
    """Every design branch of the filter synthesis problem was infeasible."""

    def __init__(self, message: str, branch_report: list | None = None):
        super().__init__(message)
        self.branch_report = branch_report or []


class DetectorInfeasibleError(RuntimeError):
    """No residual generator can see the declared attack set (all margins <= 0)."""

    def __init__(self, message: str, gammas=None):
        super().__init__(message)
        self.gammas = gammas


class SolverError(RuntimeError):
    """A convex program terminated without a certified verdict."""
