#!/usr/bin/env python3
"""Coordinated multi-channel attacks: invisible at DC, caught in transient.

With several falsifiable telemetry channels an adversary can pick a
combination whose *steady-state* residual is exactly zero -- the attack
basis has a direction that the DC response cannot see.  Visibility
pretraining certifies, per sign-definite program, how much transient
response every admissible attack must leave; the design then locks in the
certified margin, and the windowed energy detector fires on the transient
even though the settled residual goes quiet.
"""

import numpy as np

from diagfilter import (
    AttackSpec,
    ExperimentConfig,
    ResidualFilter,
    RunBatch,
    calibrate_threshold,
    design_multivariate,
    gram_matrix,
    mismatch_signature,
    multivariate_default_config,
    pretrain_multivariate,
    q_matrix,
    signature_energy,
    simulate_linear,
    simulate_nonlinear,
    steady_state_margin,
    worst_case_alpha,
)
from diagfilter.pipeline import build_context

M_TRAIN = 5
HORIZON = 30.0
ONSET = 10.0


def main():
    ctx = build_context(ExperimentConfig.from_dict(multivariate_default_config()))
    attack = ctx.attack_model
    print("=== attack hypothesis ===")
    print(f"{attack.basis.shape[0]} telemetry channels, "
          f"{attack.dof} coordination degrees of freedom")
    print("basis (channels x coordinates):")
    print(attack.basis)
    print(f"admissible set: polytope_a @ alpha >= {attack.polytope_b}")

    print("\n=== visibility pretraining ===")
    pre = pretrain_multivariate(ctx.stacked, attack)
    for j, gamma in enumerate(pre.gammas, start=1):
        marker = "  <-- selected" if j == pre.j_star else ""
        print(f"  program {j}: gamma = {gamma:9.6f}{marker}")
    print(f"best certified visibility gamma* = {pre.gamma_star:.6f} "
          f"on program {pre.j_star}")

    print(f"\n=== training ({M_TRAIN} healthy runs) and design ===")
    train_h = float(ctx.cfg.train["horizon_seconds"])
    gram = gram_matrix(ctx.a_coeffs, ctx.train_samples)
    batch = RunBatch(
        [(ctx.disturbance_spec(ctx.cfg.seed + i, train_h), AttackSpec())
         for i in range(M_TRAIN)]
    )
    sigs = [
        mismatch_signature(plant_run.Y, simulate_linear(ctx.model_d, dist, AttackSpec()).Y)
        for (dist, _), plant_run in zip(batch.runs, simulate_nonlinear(ctx.plant, batch))
    ]
    forms = [q_matrix(ctx.stacked, sig, gram) for sig in sigs]
    design = design_multivariate(
        ctx.stacked, sum(forms) / len(forms), attack, pre.j_star,
        pole=float(ctx.cfg.filter["pole"]),
    )
    print(f"branch {design.branch}, objective {design.objective:.3e}, "
          f"visibility floor gamma {design.diagnostics['gamma']:.6f} "
          "(the support-LP optimum)")

    mu, alpha_dc = steady_state_margin(design, ctx.dae.F, attack)
    print(f"\nsteady-state stealth margin over the admissible set: {mu:.2e}")
    if alpha_dc is not None:
        print(f"  achieved by alpha = {alpha_dc} -- this attack settles invisibly")

    alpha_worst, visibility, status = worst_case_alpha(ctx.stacked, design, attack)
    print(f"least-visible transient response ({status}): {visibility:.4f} "
          f"at alpha = {alpha_worst}")

    print(f"\n=== plant run: coordinated bias from t = {ONSET:.0f} s ===")
    f_vec = attack.basis @ alpha_worst
    print(f"injected channel biases: {f_vec}")
    spec = ctx.disturbance_spec(ctx.cfg.seed + 1234, HORIZON)
    [traj] = simulate_nonlinear(
        ctx.plant, RunBatch([(spec, AttackSpec(f_vec, ONSET))])
    )
    detector = calibrate_threshold(
        design,
        [signature_energy(ctx.stacked, design.nbar, sig, gram) for sig in sigs],
        float(ctx.cfg.filter["margin"]),
        ctx.window_samples,
    )
    verdict = detector.evaluate(ResidualFilter(design, ctx.dae.L).run(traj.Y))
    print(f"threshold {detector.threshold:.6f}, "
          f"peak windowed energy {verdict.max_energy:.6f}")
    if verdict.alarm:
        t_alarm = float(traj.t[verdict.first_index])
        print(f"ALARM at t = {t_alarm:.1f} s "
              f"(latency {t_alarm - ONSET:.1f} s after onset)")
    else:
        print("no alarm raised")
    settled = float(verdict.energies[-1])
    print(f"windowed energy: peak {verdict.max_energy:.4f} during the transient, "
          f"{settled:.4f} once settled -- the attack hides at DC, not in flight")


if __name__ == "__main__":
    main()
