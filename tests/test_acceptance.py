"""Acceptance gate.

One test per release criterion; each prints a single PASS/FAIL line with
the expected and measured numbers so a log scrape shows the whole gate
at a glance, then asserts.
"""

import math
import time

import numpy as np
import pytest

from tunnelqs import (
    critical_fields,
    delay_set,
    make_system,
    q_ad,
    q_db,
    q_imed_b,
    q_nad,
    zeta_qs,
)
from tunnelqs.constants import c_au
from tunnelqs.scan import emit_table, run_preset
from tunnelqs.spectra import (
    AngularDistribution,
    default_phi_grid,
    offset_angle_and_delay,
)
from tunnelqs.tdse import (
    Propagator,
    PulseParams,
    RadialGrid,
    build_ground_state,
    channel_index,
)


@pytest.fixture()
def report(capfd):
    def emit(ok: bool, name: str, detail: str):
        with capfd.disabled():
            print(f"\n{'PASS' if ok else 'FAIL'}: {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return emit


def test_criterion_1_thresholds(report):
    qdb17, qdb18 = q_db(make_system(17.0)), q_db(make_system(18.0))
    qad34, qad35 = q_ad(make_system(34.0)), q_ad(make_system(35.0))
    b_db, b_ad = c_au / 8.0, c_au / 4.0
    ok = (qdb17 > 1.0 > qdb18 and abs(b_db - 17.1295) <= 0.001
          and qad34 > 1.0 > qad35 and abs(b_ad - 34.2590) <= 0.001)
    report(ok, "criterion 1 (quotient thresholds)",
           f"q_db: {qdb17:.6f} > 1 > {qdb18:.6f}, boundary c/8 = {b_db:.4f} "
           f"(expected 17.1295 +- 0.001); q_ad: {qad34:.6f} > 1 > "
           f"{qad35:.6f}, boundary c/4 = {b_ad:.4f} "
           f"(expected 34.2590 +- 0.001)")


def test_criterion_2_small_f_roots(report):
    expected = {35.0: (0.9586, 0.005), 50.0: (0.5211, 0.005),
                100.0: (0.2067, 0.01)}
    got = {z: zeta_qs(make_system(z), mode="smallF").zeta for z in expected}
    ok = all(abs(got[z] - ref) <= tol for z, (ref, tol) in expected.items())
    detail = "; ".join(
        f"Z={z:g}: {got[z]:.4f} (expected {ref} +- {tol})"
        for z, (ref, tol) in expected.items())
    report(ok, "criterion 2 (zeta_QS small-F values)", detail)


def test_criterion_3_critical_fields(report):
    s = make_system(50.0, relativistic=True)
    cf = critical_fields(s)
    delta = c_au * s.Ip / (8.0 * s.Zeff - c_au)
    f_oracle = (s.Ip * s.Ip - delta * delta) / (4.0 * s.Zeff)
    ok = (abs(cf.f_crit / 3667.75 - 1.0) <= 0.002
          and abs(cf.f_atomic / 8380.3 - 1.0) <= 0.001
          and cf.f_zeta1 is not None
          and abs(cf.f_zeta1 / 6104.5 - 1.0) <= 0.001
          and abs(cf.f_zeta1 / f_oracle - 1.0) <= 1e-9)
    report(ok, "criterion 3 (critical fields, Z=50 relativistic)",
           f"F_c = {cf.f_crit:.2f} (expected 3667.75 +- 0.2%), "
           f"F_a = {cf.f_atomic:.2f} (expected 8380.3 +- 0.1%), "
           f"F_zeta1 = {cf.f_zeta1:.2f} (expected 6104.5 +- 0.1%, "
           f"closed-form oracle {f_oracle:.2f})")


def test_criterion_4_appendix_delay(report):
    d = delay_set(make_system(18.0), 50.0 / math.sqrt(2.0))
    ok = abs(d.tau_dion_as - 0.77) <= 0.1
    report(ok, "criterion 4 (appendix-point tau_dion)",
           f"tau_dion = {d.tau_dion:.4f} a.u. = {d.tau_dion_as:.4f} as "
           f"(expected 0.0318 a.u. = 0.77 as +- 0.1 as)")


def test_criterion_5_identity_suite(report):
    rng = np.random.default_rng(20260823)
    n = 10_000
    zs = rng.uniform(1.0, 100.0, n)
    fracs = rng.uniform(1e-9, 1.0, n)
    t0 = time.perf_counter()
    worst = {"split": 0.0, "product": 0.0, "nad": 0.0, "thick": 0.0}
    for z, frac in zip(zs, fracs):
        s = make_system(float(z))
        f = float(frac) * s.f_atomic
        d = delay_set(s, f)
        worst["split"] = max(worst["split"],
                             abs(d.tau_ad - (d.tau_dion + d.tau_db)) / d.tau_ad)
        prod = 1.0 / (16.0 * s.Zeff * f)
        worst["product"] = max(worst["product"],
                               abs(d.tau_ti * d.tau_ad - prod) / prod)
        qn = q_nad(s, f)
        worst["nad"] = max(worst["nad"],
                           abs(q_imed_b(s, f, 0.0) - qn) / qn)
        ref = c_au / (4.0 * s.Zeff)
        worst["thick"] = max(worst["thick"],
                             abs(q_imed_b(s, f, 1.0, thick=True) - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-11 for v in worst.values())
    report(ok, "criterion 5 (identity suite, 10^4 samples)",
           f"worst relative errors: tau_Ad split {worst['split']:.2e}, "
           f"tau product {worst['product']:.2e}, zeta=0 vs q_nad "
           f"{worst['nad']:.2e}, thick zeta=1 vs c/4Z {worst['thick']:.2e} "
           f"(all expected <= 1e-11; {elapsed:.2f} s)")


def test_criterion_6_figure_datasets(report):
    fig2b = run_preset("fig2b")
    # strict below F_a; at the endpoint the barrier and its light time
    # both vanish
    db_ok = all(r["tau_db"] < r["tau_c_db"] for r in fig2b
                if r["tau_c_db"] > 0.0)
    closed = sum(1 for r in fig2b if r["tau_c_db"] == 0.0)

    fig4 = run_preset("fig4")
    dips = {z: False for z in (15.0, 30.0, 35.0, 40.0, 50.0)}
    for r in fig4:
        if r["q_nad"] < 1.0:
            dips[r["Z"]] = True
    nad_ok = dips == {15.0: False, 30.0: False, 35.0: True, 40.0: True,
                      50.0: True}

    fig7 = run_preset("fig7")
    imed_ok = all(r["tau_imed"] < r["tau_c_imed"] for r in fig7)

    ok = db_ok and nad_ok and imed_ok
    dip_str = ",".join(f"Z={z:g}:{'yes' if v else 'no'}"
                       for z, v in sorted(dips.items()))
    report(ok, "criterion 6 (figure-dataset properties)",
           f"fig2b tau_dB < light time on {len(fig2b) - closed}/{len(fig2b)} "
           f"rows with a barrier ({'ok' if db_ok else 'violated'}); "
           f"fig4 Q_Nad dips ({dip_str}; expected only 35/40/50); "
           f"fig7 tau_imed < light time on all {len(fig7)} rows "
           f"({'ok' if imed_ok else 'violated'})")


def test_criterion_7_tdse_desk_scale(report, hydrogen, smoke_run,
                                     smoke_run_half_dt):
    _, e0 = build_ground_state(hydrogen, RadialGrid(dr=0.1, r_max=100.0), 0)
    e_ok = abs(e0 + 0.5) <= 5e-4

    drift = abs(smoke_run.norm_final - smoke_run.norm_initial)
    norm_ok = drift <= 1e-6

    grid = RadialGrid(dr=0.1, r_max=30.0)
    state, _ = build_ground_state(hydrogen, grid, l_max=2)
    u0 = state.psi[channel_index(0, 0)].copy()
    prop = Propagator(hydrogen, grid, 2, 0.02)
    idle = PulseParams(F0=0.0, omega=0.8)
    for _ in range(100):
        prop.step(state, idle)
    survival = float(abs(np.sum(np.conj(u0) * state.psi[channel_index(0, 0)]) * grid.dr))
    surv_ok = survival >= 0.9999

    # per-channel populations are graded over ~10 decades, so the
    # step-size sensitivity is measured against the total norm
    pa = smoke_run.populations_by_l
    pb = smoke_run_half_dt.populations_by_l
    dt_metric = float(np.max(np.abs(pa - pb)) / pa.sum())
    dt_ok = dt_metric < 1e-4

    ok = e_ok and norm_ok and surv_ok and dt_ok
    report(ok, "criterion 7 (TDSE desk-scale properties)",
           f"E0 = {e0:.6f} (expected -0.5 +- 5e-4); norm drift over smoke "
           f"pulse {drift:.2e} (expected <= 1e-6); field-free survival "
           f"{survival:.6f} (expected >= 0.9999); dt-halving population "
           f"shift {dt_metric:.2e} of the norm (expected < 1e-4)")


def test_criterion_8_spectra_pipeline(report):
    phi = default_phi_grid(720)
    theta_true = 0.1
    values = np.exp(40.0 * (np.cos(phi - (-math.pi / 2 + theta_true)) - 1.0))
    res = offset_angle_and_delay(AngularDistribution(phi, values), 3.0)
    rec_err = abs(res.theta - theta_true)
    rec_ok = rec_err <= 1e-3

    i0 = int(np.argmax(values))
    shift_ok = True
    for k in (13, 200, 471):
        i_rot = int(np.argmax(np.roll(values, k)))
        if i_rot != (i0 + k) % 720:
            shift_ok = False

    tau_ok = abs(res.tau_as - 0.806) <= 1e-3

    ok = rec_ok and shift_ok and tau_ok
    report(ok, "criterion 8 (spectra pipeline)",
           f"planted 0.1 rad recovered with error {rec_err:.2e} "
           f"(expected <= 1e-3); argmax rotation equivariance "
           f"{'exact' if shift_ok else 'broken'}; tau = {res.tau_as:.4f} as "
           f"(expected 0.806 +- 0.001)")


def test_criterion_9_determinism(report):
    same = {name: emit_table(run_preset(name), fmt="csv")
            == emit_table(run_preset(name), fmt="csv")
            for name in ("fig2a", "fig3b")}
    report(all(same.values()), "criterion 9 (determinism)",
           "preset re-run byte-identical: "
           + ", ".join(f"{name} {ok}" for name, ok in same.items()))
