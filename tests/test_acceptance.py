"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``; every criterion carries
the ``acceptance`` marker, so ``pytest -m "not acceptance"`` skips them.  The heavy Monte-Carlo
criteria print their measured numbers so a failed bar is diagnosable from
the log alone.
"""

import dataclasses
import time

import numpy as np
import pytest

from gridce.experiments import (
    ExperimentSpec,
    error_ratio,
    nmse_db_from_ratios,
    run_experiment,
    run_point_trial,
    synthesize_scene,
)
from gridce.ofdm import make_rng
from gridce.posterior import _position_combos, lattice_marginals
from gridce.sharing import BeliefKind, GridSolverConfig, first_pass, run_marginal_based
from gridce.solver import search_rows
from oracles import exhaustive_estimate, lattice_oracle


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"\n[{marker}] criterion {criterion}: {detail}")
    return passed


def collect(spec):
    """Per-algorithm list of per-trial error ratios plus bit error totals."""
    acc = {a: [] for a in spec.algorithms}
    bits = {a: [0, 0] for a in spec.algorithms}
    for point_index, point in enumerate(
        [(k, s, d) for k in spec.n_pilots for s in spec.snr_db for d in spec.depth]
    ):
        for t in range(spec.trials):
            out = run_point_trial(spec, point_index, point, t)
            for a in spec.algorithms:
                acc[a].append(out[a][0])
                bits[a][0] += out[a][1]
                bits[a][1] += out[a][2]
    return acc, bits


@pytest.fixture(scope="module")
def gain_run():
    """Shared Monte-Carlo run for criteria 5 and 6."""
    spec_base = ExperimentSpec(
        grid_rows=5, grid_cols=5, n_carriers=512, channel_len=64,
        sparsity=3, n_pilots=(16,), qam_order=4, snr_db=(10.0,),
        depth=(3,), mode="SIA",
        algorithms=("MB-P", "IB-P", "MB-R", "IB-R", "oracle-LS"),
        trials=100, seed=0,
    )
    results = {}
    for snr in (10.0, 15.0, 20.0):
        spec = dataclasses.replace(spec_base, snr_db=(snr,))
        ratios, _ = collect(spec)
        results[snr] = {a: nmse_db_from_ratios(v) for a, v in ratios.items()}
    return results


@pytest.mark.acceptance
class TestAcceptance:
    def test_criterion_1_pilot_sweep_success(self):
        """Experiment-1 replication at reduced grid: data-aided success rate
        at least 0.5 with 6 pilots and at least 0.9 with 12."""
        start = time.time()
        rates = {}
        for k in (6, 12):
            spec = ExperimentSpec(
                grid_rows=10, grid_cols=10, n_carriers=512, channel_len=64,
                sparsity=3, n_pilots=(k,), qam_order=4, snr_db=(10.0,),
                depth=(3,), mode="SIA", power_profile="geometric",
                algorithms=("MB-R", "IB-R"), trials=100, seed=0,
            )
            ratios, _ = collect(spec)
            for a in spec.algorithms:
                rates[(a, k)] = float(np.mean([r < 0.1 for r in ratios[a]]))
        elapsed = time.time() - start
        ok = (
            rates[("MB-R", 6)] >= 0.5 and rates[("IB-R", 6)] >= 0.5
            and rates[("MB-R", 12)] >= 0.9 and rates[("IB-R", 12)] >= 0.9
            and elapsed <= 600
        )
        assert report(
            1, ok,
            f"success K=6 MB-R={rates[('MB-R', 6)]:.2f} IB-R={rates[('IB-R', 6)]:.2f} "
            f"(need >=0.5); K=12 MB-R={rates[('MB-R', 12)]:.2f} "
            f"IB-R={rates[('IB-R', 12)]:.2f} (need >=0.9); {elapsed:.0f}s <= 600s",
        )

    def test_criterion_2_exhaustive_oracle_equivalence(self):
        """L=8, K=6, n=2, SNR 20 dB, 200 seeds: greedy combined estimate
        within 1 dB of the exhaustive size-<=3 enumeration on >=90% of seeds.

        The greedy estimate is production's, a one-row ``search_rows`` call.
        The greedy chain depth equals the known sparsity (T_max is defined as
        the number of nonzeros of h); both sides share the lambda = n/L prior
        and a scaled-variance noise level, 0.1 var(y).
        """
        start = time.time()
        within = 0
        seeds = 200
        for seed in range(seeds):
            rng = make_rng(7000 + seed)
            a = (rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))) / np.sqrt(6)
            support = rng.choice(8, size=2, replace=False)
            h = np.zeros(8, complex)
            h[support] = (rng.normal(size=2) + 1j * rng.normal(size=2)) / np.sqrt(2)
            clean = a @ h
            noise_var = float(np.vdot(clean, clean).real) / (6 * 100.0)  # SNR 20 dB
            noise = np.sqrt(noise_var / 2) * (
                rng.normal(size=6) + 1j * rng.normal(size=6)
            )
            y = clean + noise
            prior = np.full(8, 2 / 8)
            solver_noise = float(0.1 * np.var(y))
            greedy = search_rows(a, y[None], prior[None], np.array([solver_noise]), 2)
            _, _, _, h_exh = exhaustive_estimate(a, y, prior, solver_noise,
                                                 max_size=3)
            energy = float(np.vdot(h, h).real)
            db_greedy = 10 * np.log10(
                max(float(np.sum(np.abs(greedy.taps[0] - h) ** 2)) / energy, 1e-30)
            )
            db_exh = 10 * np.log10(
                max(float(np.sum(np.abs(h_exh - h) ** 2)) / energy, 1e-30)
            )
            within += db_greedy <= db_exh + 1.0
        elapsed = time.time() - start
        ok = within / seeds >= 0.90 and elapsed <= 60
        assert report(
            2, ok,
            f"greedy within 1 dB of exhaustive on {within}/{seeds} seeds "
            f"(need >=180); {elapsed:.1f}s <= 60s",
        )

    def test_criterion_3_covariance_fidelity(self):
        """Fixed support, 1e4 noise draws: empirical BLUE error covariance
        within 5% relative Frobenius error of sigma^2 (A_S^H A_S)^-1."""
        start = time.time()
        rng = make_rng(8123)
        k, sparsity, noise_var = 12, 3, 0.05
        a_s = (rng.normal(size=(k, sparsity)) + 1j * rng.normal(size=(k, sparsity)))
        a_s /= np.sqrt(k)
        h_s = rng.normal(size=sparsity) + 1j * rng.normal(size=sparsity)
        draws = 10_000
        noise = np.sqrt(noise_var / 2) * (
            rng.normal(size=(draws, k)) + 1j * rng.normal(size=(draws, k))
        )
        ys = (a_s @ h_s)[None, :] + noise
        gram_inv = np.linalg.inv(a_s.conj().T @ a_s)
        errors = ys @ (gram_inv @ a_s.conj().T).T - h_s[None, :]
        empirical = errors.T @ errors.conj() / draws
        expected = noise_var * gram_inv
        rel = float(np.linalg.norm(empirical - expected) / np.linalg.norm(expected))
        elapsed = time.time() - start
        ok = rel < 0.05 and elapsed <= 10
        assert report(
            3, ok, f"relative Frobenius error {rel:.3f} < 0.05; {elapsed:.1f}s <= 10s"
        )

    def test_criterion_4_marginal_lattice_correctness(self):
        """Lattice marginals (production's ``lattice_marginals``) equal
        from-scratch enumeration within 1e-12 for T_max <= 4, and the
        T_max=3 lattice is exactly the seven subsets."""
        worst = 0.0
        for t_max in (1, 2, 3, 4):
            for seed in range(5):
                rng = make_rng(9000 + 10 * t_max + seed)
                a = (rng.normal(size=(10, 16)) + 1j * rng.normal(size=(10, 16)))
                a /= np.sqrt(10)
                h = np.zeros(16, complex)
                sup = rng.choice(16, size=3, replace=False)
                h[sup] = rng.normal(size=3) + 1j * rng.normal(size=3)
                y = a @ h + 0.1 * (rng.normal(size=10) + 1j * rng.normal(size=10))
                prior = np.full(16, 3 / 16)
                stack = search_rows(a, y[None], prior[None], np.array([0.01]), t_max)
                n = stack.lengths[0]
                fast = lattice_marginals(stack, a, y[None], prior[None])[0, :n]
                _, _, slow = lattice_oracle(stack.chosen[0, :n], a, y, prior, 0.01)
                worst = max(worst, float(np.abs(fast - slow).max()))
        detected = np.array([11, 3, 7])
        subsets = [tuple(detected[c]) for block in _position_combos(3) for c in block]
        structure_ok = subsets == [
            (11,), (3,), (7,), (11, 3), (11, 7), (3, 7), (11, 3, 7),
        ]
        ok = worst <= 1e-12 and structure_ok
        assert report(
            4, ok,
            f"max reuse-vs-scratch deviation {worst:.2e} <= 1e-12; "
            f"T_max=3 lattice structure exact: {structure_ok}",
        )

    def test_criterion_5_data_aided_gain(self, gain_run):
        """Paired seeds at SNR 10/15/20: the data-aided variants strictly
        improve the mean NMSE of their pilot-only bases."""
        lines = []
        ok = True
        for snr, db in gain_run.items():
            g_mb = db["MB-P"] - db["MB-R"]
            g_ib = db["IB-P"] - db["IB-R"]
            ok &= g_mb > 0 and g_ib > 0
            lines.append(f"snr{snr:.0f}: MB {g_mb:+.2f} dB, IB {g_ib:+.2f} dB")
        assert report(5, ok, "gains " + "; ".join(lines) + " (all must be > 0)")

    def test_criterion_6_oracle_dominance(self, gain_run):
        """The pilot-only oracle stays within 0.5 dB of the best algorithm at
        every swept SNR."""
        lines = []
        ok = True
        for snr, db in gain_run.items():
            margin = min(
                db[a] - db["oracle-LS"] for a in db if a != "oracle-LS"
            )
            ok &= margin >= -0.5
            lines.append(f"snr{snr:.0f}: margin {margin:+.2f} dB")
        assert report(6, ok, "; ".join(lines) + " (all must be >= -0.5)")

    def test_criterion_7_depth_sweep_trends(self):
        """SIA BER nonincreasing over D in {1,2,3} within 10% relative; fast
        SVA drift gains nothing from D=5 over D=1 beyond 10%."""
        start = time.time()
        sia = ExperimentSpec(
            grid_rows=10, grid_cols=10, n_carriers=512, channel_len=32,
            sparsity=3, n_pilots=(8,), qam_order=4, snr_db=(15.0,),
            depth=(1, 2, 3), mode="SIA", algorithms=("IB-P",),
            trials=100, seed=0,
        )
        rows = run_experiment(sia)
        ber = {row.depth: row.ber for row in rows}
        sia_ok = ber[2] <= ber[1] * 1.10 and ber[3] <= ber[2] * 1.10
        sva = ExperimentSpec(
            grid_rows=10, grid_cols=10, n_carriers=512, channel_len=32,
            sparsity=3, n_pilots=(8,), qam_order=4, snr_db=(15.0,),
            depth=(1, 5), mode="SVA", drift=0.5, algorithms=("IB-P",),
            trials=100, seed=0,
        )
        rows = run_experiment(sva)
        ber_sva = {row.depth: row.ber for row in rows}
        sva_ok = ber_sva[5] >= ber_sva[1] * 0.90
        elapsed = time.time() - start
        ok = sia_ok and sva_ok
        assert report(
            7, ok,
            f"SIA BER D1..3 = {ber[1]:.4f}/{ber[2]:.4f}/{ber[3]:.4f} "
            f"(nonincreasing within 10%): {sia_ok}; "
            f"SVA drift=0.5 BER D1={ber_sva[1]:.4f} D5={ber_sva[5]:.4f} "
            f"(no >10% gain at D=5): {sva_ok}; {elapsed:.0f}s",
        )

    def test_criterion_8_determinism_and_locality(self):
        """Same seed with different worker counts gives identical rows, and a
        distant noise perturbation cannot move any estimate beyond D hops."""
        spec = ExperimentSpec(
            grid_rows=4, grid_cols=4, n_carriers=128, channel_len=32,
            sparsity=3, n_pilots=(12,), qam_order=4, snr_db=(15.0,),
            depth=(2,), mode="SIA", algorithms=("MB-P", "IB-P", "MB-R"),
            trials=4, seed=0,
        )
        serial = run_experiment(spec)
        parallel = run_experiment(dataclasses.replace(spec, workers=2))
        determinism_ok = serial == parallel

        scene = synthesize_scene(spec, 12, 15.0, 0, 0)
        depth = 2
        cfg = GridSolverConfig(lambda_init=3 / 32, noise_var=scene.noise_var)
        pilots = scene.frame.pilot_indices
        y1 = scene.observations[..., pilots]
        y2 = y1.copy()
        y2[0, 0] += 0.3 - 0.2j  # perturb one corner antenna's noise
        out1 = run_marginal_based(
            first_pass(y1, scene.pilot_rows, cfg, [BeliefKind.MARGINAL]), cfg, depth)
        out2 = run_marginal_based(
            first_pass(y2, scene.pilot_rows, cfg, [BeliefKind.MARGINAL]), cfg, depth)
        locality_ok = True
        for r, c in np.ndindex(y1.shape[:2]):
            if r + c > depth:  # Manhattan distance from (0, 0)
                locality_ok &= bool(
                    np.array_equal(out1.taps[r, c], out2.taps[r, c])
                )
        moved = not np.array_equal(out1.taps[0, 0], out2.taps[0, 0])
        ok = determinism_ok and locality_ok and moved
        assert report(
            8, ok,
            f"rows identical across worker counts: {determinism_ok}; "
            f"no change beyond D hops: {locality_ok}; perturbed antenna moved: {moved}",
        )

    def test_criterion_9_full_scale_ordering(self):
        """Full 20x20 run completes and the SNR 20 dB ordering holds:
        NMSE(MB-R) <= NMSE(IB-R) + 0.5 and NMSE(IB-R) <= NMSE(IB-P)."""
        start = time.time()
        spec = ExperimentSpec(
            grid_rows=20, grid_cols=20, n_carriers=512, channel_len=64,
            sparsity=3, n_pilots=(16,), qam_order=4, snr_db=(20.0,),
            depth=(3,), mode="SIA", algorithms=("MB-R", "IB-R", "IB-P"),
            trials=10, seed=0,
        )
        ratios, _ = collect(spec)
        db = {a: nmse_db_from_ratios(v) for a, v in ratios.items()}
        elapsed = time.time() - start
        ok = db["MB-R"] <= db["IB-R"] + 0.5 and db["IB-R"] <= db["IB-P"]
        assert report(
            9, ok,
            f"NMSE MB-R={db['MB-R']:.2f} IB-R={db['IB-R']:.2f} "
            f"IB-P={db['IB-P']:.2f} dB; ordering with 0.5 dB slack; {elapsed:.0f}s",
        )
