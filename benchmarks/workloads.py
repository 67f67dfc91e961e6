"""The benchmark's three workloads.

Each workload is built from the freshly imported layer modules and the run's
seed; that construction is its input generation.  ``inputs(i)`` returns the
inputs of op ``i`` (a pure function of the seed and ``i``), ``run`` performs
the op through the public ``dfslink`` API, and ``check`` compares the op's
outputs with a closed form or a reference value.  ``run`` calls every library
function through its module attribute so that the tracer sees the call.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance of the closed-form checks on the link workloads.
TOL = 1e-10


def _fidelity(matrix: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ matrix @ psi))


def _link_bookkeeping_ok(outcome, dim: int) -> bool:
    """Branch probabilities sum to one and the kept state has unit trace."""
    total = sum(outcome.branch_probabilities.values())
    trace = float(np.real(np.trace(outcome.state.matrix)))
    return (outcome.state.dim == dim and abs(total - 1.0) < TOL
            and abs(trace - 1.0) < TOL)


class LinkSweep:
    """A fidelity-vs-noise curve through Phi-, one fresh noise point per op.

    Op ``i`` draws a gaussian (mean_phase, per_photon_sigma, delta_sigma) point
    and sends Phi- through it twice, once dephasing in the H/V basis and once
    in the circular basis, each with a fresh spec.  Every op has the same
    shape, so op latency has one mode.  The Dbar branch is kept on odd ops.
    The points come in seeded blocks, so no two ops of a run share a spec.
    """

    name = "link_sweep"
    warmup_ops = 32
    trace_ops = 200
    _BLOCK = 1024

    def __init__(self, mods, seed: int):
        self.m = mods
        self.seed = seed
        phi = mods.dfs_protocol.prepare_phi_minus()
        self.psi = phi.amplitudes
        self.rho = phi.density()
        self.bases = (np.eye(2, dtype=complex), mods.channels.CIRCULAR_BASIS)
        self._block_index = None
        self._params = None

    def inputs(self, i: int):
        block, row = divmod(i, self._BLOCK)
        if block != self._block_index:
            rng = np.random.default_rng((self.seed, block))
            self._params = np.column_stack([
                rng.uniform(-math.pi, math.pi, self._BLOCK),  # mean_phase
                rng.uniform(0.0, 1.5, self._BLOCK),           # per_photon_sigma
                rng.uniform(0.0, 1.5, self._BLOCK),           # delta_sigma
            ])
            self._block_index = block
        mu, sigma, delta = (float(x) for x in self._params[row])
        return mu, sigma, delta, i % 2 == 1

    def run(self, inp):
        mu, sigma, delta, keep_dbar = inp
        ch, dp = self.m.channels, self.m.dfs_protocol
        out = []
        for basis in self.bases:
            spec = ch.DephasingSpec(basis=basis, mean_phase=mu, per_photon_sigma=sigma,
                                    delta_sigma=delta, distribution="gaussian")
            pin = dp.ProtocolInput(self.rho, spec, keep_dbar)
            out.append((dp.distribute(pin), dp.baseline_direct(pin)))
        return out

    def check(self, inp, out) -> bool:
        mu, sigma, delta, keep_dbar = inp
        (outcome, baseline), (circular, _) = out
        if not (_link_bookkeeping_ok(outcome, 4) and _link_bookkeeping_ok(circular, 4)):
            return False
        # H/V basis: the collective phase cancels in the protected link; only
        # the jitter survives.  The unprotected photon keeps both.
        f_link = 0.5 * (1.0 + math.exp(-0.5 * delta**2))
        f_base = 0.5 * (1.0 + math.cos(mu) * math.exp(-0.5 * (sigma**2 + delta**2)))
        return (abs(_fidelity(outcome.state.matrix, self.psi) - f_link) < TOL
                and abs(_fidelity(baseline.matrix, self.psi) - f_base) < TOL
                and abs(outcome.success_probability - (0.5 if keep_dbar else 0.25)) < TOL)


class LinkStates:
    """Seeded random mixed inputs of 1-4 qubits through four fixed specs.

    Op ``i`` takes pool state ``i % 255``, spec ``i % 4`` and keeps the Dbar
    branch when ``i // 4`` is odd.  Pool state ``j`` has ``1 + j % 4`` qubits,
    so every run has the same register mix, and a rank drawn from 1 to full.
    """

    name = "link_states"
    warmup_ops = 64
    trace_ops = 400
    _POOL = 255

    def __init__(self, mods, seed: int):
        self.m = mods
        ch = mods.channels
        rng = np.random.default_rng((seed, 1))
        self.pool = [self._random_state(rng, 1 + j % 4) for j in range(self._POOL)]
        # delta_sigma is None for the circular specs, which have no closed form.
        self.specs = [
            (ch.DephasingSpec(), 0.0),  # uniform collective H/V
            (ch.DephasingSpec(mean_phase=0.7, per_photon_sigma=0.4, delta_sigma=0.6,
                              distribution="gaussian"), 0.6),
            (ch.DephasingSpec(basis=ch.CIRCULAR_BASIS, mean_phase=0.3,
                              per_photon_sigma=0.5, delta_sigma=0.8,
                              distribution="gaussian"), None),
            (ch.DephasingSpec(basis=ch.CIRCULAR_BASIS), None),
        ]

    def _random_state(self, rng, n: int):
        dim = 2**n
        rank = int(rng.integers(1, dim + 1))
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = g @ g.conj().T
        m = 0.5 * (m + m.conj().T) / np.real(np.trace(m))
        return self.m.qmath.DensityOperator(m)

    def inputs(self, i: int):
        return self.pool[i % self._POOL], i % 4, (i // 4) % 2 == 1

    def run(self, inp):
        state, spec_index, keep_dbar = inp
        dp = self.m.dfs_protocol
        return dp.distribute(dp.ProtocolInput(state, self.specs[spec_index][0], keep_dbar))

    def check(self, inp, outcome) -> bool:
        state, spec_index, keep_dbar = inp
        if not _link_bookkeeping_ok(outcome, state.dim):
            return False
        delta = self.specs[spec_index][1]
        if delta is None:
            return True
        # H/V basis: the output is the input with every coherence between
        # S = H and S = V damped by the jitter; uniform collective noise
        # (delta = 0) returns the input unchanged.
        s_bit = np.arange(state.dim) & 1
        damping = np.where(s_bit[:, None] != s_bit[None, :], math.exp(-0.5 * delta**2), 1.0)
        return (np.max(np.abs(outcome.state.matrix - state.matrix * damping)) < TOL
                and abs(outcome.success_probability - (0.5 if keep_dbar else 0.25)) < TOL)


class PaperRun:
    """One paper-style analysis of Phi- sent through two fixed settings.

    The collective setting returns the pure Bell pair.  The jittery setting
    dephases in the circular basis and returns a full-rank mixed state, on
    which the MLE needs over twice the iterations.  For each setting an op
    distributes Phi-, simulates tomography, CHSH and Stokes counts,
    reconstructs the state by MLE, computes its concurrence with a
    parametric-bootstrap error bar, estimates CHSH and the Bell fidelity, and
    fits a 41-point delay scan with Poisson noise.
    """

    name = "paper_run"
    warmup_ops = 1
    trace_ops = 4

    TOTAL = 1000.0       # expected coincidences per analyzer setting
    RESAMPLES = 10       # bootstrap resamples behind the concurrence error bar
    # Allowed deviation from the exact state, in units of the estimate's own
    # error bar.  The bootstrap standard deviation from 10 resamples has
    # Student-t tails with 9 degrees of freedom; 10 of them leave about 4e-6
    # false failures per op.  The other error bars are Gaussian.
    K_CONCURRENCE = 10.0
    K_GAUSSIAN = 6.0
    BACKGROUND = 2000.0  # delay-scan counts per analyzer pair far from zero delay

    def __init__(self, mods, seed: int):
        self.m = mods
        self.seed = seed
        self.failed_resamples = 0
        ch, dp, an = mods.channels, mods.dfs_protocol, mods.analysis
        self.rho_in = dp.prepare_phi_minus().density()
        psi = dp.prepare_phi_minus().amplitudes
        xx = np.kron(mods.qmath.PAULI_X, mods.qmath.PAULI_X)
        self.tomography = an.tomography_settings()
        self.chsh = an.chsh_settings()
        self.stokes = an.stokes_settings()
        fwhm = an.transform_limited_fwhm(0.79, 0.003)  # micrometres
        self.delays = np.linspace(-2.5 * fwhm, 2.5 * fwhm, 41)
        self.settings = []
        for spec in (
            ch.DephasingSpec(),
            ch.DephasingSpec(basis=ch.CIRCULAR_BASIS, per_photon_sigma=1.0,
                             delta_sigma=0.5, distribution="gaussian"),
        ):
            exact = dp.distribute(dp.ProtocolInput(self.rho_in, spec, True)).state
            # Zero-delay visibility in the diagonal basis, signed so that
            # Phi- (<XX> = -1) has visibility 1.
            visibility = -float(np.real(np.trace(exact.matrix @ xx)))
            self.settings.append({
                "spec": spec,
                "concurrence": an.concurrence(exact),
                "chsh": an.chsh_value(exact),
                "fidelity": _fidelity(exact.matrix, psi),
                "visibility": visibility,
                "model": an.DelayScanModel(self.BACKGROUND, visibility, fwhm),
            })

    def inputs(self, i: int):
        rng = np.random.default_rng((self.seed, i))
        return [rng.integers(2**63, size=5) for _ in self.settings]

    def _concurrence_of_mle(self, records) -> float:
        an = self.m.analysis
        try:
            return an.concurrence(an.tomo_mle(records).rho_hat)
        except Exception:
            self.failed_resamples += 1
            raise

    def run(self, inp):
        an, dp = self.m.analysis, self.m.dfs_protocol
        results = []
        for setting, seeds in zip(self.settings, inp):
            s_tomo, s_chsh, s_stokes, s_boot, s_scan = (int(s) for s in seeds)
            rho = dp.distribute(dp.ProtocolInput(self.rho_in, setting["spec"], True)).state
            tomo = an.simulate_counts(rho, self.tomography, self.TOTAL, s_tomo)
            chsh = an.simulate_counts(rho, self.chsh, self.TOTAL, s_chsh)
            stokes = an.simulate_counts(rho, self.stokes, self.TOTAL, s_stokes)
            mle = an.tomo_mle(tomo)
            c = an.concurrence(mle.rho_hat)
            c_sd = an.monte_carlo_sd(tomo, self._concurrence_of_mle,
                                     n_resamples=self.RESAMPLES, seed=s_boot)
            s, s_sd = an.chsh_from_counts(chsh)
            f, f_sd = an.bell_fidelity_from_counts(stokes)
            curve_dd, curve_ddbar = an.delay_scan(setting["model"], self.delays)
            scan_rng = np.random.default_rng(s_scan)
            dd = scan_rng.poisson(curve_dd).astype(float)
            ddbar = scan_rng.poisson(curve_ddbar).astype(float)
            fit = an.gaussian_fit(self.delays, dd, ddbar)
            results.append((mle.converged, c, c_sd, s, s_sd, f, f_sd, fit, dd, ddbar))
        return results

    def _visibility_sd(self, fit, dd, ddbar) -> float:
        """Standard error of the fitted visibility, from the Jacobian of the
        Poisson-weighted residuals that ``gaussian_fit`` minimizes."""
        an = self.m.analysis
        w_dd = 1.0 / np.sqrt(np.maximum(dd, 1.0))
        w_ddbar = 1.0 / np.sqrt(np.maximum(ddbar, 1.0))

        def residual(p):
            model_dd, model_ddbar = an.delay_scan(
                an.DelayScanModel(background=p[2], visibility=p[0], coherence_fwhm=p[1]),
                self.delays)
            return np.concatenate([(model_dd - dd) * w_dd, (model_ddbar - ddbar) * w_ddbar])

        p = np.array([fit.visibility, fit.coherence_fwhm, fit.background])
        jac = np.empty((2 * self.delays.size, 3))
        for k in range(3):
            step = np.zeros(3)
            step[k] = 1e-6 * max(abs(p[k]), 1.0)
            jac[:, k] = (residual(p + step) - residual(p - step)) / (2.0 * step[k])
        return math.sqrt(np.linalg.inv(jac.T @ jac)[0, 0])

    def check(self, inp, out) -> bool:
        for setting, (converged, c, c_sd, s, s_sd, f, f_sd, fit, dd, ddbar) in zip(
                self.settings, out):
            if not (converged and fit.converged):
                return False
            v_sd = self._visibility_sd(fit, dd, ddbar)
            # The 1e-12 floor absorbs rounding where an error bar is exactly
            # zero, as for the Stokes fidelity of the pure Bell pair.
            for estimate, sd, exact, k in (
                (c, c_sd, setting["concurrence"], self.K_CONCURRENCE),
                (s, s_sd, setting["chsh"], self.K_GAUSSIAN),
                (f, f_sd, setting["fidelity"], self.K_GAUSSIAN),
                (fit.visibility, v_sd, setting["visibility"], self.K_GAUSSIAN),
            ):
                if not abs(estimate - exact) <= k * sd + 1e-12:
                    return False
        return True


WORKLOADS = {cls.name: cls for cls in (LinkSweep, LinkStates, PaperRun)}
