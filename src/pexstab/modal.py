"""Modal truncations of the damped string and the damped quantum particle.

Both models live on the unit interval with Dirichlet ends and use the
orthonormal basis phi_n(x) = sqrt(2) sin(n pi x).  Damping acts through a
profile d(x), either uniform (d = d0) or the indicator of a subinterval
omega = (a, b); its modal footprint is the Gram matrix

    G[n, m] = int_omega 2 sin(n pi x) sin(m pi x) dx,

evaluated in closed form.

Damped string (wave equation v_tt = v_xx - alpha(t) d(x)^2 v_t): each mode n
carries the pair (sqrt(lambda_n) a_n, a_n') so that the block generator is
the rotation [[0, sqrt(lambda_n)], [-sqrt(lambda_n), 0]] and
V = ||z||^2 / 2 is the physical energy.  Damping enters on the velocity
components: B B^T restricted to them is d0^2 I (uniform) or G (localized).

Damped quantum particle (Schrodinger equation i y_t + y_xx + i alpha d^2 y = 0):
modal coefficients obey c_n' = -i lambda_n c_n - alpha sum_m G[n,m] c_m with
lambda_n = (n pi)^2.  States are realified per mode as (Re c_n, Im c_n), so
A is skew with blocks [[0, lambda_n], [-lambda_n, 0]] and B B^T = G (x) I_2.

A finite truncation of either model is exactly observable, so no finite
simulation can distinguish weak from strong stability of the full PDE;
quantum-particle systems and strings damped on an interval omega carry that
caveat, and every report built from them must repeat it.  (A string damped
on omega need not decay at all: the counterexample of ``dalembert`` is one,
while each of its truncations decays.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import LinearSystem

TRUNCATION_CAVEAT = (
    "finite modal truncation: every truncation is exactly observable, so "
    "weak and strong stability of the full model cannot be distinguished "
    "numerically; statements certified here concern the truncated system only"
)


def _check_omega(omega):
    a, b = float(omega[0]), float(omega[1])
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("omega must be an interval (a, b) with 0 <= a < b <= 1")
    return a, b


@dataclass(frozen=True)
class _ModalSpec:
    """Fields, checks and spectrum shared by the modal specs.

    Exactly one of ``uniform`` (the constant profile value d0 > 0) and
    ``omega`` (the support interval of an indicator profile) must be given.
    """

    n_modes: int
    uniform: float = None
    omega: tuple = None

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        if (self.uniform is None) == (self.omega is None):
            raise ValueError("specify exactly one of uniform damping or omega")
        if self.uniform is not None and self.uniform <= 0:
            raise ValueError("uniform damping value must be positive")
        if self.omega is not None:
            object.__setattr__(self, "omega", _check_omega(self.omega))

    def spectrum(self) -> np.ndarray:
        n = np.arange(1, self.n_modes + 1)
        return (n * np.pi) ** 2

    def damping_root(self) -> np.ndarray:
        """S with S^2 the modal damping footprint: d0 I or the root of G."""
        if self.uniform is not None:
            return self.uniform * np.eye(self.n_modes)
        return _psd_sqrt(gram_matrix(self.omega, self.n_modes))


@dataclass(frozen=True)
class WaveModalSpec(_ModalSpec):
    """Damped-string truncation: ``n_modes`` modes, uniform or localized damping.

    ``eigenvalues`` overrides the default string spectrum lambda_n = (n pi)^2
    and must then be positive and strictly increasing.
    """

    eigenvalues: tuple = None

    def __post_init__(self):
        super().__post_init__()
        if self.eigenvalues is not None:
            ev = tuple(float(v) for v in self.eigenvalues)
            if len(ev) != self.n_modes:
                raise ValueError("need one eigenvalue per mode")
            if any(v <= 0 for v in ev) or any(y <= x for x, y in zip(ev, ev[1:])):
                raise ValueError("eigenvalues must be positive and increasing")
            object.__setattr__(self, "eigenvalues", ev)

    def spectrum(self) -> np.ndarray:
        if self.eigenvalues is not None:
            return np.asarray(self.eigenvalues)
        return super().spectrum()


@dataclass(frozen=True)
class SchrodingerModalSpec(_ModalSpec):
    """Damped quantum-particle truncation with spectrum lambda_n = (n pi)^2."""


def gram_matrix(omega, n_modes: int) -> np.ndarray:
    """Closed-form Gram matrix of sqrt(2) sin(n pi x) restricted to omega.

    G[n-1, m-1] = int_a^b 2 sin(n pi x) sin(m pi x) dx, symmetric positive
    semidefinite, and the identity when omega = (0, 1).
    """
    a, b = _check_omega(omega)
    if n_modes < 1:
        raise ValueError("need at least one mode")
    G = np.empty((n_modes, n_modes))
    for i in range(n_modes):
        n = i + 1
        G[i, i] = (b - a) - (np.sin(2 * n * np.pi * b) - np.sin(2 * n * np.pi * a)) / (2 * n * np.pi)
        for j in range(i + 1, n_modes):
            m = j + 1
            d, s = n - m, n + m
            val = (np.sin(d * np.pi * b) - np.sin(d * np.pi * a)) / (d * np.pi) \
                - (np.sin(s * np.pi * b) - np.sin(s * np.pi * a)) / (s * np.pi)
            G[i, j] = G[j, i] = val
    return G


def _psd_sqrt(G: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues below 1e-12 are clamped to 0."""
    w, V = np.linalg.eigh((G + G.T) / 2)
    w = np.where(w < 1e-12, 0.0, w)
    S = (V * np.sqrt(w)) @ V.T
    return (S + S.T) / 2


def _rotation_blocks(speeds) -> np.ndarray:
    """Skew A with 2x2 blocks [[0, w_n], [-w_n, 0]] along the diagonal."""
    speeds = np.asarray(speeds)
    i = 2 * np.arange(len(speeds))
    A = np.zeros((2 * len(speeds), 2 * len(speeds)))
    A[i, i + 1] = speeds
    A[i + 1, i] = -speeds
    return A


def build_wave(spec: WaveModalSpec) -> LinearSystem:
    """Assemble the damped-string truncation as a LinearSystem.

    The state interleaves the modal pairs,
    z = (sqrt(l1) a1, a1', sqrt(l2) a2, a2', ...), which makes A exactly
    skew-symmetric with 2x2 rotation blocks of speed sqrt(lambda_n) and puts
    the damping map on the velocity slots.  Damped on an interval omega,
    the system carries the modal-truncation caveat.
    """
    n = spec.n_modes
    B = np.zeros((2 * n, n))
    B[1::2, :] = spec.damping_root()
    caveats = () if spec.omega is None else (TRUNCATION_CAVEAT,)
    return LinearSystem(_rotation_blocks(np.sqrt(spec.spectrum())), B, caveats=caveats)


def build_schrodinger(spec: SchrodingerModalSpec) -> LinearSystem:
    """Assemble the damped quantum-particle truncation as a LinearSystem.

    The state interleaves real and imaginary parts per mode,
    z = (Re c1, Im c1, Re c2, Im c2, ...); the free blocks are rotations of
    speed lambda_n = (n pi)^2 and B B^T couples modes through the Gram
    matrix on both component families.  The returned system carries the
    modal-truncation caveat, which downstream reports must propagate.
    """
    N = 2 * spec.n_modes
    S = spec.damping_root()
    B = np.zeros((N, N))
    B[0::2, 0::2] = S
    B[1::2, 1::2] = S
    return LinearSystem(_rotation_blocks(spec.spectrum()), B, caveats=(TRUNCATION_CAVEAT,))
