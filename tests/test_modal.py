from fractions import Fraction as F

import numpy as np
import pytest

from pexstab.linsys import simulate
from pexstab.modal import (
    SchrodingerModalSpec,
    TRUNCATION_CAVEAT,
    WaveModalSpec,
    _psd_sqrt,
    build_schrodinger,
    build_wave,
    gram_matrix,
)
from pexstab.signals import make_piecewise, periodic_gate


def gauss_gram(omega, n_modes, nodes=200):
    a, b = omega
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (b - a) * (xg + 1.0) + a
    w = 0.5 * (b - a) * wg
    phi = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, n_modes + 1), np.pi * x))
    return (phi * w) @ phi.T


def test_gram_matches_quadrature():
    for omega in ((0.2, 0.6), (0.0, 0.35), (0.5, 1.0)):
        G = gram_matrix(omega, 6)
        Q = gauss_gram(omega, 6)
        assert np.abs(G - Q).max() < 1e-12


def test_gram_is_identity_on_full_interval():
    G = gram_matrix((0.0, 1.0), 8)
    assert np.abs(G - np.eye(8)).max() < 1e-12


def test_gram_is_positive_semidefinite():
    G = gram_matrix((0.3, 0.4), 10)
    assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_gram_validates_input():
    with pytest.raises(ValueError):
        gram_matrix((0.6, 0.4), 3)
    with pytest.raises(ValueError):
        gram_matrix((0.0, 1.2), 3)
    with pytest.raises(ValueError):
        gram_matrix((0.2, 0.6), 0)


def test_wave_spec_validation():
    with pytest.raises(ValueError):
        WaveModalSpec(n_modes=0, uniform=1.0)
    with pytest.raises(ValueError):
        WaveModalSpec(n_modes=2)  # neither damping form
    with pytest.raises(ValueError):
        WaveModalSpec(n_modes=2, uniform=1.0, omega=(0.2, 0.6))  # both
    with pytest.raises(ValueError):
        WaveModalSpec(n_modes=2, uniform=-1.0)
    with pytest.raises(ValueError):
        WaveModalSpec(n_modes=2, uniform=1.0, eigenvalues=(4.0, 1.0))
    with pytest.raises(ValueError):
        WaveModalSpec(n_modes=2, uniform=1.0, eigenvalues=(1.0,))


def test_wave_blocks_and_damping_layout():
    sys = build_wave(WaveModalSpec(n_modes=2, uniform=0.5))
    lam = (np.pi ** 2, (2 * np.pi) ** 2)
    assert sys.skew_flag
    assert sys.A[0, 1] == pytest.approx(np.sqrt(lam[0]))
    assert sys.A[2, 3] == pytest.approx(np.sqrt(lam[1]))
    BBt = sys.B @ sys.B.T
    assert np.abs(BBt[0::2, :]).max() == 0.0  # no damping on positions
    assert np.abs(BBt[1::2, 1::2] - 0.25 * np.eye(2)).max() < 1e-14
    assert sys.b_norm == pytest.approx(0.5)
    assert sys.caveats == ()


def test_wave_localized_damping_footprint():
    omega = (0.2, 0.6)
    sys = build_wave(WaveModalSpec(n_modes=3, omega=omega))
    G = gram_matrix(omega, 3)
    BBt = sys.B @ sys.B.T
    assert np.abs(BBt[1::2, 1::2] - G).max() < 1e-12
    assert np.abs(BBt[0::2, :]).max() == 0.0


def test_wave_eigenvalue_override():
    sys = build_wave(WaveModalSpec(n_modes=2, uniform=1.0, eigenvalues=(1.0, 4.0)))
    assert sys.A[0, 1] == pytest.approx(1.0)
    assert sys.A[2, 3] == pytest.approx(2.0)


def test_schrodinger_blocks_and_caveat():
    omega = (0.1, 0.45)
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=3, omega=omega))
    assert sys.skew_flag
    assert sys.A[0, 1] == pytest.approx(np.pi ** 2)
    assert sys.A[2, 3] == pytest.approx(4 * np.pi ** 2)
    G = gram_matrix(omega, 3)
    BBt = sys.B @ sys.B.T
    assert np.abs(BBt[0::2, 0::2] - G).max() < 1e-12
    assert np.abs(BBt[1::2, 1::2] - G).max() < 1e-12
    assert np.abs(BBt[0::2, 1::2]).max() == 0.0  # families do not mix
    assert TRUNCATION_CAVEAT in sys.caveats


def test_schrodinger_uniform_decay_law():
    # uniform damping commutes with the free flow, so the energy obeys
    # V(t) = V(0) exp(-2 d0^2 * signal mass) exactly
    d0 = 0.7
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=3, uniform=d0))
    gate = periodic_gate(1, F(1, 4), 10)
    rng = np.random.default_rng(4)
    z0 = rng.standard_normal(6)
    z0 /= np.linalg.norm(z0)
    traj = simulate(sys, gate, z0, 8.0, 0.01)
    mass = float(gate.integral(0, 8))
    want = 0.5 * np.exp(-2.0 * d0 ** 2 * mass)
    assert traj.energies[-1] == pytest.approx(want, rel=1e-9)


def test_wave_energy_conserved_undamped():
    sys = build_wave(WaveModalSpec(n_modes=4, uniform=1.0))
    off = make_piecewise([], [], 0.0)
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal(8)
    traj = simulate(sys, off, z0, 20.0, 0.05)
    drift = float(np.abs(traj.energies - traj.energies[0]).max())
    assert drift <= 1e-12 * traj.energies[0]


def test_schrodinger_rejects_eigenvalue_override():
    with pytest.raises(TypeError):
        SchrodingerModalSpec(n_modes=2, uniform=1.0, eigenvalues=(1.0, 4.0))


def loop_damping_root(spec):
    if spec.uniform is not None:
        return spec.uniform * np.eye(spec.n_modes)
    return _psd_sqrt(gram_matrix(spec.omega, spec.n_modes))


def loop_wave(spec):
    """Reference: the per-mode loop assembly of the damped string."""
    lam = spec.spectrum()
    n = spec.n_modes
    A = np.zeros((2 * n, 2 * n))
    for i in range(n):
        w = np.sqrt(lam[i])
        A[2 * i, 2 * i + 1] = w
        A[2 * i + 1, 2 * i] = -w
    B = np.zeros((2 * n, n))
    B[1::2, :] = loop_damping_root(spec)
    return A, B


def loop_schrodinger(spec):
    """Reference: the per-mode loop assembly of the quantum particle."""
    lam = spec.spectrum()
    n = spec.n_modes
    A = np.zeros((2 * n, 2 * n))
    for i in range(n):
        A[2 * i, 2 * i + 1] = lam[i]
        A[2 * i + 1, 2 * i] = -lam[i]
    S = loop_damping_root(spec)
    B = np.zeros((2 * n, 2 * n))
    B[0::2, 0::2] = S
    B[1::2, 1::2] = S
    return A, B


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("damping", [{"uniform": 0.7}, {"omega": (0.2, 0.6)}])
def test_builders_match_loop_assembly_bit_for_bit(n, damping):
    cases = [
        (build_wave, loop_wave, WaveModalSpec(n, **damping)),
        (build_wave, loop_wave,
         WaveModalSpec(n, **damping, eigenvalues=tuple(0.5 + k * k for k in range(1, n + 1)))),
        (build_schrodinger, loop_schrodinger, SchrodingerModalSpec(n, **damping)),
    ]
    for build, reference, spec in cases:
        sys = build(spec)
        A, B = reference(spec)
        assert np.array_equal(sys.A, A)
        assert np.array_equal(sys.B, B)
