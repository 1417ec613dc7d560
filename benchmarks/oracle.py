"""Reference computations made apart from the qeswkb program.

Nothing here imports qeswkb.  Each function recomputes a quantity the
program outputs by another method, or states a value known in closed form:

* ``sinc_dvr_levels``: bound-state energies of the reduced sextic well from
  a sinc discrete-variable representation on a uniform grid (Colbert &
  Miller, J. Chem. Phys. 96 (1992) 1982), where the program uses a scaled
  Gauss-Hermite mesh with a scale scan;
* ``sextic_gamma``: the quantization correction gamma = S/pi - n - 1/2 with
  the action S from adaptive ``scipy.integrate.quad`` using the algebraic
  end-point weight, where the program uses a sine-mapped Gauss-Legendre rule;
* ``sextic_qes_levels``, ``sextic_partner_potential``: the algebraic levels of
  the sextic well at integer N and the partner well of its ground state,
  from the Hamiltonian acting on polynomials in u = x^2, written anew;
* closed forms: the exactly known sextic levels and the Morse spectrum;
* the gamma model of the paper, written anew from its formula.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh

# A 901-point grid on [-4.6, 4.6] resolves the 51 lowest levels of every
# depth in [0, 1] to about 1e-11; the wave functions are below e^-90 at the
# walls.
DVR_POINTS = 901
DVR_HALF_WIDTH = 4.6


def sextic_potential(depth, x):
    """V(x) = (x^6 + 2 x^4 - 2 (2N+1) x^2) / 2 of the reduced sextic well."""
    x2 = x * x
    return 0.5 * x2 * ((x2 + 2.0) * x2 - 2.0 * (2.0 * depth + 1.0))


def sinc_dvr_levels(depth, count):
    """The ``count`` lowest energies of the reduced sextic well at depth N."""
    x, step = np.linspace(-DVR_HALF_WIDTH, DVR_HALF_WIDTH, DVR_POINTS, retstep=True)
    offset = np.arange(DVR_POINTS)[:, None] - np.arange(DVR_POINTS)[None, :]
    with np.errstate(divide="ignore"):
        kinetic = np.where(offset == 0, math.pi**2 / 3.0, 2.0 * (-1.0) ** offset / offset**2)
    ham = kinetic / (2.0 * step * step) + np.diag(sextic_potential(depth, x))
    return eigh(ham, eigvals_only=True, subset_by_index=(0, count - 1))


def exact_sextic_levels():
    """Levels known in closed form: (depth N, level index n, energy)."""
    return (
        (0.0, 0, 0.5),
        (0.5, 1, 1.5),
        (1.0, 0, 1.5 - math.sqrt(3.0)),
    )


def morse_levels(b, alpha, depth, count):
    """E_n = alpha n (2 beta - alpha n) / 2 with beta = N alpha + b."""
    beta = depth * alpha + b
    n = np.arange(count, dtype=float)
    return 0.5 * alpha * n * (2.0 * beta - alpha * n)


def _sextic_qes_block(depth):
    """H on P(u) exp(-x^4/4 - x^2/2), u = x^2, in the basis 1, u, ..., u^N.

    H P = -2u P'' + (2u^2 + 2u - 1) P' + (1/2 - 2N u) P, so u^k maps to
    2(k - N) u^(k+1) + (2k + 1/2) u^k - k(2k - 1) u^(k-1); the block closes
    at k = N.
    """
    size = depth + 1
    block = np.zeros((size, size))
    for k in range(size):
        block[k, k] = 2.0 * k + 0.5
        if k + 1 < size:
            block[k + 1, k] = 2.0 * (k - depth)
        if k > 0:
            block[k - 1, k] = -k * (2.0 * k - 1.0)
    return block


def sextic_qes_levels(depth):
    """The N + 1 algebraic even levels of the reduced sextic well at integer N."""
    return np.sort(np.linalg.eigvals(_sextic_qes_block(depth)).real)


def sextic_partner_potential(depth, x):
    """V1 = V - (ln psi0)'' for the algebraic ground state psi0 at integer N.

    psi0 = P(x^2) exp(-x^4/4 - x^2/2) with P the eigenvector of the lowest
    level; (ln psi0)'' = (2P' + 4u P'')/P - 4u (P'/P)^2 - 3x^2 - 1.
    """
    values, vectors = np.linalg.eig(_sextic_qes_block(depth))
    poly = np.polynomial.Polynomial(vectors[:, np.argmin(values.real)].real)
    u = x * x
    p, p1, p2 = poly(u), poly.deriv(1)(u), poly.deriv(2)(u)
    log_second = (2.0 * p1 + 4.0 * u * p2) / p - 4.0 * u * (p1 / p) ** 2 - 3.0 * u - 1.0
    return sextic_potential(depth, x) - log_second


def sextic_turning_point(depth, energy):
    """Outer turning point a > 0 with V(a) = E, from np.roots in u = x^2."""
    roots = np.roots([1.0, 2.0, -2.0 * (2.0 * depth + 1.0), -2.0 * energy])
    u = max(r.real for r in roots if abs(r.imag) <= 1e-12 * abs(r) and r.real > 0)
    a = math.sqrt(u)
    for _ in range(3):
        a -= (sextic_potential(depth, a) - energy) / (a * ((6.0 * a * a + 8.0) * a * a - 2.0 * (2.0 * depth + 1.0)))
    return a


def sextic_action(depth, energy):
    """S(E) between the turning points, for E above the barrier top 0.

    E - V(x) = (a^2 - x^2) q(x^2)/2 with q(u) = u^2 + (a^2 + 2) u + a^4 + 2 a^2
    - 2 (2N+1), positive on the allowed interval, so the integrand is
    sqrt(q(x^2)) times the end-point weight sqrt((a - x)(a + x)).
    """
    a = sextic_turning_point(depth, energy)
    a2 = a * a
    c1 = a2 + 2.0
    c0 = a2 * a2 + 2.0 * a2 - 2.0 * (2.0 * depth + 1.0)

    def smooth(x):
        u = x * x
        return math.sqrt((u + c1) * u + c0)

    value, _ = quad(smooth, -a, a, weight="alg", wvar=(0.5, 0.5), epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def sextic_gamma(depth, n, energy):
    """gamma = S(E)/pi - n - 1/2 of level n at energy E."""
    return sextic_action(depth, energy) / math.pi - n - 0.5


def gamma_model(params, n):
    """(a0 + a1 m) / sqrt(1 + b1^2 m + b2^2 m^2 + b3^2 m^3 + b4^2 m^4), m = n - 2."""
    a0, a1, b1, b2, b3, b4 = params
    m = np.asarray(n, dtype=float) - 2.0
    return (a0 + a1 * m) / np.sqrt(1.0 + b1**2 * m + b2**2 * m**2 + b3**2 * m**3 + b4**2 * m**4)
