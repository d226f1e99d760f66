"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute-force: dense linear algebra, Fock-space
truncation, Monte Carlo integration, and a from-scratch rewrite of the key
length composition, plus a batch.csv reader and the exact identities the
reports must satisfy.  None of it imports the package's closed forms.
"""
import csv
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy import stats

# batch.csv layout, written out here rather than taken from the package
BATCH_HEADER = ("round", "role", "ax", "ap", "bx", "bp")
ROLE_NAMES = ("key", "decoy", "gaussian")


def dense_symplectic_pair(x: float, y: float, z: float):
    """(nu1, nu2) from |eig(i Omega Gamma)| on the dense 4x4 matrix."""
    gamma = np.array([
        [x, 0.0, z, 0.0],
        [0.0, x, 0.0, -z],
        [z, 0.0, y, 0.0],
        [0.0, -z, 0.0, y],
    ])
    omega = np.zeros((4, 4))
    for j in (0, 2):
        omega[j, j + 1] = 1.0
        omega[j + 1, j] = -1.0
    eig = np.linalg.eigvals(1j * omega @ gamma)
    nus = np.sort(np.abs(eig))
    # eigenvalues come in +/- pairs: [nu2, nu2, nu1, nu1]
    return float(nus[3]), float(nus[1])


def dense_conditional_nu(x: float, y: float, z: float) -> float:
    """Symplectic eigenvalue of Alice's block after heterodyne on Bob.

    Dense Schur complement gamma_A - sigma (gamma_B + I)^-1 sigma^T; for a
    2x2 multiple of the identity the eigenvalue is sqrt(det).
    """
    gamma_a = np.diag([x, x])
    gamma_b = np.diag([y, y])
    sigma = np.diag([z, -z])
    cond = gamma_a - sigma @ np.linalg.inv(gamma_b + np.eye(2)) @ sigma.T
    return float(math.sqrt(np.linalg.det(cond)))


def fock_coherent(amplitude: complex, n_max: int) -> np.ndarray:
    """Coherent-state coefficients in the photon-number basis."""
    ns = np.arange(n_max + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))))
    mag = np.exp(-0.5 * abs(amplitude) ** 2
                 + ns * math.log(abs(amplitude)) - 0.5 * log_fact) \
        if amplitude != 0 else (ns == 0).astype(float)
    phase = np.exp(1j * ns * np.angle(amplitude))
    return mag * phase


def fock_modulation_oracle(alpha: float, n_max: int = 80):
    """(lambdas, Z) of the four-state mixture by dense Fock-space algebra.

    rho = (1/4) sum_x |alpha_x><alpha_x| is diagonalized numerically; each
    of its four nonzero eigenvectors is supported on one photon-number
    residue class mod 4, which labels it.  The correlation is

        Z = sum_{j,k} sqrt(lam_j lam_k) <phi_j|(a + a^+)|phi_k>^2,

    evaluated with the dense ladder operator (all matrix elements real).
    """
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for q in range(4):
        amp = alpha * np.exp(1j * (2 * q + 1) * np.pi / 4.0)
        vec = fock_coherent(amp, n_max)
        rho += 0.25 * np.outer(vec, vec.conj())
    vals, vecs = np.linalg.eigh(rho)
    order = np.argsort(vals)[::-1][:4]
    ns = np.arange(n_max + 1)
    lams = np.zeros(4)
    phis = np.zeros((n_max + 1, 4))
    for idx in order:
        v = vecs[:, idx]
        # rotate the arbitrary complex phase away; support is one residue
        lead = np.argmax(np.abs(v))
        v = (v * np.exp(-1j * np.angle(v[lead]))).real
        weights = [np.sum(v[ns % 4 == r] ** 2) for r in range(4)]
        r = int(np.argmax(weights))
        lams[r] = vals[idx]
        phis[:, r] = v
    a_op = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)
    x_op = a_op + a_op.T
    x_elems = phis.T @ x_op @ phis
    z = 0.0
    for j in range(4):
        for k in range(4):
            z += math.sqrt(lams[j] * lams[k]) * x_elems[j, k] ** 2
    return lams, float(z)


def mc_biawgn_capacity(s: float, n_samples: int, seed: int) -> float:
    """Monte Carlo estimate of the binary-input AWGN capacity at SNR s.

    With x = +sqrt(s) sent, C = E[1 - log2(1 + exp(-2 sqrt(s) y))].
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    done = 0
    root = math.sqrt(s)
    while done < n_samples:
        size = min(1 << 20, n_samples - done)
        y = root + rng.standard_normal(size)
        total += float(np.sum(1.0 - np.log1p(np.exp(-2.0 * root * y)) / math.log(2.0)))
        done += size
    return total / n_samples


def repetition_block_error(s: float, k_rep: int) -> float:
    """E[Q(sqrt(s U))], U ~ chi-square(k_rep): matched-filter block error."""
    from scipy import integrate

    def integrand(u):
        return stats.norm.sf(math.sqrt(s * u)) * stats.chi2.pdf(u, k_rep)

    val, _ = integrate.quad(integrand, 0, stats.chi2.isf(1e-12, k_rep),
                            limit=200)
    return float(val)


def composition_key_length(alpha, T, xi, beta, n, k, eps_pe, eps_sm,
                           eps_ent, eps_cor, p_ec, eps_rob):
    """From-scratch recomputation of the worst-case finite-size key length.

    Mirrors the full chain (delta calibration, threshold corner, Holevo
    bound, leakage, AEP and entropy-accumulation penalties with the
    derived variant) with standalone code.
    """
    v_a = 2.0 * alpha * alpha
    v = v_a + 1.0

    # four-state weights and trusted correlation
    a2 = alpha * alpha
    lam = np.array([
        math.exp(-a2) * (math.cosh(a2) + math.cos(a2)) / 2.0,
        math.exp(-a2) * (math.sinh(a2) + math.sin(a2)) / 2.0,
        math.exp(-a2) * (math.cosh(a2) - math.cos(a2)) / 2.0,
        math.exp(-a2) * (math.sinh(a2) - math.sin(a2)) / 2.0,
    ])
    lrs = float(np.sum(lam ** 1.5 / np.sqrt(np.roll(lam, -1))))

    # calibrated robustness offsets (six-way budget split)
    budget = eps_rob / 6.0
    dof = 4 * k
    r36 = math.sqrt(math.log(36.0 / eps_pe) / k)
    infl = 1.0 + 3.0 * r36
    va2 = (v + 1.0) / 2.0
    vb2 = (T * v_a + 2.0 + T * xi) / 2.0
    delta_a = infl * (v + 1.0) * stats.chi2.isf(budget, dof) / dof - (v + 1.0)
    delta_b = infl * 2.0 * vb2 * stats.chi2.isf(budget, dof) / dof - 2.0 * vb2
    dc = 6.0 * math.sqrt(math.log(144.0 / eps_pe) / float(k) ** 3)
    rho = math.sqrt(T) * v_a * lrs / 2.0
    var_s = dof * (va2 * vb2 + rho * rho)
    var_n = dof * 2.0 * (va2 * va2 + vb2 * vb2 + 2.0 * rho * rho)
    cov_sn = dof * 2.0 * rho * (va2 + vb2)
    mean_pen = dc * dof * (va2 + vb2)
    var_c = (var_s / (2.0 * k) ** 2 + dc * dc * var_n
             - 2.0 * dc * cov_sn / (2.0 * k))
    delta_c = mean_pen + stats.norm.isf(budget) * math.sqrt(max(var_c, 0.0))

    sig_a = v + delta_a
    sig_b = T * v_a + 1.0 + T * xi + delta_b
    sig_c = max(math.sqrt(T) * v_a * lrs - delta_c, 0.0)

    # Holevo bound on the corner
    def g(nu):
        if nu <= 1.0:
            return 0.0
        up = (nu + 1.0) / 2.0
        dn = (nu - 1.0) / 2.0
        return up * math.log2(up) - dn * math.log2(dn)

    delta = sig_a ** 2 + sig_b ** 2 - 2.0 * sig_c ** 2
    det = (sig_a * sig_b - sig_c ** 2) ** 2
    disc = math.sqrt(delta ** 2 - 4.0 * det)
    nu1 = math.sqrt((delta + disc) / 2.0)
    nu2 = math.sqrt((delta - disc) / 2.0)
    nu3 = sig_a - sig_c ** 2 / (1.0 + sig_b)
    f = g(nu1) + g(nu2) - g(nu3)

    # leakage at beta times the binary-input capacity
    s = T * (v_a / 2.0) / ((2.0 + T * xi) / 2.0)
    from scipy import integrate

    def phi(y):
        return 0.5 * (stats.norm.pdf(y - math.sqrt(s))
                      + stats.norm.pdf(y + math.sqrt(s)))

    def integrand(y):
        p = phi(y)
        return -p * math.log2(p) if p > 0 else 0.0

    width = 1.0 + 40.0 / math.sqrt(s) if s < 1 else 1.0 + 40.0
    h_y, _ = integrate.quad(integrand, -width - math.sqrt(s),
                            width + math.sqrt(s), limit=400,
                            points=[-1.0, 0.0, 1.0])
    c_bi = min(max(h_y - 0.5 * math.log2(2.0 * math.pi * math.e), 0.0), 1.0)
    leak = 2.0 * (2 * n) * (1.0 - beta * c_bi) + math.ceil(math.log2(1.0 / eps_cor))

    modes = 2 * n
    t_sm = 1.0 - 2.0 * math.log2(eps_sm)
    d_aep = math.sqrt(modes) * (16.0 + t_sm + 8.0 * math.sqrt(t_sm)) \
        + 4.0 * eps_sm / p_ec + 1.0 - 2.0 * math.log2(p_ec)
    d_ent = math.log2(modes) * math.sqrt(2.0 * modes * math.log(2.0 / eps_ent))

    return modes * (2.0 * 1.0 - f) - leak - d_aep - d_ent


def export_batch_rows(batch, path) -> None:
    """batch.csv written one csv-module row at a time.

    This is the simulator's original writer, kept as the byte-level
    reference for `channel.export_batch`: the csv module's default dialect
    (comma, minimal quoting, CRLF line ends) and numpy-scalar f-strings.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BATCH_HEADER)
        for i in range(batch.n_rounds):
            w.writerow(
                (
                    i,
                    ROLE_NAMES[batch.roles[i]],
                    f"{batch.alice_x[i]:.17g}",
                    f"{batch.alice_p[i]:.17g}",
                    f"{batch.bob_x[i]:.17g}",
                    f"{batch.bob_p[i]:.17g}",
                )
            )


def draw_pair(g, entries: int, size: int, r: float):
    """i.i.d. bivariate-normal entry pairs with correlation r.

    Returns two (size, entries) arrays.  This is the full-vector sampler the
    Monte Carlo validation rows once used; it is kept as the reference for
    the exact Wishart sampler `validate._wishart2`.
    """
    x = g.standard_normal((size, entries))
    w = g.standard_normal((size, entries))
    y = r * x + math.sqrt(1.0 - r * r) * w
    return x, y


def pair_statistics(x, y):
    """Per-row (||x||^2, ||y||^2, <x, y>) of two (size, entries) arrays."""
    return (np.sum(x * x, axis=1), np.sum(y * y, axis=1),
            np.sum(x * y, axis=1))


def rotate_pair_by_pair(layers, v):
    """R v with one scalar update per pair.

    `layers` are the layers of an `OrthogonalTransform`; each carries the
    index arrays `lo`, `hi` and the angle arrays `cos`, `sin`.  This is the
    per-pair reference for the one gather/scatter per layer in
    `rotations.py`.
    """
    v = [float(x) for x in v]
    for lay in layers:
        for i, j, c, s in zip(lay.lo.tolist(), lay.hi.tolist(),
                              lay.cos.tolist(), lay.sin.tolist()):
            a, b = v[i], v[j]
            v[i] = c * a + s * b
            v[j] = (-s) * a + c * b
    return np.array(v)


def gaussian_capacity(s: float) -> float:
    """Shannon capacity (1/2) log2(1 + s), bits/symbol, of the Gaussian-input
    channel: the upper bound for the binary-input capacity at SNR s."""
    return 0.5 * math.log2(1.0 + s)


def import_batch(path):
    """Read a batch.csv back into float arrays and uint8 role codes.

    Returns a namespace with the `QuadratureBatch` field names; floats
    printed with %.17g read back exactly.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == BATCH_HEADER
    body = rows[1:]
    return SimpleNamespace(
        roles=np.array([ROLE_NAMES.index(r[1]) for r in body], dtype=np.uint8),
        alice_x=np.array([float(r[2]) for r in body]),
        alice_p=np.array([float(r[3]) for r in body]),
        bob_x=np.array([float(r[4]) for r in body]),
        bob_p=np.array([float(r[5]) for r in body]),
    )


def dense_matrix(transform) -> np.ndarray:
    """Dense matrix of an `OrthogonalTransform`, one applied column at a
    time (O(dim^2))."""
    eye = np.eye(transform.dim)
    return np.stack([transform.apply(eye[:, j]) for j in range(transform.dim)],
                    axis=1)


def audit_key_length(report) -> bool:
    """A `KeyLengthReport`'s l equals its stored terms combined, exactly."""
    return report.l == (
        report.entropy_term
        - report.holevo_term
        - report.leak_ec
        - report.delta_aep
        - report.delta_ent
    )


def audit_reduction(report) -> bool:
    """A `ReductionReport`'s eps_general equals (2 + K^4/6) eps_collective,
    exactly, with the prefactor formed as an exact rational."""
    pref = 2.0 + float(Fraction(report.K ** 4, 6))
    return report.eps_general == pref * report.eps_collective
