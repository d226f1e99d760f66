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


def holevo_f_mp(x: float, y: float, z: float, dps: int = 50) -> float:
    """g(nu1) + g(nu2) - g(nu3) of an (x, y, z) covariance in dps-digit
    arithmetic, from nu_{1,2}^2 = (Delta +/- sqrt(Delta^2 - 4 det)) / 2 and
    nu3 = x - z^2 / (1 + y); at 50 digits the difference of the two roots
    keeps more digits than a float holds."""
    import mpmath as mp

    def g(nu):
        plus, minus = (nu + 1) / 2, (nu - 1) / 2
        return plus * mp.log(plus, 2) - (minus * mp.log(minus, 2)
                                         if minus > 0 else 0)

    with mp.workdps(dps):
        x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        delta = x * x + y * y - 2 * z * z
        root = mp.sqrt(delta * delta - 4 * (x * y - z * z) ** 2)
        nu1, nu2 = (mp.sqrt((delta + sign * root) / 2) for sign in (1, -1))
        return float(g(nu1) + g(nu2) - g(x - z * z / (1 + y)))


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


def _biawgn_density(x: np.ndarray, s: float) -> np.ndarray:
    # equal mixture of N(-1, 1/s) and N(+1, 1/s)
    pref = math.sqrt(s / (8.0 * math.pi))
    return pref * (
        np.exp(-s * (x + 1.0) ** 2 / 2.0) + np.exp(-s * (x - 1.0) ** 2 / 2.0)
    )


def biawgn_capacity_array(s: float) -> float:
    """The binary-input AWGN capacity by adaptive quadrature of -phi log phi.

    QUADPACK's `quad` over the output density phi_s, the equal mixture of
    N(-1, 1/s) and N(+1, 1/s), with epsabs = epsrel = 1e-10.  An
    independent form of the integral, good to about 1e-10 relative on
    s in [1e-4, 200].  Below that the absolute tolerance swamps C: at
    s = 1e-30 it returns 2.1e-14 for 7.2e-31.
    """
    from scipy.integrate import quad
    from scipy.special import xlogy

    def integrand(x):
        phi = _biawgn_density(np.asarray(x), s)
        return -xlogy(phi, phi) / math.log(2.0)

    halfwidth = 1.0 + 40.0 / math.sqrt(s)
    h, _err = quad(
        integrand,
        -halfwidth,
        halfwidth,
        points=[-1.0, 0.0, 1.0],
        epsabs=1e-10,
        epsrel=1e-10,
        limit=400,
    )
    c = h - 0.5 * math.log2(2.0 * math.pi * math.e) + 0.5 * math.log2(s)
    return min(max(c, 0.0), math.nextafter(1.0, 0.0))


def biawgn_capacity_trapezoid(s: float) -> float:
    """The binary-input AWGN capacity as the documented fixed-node sum.

    Written out on arrays from the docstring of the package's capacity:
    nodes Z = linspace(-40, 40, 801), weights exp(-Z^2/2) from math.exp
    normalised to sum to 1, x = s + sqrt(s) Z, and C ln 2 = s -
    E[log1p(2 sinh^2(x/2))] for s <= 1, ln 2 - E[logaddexp(0, -2x)] above,
    each E an elementwise product and np.sum, never a BLAS dot.  The form
    whose bits tests/golden.json froze; its accuracy is checked against
    biawgn_capacity_mp and the small-s series.
    """
    z = np.linspace(-40.0, 40.0, 801)
    w = np.array([math.exp(-zi * zi / 2.0) for zi in z.tolist()])
    w = w / np.sum(w)
    x = s + math.sqrt(s) * z
    if s <= 1.0:
        c = s - np.sum(w * np.log1p(2.0 * np.sinh(x / 2.0) ** 2))
    else:
        c = math.log(2.0) - np.sum(w * np.logaddexp(0.0, -2.0 * x))
    return min(max(float(c) / math.log(2.0), 0.0), math.nextafter(1.0, 0.0))


def biawgn_capacity_mp(s: float, dps: int = 30) -> float:
    """The binary-input AWGN capacity at SNR s in dps-digit arithmetic.

    With x = s + sqrt(s) Z, Z ~ N(0, 1): C ln 2 = s - E[log1p(2 sinh^2(x/2))]
    for s <= 1 and ln 2 - E[log1p(e^(-2x))] for s > 1.  Z is cut to
    [-12, 12], whose tails weigh below 1e-31; for s > 1 the integrand
    peaks within 1/sqrt(s) of x = 0, where the breakpoints sit.
    """
    import mpmath as mp

    with mp.workdps(dps):
        s = mp.mpf(s)
        r = mp.sqrt(s)
        if s <= 1:
            e = mp.quad(lambda z: mp.log1p(2 * mp.sinh((s + r * z) / 2) ** 2)
                        * mp.npdf(z), [-12, 0, 12])
            return float((s - e) / mp.log(2))
        points = sorted(p for p in {-12, -r - 1, -r, -r + 1, 0, 12}
                        if -12 <= p <= 12)
        e = mp.quad(lambda z: mp.log1p(mp.exp(-2 * (s + r * z)))
                    * mp.npdf(z), points)
        return float((mp.log(2) - e) / mp.log(2))


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


def role_codes(counts) -> np.ndarray:
    """The role code (an index into ROLE_NAMES) of every round of a batch
    laid out in key, decoy and gaussian blocks of `counts` rounds."""
    return np.repeat(np.arange(len(counts), dtype=np.uint8), counts)


def export_batch_rows(batch, path) -> None:
    """batch.csv written one csv-module row at a time.

    The byte-level reference for `cli.export_batch`: the csv module's
    dialect with LF line ends (comma, minimal quoting) and numpy-scalar
    f-strings.  Each row's role comes from the batch's block lengths.
    """
    roles = role_codes(batch.counts)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(BATCH_HEADER)
        for i in range(batch.n_rounds):
            w.writerow(
                (
                    i,
                    ROLE_NAMES[roles[i]],
                    f"{batch.alice_x[i]:.17g}",
                    f"{batch.alice_p[i]:.17g}",
                    f"{batch.bob_x[i]:.17g}",
                    f"{batch.bob_p[i]:.17g}",
                )
            )


def toeplitz_bits(seed, length: int) -> np.ndarray:
    """The Toeplitz diagonal of `finitekey.universal_hash`: the big-endian
    bits of the raw words of SFC64 on SeedSequence(seed, spawn_key=s), for
    a key (seed, *s) or a plain seed (no s)."""
    seed, spawn = (seed[0], seed[1:]) if isinstance(seed, tuple) else (seed, ())
    words = np.random.SFC64(np.random.SeedSequence(
        seed, spawn_key=spawn)).random_raw((length + 63) // 64)
    return np.unpackbits(words.astype(">u8").view(np.uint8))[:length]


def toeplitz_hash_direct(bits, seed, out_len: int) -> np.ndarray:
    """`finitekey.universal_hash` by an exact int64 convolution.

    This was the package's path up to 2^22 input*output bit products; it is
    kept as the reference for its FFT convolution.
    """
    n_in = bits.size
    t = toeplitz_bits(seed, n_in + out_len - 1)
    conv = np.convolve(bits.astype(np.int64), t.astype(np.int64))
    return (conv[n_in - 1 : n_in - 1 + out_len] & 1).astype(np.uint8)


def draw_pair(g, entries: int, size: int, r: float):
    """i.i.d. bivariate-normal entry pairs with correlation r.

    Returns two (size, entries) arrays.  This is the full-vector sampler the
    Monte Carlo validation rows once used; it is kept as the reference for
    the exact Wishart sampler `channel.wishart2`.
    """
    x = g.standard_normal((size, entries))
    w = g.standard_normal((size, entries))
    y = r * x + math.sqrt(1.0 - r * r) * w
    return x, y


def pair_statistics(x, y):
    """Per-row (||x||^2, ||y||^2, <x, y>) of two (size, entries) arrays."""
    return (np.sum(x * x, axis=1), np.sum(y * y, axis=1),
            np.sum(x * y, axis=1))


def pe_statistics(halves) -> tuple:
    """(||X||^2, ||Y||^2, <X, Y>) over both PE halves, as Python floats.

    `halves` holds the interleaved (x, p) vectors x1, y1, x2, y2 of
    `channel.split_pe_sets`.  The inner product is the signed
    sum(ax*bx - ap*bp); each half is summed on its own and the halves are
    then added.  This was `simulate`'s statistic before it drew W; it is
    kept as the reference that the built rows reproduce W.
    """
    def signed_ip(a, b):
        return float(np.sum(a[0::2] * b[0::2]) - np.sum(a[1::2] * b[1::2]))

    norm_x2 = float(np.sum(halves.x1 ** 2) + np.sum(halves.x2 ** 2))
    norm_y2 = float(np.sum(halves.y1 ** 2) + np.sum(halves.y2 ** 2))
    ip_xy = signed_ip(halves.x1, halves.y1) + signed_ip(halves.x2, halves.y2)
    return norm_x2, norm_y2, ip_xy


def box_muller_gaussian_totals(va: float, vb: float, c: float, modes: int,
                               trials: int, seed) -> np.ndarray:
    """(||X||^2, ||Y||^2, <X, S Y>) of `trials` runs of `modes` gaussian
    modes, one row per run.

    Each mode is drawn on its own: two Box-Muller pairs from four Philox
    uniforms, and the per-plane Cholesky factor of the record covariance,
    [[va, c], [c, vb]] in the x plane and [[va, -c], [-c, vb]] in the p
    plane.  This was `simulate`'s gaussian-round generator before it drew
    the three totals as one Wishart matrix; it is kept as the reference
    for that draw.
    """
    def box_muller(u1, u2):
        r = np.sqrt(-2.0 * np.log1p(-u1))
        ang = (2.0 * math.pi) * u2
        return r * np.cos(ang), r * np.sin(ang)

    l11 = math.sqrt(va)
    l21 = c / l11
    l22 = math.sqrt(vb - l21 * l21)
    g = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty((trials, 3))
    for t in range(trials):
        u = g.random((4, modes))
        w1, w2 = box_muller(u[0], u[1])
        w3, w4 = box_muller(u[2], u[3])
        ax, ap = l11 * w1, l11 * w2
        bx, bp = l21 * w1 + l22 * w3, -l21 * w2 + l22 * w4
        out[t] = (ax @ ax + ap @ ap, bx @ bx + bp @ bp, ax @ bx - ap @ bp)
    return out


def layer_pairs(dim: int, layer: int) -> list:
    """The pairs (i, i ^ 2^layer) with i < partner < dim, in increasing i."""
    stride = 1 << layer
    return [(i, i ^ stride) for i in range(dim) if i < i ^ stride < dim]


def rotate_pair_by_pair(layers, v):
    """R v with one scalar update per pair.

    `layers` are the layers of an `OrthogonalTransform`; only their angle
    arrays `cos` and `sin` are read.  The pairs come from `layer_pairs`, so
    this is a reference for the strided views in `rotations.py` that shares
    none of their index arithmetic.
    """
    v = [float(x) for x in v]
    assert len(layers) == (len(v) - 1).bit_length()  # ceil(log2(dim))
    for layer, lay in enumerate(layers):
        pairs = layer_pairs(len(v), layer)
        assert len(pairs) == lay.cos.size == lay.sin.size
        for (i, j), c, s in zip(pairs, lay.cos.tolist(), lay.sin.tolist()):
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
