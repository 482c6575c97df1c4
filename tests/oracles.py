"""Independent brute-force oracles: dense matrix algebra, exhaustive
enumeration and loops over the documented stream layout only, no imports
from the package under test."""

import itertools
import math

import numpy as np


def teacher_cov(m, sigma_v2, sigma_eps2):
    return sigma_v2 * np.ones((m, m)) + sigma_eps2 * np.eye(m)


def student_cov(d, sigma_s2, sigma_t2, sigma_eta2):
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    return sigma_s2 * np.ones((n, n)) + sigma_t2 * d @ d.T + sigma_eta2 * np.eye(n)


def subset_uniform_assignment(m, c, n):
    """Deterministic balanced 0/1 assignment: every c-subset of teachers
    repeated n // C(m, c) times, then a cyclic remainder block.  Exactly
    pairwise-balanced whenever C(m, c) divides n."""
    n_subsets = math.comb(m, c)
    full, rest = divmod(n, n_subsets)
    rows = []
    if full:
        for _ in range(full):
            rows.extend(itertools.combinations(range(m), c))
    for i in range(rest):
        rows.append(tuple((i * c + j) % m for j in range(c)))
    out = np.zeros((n, m))
    for k, subset in enumerate(rows):
        out[k, list(subset)] = 1.0
    return out


def single_course_assignment(m, n):
    out = np.zeros((n, m))
    out[np.arange(n), np.arange(n) % m] = 1.0
    return out


def dense_info(xs, covs):
    """sum X_i' V_i^-1 X_i by dense solve."""
    p = xs[0].shape[1]
    info = np.zeros((p, p))
    for x, v in zip(xs, covs):
        info += x.T @ np.linalg.solve(v, x)
    return info


def dense_student_info(xs, ds, covs):
    """sum X_i' D_i' Sigma_i^-1 D_i X_i by dense solve."""
    mats = [d @ x for d, x in zip(ds, xs)]
    return dense_info(mats, covs)


def design_cov_r(name, m, a):
    """Per-school Cov(R_i) of each design for homogeneous m."""
    eye, ones = np.eye(m), np.ones((m, m))
    if name == "randomize_schools":
        return ones
    if name == "within_schools":
        return (m * eye - ones) / (m - 1)
    if name == "crd":
        return (m * a * eye - ones) / (m * a - 1)
    raise ValueError(name)


def dense_expected_student_info(name, ds, covs):
    """sum_i tr(D_i' Sigma_i^-1 D_i Cov(R_i)) by dense inversion."""
    a = len(ds)
    m = ds[0].shape[1]
    cov_r = design_cov_r(name, m, a)
    total = 0.0
    for d, v in zip(ds, covs):
        g = d.T @ np.linalg.solve(v, d)
        total += np.trace(g @ cov_r)
    return total


def enumerate_randomizations(name, m, a):
    """Yield every admissible realization as a tuple of per-school +-1 arrays."""
    if name == "randomize_schools":
        for treated in itertools.combinations(range(a), a // 2):
            yield tuple(
                np.full(m, 1.0 if i in treated else -1.0) for i in range(a)
            )
    elif name == "within_schools":
        school_patterns = []
        for treated in itertools.combinations(range(m), m // 2):
            r = -np.ones(m)
            r[list(treated)] = 1.0
            school_patterns.append(r)
        for combo in itertools.product(school_patterns, repeat=a):
            yield combo
    elif name == "crd":
        total = m * a
        for treated in itertools.combinations(range(total), total // 2):
            pooled = -np.ones(total)
            pooled[list(treated)] = 1.0
            yield tuple(pooled[i * m : (i + 1) * m] for i in range(a))
    else:
        raise ValueError(name)


def contaminated_moment_matrix_numeric(g, q):
    """E[X' G X] for X = [1 R C] under within-school randomization, assembled
    entrywise from the closed moments of (R, C); the inverse is taken
    numerically."""
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    ones = np.ones((m, m))
    cov_r = (m * np.eye(m) - ones) / (m - 1)
    e_c = q / 2.0 * np.ones(m)
    # E[C C'] has off-diagonal q^2 (1 + cov_r)/4 and diagonal q/2
    cc = q**2 / 4.0 * (ones + cov_r) + q * (1 - q) / 2.0 * np.eye(m)
    one = np.ones(m)
    e = np.array(
        [
            [one @ g @ one, 0.0, one @ g @ e_c],
            [0.0, np.trace(g @ cov_r), -q / 2.0 * np.trace(g @ cov_r)],
            [one @ g @ e_c, -q / 2.0 * np.trace(g @ cov_r), np.trace(g @ cc)],
        ]
    )
    return e


def contaminated_treatment_entry_numeric(g, q):
    e = contaminated_moment_matrix_numeric(g, q)
    if q == 0.0:
        return 1.0 / e[1, 1]
    return float(np.linalg.inv(e)[1, 1])


def exact_teacher_distribution(a, m, vc):
    """The exact distribution of crd's teacher-level anticipated variance at
    q = 0 for a schools of m teachers, as (support, probabilities), the
    support ascending.  The precision is compound-symmetric, so with
    T_i = sum_j r_ij and sum T_i = 0 the information's treatment entry is
    a m / sigma_eps2 - S (1/(m sigma_eps2) - t_J/m^2), S = sum T_i^2,
    t_J = m / (sigma_eps2 + m sigma_v2), and its other off-diagonal is 0.  A
    dynamic program over schools counts the treated sets of each
    (treated so far, S so far), a school with k treated in C(m, k) ways;
    the a m / 2 treated of crd pick one of C(a m, a m / 2) sets uniformly."""
    half = a * m // 2
    counts = {(0, 0): 1}
    for _ in range(a):
        grown = {}
        for (treated, s), ways in counts.items():
            for k in range(min(m, half - treated) + 1):
                key = (treated + k, s + (2 * k - m) ** 2)
                grown[key] = grown.get(key, 0) + ways * math.comb(m, k)
        counts = grown
    ways = {s: w for (treated, s), w in counts.items() if treated == half}
    total = sum(ways.values())  # C(a m, a m / 2)
    s = np.array(sorted(ways), dtype=float)
    t_j = m / (vc.sigma_eps2 + m * vc.sigma_v2)
    info = a * m / vc.sigma_eps2 - s * (1.0 / (m * vc.sigma_eps2) - t_j / m**2)
    return 1.0 / info, np.array([ways[k] / total for k in sorted(ways)])


def balanced_assignment_loop(m, n, c, rng):
    """Balanced n x m assignment dealt one student at a time: full passes
    over the c-subsets, a cyclic remainder, then teacher relabeling and
    student order sorted by one uniform key each (Python's stable sort).
    Takes its m + n uniforms from ``rng`` in the library's order."""
    u = rng.random(m + n)
    n_subsets = math.comb(m, c)
    full, rest = divmod(n, n_subsets)
    rows = []
    if full:
        subsets = list(itertools.combinations(range(m), c))
        for _ in range(full):
            rows.extend(subsets)
    for i in range(rest):
        rows.append(tuple((i * c + j) % m for j in range(c)))
    relabel = sorted(range(m), key=lambda t: u[t])
    order = sorted(range(n), key=lambda s: u[m + s])
    out = np.zeros((n, m))
    for pos, row_idx in enumerate(order):
        out[pos, [relabel[t] for t in rows[row_idx]]] = 1.0
    return out


def with_replacement_assignment_loop(m, n, c, rng):
    """n x m counts of c uniform picks floor(u m) per student, added one pick
    at a time from the student's c consecutive uniforms."""
    out = np.zeros((n, m))
    u = rng.random((n, c))
    for s in range(n):
        for j in range(c):
            out[s, int(u[s, j] * m)] += 1.0
    return out


def box_muller_normals(rng, k):
    """k standard normals from 2 ceil(k/2) uniforms of ``rng``, taken in
    pairs (u1, u2): sqrt(-2 log(1 - u1)) cos(2 pi u2), then the same radius
    times sin(2 pi u2); an odd k drops the last sine."""
    u = rng.random(k + k % 2)
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.empty(u.size)
    z[0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z[:k]


def generate_teacher_responses(xs, vc, beta, rng):
    """T_i = X_i beta + 1 v_i + eps_i per school, from one block of normals
    laid out school by school: v_i, then the school's m_i eps_ij."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    z = box_muller_normals(rng, sum(len(x) + 1 for x in xs))
    out, k = [], 0
    for x in xs:
        m = len(x)
        v, eps = z[k], z[k + 1 : k + 1 + m]
        out.append(x @ beta + math.sqrt(vc.sigma_v2) * v + math.sqrt(vc.sigma_eps2) * eps)
        k += m + 1
    return out


def generate_student_responses(xs, ds, vc, theta, rng):
    """Y_i = D_i (X_i theta + t_i) + 1 s_i + eta_i per school, from one block
    of normals laid out school by school: the school's m_i t_ij, s_i, then
    its n_i eta_is."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    ds = [np.asarray(d, dtype=float) for d in ds]
    z = box_muller_normals(rng, sum(len(x) + 1 + len(d) for x, d in zip(xs, ds)))
    out, k = [], 0
    for x, d in zip(xs, ds):
        m, n = len(x), len(d)
        t, s, eta = z[k : k + m], z[k + m], z[k + m + 1 : k + m + 1 + n]
        teacher = x @ theta + math.sqrt(vc.sigma_t2) * t
        out.append(d @ teacher + math.sqrt(vc.sigma_s2) * s + math.sqrt(vc.sigma_eta2) * eta)
        k += m + 1 + n
    return out
