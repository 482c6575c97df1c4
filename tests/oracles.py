"""Independent brute-force oracles: dense matrix algebra and exhaustive
enumeration only, no imports from the package under test."""

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


def balanced_assignment_loop(m, n, c, rng):
    """Balanced n x m assignment dealt one student at a time: full passes
    over the c-subsets, a cyclic remainder, then random teacher relabeling
    and student order.  Draws from ``rng`` in the library's order."""
    n_subsets = math.comb(m, c)
    full, rest = divmod(n, n_subsets)
    rows = []
    if full:
        subsets = list(itertools.combinations(range(m), c))
        for _ in range(full):
            rows.extend(subsets)
    if rest:
        offset = int(rng.integers(m))
        for i in range(rest):
            rows.append(tuple((offset + i * c + j) % m for j in range(c)))
    relabel = rng.permutation(m)
    order = rng.permutation(n)
    out = np.zeros((n, m))
    for pos, row_idx in enumerate(order):
        out[pos, relabel[list(rows[row_idx])]] = 1.0
    return out


def with_replacement_assignment_loop(m, n, c, rng):
    """n x m counts of c uniform picks per student, added one pick at a time."""
    out = np.zeros((n, m))
    picks = rng.integers(0, m, size=(n, c))
    for j in range(c):
        np.add.at(out, (np.arange(n), picks[:, j]), 1.0)
    return out
