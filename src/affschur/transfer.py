"""Transfer maps between Schur algebras of different rank and level.

Implements the column-shift eta_m, the rank embedding A -> A-tilde with
iota on Schur elements, the f structure constants of the Hall positive
part recovered through diagonal padding, and the h constants of the
modified algebra obtained by level stabilization.
"""

from __future__ import annotations

from functools import cache

from .laurent import LaurentPoly
from .affmat import AffMatrix, theta_plus_by_dim, dim_vector
from .schur import SchurElt, g_constants


def eta(a_mat, m):
    """Column shift: eta_m(A)_{i,j} = a_{i, mn+j}."""
    return a_mat.col_shift(-m * a_mat.n)


def tilde(a_mat, big_n):
    """The embedding Theta(n) -> Theta(N): the window block 1..n x 1..n
    is copied period by period, a_{k, l+mn} landing at (k, l+mN)."""
    n = a_mat.n
    if big_n < n:
        raise ValueError("N must be >= n")
    entries = {}
    for (i, j), a in a_mat.entries():
        l = (j - 1) % n + 1
        m = (j - l) // n
        entries[(i, l + m * big_n)] = a
    return AffMatrix(big_n, entries)


def iota(x, big_n):
    """iota_{n,N}: [A] -> [A-tilde], extended linearly."""
    return SchurElt(
        big_n, x.r, {tilde(a_mat, big_n): c for a_mat, c in x.terms.items()}
    )


def rho_idempotent(mu, m):
    """The matrix J_Delta(mu, rho^{mr}, mu) = eta_m(diag(mu)), with
    r = sigma(mu); its theta is the shifted idempotent multiplying as
    eta_m on the right."""
    return eta(AffMatrix.diag(mu.n, mu.parts), m)


class StructTable:
    """A table of structure constants of one of the three kinds."""

    def __init__(self, kind, a, b, r=None, table=None):
        self.kind = kind  # "f", "g" or "h"
        self.a = a
        self.b = b
        self.r = r
        self.table = {} if table is None else table

    def to_json(self):
        items = sorted(self.table.items(), key=lambda p: p[0].entries())
        data = {
            "kind": self.kind,
            "A": self.a.to_json(),
            "B": self.b.to_json(),
            "entries": [[c.to_json(), v.to_json()] for c, v in items],
        }
        if self.r is not None:
            data["r"] = self.r
        return data


def _tuple_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _candidate_lambda(a_mat, b_mat, c_mat):
    """The smallest lambda >= 0 making Lemma-4.4 padding valid for this
    candidate C: lambda + ro(A) - ro(C) >= 0 and mu = lambda + co(A) -
    ro(B) >= 0 componentwise, raised until the Hecke level sum(lambda) +
    sigma(A) is at least 2."""
    ro_a, co_a, ro_b = a_mat.ro(), a_mat.co(), b_mat.ro()
    ro_c = c_mat.ro()
    lam = tuple(
        max(0, ro_b[i] - co_a[i], ro_c[i] - ro_a[i])
        for i in range(a_mat.n)
    )
    while sum(lam) + a_mat.sigma() < 2:
        lam = tuple(x + 1 for x in lam)
    return lam


def _f_from_lambda(a_mat, b_mat, lam):
    """Read f_{A,B,C} off the padded g-table for every C the padding
    covers.  Every g-key must match the Lemma-4.4 diagonal pattern for
    some Theta^+ matrix; keys outside the pattern are an error."""
    n = a_mat.n
    mu = _tuple_add(lam, a_mat.co())
    mu = tuple(x - y for x, y in zip(mu, b_mat.ro()))
    if any(x < 0 for x in mu):
        raise ValueError("padding weight mu has a negative part")
    r = sum(lam) + a_mat.sigma()
    a_pad = a_mat + AffMatrix.diag(n, lam)
    b_pad = b_mat + AffMatrix.diag(n, mu)
    g = g_constants(a_pad, b_pad, r)
    ro_a = a_mat.ro()
    decoded = {}
    for key, val in g.items():
        c_off = AffMatrix(
            n, {(i, j): a for (i, j), a in key.entries() if i != j}
        )
        shift = tuple(
            l + x - y for l, x, y in zip(lam, ro_a, c_off.ro())
        )
        if not c_off.is_upper() or key != c_off + AffMatrix.diag(n, shift):
            raise AssertionError(
                "padded g-key outside the Lemma-4.4 pattern: %r" % key
            )
        if val:
            decoded[c_off] = val
    return decoded


# rechecking a weight means one more g-table at a level one higher; past
# this level the KL recursion dominates everything else in a run
_F_RECHECK_LEVEL_CAP = 6
_H_MAX_TRIES = 3  # levels h_constants tries before giving up


def f_constants(a_mat, b_mat, keys=None, check=True):
    """Structure constants of theta+_A theta+_B in the canonical basis of
    the Hall positive part, recovered by diagonal padding.

    Each candidate C gets the smallest padding weight that covers it,
    and each weight gives one g-table, decoded in full: the table holds
    every C that a weight certifies, absent ones being zero.  The
    candidates are all of Theta^+ at the dimension vector of the
    product, or the given keys, which then only choose the weights.
    With check=True each weight whose level stays within reach is read
    again one step larger and must agree.  Only the full checked table
    is memoized.
    """
    if not (a_mat.is_upper() and b_mat.is_upper()):
        raise ValueError("f-constants require strictly upper matrices")
    if a_mat.n != b_mat.n:
        raise ValueError("mismatched n")
    if keys is None and check:
        return _full_f_table(a_mat, b_mat)
    return _f_table(a_mat, b_mat, keys, check)


@cache
def _full_f_table(a_mat, b_mat):
    return _f_table(a_mat, b_mat, None, True)


def _f_table(a_mat, b_mat, keys, check):
    if a_mat.sigma() == 0 or b_mat.sigma() == 0:
        # theta+ of the zero matrix is the unit of the positive part
        c_mat = b_mat if a_mat.sigma() == 0 else a_mat
        table = {c_mat: LaurentPoly({0: 1})}
        return StructTable("f", a_mat, b_mat, None, table)
    d = _tuple_add(dim_vector(a_mat), dim_vector(b_mat))
    if keys is None:
        candidates = theta_plus_by_dim(a_mat.n, d)
    else:
        candidates = [c for c in keys if c.is_upper() and dim_vector(c) == d]
    lams = {_candidate_lambda(a_mat, b_mat, c_mat) for c_mat in candidates}
    ro_a = a_mat.ro()

    def covered(lam, c_mat):
        return all(
            l + x - y >= 0 for l, x, y in zip(lam, ro_a, c_mat.ro())
        )

    table = {}
    for lam in sorted(lams):
        part = _f_from_lambda(a_mat, b_mat, lam)
        if check and sum(lam) + 1 + a_mat.sigma() <= _F_RECHECK_LEVEL_CAP:
            # a single-component bump already changes the padded level;
            # bumping every component inflates it by n and is far slower
            bigger = (lam[0] + 1,) + lam[1:]
            # the wider weight covers more candidates; compare on the
            # region the first weight certifies
            part2 = {
                c: val
                for c, val in _f_from_lambda(a_mat, b_mat, bigger).items()
                if covered(lam, c)
            }
            if part != part2:
                raise AssertionError(
                    "f-table depends on the padding weight: %r vs %r"
                    % (part, part2)
                )
        for c_mat, val in part.items():
            if c_mat in table and table[c_mat] != val:
                raise AssertionError(
                    "inconsistent f-value for %r across weights" % c_mat
                )
        table.update(part)
    return StructTable("f", a_mat, b_mat, None, table)


def g_table(a_mat, b_mat, r):
    return StructTable("g", a_mat, b_mat, r, g_constants(a_mat, b_mat, r))


def embed_table(table, m, big_n):
    """{tilde(eta_m(X), N): value} for {X: value}: a table at rank n
    carried to rank N, its keys shifted by m periods first."""
    return {tilde(eta(x_mat, m), big_n): val for x_mat, val in table.items()}


def find_k0(a_mat, b_mat, table):
    """The largest k <= -1 making the shifted triple strictly upper:
    eta_k(A), eta_k(B) and eta_{2k}(X) for every X in the support of
    table, the g-table of A and B.

    eta_m(M) is strictly upper iff mn < delta_M = min(j - i) over the
    entries of M, i.e. m <= floor((delta_M - 1) / n).
    """
    n = a_mat.n

    def top(m_mat):
        return (min(j - i for (i, j), _ in m_mat.entries()) - 1) // n

    bounds = [top(m) for m in (a_mat, b_mat) if m.sigma()]
    bounds += [top(x) // 2 for x in table if x.sigma()]
    return min([-1] + bounds)


def strip_E(c_mat):
    """Write C' = C + mE with m maximal; returns (C, m)."""
    if not c_mat.is_nonnegative():
        raise ValueError("strip_E expects a matrix in Theta")
    m = min(c_mat.entry(i, i) for i in range(1, c_mat.n + 1))
    return c_mat - AffMatrix.identity_e(c_mat.n).scale(m), m


def h_constants(a_mat, b_mat):
    """Structure constants of b_A b_B in the modified algebra.

    Both inputs must be aperiodic with minimal diagonal zero.  The
    product is computed at the smallest admissible level r0 and the keys
    stripped of their E-multiples; the same table must reappear at
    r0 + n (stabilization), else the level is bumped and retried.
    """
    n = a_mat.n
    for m_name, m in (("A", a_mat), ("B", b_mat)):
        if not m.is_aperiodic():
            raise ValueError("%s is not aperiodic" % m_name)
        if strip_E(m)[1] != 0:
            raise ValueError("%s has a nonzero E-multiple" % m_name)
    if a_mat.sigma() % n != b_mat.sigma() % n:
        return StructTable("h", a_mat, b_mat, None, {})
    r0 = max(a_mat.sigma(), b_mat.sigma(), 2)
    if (r0 - a_mat.sigma()) % n:
        r0 += n - (r0 - a_mat.sigma()) % n
    t1 = _h_at_level(a_mat, b_mat, r0)
    for _ in range(_H_MAX_TRIES):
        r0 += n
        t2 = _h_at_level(a_mat, b_mat, r0)
        if t1 is not None and t1 == t2:
            return StructTable("h", a_mat, b_mat, None, t1)
        t1 = t2
    raise AssertionError("h-table failed to stabilize up to level %d" % r0)


def _h_at_level(a_mat, b_mat, r):
    n = a_mat.n
    e_mat = AffMatrix.identity_e(n)
    m1 = (r - a_mat.sigma()) // n
    m2 = (r - b_mat.sigma()) // n
    g = g_constants(a_mat + e_mat.scale(m1), b_mat + e_mat.scale(m2), r)
    table = {}
    for c_pad, val in g.items():
        c_mat, _ = strip_E(c_pad)
        if not c_mat.is_aperiodic():
            return None  # level too small; caller retries higher
        if c_mat in table:
            return None  # two keys collapsed under stripping
        table[c_mat] = val
    return table
