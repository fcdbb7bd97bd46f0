"""Transfer maps between Schur algebras of different rank and level.

Implements the column-shift eta_m, the rank embedding A -> A-tilde, the
f structure constants of the Hall positive part read off g-tables padded
by a diagonal weight (Lemma 4.4, its rule in _pad_shift and _pad_mu),
and the h constants of the modified algebra obtained by level
stabilization over a number of levels read off sigma(A) and sigma(B).
No table is memoized here.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .affmat import AffMatrix, theta_plus_by_dim, dim_vector
from .schur import g_constants


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


def _pad_shift(a_mat, lam, c_mat):
    """The diagonal lambda + ro(A) - ro(C) that C carries in the g-table
    of A + diag(lambda) under Lemma-4.4 padding; lambda covers C iff it
    is >= 0."""
    return tuple(l + x - y for l, x, y in zip(lam, a_mat.ro(), c_mat.ro()))


def _pad_mu(a_mat, b_mat, lam):
    """The weight mu = lambda + co(A) - ro(B) padding B alongside A +
    diag(lambda); lambda is a valid padding only if mu >= 0."""
    return tuple(l + x - y for l, x, y in zip(lam, a_mat.co(), b_mat.ro()))


def _candidate_lambda(a_mat, b_mat, c_mat):
    """The smallest lambda >= 0 that covers C with mu >= 0, raised by one
    in every part if the Hecke level sum(lambda) + sigma(A) is below 2
    (once is enough: sigma(A) >= 1 here)."""
    zero = (0,) * a_mat.n
    lam = tuple(
        max(0, -s, -m)
        for s, m in zip(
            _pad_shift(a_mat, zero, c_mat), _pad_mu(a_mat, b_mat, zero)
        )
    )
    if sum(lam) + a_mat.sigma() < 2:
        lam = tuple(x + 1 for x in lam)
    return lam


def _f_from_lambda(a_mat, b_mat, lam):
    """Read f_{A,B,C} off the padded g-table for every C the padding
    covers.  Every g-key must match the Lemma-4.4 diagonal pattern for
    some Theta^+ matrix; keys outside the pattern are an error."""
    n = a_mat.n
    mu = _pad_mu(a_mat, b_mat, lam)
    if any(x < 0 for x in mu):
        raise ValueError("padding weight mu has a negative part")
    r = sum(lam) + a_mat.sigma()
    g = g_constants(
        a_mat + AffMatrix.diag(n, lam), b_mat + AffMatrix.diag(n, mu), r
    )
    decoded = {}
    for key, val in g.items():
        c_off = AffMatrix(
            n, {(i, j): a for (i, j), a in key.entries() if i != j}
        )
        shift = _pad_shift(a_mat, lam, c_off)
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


def f_constants(a_mat, b_mat, keys=None, check=True):
    """Structure constants of theta+_A theta+_B in the canonical basis of
    the Hall positive part, recovered by diagonal padding.

    Each candidate C gets the smallest padding weight that covers it,
    and each weight gives one g-table, decoded in full: the table holds
    every C that a weight certifies, absent ones being zero.  The
    candidates are all of Theta^+ at the dimension vector of the
    product, or the given keys, which then only choose the weights.
    With check=True each weight whose level stays within reach is read
    again one step larger and must agree.
    """
    if not (a_mat.is_upper() and b_mat.is_upper()):
        raise ValueError("f-constants require strictly upper matrices")
    if a_mat.n != b_mat.n:
        raise ValueError("mismatched n")
    if a_mat.sigma() == 0 or b_mat.sigma() == 0:
        # theta+ of the zero matrix is the unit of the positive part
        c_mat = b_mat if a_mat.sigma() == 0 else a_mat
        table = {c_mat: LaurentPoly({0: 1})}
        return StructTable("f", a_mat, b_mat, None, table)
    d = tuple(x + y for x, y in zip(dim_vector(a_mat), dim_vector(b_mat)))
    if keys is None:
        candidates = theta_plus_by_dim(a_mat.n, d)
    else:
        candidates = [c for c in keys if c.is_upper() and dim_vector(c) == d]
    lams = {_candidate_lambda(a_mat, b_mat, c_mat) for c_mat in candidates}
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
                if min(_pad_shift(a_mat, lam, c)) >= 0
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
    stripped of their E-multiples; the table is final once two
    consecutive levels r and r + n (stabilization) give the same one.
    Up to min(sigma(A), sigma(B)) + 1 levels past r0 are tried: in
    U(sl_2), E^(a) F^(b) 1_lambda has min(a, b) + 1 terms, and each step
    of n adds at most one.  A table still changing after them raises
    AssertionError.
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
    for _ in range(min(a_mat.sigma(), b_mat.sigma()) + 1):
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
