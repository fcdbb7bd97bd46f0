"""n-row-periodic Z x Z matrices with finite support per period.

A matrix A = (a_{i,j}) with a_{i+n,j+n} = a_{i,j} is stored through its
entries on rows 1..n; columns range over all of Z.  These matrices index
the standard and canonical bases of the affine quantum Schur algebra and
(for the strictly-upper ones) the Hall algebra of the cyclic quiver.
"""

from __future__ import annotations

import itertools
from functools import cache


class AffMatrix:
    """Immutable periodic matrix; entries stored as {(i, j): a} with 1 <= i <= n."""

    __slots__ = ("n", "_e", "_hash", "_ro", "_co", "_d")

    def __init__(self, n, entries):
        if n < 1:
            raise ValueError("n must be >= 1")
        e = {}
        for (i, j), a in (entries.items() if isinstance(entries, dict) else entries):
            if not a:
                continue
            s = (i - 1) // n
            key = (i - s * n, j - s * n)
            e[key] = e.get(key, 0) + a
            if not e[key]:
                del e[key]
        self.n = n
        self._e = e
        self._hash = self._ro = self._co = self._d = None

    @staticmethod
    def diag(n, parts):
        """diag(lambda) for an n-tuple of diagonal values."""
        return AffMatrix(n, {(i + 1, i + 1): parts[i] for i in range(n)})

    @staticmethod
    def identity_e(n):
        """E = (delta_{i,j}), the periodic identity matrix."""
        return AffMatrix.diag(n, (1,) * n)

    def entry(self, i, j):
        s = (i - 1) // self.n
        return self._e.get((i - s * self.n, j - s * self.n), 0)

    def entries(self):
        """Sorted ((i, j), a) pairs with 1 <= i <= n."""
        return sorted(self._e.items())

    def sigma(self):
        """Total of one period of entries."""
        return sum(self._e.values())

    def ro(self):
        """Row sums as an n-tuple (indices 1..n)."""
        if self._ro is None:
            out = [0] * self.n
            for (i, _), a in self._e.items():
                out[i - 1] += a
            self._ro = tuple(out)
        return self._ro

    def co(self):
        """Column sums as an n-tuple (column residues 1..n)."""
        if self._co is None:
            out = [0] * self.n
            for (_, j), a in self._e.items():
                out[(j - 1) % self.n] += a
            self._co = tuple(out)
        return self._co

    def is_nonnegative(self):
        return all(a >= 0 for a in self._e.values())

    def is_upper(self):
        """Membership in Theta^+ (zero at and below the diagonal)."""
        return all(i < j for (i, j) in self._e)

    def zero_diagonal(self):
        return all(i != j for (i, j) in self._e)

    def transpose(self):
        return AffMatrix(self.n, {(j, i): a for (i, j), a in self._e.items()})

    def col_shift(self, t):
        """Shift all columns by t (entries (i, j) -> (i, j + t))."""
        return AffMatrix(self.n, {(i, j + t): a for (i, j), a in self._e.items()})

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched n")
        return AffMatrix(self.n, [*self._e.items(), *other._e.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, m):
        return AffMatrix(self.n, {k: m * a for k, a in self._e.items()})

    def __eq__(self, other):
        if not isinstance(other, AffMatrix):
            return NotImplemented
        return self.n == other.n and self._e == other._e

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(sorted(self._e.items()))))
        return self._hash

    def __repr__(self):
        return "AffMatrix(%d, %s)" % (self.n, dict(sorted(self._e.items())))

    def col_span(self):
        """(min, max) column index over stored entries, or None if empty."""
        if not self._e:
            return None
        cols = [j for (_, j) in self._e]
        return min(cols), max(cols)

    def d_exponent(self):
        """The exponent d_A = sum over i >= k, j < l of a_{i,j} a_{k,l}.

        The inner (k, l) runs over all periodic shifts of the stored
        entries; for each pair of stored entries the number of valid
        shifts has a closed form.
        """
        if self._d is None:
            d = 0
            n = self.n
            for (i, j), a in self._e.items():
                for (k0, l0), b in self._e.items():
                    # shifts s with k0 + s*n <= i and l0 + s*n > j
                    hi = (i - k0) // n
                    lo = -((l0 - j - 1) // n)  # smallest s with l0 + s*n >= j + 1
                    if hi >= lo:
                        d += a * b * (hi - lo + 1)
            self._d = d
        return self._d

    def sigma_ij(self, i, j):
        """sigma_{i,j}(A): corner sum above-right (i < j) or below-left (i > j)."""
        if i == j:
            raise ValueError("sigma_ij requires i != j")
        n = self.n
        total = 0
        for (s0, t0), a in self._e.items():
            if i < j:
                # shifts u with s0 + u*n <= i and t0 + u*n >= j
                hi = (i - s0) // n
                lo = -((t0 - j) // n)
                if hi >= lo:
                    total += a * (hi - lo + 1)
            else:
                # shifts u with s0 + u*n >= i and t0 + u*n <= j
                hi = (j - t0) // n
                lo = -((s0 - i) // n)
                if hi >= lo:
                    total += a * (hi - lo + 1)
        return total

    def is_aperiodic(self):
        """No diagonal l != 0 has a_{i,i+l} != 0 for every row i."""
        diags = {}
        for (i, j), a in self._e.items():
            l = j - i
            if l != 0 and a:
                diags.setdefault(l, set()).add(i)
        return all(len(rows) < self.n for rows in diags.values())

    def to_json(self):
        return {"n": self.n, "entries": [[i, j, a] for (i, j), a in self.entries()]}

    @staticmethod
    def from_json(data):
        return AffMatrix(data["n"], {(i, j): a for i, j, a in data["entries"]})


def _spread(*mats):
    s = 0
    for m in mats:
        span = m.col_span()
        if span is not None:
            s = max(s, abs(span[0] - 1), abs(span[1] - m.n))
    return s


def preceq(b, a):
    """The order B <= A given by sigma_{i,j}(B) <= sigma_{i,j}(A) for all i != j."""
    if b.n != a.n:
        raise ValueError("mismatched n")
    n = a.n
    w = _spread(a, b) + n + 1
    for i in range(1, n + 1):
        for j in range(i - w, i + w + 1):
            if j == i:
                continue
            if b.sigma_ij(i, j) > a.sigma_ij(i, j):
                return False
    return True


def sqsubseteq(b, a):
    """B <= A with equal row and column sums."""
    return b.ro() == a.ro() and b.co() == a.co() and preceq(b, a)


def dim_vector(a):
    """Dimension vector of the module M(A) attached to A in Theta^+.

    Each entry a_{i,j} (i < j) contributes a_{i,j} to the residues of
    i, i+1, ..., j-1.
    """
    if not a.is_upper():
        raise ValueError("dimension vector requires a strictly upper matrix")
    n = a.n
    d = [0] * n
    for (i, j), m in a.entries():
        for t in range(i, j):
            d[(t - 1) % n] += m
    return tuple(d)


@cache
def _theta_plus_by_dim_cached(n, dvec):
    """All Theta^+ matrices with the given dimension vector, as a tuple.

    Enumerated by assigning multiplicities to segments (i, length) in a
    fixed order; segment lengths are bounded by the total dimension.
    """
    total = sum(dvec)
    segs = [(i, ln) for ln in range(1, total + 1) for i in range(1, n + 1)]

    def seg_dim(i, ln):
        d = [0] * n
        for t in range(i, i + ln):
            d[(t - 1) % n] += 1
        return tuple(d)

    out = []

    def rec(idx, remaining, chosen):
        if all(x == 0 for x in remaining):
            out.append(AffMatrix(n, {(i, i + ln): m for (i, ln), m in chosen}))
            return
        if idx == len(segs):
            return
        i, ln = segs[idx]
        sd = seg_dim(i, ln)
        max_m = min(
            (rem // d if d else total) for rem, d in zip(remaining, sd) if d
        ) if any(sd) else 0
        for m in range(max_m, -1, -1):
            new_rem = tuple(r - m * d for r, d in zip(remaining, sd))
            rec(idx + 1, new_rem, chosen + [((i, ln), m)] if m else chosen)

    rec(0, tuple(dvec), [])
    return tuple(out)


def theta_plus_by_dim(n, dvec):
    """List of all A in Theta^+(n) with dim_vector(A) == dvec."""
    return list(_theta_plus_by_dim_cached(n, tuple(dvec)))


def enumerate_theta_band(n, r, band=1):
    """All A in Theta(n, r) supported on |j - i| <= band.

    Theta(n, r) itself is infinite (columns are unbounded); this is the
    finite truncation used by the enumeration-style verification suites.
    """
    positions = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i - band, i + band + 1)
    ]
    out = []
    for combo in itertools.combinations_with_replacement(range(len(positions)), r):
        entries = {}
        for idx in combo:
            entries[positions[idx]] = entries.get(positions[idx], 0) + 1
        out.append(AffMatrix(n, entries))
    # combinations of positions with multiplicity give duplicates only if
    # two positions normalize to the same periodic cell; AffMatrix
    # normalization handles that, so dedupe.
    return sorted(set(out), key=lambda m: m.entries())


def compositions(n, total):
    """All n-tuples of nonnegative integers summing to total, lex order."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(n - 1, total - first):
            out.append((first,) + rest)
    return out
