"""The extended affine symmetric group of period r.

Elements are r-periodic permutations of Z stored by their window
(w(1), ..., w(r)).  The group splits as <rho> x| W_r where rho is the
shift j -> j+1 and W_r is the affine Weyl group generated by s_1..s_r.
This module supplies composition, the generator steps, length, Bruhat
order, double cosets by a generator walk, and the bijection with
periodic matrices.
"""

from __future__ import annotations

from functools import cache
import math

from .affmat import AffMatrix


class AffPerm:
    """Window representation of an r-periodic permutation of Z."""

    __slots__ = ("window", "_hash", "_len", "_inv")

    def __init__(self, window):
        window = tuple(window)
        r = len(window)
        if r < 1:
            raise ValueError("window must be nonempty")
        if len({x % r for x in window}) != r:
            raise ValueError("window values must be distinct modulo r: %s" % (window,))
        self.window = window
        self._hash = None
        self._len = None
        self._inv = None

    @staticmethod
    def _trusted(window):
        """The element with the given window tuple, unchecked: for windows
        built here from the window of a valid element."""
        w = AffPerm.__new__(AffPerm)
        w.window = window
        w._hash = w._len = w._inv = None
        return w

    @property
    def r(self):
        return len(self.window)

    def apply(self, i):
        """Value w(i) for arbitrary integer i."""
        r = len(self.window)
        s = (i - 1) // r
        return self.window[i - s * r - 1] + s * r

    def inverse(self):
        if self._inv is None:
            r = len(self.window)
            inv = [0] * r
            for i, wi in enumerate(self.window, start=1):
                s = (wi - 1) // r
                inv[wi - s * r - 1] = i - s * r
            self._inv = AffPerm._trusted(tuple(inv))
            self._inv._inv = self
        return self._inv

    def __mul__(self, other):
        """Composition (x * y)(i) = x(y(i))."""
        if len(self.window) != len(other.window):
            raise ValueError("mismatched periods")
        return AffPerm._trusted(tuple(self.apply(v) for v in other.window))

    def __eq__(self, other):
        if not isinstance(other, AffPerm):
            return NotImplemented
        return self.window == other.window

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.window)
        return self._hash

    def __repr__(self):
        return "AffPerm%s" % (self.window,)

    def rho_part(self):
        """The integer a with w in rho^a W_r."""
        r = len(self.window)
        total = sum(self.window) - r * (r + 1) // 2
        if total % r:
            raise AssertionError("window sum not divisible by r")
        return total // r

    def is_identity(self):
        return self.window == tuple(range(1, len(self.window) + 1))

    def length(self):
        """Number of inversions (i, j) with 1 <= i <= r, i < j, w(i) > w(j)."""
        if self._len is None:
            r = len(self.window)
            total = 0
            for i in range(1, r + 1):
                wi = self.window[i - 1]
                for j0 in range(1, r + 1):
                    wj = self.window[j0 - 1]
                    hi = (wi - wj - 1) // r
                    lo = 0 if j0 > i else 1
                    if hi >= lo:
                        total += hi - lo + 1
            self._len = total
        return self._len

    def right_descent(self, i):
        """True iff l(w s_i) < l(w), i.e. w(i) > w(i+1)."""
        return self.apply(i) > self.apply(i + 1)

    def left_mul_simple(self, i):
        """(s_i w, up) in one pass over the window, up iff s_i w > w.

        s_i moves values = i (mod r) up by 1 and values = i+1 down by 1.
        The slot p holding the value = i gives w^-1(i) = p + i - w(p), so
        up is w^-1(i) < w^-1(i+1).  When l(w) is known, s_i w carries
        l(w) + 1 or l(w) - 1, which is exact.
        """
        window = self.window
        r = len(window)
        lo, hi = i % r, (i + 1) % r
        out = []
        for p, m in enumerate(window, start=1):
            res = m % r
            if res == lo:
                inv_lo = p + i - m
                m += 1
            elif res == hi:
                inv_hi = p + i + 1 - m
                m -= 1
            out.append(m)
        up = inv_lo < inv_hi
        sw = AffPerm._trusted(tuple(out))
        if self._len is not None:
            sw._len = self._len + 1 if up else self._len - 1
        return sw, up

    def right_mul_simple(self, i):
        """(w s_i, up) for 1 <= i <= r, up iff w s_i > w, i.e. w(i) < w(i+1).

        w s_i swaps the values at i and i+1; for i = r the value at r+1 is
        w(1) + r, so slot r takes it and slot 1 takes w(r) - r.  When l(w)
        is known, w s_i carries l(w) + 1 or l(w) - 1, which is exact.
        """
        out = list(self.window)
        r = len(out)
        j, wrap = i % r, i // r * r  # the slot of i+1, and r if it wraps
        a, b = out[i - 1], out[j] + wrap
        out[i - 1], out[j] = b, a - wrap
        up = a < b
        ws = AffPerm._trusted(tuple(out))
        if self._len is not None:
            ws._len = self._len + 1 if up else self._len - 1
        return ws, up


def identity(r):
    e = AffPerm(range(1, r + 1))
    e._len = 0
    return e


def rho(r, power=1):
    w = AffPerm(range(1 + power, r + 1 + power))
    w._len = 0
    return w


@cache
def reduced_word(w):
    """A reduced word (list of generator indices 1..r) for w in W_r."""
    if w.rho_part() != 0:
        raise ValueError("reduced words are defined for W_r elements only")
    r = w.r
    word = []
    while not w.is_identity():
        for i in range(1, r + 1):
            if w.right_descent(i):
                w, _ = w.right_mul_simple(i)
                word.append(i)
                break
        else:
            raise AssertionError("non-identity element without right descent")
    word.reverse()
    return word


def strip_rho(w):
    """Write w = rho^a * x with x in W_r; returns (a, x)."""
    a = w.rho_part()
    if a == 0:
        return 0, w
    x = AffPerm._trusted(tuple(v - a for v in w.window))
    return a, x


def bruhat_leq(y, w):
    """Bruhat order on the extended group: rho parts equal and y <= w in W_r."""
    if y.r != w.r:
        raise ValueError("mismatched periods")
    ay, y0 = strip_rho(y)
    aw, w0 = strip_rho(w)
    if ay != aw:
        return False
    return _bruhat_leq_wr(y0, w0)


def _bruhat_leq_wr(y, w):
    if y.length() > w.length():
        return False
    if y == w:
        return True
    return _bruhat_leq_step(y, w)


@cache
def _bruhat_leq_step(y, w):
    """The standard recursion on a right descent s of w."""
    for i in range(1, y.r + 1):
        if w.right_descent(i):
            ws, _ = w.right_mul_simple(i)
            if y.right_descent(i):
                return _bruhat_leq_wr(y.right_mul_simple(i)[0], ws)
            return _bruhat_leq_wr(y, ws)
    return y == w


class Composition:
    """A weight in Lambda(n, r): n nonnegative parts, extended n-periodically."""

    __slots__ = ("n", "parts")

    def __init__(self, parts):
        parts = tuple(parts)
        if any(p < 0 for p in parts):
            raise ValueError("parts must be nonnegative")
        self.n = len(parts)
        self.parts = parts

    def sigma(self):
        return sum(self.parts)

    def block(self, m):
        """The block R^lambda_m of consecutive integers, for any m in Z.

        Writing m = i + kn with 1 <= i <= n, the block starts at
        k*r + lambda_1 + ... + lambda_{i-1} + 1 and has lambda_i elements.
        """
        k = (m - 1) // self.n
        i = m - k * self.n
        r = self.sigma()
        start = k * r + sum(self.parts[: i - 1])
        return list(range(start + 1, start + self.parts[i - 1] + 1))

    def block_indices(self):
        """The index i of the block R^lambda_i holding each of 1..r."""
        return [i for i, p in enumerate(self.parts, start=1) for _ in range(p)]

    def young_generators(self):
        """Indices i with s_i in the Young subgroup (block interiors)."""
        gens = []
        pos = 0
        for p in self.parts:
            gens.extend(range(pos + 1, pos + p))
            pos += p
        return tuple(gens)

    def longest_length(self):
        """Length of the longest element w_{0,lambda}."""
        return sum(p * (p - 1) // 2 for p in self.parts)

    def __eq__(self, other):
        if not isinstance(other, Composition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Composition%s" % (self.parts,)


def _coset_steps(lam, mu):
    """The generators of S_lambda x S_mu acting on w: (step, i) pairs
    with step(w, i) = (s_i w, up) for lambda and (w s_i, up) for mu."""
    steps = [(AffPerm.left_mul_simple, i) for i in lam.young_generators()]
    return steps + [(AffPerm.right_mul_simple, j) for j in mu.young_generators()]


def orbit(w, steps):
    """The set reached from w by steps (step, i), step(x, i) = (y, up),
    a y of None staying put; each step carries l(w) on."""
    w.length()
    seen = {w}
    todo = [w]
    while todo:
        x = todo.pop()
        for step, i in steps:
            y = step(x, i)[0]
            if y is not None and y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@cache
def double_coset(lam, w, mu):
    """The double coset S_lambda w S_mu.

    Returns (d_min, d_plus, elements): the unique shortest and longest
    elements and the full (finite) element set: the orbit of w under
    left lambda-steps and right mu-steps.
    """
    seen = orbit(w, _coset_steps(lam, mu))
    d_min = min(seen, key=lambda x: (x.length(), x.window))
    d_plus = max(seen, key=lambda x: (x.length(), x.window))
    # both extremes are unique in a double coset of Young subgroups
    return d_min, d_plus, frozenset(seen)


def coset_size(a_mat):
    """|S_lambda d S_mu| for (lambda, d, mu) = J_Delta^-1(A): the product
    of ro(A)_i! and co(A)_j! over the product of a_ij! in one period."""
    size = math.prod(map(math.factorial, a_mat.ro() + a_mat.co()))
    return size // math.prod(math.factorial(a) for _, a in a_mat.entries())


def climb(w, steps):
    """Take steps (step, i) that go up from w until none does: in a finite
    coset of parabolic subgroups, this ends at its longest element."""
    while True:
        for step, i in steps:
            x, up = step(w, i)
            if up:
                w = x
                break
        else:
            return w


def coset_longest(lam, w, mu):
    """The longest element of S_lambda w S_mu, the only one with no left
    lambda-ascent and no right mu-ascent."""
    return climb(w, _coset_steps(lam, mu))


def jdelta(lam, w, mu):
    """The matrix A = (|R^lambda_k  intersect  w R^mu_l|) in Theta(n, r),
    one and the same for every w in the double coset S_lambda w S_mu."""
    if mu.sigma() != lam.sigma():
        raise ValueError("sigma(lambda) != sigma(mu)")
    rows, cols = lam.block_indices(), mu.block_indices()
    return cells_matrix(lam.n, jdelta_key(rows, cols, lam.n, w.window))


def jdelta_key(rows, cols, n, window, a=0):
    """The cells of jdelta(lam, rho^a w, mu) for w with the given window,
    one per slot, as a sorted tuple with repeats: a key naming the double
    coset of rho^a w without building its matrix.  rows and cols are
    lam.block_indices() and mu.block_indices().

    Slot p lies in R^mu_l with l = cols[p - 1], and x = w(p) + a lies in
    R^lambda_k with k = rows[(x - 1) mod r] + n * floor((x - 1) / r); the
    cell (k, l) moved into rows 1..n is (rows[(x - 1) mod r],
    l - n * floor((x - 1) / r)).
    """
    r = len(rows)
    b = a - 1
    return tuple(
        sorted((rows[(x + b) % r], l - (x + b) // r * n) for x, l in zip(window, cols))
    )


@cache
def cells_matrix(n, cells):
    """The matrix whose entry at each cell of a jdelta_key is the number
    of times the key holds it: one object per (n, cells), so its hash,
    ro, co and d_exponent are computed once.  The key holds n, as the
    same cells name different matrices at different n."""
    return AffMatrix(n, [(cell, 1) for cell in cells])


@cache
def jdelta_inv(a_mat):
    """Invert the triple bijection: A -> (lambda, d, mu) with jdelta(...) == A.

    d is the shortest element of its double coset: it sends each cell
    (k, l) of A increasingly, in order, from R^mu_l onto R^lambda_k.  A
    stored entry a = a_ij lies in the cell with column residue
    l = (j - 1) mod n + 1 and row k = i + l - j, and maps positions
    src..src+a-1 of R^mu_l onto values dst..dst+a-1 of R^lambda_k, where
    src sums the entries a_i'j' with j' = j (mod n) and i' - j' < i - j
    (the cells above it in its column) and dst the entries a_ij' of row i
    with j' < j (the cells left of it in its row).  Minimality and a
    round trip through jdelta are checked.
    """
    n = a_mat.n
    lam = Composition(a_mat.ro())
    mu = Composition(a_mat.co())
    r = a_mat.sigma()
    if r == 0:
        raise ValueError("zero matrix has no permutation attached")
    cells = a_mat.entries()  # by row, then column
    above, col_sum = {}, [0] * n
    for (i, j), a in sorted(cells, key=lambda c: c[0][0] - c[0][1]):
        above[i, j] = col_sum[(j - 1) % n]
        col_sum[(j - 1) % n] += a
    window, row_sum = [0] * r, [0] * n
    for (i, j), a in cells:
        l = (j - 1) % n + 1
        src, dst = above[i, j], row_sum[i - 1]
        row_sum[i - 1] += a
        srcs = mu.block(l)[src : src + a]
        for p, x in zip(srcs, lam.block(i + l - j)[dst : dst + a]):
            window[p - 1] = x
    d = AffPerm(window)
    # d is minimal in its double coset: every lambda- and mu-step goes up
    minimal = all(step(d, i)[1] for step, i in _coset_steps(lam, mu))
    if not minimal or jdelta(lam, d, mu) != a_mat:
        raise AssertionError("monotone filling failed round-trip for %r" % a_mat)
    return lam, d, mu


def enumerate_wr(r, max_length):
    """All elements of W_r with length <= max_length, grouped by length:
    layer l holds the up steps w s_i of layer l - 1."""
    by_len = [{identity(r)}]
    for _ in range(max_length):
        layer = set()
        for w in by_len[-1]:
            for i in range(1, r + 1):
                ws, up = w.right_mul_simple(i)
                if up:
                    layer.add(ws)
        by_len.append(layer)
    return by_len
