"""Ringel-Hall algebra of the cyclic quiver with n vertices.

Nilpotent representations are direct sums of segment modules M^{i,j}
(top S_i, length j - i), matched with strictly upper periodic matrices
by a_{i,i+len} = multiplicity.  Hall polynomials are recovered from
exhaustive submodule counts over small finite fields by Lagrange
interpolation, once per process and triple (never persisted: a
--cache file holds KL polynomials only).  The number of samples comes
from Riedtmann's degree bound, and triples that the bound or path ranks
prove zero are not counted.  Each product utilde_A utilde_B is checked
once per process against the Riedtmann sum over C, which costs no
counting.  Module types and dim End M(A) are read off the segments.
The zeta comparison replays the same products inside the Schur algebra
through A(0, r).
"""

from __future__ import annotations

from functools import cache
import itertools

from .laurent import IntPoly, poly_interpolate
from .affmat import dim_vector, theta_plus_by_dim


def euler(lam, mu):
    """The Euler form <lam, mu> = sum lam_i mu_i - sum lam_i mu_{i+1}."""
    n = len(lam)
    if len(mu) != n:
        raise ValueError("mismatched lengths")
    return sum(lam[i] * mu[i] for i in range(n)) - sum(
        lam[i] * mu[(i + 1) % n] for i in range(n)
    )


# ---------------------------------------------------------------------------
# small finite fields


def _factor_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError("%d is not a prime power" % q)
            return p, k
    raise ValueError("q must be >= 2")


def _poly_mul_mod(a, b, modpoly, p):
    """Product of coefficient tuples reduced mod (modpoly, p)."""
    k = len(modpoly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce: modpoly is monic of degree k
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            for t in range(k + 1):
                prod[d - k + t] = (prod[d - k + t] - c * modpoly[t]) % p
    return tuple(prod[:k])


class GF:
    """The field with q elements, q a prime power.

    Elements are integers 0..q-1, read base p as coefficient tuples of
    polynomials modulo a fixed monic irreducible of degree k.  Addition,
    multiplication and inverses go through precomputed tables.
    """

    __slots__ = ("q", "p", "k", "add", "mul", "inv", "neg")

    def __init__(self, q):
        p, k = _factor_prime_power(q)
        self.q, self.p, self.k = q, p, k

        def decode(x):
            digits = []
            for _ in range(k):
                digits.append(x % p)
                x //= p
            return tuple(digits)

        def encode(t):
            x = 0
            for d in reversed(t):
                x = x * p + d
            return x

        elems = [decode(x) for x in range(q)]
        self.add = [
            [encode(tuple((a + b) % p for a, b in zip(ea, eb))) for eb in elems]
            for ea in elems
        ]
        self.neg = [encode(tuple((-a) % p for a in ea)) for ea in elems]
        # the first monic modulus of degree k whose table inverts every
        # nonzero element; a reducible one leaves zero divisors
        for tail in itertools.product(range(p), repeat=k):
            modpoly = tail + (1,)
            mul = [
                [encode(_poly_mul_mod(ea, eb, modpoly, p)) for eb in elems]
                for ea in elems
            ]
            inv = [0] + [
                next((y for y in range(1, q) if mul[x][y] == 1), 0)
                for x in range(1, q)
            ]
            if all(inv[1:]):
                break
        else:
            raise AssertionError(
                "no field modulus of degree %d over F_%d" % (k, p)
            )
        self.mul, self.inv = mul, inv


@cache
def gf(q):
    return GF(q)


def _rref(rows, field):
    """Reduced row echelon form; returns (rref rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    add, mul, inv, neg = field.add, field.mul, field.inv, field.neg
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        c = inv[rows[rank][col]]
        rows[rank] = [mul[c][x] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = neg[rows[i][col]]
                rows[i] = [
                    add[x][mul[f][y]] for x, y in zip(rows[i], rows[rank])
                ]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _rank(rows, field):
    return len(_rref(rows, field)[0])


def _mat_apply(mat, vec, field):
    """mat (list of rows) applied to a coordinate vector."""
    add, mul = field.add, field.mul
    out = []
    for row in mat:
        acc = 0
        for a, x in zip(row, vec):
            if a and x:
                acc = add[acc][mul[a][x]]
        out.append(acc)
    return out


def _subspaces(dim, k, field):
    """All k-dimensional subspaces of F_q^dim as RREF basis row-lists."""
    q = field.q
    if k == 0:
        yield []
        return
    for pivots in itertools.combinations(range(dim), k):
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, dim):
                if c not in pivots:
                    # only columns right of this pivot are free in row r
                    free_positions.append((r, c))
        for values in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[0] * dim for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            yield rows


def _subspaces_containing(rows, dim, k, field):
    """All k-dimensional subspaces of F_q^dim that contain the span U of
    rows, each once, as basis row-lists.

    They are U plus the (k - dim U)-dimensional subspaces of V/U, and
    V/U is identified with the coordinates outside the pivot columns of
    rref(U).
    """
    basis, pivots = _rref(rows, field)
    if len(basis) > k:
        return
    free = [c for c in range(dim) if c not in pivots]
    for sub in _subspaces(len(free), k - len(basis), field):
        lifted = []
        for row in sub:
            vec = [0] * dim
            for c, x in zip(free, row):
                vec[c] = x
            lifted.append(vec)
        yield basis + lifted


# ---------------------------------------------------------------------------
# module realization


class ModuleRealization:
    """Explicit vertex spaces and arrow matrices for M(A), A in Theta^+.

    Basis slots at vertex v are ordered by (segment, internal position);
    the arrow at v sends each slot to its successor slot inside its
    segment (integer 0/1 matrices, usable over any field).
    """

    def __init__(self, a_mat):
        n = a_mat.n
        self.n = n
        self.dims = list(dim_vector(a_mat))  # refuses A outside Theta^+
        self.total = sum(self.dims)
        slots = [[] for _ in range(n)]  # per vertex: (seg id, position t)
        seg_id = 0
        for (i, j), m in a_mat.entries():
            for _ in range(m):
                for t in range(i, j):
                    slots[(t - 1) % n].append((seg_id, t))
                seg_id += 1
        index = {key: idx for chain in slots for idx, key in enumerate(chain)}
        # arrows[v]: rows over V_{v+1}, columns over V_v
        self.arrows = []
        for v in range(n):
            w = (v + 1) % n
            mat = [[0] * len(slots[v]) for _ in range(len(slots[w]))]
            for src_idx, (sid, t) in enumerate(slots[v]):
                nxt = index.get((sid, t + 1))
                if nxt is not None:
                    mat[nxt][src_idx] = 1
            self.arrows.append(mat)


def _path_ranks(a_mat, max_len):
    """(dims, ranks) of M(A): ranks[v][l - 1] is the rank of the length-l
    path map out of vertex v, for l = 1..max_len.

    Together they are a complete isomorphism invariant.  A segment
    module's path maps send basis slots to basis slots or to zero (0/1
    partial permutations), so each rank counts the slots at v that lie
    at least l steps above the socle of their segment, over every field.
    """
    n = a_mat.n
    dims = [0] * n
    ranks = [[0] * max_len for _ in range(n)]
    for (i, j), m in a_mat.entries():
        for t in range(i, j):
            v = (t - 1) % n
            dims[v] += m
            for l in range(1, min(j - 1 - t, max_len) + 1):
                ranks[v][l - 1] += m
    return tuple(dims), tuple(tuple(chain) for chain in ranks)


class SizeCapError(ValueError):
    """Total module dimension exceeds the configured enumeration cap."""


def _dim_vectors(a_mat, b_mat, c_mat):
    """d(A), d(B), d(C), once A, B and C share n and d(C) = d(A) + d(B)."""
    if not a_mat.n == b_mat.n == c_mat.n:
        raise ValueError("A, B and C differ in n")
    da, db, dc = (dim_vector(m) for m in (a_mat, b_mat, c_mat))
    if tuple(x + y for x, y in zip(da, db)) != dc:
        raise ValueError("d(C) != d(A) + d(B)")
    return da, db, dc


def _longest_segment(a_mat):
    return max((j - i for (i, j), _ in a_mat.entries()), default=0)


def hall_count(c_mat, a_mat, b_mat, q, cap_dim=10):
    """phi^C_{A,B}(q): submodules N of M(C) over F_q with N of type B
    and M(C)/N of type A, counted by exhaustive enumeration.

    Types are compared by their path ranks.  A path of length at least
    the longest segment of C kills M(C), and so N and M(C)/N: only the
    shorter lengths are pushed, and a target with a segment longer than
    any of C counts 0 without enumerating.
    """
    db = _dim_vectors(a_mat, b_mat, c_mat)[1]
    field = gf(q)
    mod_c = ModuleRealization(c_mat)
    if mod_c.total > cap_dim:
        raise SizeCapError(
            "total dimension %d exceeds cap %d" % (mod_c.total, cap_dim)
        )
    longest = _longest_segment(c_mat)
    if max(_longest_segment(a_mat), _longest_segment(b_mat)) > longest:
        return 0
    max_len = longest - 1
    target_sub = _path_ranks(b_mat, max_len)[1]
    target_quot = _path_ranks(a_mat, max_len)[1]
    # images[v][l - 1] spans p(V_v) for the length-l path p out of v
    n, arrows = mod_c.n, mod_c.arrows
    images = []
    for v, d in enumerate(mod_c.dims):
        vecs = [[int(r == c) for c in range(d)] for r in range(d)]
        chain = []
        for l in range(1, max_len + 1):
            step = arrows[(v + l - 1) % n]
            vecs = [_mat_apply(step, x, field) for x in vecs]
            vecs = [x for x in vecs if any(x)]
            chain.append(vecs)
        images.append(chain)
    return sum(
        1
        for combo in _submodules(mod_c, db, field)
        if _types_match(mod_c, combo, images, target_sub, target_quot, field)
    )


def _types_match(mod, combo, images, target_sub, target_quot, field):
    """Whether the submodule combo = (S_v) and its quotient have the
    target path ranks, stopping at the first rank that differs.

    The rank of the length-l path p out of v is dim p(S_v) on S, and
    dim (p(V_v) + S_w) / S_w on the quotient, w = v + l; each S_w is
    given by a basis.
    """
    n, arrows = mod.n, mod.arrows
    for v, want in enumerate(target_sub):
        vecs = combo[v]
        for l, rank in enumerate(want, 1):
            step = arrows[(v + l - 1) % n]
            vecs = _rref([_mat_apply(step, x, field) for x in vecs], field)[0]
            if len(vecs) != rank:
                return False
    for v, want in enumerate(target_quot):
        for l, rank in enumerate(want, 1):
            s_w = combo[(v + l) % n]
            if _rank(images[v][l - 1] + s_w, field) - len(s_w) != rank:
                return False
    return True


def _submodules(mod, dvec, field):
    """Every subrepresentation of mod with dimension vector dvec, once
    each, as a tuple (S_0, ..., S_{n-1}) of basis row-lists.

    S_0 is free, each S_{v+1} runs over the subspaces of V_{v+1} that
    contain x_v(S_v), and the wrap x_{n-1}(S_{n-1}) in S_0 is checked
    last.
    """
    n, arrows = mod.n, mod.arrows

    def image(v, basis):
        return [_mat_apply(arrows[v], b, field) for b in basis]

    def extend(combo):
        v = len(combo) - 1
        if v == n - 1:
            s_0 = combo[0]
            if _rank(s_0 + image(v, combo[v]), field) == len(s_0):
                yield tuple(combo)
            return
        for s in _subspaces_containing(
            image(v, combo[v]), mod.dims[v + 1], dvec[v + 1], field
        ):
            yield from extend(combo + [s])

    for s_0 in _subspaces(mod.dims[0], dvec[0], field):
        yield from extend([s_0])


_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]


def _ranks_forbid(a_mat, b_mat, c_mat, max_len):
    """True when some path rank of M(C) is below the sum of the same
    ranks of M(B) and M(A), so that phi^C_{A,B} = 0.

    For an exact sequence 0 -> N -> M -> M/N -> 0 and a path map p, p(N)
    lies in N, so dim p(M) = dim p(N) + dim p(M)/p(N) >= dim p(N) +
    dim p(M)/(p(M) & N) = dim p(N) + dim pbar(M/N).  Segment modules have
    0/1 path maps, so the ranks are the same over every field.  The test
    is necessary, not sufficient: a triple that passes may still be zero.
    """
    ranks_a, ranks_b, ranks_c = (
        _path_ranks(m, max_len)[1] for m in (a_mat, b_mat, c_mat)
    )
    return any(
        z < x + y
        for row in zip(ranks_a, ranks_b, ranks_c)
        for x, y, z in zip(*row)
    )


def _degree_bound(a_mat, b_mat, c_mat):
    """min(beta, sum_i d(B)_i d(A)_i), a bound on deg phi^C_{A,B} that is
    negative exactly when beta is, and then phi^C_{A,B} = 0.

    beta = -<d(A), d(B)> + eps_C - eps_A - eps_B with eps =
    utilde_exponent: by Riedtmann's formula (Lie algebras generated by
    indecomposables, 1994) phi = |Ext^1(A, B)_C| |Aut C| / (|Aut A|
    |Aut B| |Hom(A, B)|), the category is hereditary, so dim Ext^1 -
    dim Hom = -<d(A), d(B)>, and |Aut X| has degree dim End X.  The
    second bound holds because the submodules lie in a product of
    Grassmannians of that dimension.
    """
    da, db, dc = _dim_vectors(a_mat, b_mat, c_mat)
    beta = (
        -euler(da, db)
        + utilde_exponent(c_mat)
        - utilde_exponent(a_mat)
        - utilde_exponent(b_mat)
    )
    return min(beta, sum(x * y for x, y in zip(db, da)))


def hall_poly(a_mat, b_mat, c_mat, cap_dim=10):
    """The Hall polynomial phi^C_{A,B} in q, by interpolation.

    It is sampled at _degree_bound + 1 prime powers: the smaller of
    Riedtmann's bound beta and sum_i d(B)_i d(A)_i.  A triple with
    beta < 0, or one that _ranks_forbid rules out, is zero without
    counting.  Every sampled count must be reproduced by the
    interpolant; hall_mult_utilde checks each whole product against
    the Riedtmann sum.  The total-dimension cap is checked before the
    per-process memo is read, so a smaller cap_dim still refuses a
    triple that is already known.
    """
    total = sum(_dim_vectors(a_mat, b_mat, c_mat)[2])
    if total > cap_dim:
        raise SizeCapError(
            "total dimension %d exceeds cap %d" % (total, cap_dim)
        )
    return _hall_poly(a_mat, b_mat, c_mat)


@cache
def _hall_poly(a_mat, b_mat, c_mat):
    """hall_poly once its total-dimension cap is checked."""
    bound = _degree_bound(a_mat, b_mat, c_mat)
    total = sum(dim_vector(c_mat))
    if bound < 0 or _ranks_forbid(a_mat, b_mat, c_mat, total):
        return IntPoly(())
    if bound + 1 > len(_PRIME_POWERS):
        raise SizeCapError("degree bound %d too large to sample" % bound)
    samples = [
        (q, hall_count(c_mat, a_mat, b_mat, q, cap_dim=total))
        for q in _PRIME_POWERS[: bound + 1]
    ]
    return poly_interpolate(samples, bound)


@cache
def utilde_exponent(a_mat):
    """dim End(M(A)) - dim M(A), in closed form.

    A map out of the segment module M^{i,j} is fixed by where it sends
    the top, any vector x of N at vertex v = i - 1 (mod n) that the path
    map p of length j - i kills; so dim Hom(M^{i,j}, N) = dim N_v -
    rank p (Ringel, The composition algebra of a cyclic quiver, 1993),
    and dim End M(A) sums it over the segments of A, with N = M(A).
    """
    n = a_mat.n
    dims, ranks = _path_ranks(a_mat, sum(dim_vector(a_mat)))
    end = sum(
        m * (dims[(i - 1) % n] - ranks[(i - 1) % n][j - i - 1])
        for (i, j), m in a_mat.entries()
    )
    return end - sum(dims)


# an integer above every sampled prime power; both sides of the Riedtmann
# sum are rational functions of q, so it need not be a prime power
_RIEDTMANN_Q = 64


def _aut_order(x_mat, q):
    """|Aut M(X)| = q^(dim End - sum_s m_s^2) prod_s |GL_{m_s}(F_q)|, with
    m_s the multiplicity of segment s: End M(X) modulo its radical is
    the product of the matrix rings M_{m_s}(F_q)."""
    mults = [m for _, m in x_mat.entries()]
    end = utilde_exponent(x_mat) + sum(dim_vector(x_mat))
    order = q ** (end - sum(m * m for m in mults))
    for m in mults:
        for i in range(m):
            order *= q**m - q**i
    return order


@cache
def _check_riedtmann_sum(a_mat, b_mat):
    """Raise AssertionError unless sum_C phi^C_{A,B}(q) |Aut A| |Aut B| /
    |Aut C| = q^(-<d(A), d(B)>) at q = _RIEDTMANN_Q.

    By Riedtmann's formula the C-term is |Ext^1(A, B)_C| / |Hom(A, B)|,
    and the extension classes of A by B sum to |Ext^1(A, B)|.  Every
    phi^C_{A,B} must already have passed hall_poly's caps.
    """
    from fractions import Fraction

    q = _RIEDTMANN_Q
    da, db = dim_vector(a_mat), dim_vector(b_mat)
    d = tuple(x + y for x, y in zip(da, db))
    terms = sum(
        Fraction(
            _hall_poly(a_mat, b_mat, c_mat).evaluate(q), _aut_order(c_mat, q)
        )
        for c_mat in theta_plus_by_dim(a_mat.n, d)
    )
    terms *= _aut_order(a_mat, q) * _aut_order(b_mat, q)
    if terms != Fraction(q) ** -euler(da, db):
        raise AssertionError(
            "Hall polynomials of A = %s, B = %s fail the Riedtmann sum"
            % (a_mat, b_mat)
        )


def hall_mult_utilde(a_mat, b_mat, cap_dim=10):
    """The product utilde^+_A utilde^+_B expanded in the utilde basis.

    Coefficient of C: v^{<d(A), d(B)> + eps_A + eps_B - eps_C} phi(v^2).
    The Hall polynomials are checked against the Riedtmann sum once per
    (A, B) and process.
    """
    if a_mat.n != b_mat.n:
        raise ValueError("mismatched n")
    n = a_mat.n
    da, db = dim_vector(a_mat), dim_vector(b_mat)
    e_pair = euler(da, db)
    eps_a = utilde_exponent(a_mat)
    eps_b = utilde_exponent(b_mat)
    out = {}
    for c_mat in theta_plus_by_dim(n, tuple(x + y for x, y in zip(da, db))):
        phi = hall_poly(a_mat, b_mat, c_mat, cap_dim=cap_dim)
        if phi.is_zero():
            continue
        eps_c = utilde_exponent(c_mat)
        out[c_mat] = phi.to_laurent().shift(e_pair + eps_a + eps_b - eps_c)
    _check_riedtmann_sum(a_mat, b_mat)
    return out


def zeta_check(a_mat, b_mat, r, cap_dim=10):
    """Cross-engine bridge: does zeta_r(utilde_A utilde_B) computed in the
    Hall algebra match A(0,r) B(0,r) computed in the Schur algebra?"""
    from .schur import SchurElt, mult as schur_mult, a_block

    n = a_mat.n
    j0 = (0,) * n
    lhs = schur_mult(a_block(a_mat, j0, r), a_block(b_mat, j0, r))
    rhs = SchurElt.zero(n, r)
    for c_mat, coeff in hall_mult_utilde(a_mat, b_mat, cap_dim=cap_dim).items():
        rhs.add_scaled(a_block(c_mat, j0, r), coeff)
    return lhs == rhs
