"""Ringel-Hall algebra of the cyclic quiver with n vertices.

Nilpotent representations are direct sums of segment modules M^{i,j}
(top S_i, length j - i), matched with strictly upper periodic matrices
by a_{i,i+len} = multiplicity.  Hall polynomials are recovered from
exhaustive submodule counts over small finite fields by Lagrange
interpolation, once per process and triple; triples that path ranks
prove zero are not counted.  The zeta comparison replays the same
products inside the Schur algebra through A(0, r).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import itertools

from .laurent import IntPoly, poly_interpolate
from .affmat import dim_vector, theta_plus_by_dim
from .schur import SchurElt, mult as schur_mult, a_block


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


def _find_irreducible(p, k):
    """A monic irreducible polynomial of degree k over F_p (brute force)."""
    if k == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=k):
        poly = tuple(tail) + (1,)
        # irreducible iff no root-free... test by checking no factor: since
        # k <= 3 in practice, root-freeness plus (for k even) no quadratic
        # factor; do a generic trial division instead.
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")


def _is_irreducible(poly, p):
    k = len(poly) - 1
    # trial division by all monic polynomials of degree 1..k//2
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            if _poly_divides(div, poly, p):
                return False
    return True


def _poly_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for t in range(dd + 1):
                rem[i - dd + t] = (rem[i - dd + t] - c * div[t]) % p
    return all(x == 0 for x in rem)


class GF:
    """The field with q elements, q a prime power.

    Elements are integers 0..q-1, read base p as coefficient tuples of
    polynomials modulo a fixed irreducible.  Addition, multiplication
    and inverses go through precomputed tables.
    """

    __slots__ = ("q", "p", "k", "add", "mul", "inv", "neg")

    def __init__(self, q):
        p, k = _factor_prime_power(q)
        self.q, self.p, self.k = q, p, k
        modpoly = _find_irreducible(p, k)

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
        self.mul = [
            [encode(_poly_mul_mod(ea, eb, modpoly, p)) for eb in elems]
            for ea in elems
        ]
        inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if self.mul[x][y] == 1:
                    inv[x] = y
                    break
            else:
                raise AssertionError("non-invertible nonzero element")
        self.inv = inv


@lru_cache(maxsize=None)
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


def _mat_mul(a, b, field, ncols=None):
    """Matrix product over the field (a: m x k rows, b: k x n rows).

    ncols must be supplied when b might have zero rows, since the
    column count cannot be read off an empty list.
    """
    add, mul = field.add, field.mul
    if not a or not b:
        if ncols is None:
            ncols = len(b[0]) if b else 0
        return [[0] * ncols for _ in a]
    n = len(b[0])
    out = []
    for row in a:
        acc = [0] * n
        for aij, brow in zip(row, b):
            if aij:
                for t in range(n):
                    if brow[t]:
                        acc[t] = add[acc[t]][mul[aij][brow[t]]]
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
        if not a_mat.is_upper():
            raise ValueError("module realization requires Theta^+")
        n = a_mat.n
        self.n = n
        self.dims = list(dim_vector(a_mat))
        slots = [[] for _ in range(n)]  # per vertex: (seg id, position t)
        seg_id = 0
        for (i, j), m in a_mat.entries():
            for _ in range(m):
                for t in range(i, j):
                    slots[(t - 1) % n].append((seg_id, t))
                seg_id += 1
        self.slots = slots
        index = {}
        for v in range(n):
            for idx, key in enumerate(slots[v]):
                index[key] = idx
        # arrow[v]: V_{v+1} <- V_{v+1-1}... stored as matrix rows over target
        self.arrows = []
        for v in range(n):
            w = (v + 1) % n
            mat = [[0] * len(slots[v]) for _ in range(len(slots[w]))]
            for src_idx, (sid, t) in enumerate(slots[v]):
                nxt = index.get((sid, t + 1))
                if nxt is not None:
                    mat[nxt][src_idx] = 1
            self.arrows.append(mat)
        self.total = sum(self.dims)

    def path_matrices(self, field):
        """paths[v][l - 1] = matrix of the length-l arrow composite out of
        v, for l = 1..total."""
        n = self.n
        paths = []
        for v in range(n):
            chain = []
            cur = None
            for l in range(1, self.total + 1):
                step = self.arrows[(v + l - 1) % n]
                cur = (
                    step
                    if cur is None
                    else _mat_mul(step, cur, field, ncols=len(self.slots[v]))
                )
                chain.append(cur)
            paths.append(chain)
        return paths


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


def hall_count(c_mat, a_mat, b_mat, q, cap_dim=10):
    """phi^C_{A,B}(q): submodules N of M(C) over F_q with N of type B
    and M(C)/N of type A, counted by exhaustive enumeration."""
    da, db = dim_vector(a_mat), dim_vector(b_mat)
    dc = dim_vector(c_mat)
    if tuple(x + y for x, y in zip(da, db)) != dc:
        raise ValueError("d(C) != d(A) + d(B)")
    field = gf(q)
    mod_c = ModuleRealization(c_mat)
    if mod_c.total > cap_dim:
        raise SizeCapError(
            "total dimension %d exceeds cap %d" % (mod_c.total, cap_dim)
        )
    n = mod_c.n
    max_len = mod_c.total
    target_sub = _path_ranks(b_mat, max_len)
    target_quot = _path_ranks(a_mat, max_len)
    paths = mod_c.path_matrices(field)
    count = 0
    for combo in _submodules(mod_c, db, field):
        if _sub_fingerprint(combo, paths, db, max_len, n, field) != target_sub:
            continue
        if (
            _quot_fingerprint(combo, paths, da, max_len, n, mod_c.dims, field)
            != target_quot
        ):
            continue
        count += 1
    return count


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


def _sub_fingerprint(combo, paths, db, max_len, n, field):
    ranks = []
    for v in range(n):
        chain = []
        basis = [list(b) for b in combo[v]]  # rows = basis vectors of S_v
        for l in range(1, max_len + 1):
            imgs = [_mat_apply(paths[v][l - 1], b, field) for b in basis]
            chain.append(_rank(imgs, field))
        ranks.append(tuple(chain))
    return (tuple(db), tuple(ranks))


def _quot_fingerprint(combo, paths, da, max_len, n, dims, field):
    ranks = []
    for v in range(n):
        chain = []
        for l in range(1, max_len + 1):
            w = (v + l) % n
            # rank of the induced map on quotients: dim of (image + S_w)/S_w
            full = [list(row) for row in _transpose_int(paths[v][l - 1], dims[v])]
            s_w = [list(b) for b in combo[w]]
            r_sw = _rank(s_w, field)
            chain.append(_rank(full + s_w, field) - r_sw)
        ranks.append(tuple(chain))
    return (tuple(da), tuple(ranks))


def _transpose_int(mat, ncols):
    """Column vectors of mat as rows (images of the standard basis)."""
    if not mat:
        return [[] for _ in range(ncols)]
    return [[row[c] for row in mat] for c in range(ncols)]


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


_hall_poly_memo = {}  # (A, B, C) -> IntPoly, filled by hall_poly


def hall_poly(a_mat, b_mat, c_mat, cap_dim=10):
    """The Hall polynomial phi^C_{A,B} in q, by interpolation.

    Degree bound: sum_i d(B)_i d(A)_i (the submodule locus sits in a
    product of Grassmannians of that dimension).  Every sampled count
    must be reproduced by the interpolant.  Both size caps are checked
    before the per-process memo is read, so a smaller cap_dim still
    refuses a triple that is already known.  A triple that
    _ranks_forbid rules out is zero without counting.
    """
    da, db = dim_vector(a_mat), dim_vector(b_mat)
    dc = dim_vector(c_mat)
    if tuple(x + y for x, y in zip(da, db)) != dc:
        raise ValueError("d(C) != d(A) + d(B)")
    bound = sum(x * y for x, y in zip(db, da))
    if bound + 1 > len(_PRIME_POWERS):
        raise SizeCapError("degree bound %d too large to sample" % bound)
    total = sum(dc)
    if total > cap_dim:
        raise SizeCapError(
            "total dimension %d exceeds cap %d" % (total, cap_dim)
        )
    key = (a_mat, b_mat, c_mat)
    phi = _hall_poly_memo.get(key)
    if phi is None:
        if _ranks_forbid(a_mat, b_mat, c_mat, total):
            phi = IntPoly(())
        else:
            samples = [
                (q, hall_count(c_mat, a_mat, b_mat, q, cap_dim=cap_dim))
                for q in _PRIME_POWERS[: bound + 1]
            ]
            phi = poly_interpolate(samples, bound)
        _hall_poly_memo[key] = phi
    return phi


def utilde_exponent(a_mat):
    """dim End(M(A)) - dim M(A), by exact linear algebra over Q.

    An endomorphism is a tuple (f_v) with f_{v+1} x_v = x_v f_v; the
    dimension of the solution space is read off a rational kernel.
    """
    mod = ModuleRealization(a_mat)
    n = mod.n
    dims = mod.dims
    offsets = [0] * n
    for v in range(1, n):
        offsets[v] = offsets[v - 1] + dims[v - 1] ** 2
    nvars = sum(d * d for d in dims)
    rows = []
    for v in range(n):
        w = (v + 1) % n
        x = mod.arrows[v]  # dims[w] x dims[v]
        # constraint: f_w . x - x . f_v = 0, entrywise (i, j)
        for i in range(dims[w]):
            for j in range(dims[v]):
                row = [Fraction(0)] * nvars
                for t in range(dims[w]):
                    row[offsets[w] + i * dims[w] + t] += x[t][j]
                for t in range(dims[v]):
                    row[offsets[v] + t * dims[v] + j] -= x[i][t]
                if any(row):
                    rows.append(row)
    rank = _rational_rank(rows)
    return (nvars - rank) - mod.total


def _rational_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    if not rows:
        return 0
    ncols = len(rows[0])
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hall_mult_utilde(a_mat, b_mat, cap_dim=10):
    """The product utilde^+_A utilde^+_B expanded in the utilde basis.

    Coefficient of C: v^{<d(A), d(B)> + eps_A + eps_B - eps_C} phi(v^2).
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
    return out


def zeta_check(a_mat, b_mat, r, cap_dim=10):
    """Cross-engine bridge: does zeta_r(utilde_A utilde_B) computed in the
    Hall algebra match A(0,r) B(0,r) computed in the Schur algebra?"""
    n = a_mat.n
    j0 = (0,) * n
    lhs = schur_mult(a_block(a_mat, j0, r), a_block(b_mat, j0, r))
    rhs = SchurElt.zero(n, r)
    for c_mat, coeff in hall_mult_utilde(a_mat, b_mat, cap_dim=cap_dim).items():
        rhs.add_scaled(a_block(c_mat, j0, r), coeff)
    return lhs == rhs
