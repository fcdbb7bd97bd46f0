"""Verification drivers for the structural identities, at desk scale.

Each driver exhaustively checks one identity over a finite slice of the
relevant index set and returns a machine-readable report: the slice
parameters, how many instances were checked, and a list of violations
with enough payload to reproduce each failure.  The index sets are
infinite, so each driver runs over a fixed scope; its _target
declaration names the arguments and the fixed scope that its report
prints.

A driver only states its checks: it is a generator that yields one
value per check, None when the check passes, a dict that is the check's
violation, or a list of the check's violations (thm-5.4, where one pair
can have several bad keys; an empty list passes).  _target counts the
values as the report's checked and collects the violations in order.
"""

from __future__ import annotations

import functools
import itertools
import random

from .affmat import enumerate_theta_band, enumerate_theta_plus, sqsubseteq
from .affweyl import (
    Composition, jdelta_inv, double_coset, coset_longest, bruhat_leq
)
from .heckekl import cprime, kl_poly
from .schur import (
    theta,
    mult,
    bar,
    g_constants,
    theta_by_elimination,
    is_triangular,
    leq_bo,
)
from . import transfer
from . import hall

BAND = 1
SEED = 0
LEMMA_46_MS = (-1, 1)
F_SIGMA_CAP, F_MAX_LEN = 2, 2
H_SIGMA_CAP = 2
ZETA_NS, ZETA_SIGMA_CAP, ZETA_R_CAP, ZETA_MAX_LEN = (2, 3), 3, 4, 2


DRIVERS = {}


def _target(name, *printed, **scope):
    """Register a keyword-only driver as the verification target name.
    The driver yields one value per check: None for a pass, a violation
    dict, or a list of violations.  Its report's checked counts the
    values and its violations lists theirs in order.  Its params are the
    named arguments, at the driver's defaults unless given (big_n
    printed as N), and the fixed scope; tuples print as lists."""

    def register(driver):
        @functools.wraps(driver)
        def run(**kwargs):
            args = {**driver.__kwdefaults__, **kwargs}
            checked, violations = 0, []
            for found in driver(**args):
                checked += 1
                if isinstance(found, dict):
                    violations.append(found)
                elif found:
                    violations.extend(found)
            params = {("N" if a == "big_n" else a): args[a] for a in printed}
            params.update(scope)
            return {
                "name": name,
                "params": {
                    k: list(v) if isinstance(v, tuple) else v
                    for k, v in params.items()
                },
                "checked": checked,
                "violations": violations,
                "pass": not violations,
            }

        DRIVERS[name] = run
        return run

    return register


def _mat_key(a_mat):
    return [[i, j, v] for (i, j), v in a_mat.entries()]


@_target("lemma-3.1", "n", "r", band=BAND)
def verify_lemma_31(*, n=2, r=2):
    """C'_{d+} decomposes into double-coset sums with KL coefficients:
    the T_w coefficient equals v^{-l(d+)} P_{y+, d+} for w in the coset
    of y, and every support coset satisfies y <= d."""
    for a_mat in enumerate_theta_band(n, r, BAND):
        lam, d, mu = jdelta_inv(a_mat)
        d_plus = coset_longest(lam, d, mu)
        c = cprime(d_plus)
        seen = set()
        for w in sorted(c.terms, key=lambda x: x.window):
            if w in seen:
                continue
            y_min, y_plus, elems = double_coset(lam, w, mu)
            seen |= elems
            expected = (
                kl_poly(y_plus, d_plus).to_laurent().shift(-d_plus.length())
            )
            bad = [x for x in elems if c.coeff(x) != expected]
            leq_d = bruhat_leq(y_min, d)
            yield None if leq_d and not bad else {
                "matrix": _mat_key(a_mat),
                "coset_rep": list(y_min.window),
                "bad_terms": len(bad),
                "coset_leq_d": leq_d,
            }


@_target("lemma-3.6", "n", "r", band=BAND)
def verify_lemma_36(*, n=2, r=2):
    """B <=^Bo A implies B sqsubseteq A."""
    mats = enumerate_theta_band(n, r, BAND)
    for b_mat, a_mat in itertools.product(mats, mats):
        ok = not leq_bo(b_mat, a_mat) or sqsubseteq(b_mat, a_mat)
        yield None if ok else {"B": _mat_key(b_mat), "A": _mat_key(a_mat)}


@_target("lemma-3.7", "n", "r", band=BAND)
def verify_lemma_37(*, n=2, r=2):
    """l(y_A+) = d_A + l(w_{0, co(A)})."""
    for a_mat in enumerate_theta_band(n, r, BAND):
        lhs = coset_longest(*jdelta_inv(a_mat)).length()
        rhs = a_mat.d_exponent() + Composition(a_mat.co()).longest_length()
        yield None if lhs == rhs else {
            "A": _mat_key(a_mat), "lhs": lhs, "rhs": rhs
        }


@_target("prop-3.8", "n", "r", band=BAND)
def verify_prop_38(*, n=2, r=2):
    """The closed-form canonical basis element is bar-invariant,
    triangular, and agrees with bar-triangular elimination."""
    for a_mat in enumerate_theta_band(n, r, BAND):
        th = theta(a_mat, r)
        problems = []
        if bar(th) != th:
            problems.append("not bar-invariant")
        if not is_triangular(th, a_mat):
            problems.append("not triangular")
        if theta_by_elimination(a_mat, r) != th:
            problems.append("disagrees with elimination oracle")
        yield None if not problems else {
            "A": _mat_key(a_mat), "problems": problems
        }


def _composable_pairs(mats):
    """The pairs (A, B) of mats with co(A) = ro(B), A-major in mats order
    and B in mats order; B is looked up by its row sums."""
    by_ro = {}
    for b_mat in mats:
        by_ro.setdefault(b_mat.ro(), []).append(b_mat)
    for a_mat in mats:
        for b_mat in by_ro.get(a_mat.co(), ()):
            yield a_mat, b_mat


def _positivity(tables):
    """One check per value of each (A, B, table) triple, in key order:
    the value lies in N[v, v^-1]."""
    for a_mat, b_mat, table in tables:
        for c_mat, val in sorted(table.items(), key=lambda p: p[0].entries()):
            yield None if val.is_nonneg() else {
                "A": _mat_key(a_mat),
                "B": _mat_key(b_mat),
                "C": _mat_key(c_mat),
                "value": val.to_json(),
            }


@_target("cor-4.9", "n", "r", band=BAND)
def verify_cor_49(*, n=2, r=2):
    """Every g-constant lies in N[v, v^-1]."""
    return _positivity(
        (a_mat, b_mat, g_constants(a_mat, b_mat, r))
        for a_mat, b_mat in _composable_pairs(enumerate_theta_band(n, r, BAND))
    )


@_target("lemma-4.6", "n", "r", band=BAND, ms=LEMMA_46_MS)
def verify_lemma_46(*, n=2, r=2):
    """Right and left multiplication by the shifted idempotent realizes
    eta_m on canonical basis elements."""
    for a_mat in enumerate_theta_band(n, r, BAND):
        for m in LEMMA_46_MS:
            th = theta(a_mat, r)
            target = theta(transfer.eta(a_mat, m), r)
            right_idem = transfer.rho_idempotent(Composition(a_mat.co()), m)
            left_idem = transfer.rho_idempotent(Composition(a_mat.ro()), m)
            ok_right = mult(th, theta(right_idem, r)) == target
            ok_left = mult(theta(left_idem, r), th) == target
            yield None if ok_right and ok_left else {
                "A": _mat_key(a_mat),
                "m": m,
                "right": ok_right,
                "left": ok_left,
            }


def _sample_pairs(pairs, samples):
    """samples of the pairs, drawn with the fixed SEED; all of them when
    samples is None or not smaller than their number."""
    pairs = list(pairs)
    if samples is None or samples >= len(pairs):
        return pairs
    return random.Random(SEED).sample(pairs, samples)


def _embedded(k, big_n, *mats):
    """tilde(eta_k(M), N) for each matrix M."""
    return [transfer.tilde(transfer.eta(m, k), big_n) for m in mats]


@_target(
    "thm-4.8", "n", "r", "big_n", "ks", "samples", band=BAND, seed=SEED
)
def verify_thm_48(*, n=2, r=2, big_n=3, ks=(-1, 1), samples=None):
    """Part 1: g-table pattern equality under the shifted embedding.
    Part 2: each g-constant equals the f-constant of a shifted triple.

    Each pair's g-table at rank n is built once and read by both parts.
    Part 2 reads the f-table at the padding weights of the expected
    support, which must hold exactly the expected constants; the
    weight-independence assertion is exercised by the thm-4.10 and
    cor-4.11 suites."""
    for a_mat, b_mat in _sample_pairs(
        _composable_pairs(enumerate_theta_band(n, r, BAND)), samples
    ):
        g = g_constants(a_mat, b_mat, r)
        for k in ks:
            big = g_constants(*_embedded(k, big_n, a_mat, b_mat), r)
            yield None if big == transfer.embed_table(g, 2 * k, big_n) else {
                "part": 1,
                "A": _mat_key(a_mat),
                "B": _mat_key(b_mat),
                "k": k,
            }
        k = transfer.find_k0(a_mat, b_mat, g)
        expected = transfer.embed_table(g, 2 * k, big_n)
        f_tab = transfer.f_constants(
            *_embedded(k, big_n, a_mat, b_mat),
            keys=list(expected),
            check=False,
        ).table
        yield None if f_tab == expected else {
            "part": 2, "A": _mat_key(a_mat), "B": _mat_key(b_mat)
        }


def _f_pair_scope(n):
    """Factor pairs for the f-table suites, of factors with sigma at most
    F_SIGMA_CAP: every pair at unit segment length, plus pairs of total
    mass at most 3 with segments up to F_MAX_LEN.  Maximal-mass pairs of
    long segments force padded levels where the KL recursion is out of
    reach.  The long pairs come first, each pair once."""
    long_mats = enumerate_theta_plus(n, F_SIGMA_CAP, F_MAX_LEN)
    short_mats = enumerate_theta_plus(n, F_SIGMA_CAP, 1)
    long_pairs = (
        (a_mat, b_mat)
        for a_mat, b_mat in itertools.product(long_mats, long_mats)
        if a_mat.sigma() + b_mat.sigma() <= 3
    )
    short_pairs = itertools.product(short_mats, short_mats)
    return list(dict.fromkeys(itertools.chain(long_pairs, short_pairs)))


@_target("thm-4.10", "n", "big_n", sigma_cap=F_SIGMA_CAP, max_len=F_MAX_LEN)
def verify_thm_410(*, n=2, big_n=3):
    """f-tables are invariant under the tilde embedding.

    The rank-big_n side is extracted, with its check, at the padding
    weights of the expected support, so every candidate within reach
    of those weights is certified; candidates needing a strictly larger
    weight are not enumerated (their levels are out of reach anyway).
    """
    for a_mat, b_mat in _f_pair_scope(n):
        small = transfer.f_constants(a_mat, b_mat).table
        expected = transfer.embed_table(small, 0, big_n)
        big = transfer.f_constants(
            transfer.tilde(a_mat, big_n),
            transfer.tilde(b_mat, big_n),
            keys=list(expected),
        ).table
        yield None if big == expected else {
            "A": _mat_key(a_mat), "B": _mat_key(b_mat)
        }


@_target("cor-4.11", "n", sigma_cap=F_SIGMA_CAP, max_len=F_MAX_LEN)
def verify_cor_411(*, n=2):
    """Every f-constant lies in N[v, v^-1]."""
    return _positivity(
        (a_mat, b_mat, transfer.f_constants(a_mat, b_mat).table)
        for a_mat, b_mat in _f_pair_scope(n)
    )


def _stripped_aperiodic(n, sigma_cap):
    """Aperiodic matrices with minimal diagonal zero and sigma at most
    sigma_cap, by band truncation, sorted by (sigma, entries)."""
    stripped = (
        transfer.strip_E(a_mat)[0]
        for r in range(1, sigma_cap + 1)
        for a_mat in enumerate_theta_band(n, r, BAND)
    )
    return sorted(
        {c for c in stripped if c.sigma() and c.is_aperiodic()},
        key=lambda m: (m.sigma(), m.entries()),
    )


def _h_pairs(n, samples):
    """The sampled pairs of stripped aperiodic matrices with sigma at
    most H_SIGMA_CAP and equal sigma mod n, the inputs of the h-table
    suites."""
    mats = _stripped_aperiodic(n, H_SIGMA_CAP)
    return _sample_pairs(
        (
            (a, b)
            for a, b in itertools.product(mats, mats)
            if a.sigma() % n == b.sigma() % n
        ),
        samples,
    )


@_target(
    "thm-5.4", "n", "samples", sigma_cap=H_SIGMA_CAP, band=BAND, seed=SEED
)
def verify_thm_54(*, n=2, samples=20):
    """h-tables stabilize between consecutive admissible levels, with
    aperiodic E-stripped keys throughout."""
    for a_mat, b_mat in _h_pairs(n, samples):
        pair = {"A": _mat_key(a_mat), "B": _mat_key(b_mat)}
        try:
            table = transfer.h_constants(a_mat, b_mat).table
        except AssertionError as exc:
            yield {**pair, "error": str(exc)}
        else:
            yield [
                {**pair, "bad_key": _mat_key(c_mat)}
                for c_mat in table
                if not c_mat.is_aperiodic() or transfer.strip_E(c_mat)[1] != 0
            ]


@_target(
    "thm-5.5", "n", "samples", sigma_cap=H_SIGMA_CAP, band=BAND, seed=SEED
)
def verify_thm_55(*, n=2, samples=20):
    """Every h-constant lies in N[v, v^-1]."""
    return _positivity(
        (a_mat, b_mat, transfer.h_constants(a_mat, b_mat).table)
        for a_mat, b_mat in _h_pairs(n, samples)
    )


@_target("thm-6.3", "n", "r", "samples", band=BAND, seed=SEED)
def verify_thm_63(*, n=2, r=2, samples=10):
    """Fixed-level instance of the modified-algebra positivity: each
    g-key at level r strips to an h-key with the same coefficient, and
    all coefficients are nonnegative."""
    mats = [m for m in _stripped_aperiodic(n, r) if m.sigma() == r]
    for a_mat, b_mat in _sample_pairs(_composable_pairs(mats), samples):
        g = g_constants(a_mat, b_mat, r)
        h_table = transfer.h_constants(a_mat, b_mat).table
        for c_pad, val in sorted(g.items(), key=lambda p: p[0].entries()):
            c_mat, _ = transfer.strip_E(c_pad)
            problems = []
            if not val.is_nonneg():
                problems.append("negative coefficient")
            if h_table.get(c_mat) != val:
                problems.append("g and h disagree")
            yield None if not problems else {
                "A": _mat_key(a_mat),
                "B": _mat_key(b_mat),
                "C": _mat_key(c_mat),
                "problems": problems,
            }


@_target(
    "zeta",
    ns=ZETA_NS,
    sigma_cap=ZETA_SIGMA_CAP,
    r_cap=ZETA_R_CAP,
    max_len=ZETA_MAX_LEN,
)
def verify_zeta(*, cap_dim=10):
    """The Hall-to-Schur comparison: products computed by submodule
    counting match products computed in the Hecke endomorphism model."""
    for n in ZETA_NS:
        mats = enumerate_theta_plus(n, ZETA_SIGMA_CAP, ZETA_MAX_LEN)
        for a_mat, b_mat in itertools.product(mats, mats):
            if a_mat.sigma() + b_mat.sigma() > ZETA_SIGMA_CAP:
                continue
            for r in range(2, ZETA_R_CAP + 1):
                ok = hall.zeta_check(a_mat, b_mat, r, cap_dim=cap_dim)
                yield None if ok else {
                    "n": n,
                    "A": _mat_key(a_mat),
                    "B": _mat_key(b_mat),
                    "r": r,
                }
