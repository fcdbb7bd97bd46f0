"""Verification drivers for the structural identities, at desk scale.

Each driver exhaustively checks one identity over a finite slice of the
relevant index set and returns a machine-readable report: the slice
parameters, how many instances were checked, and a list of violations
with enough payload to reproduce each failure.  The index sets are
infinite, so each driver runs over a fixed scope, which its report
prints alongside the parameters a caller sets:

- the band truncation BAND = 1 (entries within that distance of the
  diagonal), for every driver that enumerates Theta(n, r);
- the sampling seed SEED = 0 of thm-4.8, thm-5.4, thm-5.5 and thm-6.3;
- the shifts LEMMA_46_MS = (-1, 1) of lemma-4.6;
- the f-pair scope of thm-4.10 and cor-4.11: sigma <= 2, segments <= 2;
- the h-pair scope of thm-5.4 and thm-5.5: sigma <= 2;
- the zeta scope: n in (2, 3), sigma <= 3, r <= 4, segments <= 2.
"""

from __future__ import annotations

import itertools
import random

from .affmat import AffMatrix, enumerate_theta_band, sqsubseteq
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


def _report(name, params, checked, violations):
    return {
        "name": name,
        "params": params,
        "checked": checked,
        "violations": violations,
        "pass": not violations,
    }


def _mat_key(a_mat):
    return [[i, j, v] for (i, j), v in a_mat.entries()]


def verify_lemma_31(n=2, r=2, cache=None):
    """C'_{d+} decomposes into double-coset sums with KL coefficients:
    the T_w coefficient equals v^{-l(d+)} P_{y+, d+} for w in the coset
    of y, and every support coset satisfies y <= d."""
    violations = []
    checked = 0
    for a_mat in enumerate_theta_band(n, r, BAND):
        lam, d, mu = jdelta_inv(a_mat)
        d_plus = coset_longest(lam, d, mu)
        c = cprime(d_plus, cache)
        seen = set()
        for w in sorted(c.terms, key=lambda x: x.window):
            if w in seen:
                continue
            y_min, y_plus, elems = double_coset(lam, w, mu)
            seen |= elems
            checked += 1
            expected = (
                kl_poly(y_plus, d_plus, cache)
                .to_laurent()
                .shift(-d_plus.length())
            )
            bad = [x for x in elems if c.coeff(x) != expected]
            if bad or not bruhat_leq(y_min, d):
                violations.append(
                    {
                        "matrix": _mat_key(a_mat),
                        "coset_rep": list(y_min.window),
                        "bad_terms": len(bad),
                        "coset_leq_d": bruhat_leq(y_min, d),
                    }
                )
    return _report(
        "lemma-3.1", {"n": n, "r": r, "band": BAND}, checked, violations
    )


def verify_lemma_36(n=2, r=2):
    """B <=^Bo A implies B sqsubseteq A."""
    mats = enumerate_theta_band(n, r, BAND)
    violations = []
    checked = 0
    for b_mat, a_mat in itertools.product(mats, mats):
        checked += 1
        if leq_bo(b_mat, a_mat) and not sqsubseteq(b_mat, a_mat):
            violations.append(
                {"B": _mat_key(b_mat), "A": _mat_key(a_mat)}
            )
    return _report(
        "lemma-3.6", {"n": n, "r": r, "band": BAND}, checked, violations
    )


def verify_lemma_37(n=2, r=2):
    """l(y_A+) = d_A + l(w_{0, co(A)})."""
    violations = []
    checked = 0
    for a_mat in enumerate_theta_band(n, r, BAND):
        checked += 1
        lhs = coset_longest(*jdelta_inv(a_mat)).length()
        rhs = a_mat.d_exponent() + Composition(a_mat.co()).longest_length()
        if lhs != rhs:
            violations.append(
                {"A": _mat_key(a_mat), "lhs": lhs, "rhs": rhs}
            )
    return _report(
        "lemma-3.7", {"n": n, "r": r, "band": BAND}, checked, violations
    )


def verify_prop_38(n=2, r=2, cache=None):
    """The closed-form canonical basis element is bar-invariant,
    triangular, and agrees with bar-triangular elimination."""
    violations = []
    checked = 0
    for a_mat in enumerate_theta_band(n, r, BAND):
        checked += 1
        th = theta(a_mat, r, cache)
        problems = []
        if bar(th) != th:
            problems.append("not bar-invariant")
        if not is_triangular(th, a_mat):
            problems.append("not triangular")
        if theta_by_elimination(a_mat, r) != th:
            problems.append("disagrees with elimination oracle")
        if problems:
            violations.append({"A": _mat_key(a_mat), "problems": problems})
    return _report(
        "prop-3.8", {"n": n, "r": r, "band": BAND}, checked, violations
    )


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
    """(checked, violations) over (A, B, table) triples: every value of
    each table, in key order, must lie in N[v, v^-1]."""
    violations = []
    checked = 0
    for a_mat, b_mat, table in tables:
        for c_mat, val in sorted(table.items(), key=lambda p: p[0].entries()):
            checked += 1
            if not val.is_nonneg():
                violations.append(
                    {
                        "A": _mat_key(a_mat),
                        "B": _mat_key(b_mat),
                        "C": _mat_key(c_mat),
                        "value": val.to_json(),
                    }
                )
    return checked, violations


def verify_cor_49(n=2, r=2):
    """Every g-constant lies in N[v, v^-1]."""
    checked, violations = _positivity(
        (a_mat, b_mat, g_constants(a_mat, b_mat, r))
        for a_mat, b_mat in _composable_pairs(enumerate_theta_band(n, r, BAND))
    )
    return _report(
        "cor-4.9", {"n": n, "r": r, "band": BAND}, checked, violations
    )


def verify_lemma_46(n=2, r=2):
    """Right and left multiplication by the shifted idempotent realizes
    eta_m on canonical basis elements."""
    violations = []
    checked = 0
    for a_mat in enumerate_theta_band(n, r, BAND):
        for m in LEMMA_46_MS:
            checked += 1
            th = theta(a_mat, r)
            target = theta(transfer.eta(a_mat, m), r)
            right_idem = transfer.rho_idempotent(
                Composition(a_mat.co()), m, r
            )
            left_idem = transfer.rho_idempotent(
                Composition(a_mat.ro()), m, r
            )
            ok_right = mult(th, theta(right_idem, r)) == target
            ok_left = mult(theta(left_idem, r), th) == target
            if not (ok_right and ok_left):
                violations.append(
                    {
                        "A": _mat_key(a_mat),
                        "m": m,
                        "right": ok_right,
                        "left": ok_left,
                    }
                )
    return _report(
        "lemma-4.6",
        {"n": n, "r": r, "band": BAND, "ms": list(LEMMA_46_MS)},
        checked,
        violations,
    )


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


def verify_thm_48(n=2, r=2, big_n=3, ks=(-1, 1), samples=None):
    """Part 1: g-table pattern equality under the shifted embedding.
    Part 2: each g-constant equals the f-constant of a shifted triple.

    Each pair's g-table at rank n is built once and read by both parts.
    Part 2 reads the f-table at the padding weights of the expected
    support, which must hold exactly the expected constants; the
    weight-independence assertion is exercised by the thm-4.10 and
    cor-4.11 suites."""
    violations = []
    checked = 0
    for a_mat, b_mat in _sample_pairs(
        _composable_pairs(enumerate_theta_band(n, r, BAND)), samples
    ):
        g = g_constants(a_mat, b_mat, r)
        for k in ks:
            checked += 1
            big = g_constants(*_embedded(k, big_n, a_mat, b_mat), r)
            if big != transfer.embed_table(g, 2 * k, big_n):
                violations.append(
                    {
                        "part": 1,
                        "A": _mat_key(a_mat),
                        "B": _mat_key(b_mat),
                        "k": k,
                    }
                )
        checked += 1
        k = transfer.find_k0(a_mat, b_mat, g)
        expected = transfer.embed_table(g, 2 * k, big_n)
        f_tab = transfer.f_constants(
            *_embedded(k, big_n, a_mat, b_mat),
            keys=list(expected),
            check=False,
        ).table
        if f_tab != expected:
            violations.append(
                {"part": 2, "A": _mat_key(a_mat), "B": _mat_key(b_mat)}
            )
    return _report(
        "thm-4.8",
        {
            "n": n,
            "r": r,
            "N": big_n,
            "ks": list(ks),
            "band": BAND,
            "samples": samples,
            "seed": SEED,
        },
        checked,
        violations,
    )


def enumerate_theta_plus(n, sigma_cap, max_len):
    """All strictly upper matrices with entry sum <= sigma_cap and
    segment lengths <= max_len (including the zero matrix)."""
    positions = [
        (i, i + l) for i in range(1, n + 1) for l in range(1, max_len + 1)
    ]
    out = [AffMatrix(n, {})]
    for total in range(1, sigma_cap + 1):
        for combo in itertools.combinations_with_replacement(
            range(len(positions)), total
        ):
            entries = {}
            for idx in combo:
                entries[positions[idx]] = entries.get(positions[idx], 0) + 1
            out.append(AffMatrix(n, entries))
    return sorted(set(out), key=lambda m: (m.sigma(), m.entries()))


def _f_pair_scope(n):
    """Factor pairs for the f-table suites, of factors with sigma at most
    F_SIGMA_CAP: every pair at unit segment length, plus pairs of total
    mass at most 3 with segments up to F_MAX_LEN.  Maximal-mass pairs of
    long segments force padded levels where the KL recursion is out of
    reach."""
    pairs = []
    seen = set()
    long_mats = enumerate_theta_plus(n, F_SIGMA_CAP, F_MAX_LEN)
    for a_mat, b_mat in itertools.product(long_mats, long_mats):
        if a_mat.sigma() + b_mat.sigma() <= 3:
            pairs.append((a_mat, b_mat))
            seen.add((a_mat, b_mat))
    short_mats = enumerate_theta_plus(n, F_SIGMA_CAP, 1)
    for a_mat, b_mat in itertools.product(short_mats, short_mats):
        if (a_mat, b_mat) not in seen:
            pairs.append((a_mat, b_mat))
    return pairs


def verify_thm_410(n=2, big_n=3):
    """f-tables are invariant under the tilde embedding.

    The rank-big_n side is extracted, with its check, at the padding
    weights of the expected support, so every candidate within reach
    of those weights is certified; candidates needing a strictly larger
    weight are not enumerated (their levels are out of reach anyway).
    """
    violations = []
    checked = 0
    for a_mat, b_mat in _f_pair_scope(n):
        checked += 1
        small = transfer.f_constants(a_mat, b_mat).table
        expected = transfer.embed_table(small, 0, big_n)
        big = transfer.f_constants(
            transfer.tilde(a_mat, big_n),
            transfer.tilde(b_mat, big_n),
            keys=list(expected),
        ).table
        if big != expected:
            violations.append({"A": _mat_key(a_mat), "B": _mat_key(b_mat)})
    return _report(
        "thm-4.10",
        {"n": n, "N": big_n, "sigma_cap": F_SIGMA_CAP, "max_len": F_MAX_LEN},
        checked,
        violations,
    )


def verify_cor_411(n=2):
    """Every f-constant lies in N[v, v^-1]."""
    checked, violations = _positivity(
        (a_mat, b_mat, transfer.f_constants(a_mat, b_mat).table)
        for a_mat, b_mat in _f_pair_scope(n)
    )
    return _report(
        "cor-4.11",
        {"n": n, "sigma_cap": F_SIGMA_CAP, "max_len": F_MAX_LEN},
        checked,
        violations,
    )


def _stripped_aperiodic(n, sigma_cap):
    """Aperiodic matrices with minimal diagonal zero and sigma at most
    sigma_cap, by band truncation."""
    out = []
    seen = set()
    for r in range(1, sigma_cap + 1):
        for a_mat in enumerate_theta_band(n, r, BAND):
            c_mat, _ = transfer.strip_E(a_mat)
            if c_mat.sigma() == 0 or not c_mat.is_aperiodic():
                continue
            if c_mat not in seen:
                seen.add(c_mat)
                out.append(c_mat)
    return sorted(out, key=lambda m: (m.sigma(), m.entries()))


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


def verify_thm_54(n=2, samples=20):
    """h-tables stabilize between consecutive admissible levels, with
    aperiodic E-stripped keys throughout."""
    violations = []
    checked = 0
    for a_mat, b_mat in _h_pairs(n, samples):
        checked += 1
        try:
            table = transfer.h_constants(a_mat, b_mat).table
        except AssertionError as exc:
            violations.append(
                {
                    "A": _mat_key(a_mat),
                    "B": _mat_key(b_mat),
                    "error": str(exc),
                }
            )
            continue
        for c_mat in table:
            if not c_mat.is_aperiodic() or transfer.strip_E(c_mat)[1] != 0:
                violations.append(
                    {
                        "A": _mat_key(a_mat),
                        "B": _mat_key(b_mat),
                        "bad_key": _mat_key(c_mat),
                    }
                )
    return _report(
        "thm-5.4",
        {
            "n": n,
            "sigma_cap": H_SIGMA_CAP,
            "band": BAND,
            "samples": samples,
            "seed": SEED,
        },
        checked,
        violations,
    )


def verify_thm_55(n=2, samples=20):
    """Every h-constant lies in N[v, v^-1]."""
    checked, violations = _positivity(
        (a_mat, b_mat, transfer.h_constants(a_mat, b_mat).table)
        for a_mat, b_mat in _h_pairs(n, samples)
    )
    return _report(
        "thm-5.5",
        {
            "n": n,
            "sigma_cap": H_SIGMA_CAP,
            "band": BAND,
            "samples": samples,
            "seed": SEED,
        },
        checked,
        violations,
    )


def verify_thm_63(n=2, r=2, samples=10):
    """Fixed-level instance of the modified-algebra positivity: each
    g-key at level r strips to an h-key with the same coefficient, and
    all coefficients are nonnegative."""
    mats = [m for m in _stripped_aperiodic(n, r) if m.sigma() == r]
    violations = []
    checked = 0
    for a_mat, b_mat in _sample_pairs(_composable_pairs(mats), samples):
        g = g_constants(a_mat, b_mat, r)
        h_table = transfer.h_constants(a_mat, b_mat).table
        for c_pad, val in sorted(g.items(), key=lambda p: p[0].entries()):
            checked += 1
            c_mat, _ = transfer.strip_E(c_pad)
            problems = []
            if not val.is_nonneg():
                problems.append("negative coefficient")
            if h_table.get(c_mat) != val:
                problems.append("g and h disagree")
            if problems:
                violations.append(
                    {
                        "A": _mat_key(a_mat),
                        "B": _mat_key(b_mat),
                        "C": _mat_key(c_mat),
                        "problems": problems,
                    }
                )
    return _report(
        "thm-6.3",
        {"n": n, "r": r, "band": BAND, "samples": samples, "seed": SEED},
        checked,
        violations,
    )


def verify_zeta(cap_dim=10):
    """The Hall-to-Schur comparison: products computed by submodule
    counting match products computed in the Hecke endomorphism model."""
    violations = []
    checked = 0
    for n in ZETA_NS:
        mats = enumerate_theta_plus(n, ZETA_SIGMA_CAP, ZETA_MAX_LEN)
        for a_mat, b_mat in itertools.product(mats, mats):
            if a_mat.sigma() + b_mat.sigma() > ZETA_SIGMA_CAP:
                continue
            for r in range(2, ZETA_R_CAP + 1):
                checked += 1
                if not hall.zeta_check(a_mat, b_mat, r, cap_dim=cap_dim):
                    violations.append(
                        {
                            "n": n,
                            "A": _mat_key(a_mat),
                            "B": _mat_key(b_mat),
                            "r": r,
                        }
                    )
    return _report(
        "zeta",
        {
            "ns": list(ZETA_NS),
            "sigma_cap": ZETA_SIGMA_CAP,
            "r_cap": ZETA_R_CAP,
            "max_len": ZETA_MAX_LEN,
        },
        checked,
        violations,
    )


DRIVERS = {
    "lemma-3.1": verify_lemma_31,
    "lemma-3.6": verify_lemma_36,
    "lemma-3.7": verify_lemma_37,
    "prop-3.8": verify_prop_38,
    "cor-4.9": verify_cor_49,
    "lemma-4.6": verify_lemma_46,
    "thm-4.8": verify_thm_48,
    "thm-4.10": verify_thm_410,
    "cor-4.11": verify_cor_411,
    "thm-5.4": verify_thm_54,
    "thm-5.5": verify_thm_55,
    "thm-6.3": verify_thm_63,
    "zeta": verify_zeta,
}
