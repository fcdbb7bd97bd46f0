"""The report envelope that every verification target shares, and the
violations each target reports when a name it calls is made to fail."""

import json

import pytest

from affschur import hall, transfer, verify
from affschur.affmat import AffMatrix
from affschur.laurent import LaurentPoly


@pytest.mark.parametrize(
    "target, kwargs, params",
    [
        (
            "thm-4.8",
            {"n": 2, "r": 2, "big_n": 4, "ks": (1,), "samples": 2},
            {"n": 2, "r": 2, "N": 4, "ks": [1], "samples": 2,
             "band": 1, "seed": 0},
        ),
        (
            "thm-5.4",
            {"samples": 2},
            {"n": 2, "samples": 2, "sigma_cap": 2, "band": 1, "seed": 0},
        ),
        (
            "thm-6.3",
            {"samples": 2},
            {"n": 2, "r": 2, "samples": 2, "band": 1, "seed": 0},
        ),
        (
            "thm-4.10",
            {"big_n": 4},
            {"n": 2, "N": 4, "sigma_cap": 2, "max_len": 2},
        ),
    ],
)
def test_params_echo_the_arguments_given_and_the_fixed_scope(
    target, kwargs, params
):
    rep = verify.DRIVERS[target](**kwargs)
    assert rep["name"] == target
    assert rep["params"] == params
    assert rep["checked"] > 0
    assert rep["pass"] and rep["violations"] == []


def test_targets_register_in_file_order():
    assert list(verify.DRIVERS) == [
        "lemma-3.1",
        "lemma-3.6",
        "lemma-3.7",
        "prop-3.8",
        "cor-4.9",
        "lemma-4.6",
        "thm-4.8",
        "thm-4.10",
        "cor-4.11",
        "thm-5.4",
        "thm-5.5",
        "thm-6.3",
        "zeta",
    ]


MINUS_ONE = LaurentPoly({0: -1})
ONE = LaurentPoly({0: 1})
E = AffMatrix.identity_e(2)


def _returns(value):
    return lambda *args, **kwargs: value


def _fails(*args, **kwargs):
    raise AssertionError("no stable level")


def _table(*keys, value=ONE):
    """A table builder whose table holds value at each of keys, None
    standing for the first factor."""

    def build(a_mat, b_mat, *args, **kwargs):
        table = {a_mat if k is None else k: value for k in keys}
        return transfer.StructTable("f", a_mat, b_mat, table=table)

    return build


def _negated(g_constants):
    return lambda a_mat, b_mat, r: {
        c: -v for c, v in g_constants(a_mat, b_mat, r).items()
    }


def _big_side_empty(f_constants):
    """f_constants whose rank-N side, the call given keys, is empty."""

    def fake(a_mat, b_mat, keys=None, check=True):
        f_tab = f_constants(a_mat, b_mat, keys, check)
        if keys is not None:
            f_tab.table = {}
        return f_tab

    return fake


# id: (target, its arguments, the (module, name, stand-in) to patch)
FAULTS = {
    "lemma-3.1": ("lemma-3.1", {}, [(verify, "bruhat_leq", _returns(False))]),
    "lemma-3.6": ("lemma-3.6", {}, [(verify, "sqsubseteq", _returns(False))]),
    "lemma-3.7": (
        "lemma-3.7", {}, [(verify, "coset_longest", lambda lam, d, mu: d)]
    ),
    "prop-3.8": (
        "prop-3.8",
        {},
        [
            (verify, "bar", _returns(None)),
            (verify, "is_triangular", _returns(False)),
        ],
    ),
    "cor-4.9": (
        "cor-4.9",
        {},
        [(verify, "g_constants", lambda a_mat, b_mat, r: {a_mat: MINUS_ONE})],
    ),
    "lemma-4.6": ("lemma-4.6", {}, [(verify, "mult", _returns(None))]),
    "thm-4.8-part-1": (
        "thm-4.8", {"samples": 4}, [(transfer, "embed_table", _returns({}))]
    ),
    "thm-4.8-part-2": (
        "thm-4.8", {"samples": 4}, [(transfer, "f_constants", _table())]
    ),
    "thm-4.10": (
        "thm-4.10",
        {},
        [(transfer, "f_constants", _big_side_empty(transfer.f_constants))],
    ),
    "cor-4.11": (
        "cor-4.11",
        {},
        [(transfer, "f_constants", _table(None, value=MINUS_ONE))],
    ),
    "thm-5.4-error": (
        "thm-5.4", {"samples": 4}, [(transfer, "h_constants", _fails)]
    ),
    "thm-5.4-bad-key": (
        "thm-5.4",
        {"samples": 4},
        [(transfer, "h_constants", _table(E, None, E.scale(2)))],
    ),
    "thm-5.5": (
        "thm-5.5",
        {"samples": 4},
        [(transfer, "h_constants", _table(None, value=MINUS_ONE))],
    ),
    "thm-6.3-negative": (
        "thm-6.3",
        {"samples": 3},
        [(verify, "g_constants", _negated(verify.g_constants))],
    ),
    "thm-6.3-disagree": (
        "thm-6.3", {"samples": 3}, [(transfer, "h_constants", _table())]
    ),
    "zeta": ("zeta", {}, [(hall, "zeta_check", _returns(False))]),
}


def _faulty_report(case, monkeypatch):
    target, kwargs, patches = FAULTS[case]
    for module, name, stand_in in patches:
        monkeypatch.setattr(module, name, stand_in)
    return verify.DRIVERS[target](**kwargs)


# id: (checked, violations, the first, the last), recorded before the
# drivers yielded their checks
FAULT_REPORTS = {
    "lemma-3.1": (
        23,
        23,
        {'matrix': [[1, 0, 1], [1, 1, 1]],
         'coset_rep': [2, 3],
         'bad_terms': 0,
         'coset_leq_d': False},
        {'matrix': [[2, 3, 2]],
         'coset_rep': [-1, 0],
         'bad_terms': 0,
         'coset_leq_d': False},
    ),
    "lemma-3.6": (
        441,
        23,
        {'B': [[1, 0, 1], [1, 1, 1]], 'A': [[1, 0, 1], [1, 1, 1]]},
        {'B': [[2, 3, 2]], 'A': [[2, 3, 2]]},
    ),
    "lemma-3.7": (
        21,
        16,
        {'A': [[1, 0, 1], [1, 1, 1]], 'lhs': 0, 'rhs': 1},
        {'A': [[2, 3, 2]], 'lhs': 0, 'rhs': 1},
    ),
    "prop-3.8": (
        21,
        21,
        {'A': [[1, 0, 1], [1, 1, 1]],
         'problems': ['not bar-invariant', 'not triangular']},
        {'A': [[2, 3, 2]],
         'problems': ['not bar-invariant', 'not triangular']},
    ),
    "cor-4.9": (
        153,
        153,
        {'A': [[1, 0, 1], [1, 1, 1]],
         'B': [[1, 0, 1], [2, 1, 1]],
         'C': [[1, 0, 1], [1, 1, 1]],
         'value': [[0, '-1']]},
        {'A': [[2, 3, 2]],
         'B': [[1, 2, 2]],
         'C': [[2, 3, 2]],
         'value': [[0, '-1']]},
    ),
    "lemma-4.6": (
        42,
        42,
        {'A': [[1, 0, 1], [1, 1, 1]], 'm': -1, 'right': False, 'left': False},
        {'A': [[2, 3, 2]], 'm': 1, 'right': False, 'left': False},
    ),
    "thm-4.8-part-1": (
        12,
        8,
        {'part': 1,
         'A': [[1, 2, 1], [2, 3, 1]],
         'B': [[1, 0, 1], [2, 3, 1]],
         'k': -1},
        {'part': 1,
         'A': [[1, 1, 1], [2, 2, 1]],
         'B': [[1, 2, 1], [2, 1, 1]],
         'k': 1},
    ),
    "thm-4.8-part-2": (
        12,
        4,
        {'part': 2, 'A': [[1, 2, 1], [2, 3, 1]], 'B': [[1, 0, 1], [2, 3, 1]]},
        {'part': 2, 'A': [[1, 1, 1], [2, 2, 1]], 'B': [[1, 2, 1], [2, 1, 1]]},
    ),
    "thm-4.10": (
        134,
        134,
        {'A': [], 'B': []},
        {'A': [[2, 3, 2]], 'B': [[2, 3, 2]]},
    ),
    "cor-4.11": (
        134,
        134,
        {'A': [], 'B': [], 'C': [], 'value': [[0, '-1']]},
        {'A': [[2, 3, 2]],
         'B': [[2, 3, 2]],
         'C': [[2, 3, 2]],
         'value': [[0, '-1']]},
    ),
    "thm-5.4-error": (
        4,
        4,
        {'A': [[1, 1, 2]], 'B': [[2, 3, 2]], 'error': 'no stable level'},
        {'A': [[1, 1, 1], [1, 2, 1]],
         'B': [[1, 1, 1], [2, 1, 1]],
         'error': 'no stable level'},
    ),
    "thm-5.4-bad-key": (
        4,
        8,
        {'A': [[1, 1, 2]],
         'B': [[2, 3, 2]],
         'bad_key': [[1, 1, 1], [2, 2, 1]]},
        {'A': [[1, 1, 1], [1, 2, 1]],
         'B': [[1, 1, 1], [2, 1, 1]],
         'bad_key': [[1, 1, 2], [2, 2, 2]]},
    ),
    "thm-5.5": (
        4,
        4,
        {'A': [[1, 1, 2]],
         'B': [[2, 3, 2]],
         'C': [[1, 1, 2]],
         'value': [[0, '-1']]},
        {'A': [[1, 1, 1], [1, 2, 1]],
         'B': [[1, 1, 1], [2, 1, 1]],
         'C': [[1, 1, 1], [1, 2, 1]],
         'value': [[0, '-1']]},
    ),
    "thm-6.3-negative": (
        3,
        3,
        {'A': [[1, 1, 2]],
         'B': [[1, 0, 1], [1, 2, 1]],
         'C': [[1, 0, 1], [1, 2, 1]],
         'problems': ['negative coefficient', 'g and h disagree']},
        {'A': [[1, 1, 2]],
         'B': [[1, 2, 2]],
         'C': [[1, 2, 2]],
         'problems': ['negative coefficient', 'g and h disagree']},
    ),
    "thm-6.3-disagree": (
        3,
        3,
        {'A': [[1, 1, 2]],
         'B': [[1, 0, 1], [1, 2, 1]],
         'C': [[1, 0, 1], [1, 2, 1]],
         'problems': ['g and h disagree']},
        {'A': [[1, 1, 2]],
         'B': [[1, 2, 2]],
         'C': [[1, 2, 2]],
         'problems': ['g and h disagree']},
    ),
    "zeta": (
        1860,
        1860,
        {'n': 2, 'A': [], 'B': [], 'r': 2},
        {'n': 3, 'A': [[3, 5, 3]], 'B': [], 'r': 4},
    ),
}


@pytest.mark.parametrize("case", FAULTS)
def test_a_fault_reports_its_checks_and_violations(case, monkeypatch):
    """The patched name fails the checks that read it: the report counts
    every check and lists each violation's payload, keys in order."""
    rep = _faulty_report(case, monkeypatch)
    checked, count, first, last = FAULT_REPORTS[case]
    violations = rep["violations"]
    assert (rep["checked"], len(violations)) == (checked, count)
    assert not rep["pass"]
    assert json.dumps(violations[0]) == json.dumps(first)
    assert json.dumps(violations[-1]) == json.dumps(last)
