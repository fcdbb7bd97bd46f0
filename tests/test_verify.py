"""The report envelope that every verification target shares."""

import pytest

from affschur import verify


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
