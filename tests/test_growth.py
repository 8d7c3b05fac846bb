import os
import subprocess
import sys
from fractions import Fraction
from math import ceil, isqrt

import pytest
import brigkit
from brigkit import SequenceParams, classify
from brigkit.core import DegenerateInputError, Kind
from brigkit.growth import (BranchKind, GrowthCase, _bound_margins,
                            check_lucas_growth, check_nonreal_growth,
                            check_real_growth, check_sharp_growth,
                            empirical_nonreal_threshold, height_sandwich_check,
                            nonreal_threshold_formula, ratio_height,
                            real_case_branch)
from brigkit.logbounds import ceil_log_affine

from conftest import (decimal_sign, interval_sign, iter_lucas_u, iter_lucas_v,
                      iter_terms)


# -- branch decision ----------------------------------------------------------

def test_branch_examples():
    br = real_case_branch(SequenceParams(10, 1, 1, 1))
    assert (br.kind, br.case) == (BranchKind.NEAR, GrowthCase.NEAR_WIDE)
    br = real_case_branch(SequenceParams(3, -100, 1, 1))
    assert (br.kind, br.case) == (BranchKind.FAR, GrowthCase.FAR_NEG)
    br = real_case_branch(SequenceParams(100, 1, 1, 1))
    assert br.kind is BranchKind.NEAR
    br = real_case_branch(SequenceParams(7, 12, 1, 1))   # roots 4 and 3
    assert (br.kind, br.case) == (BranchKind.FAR, GrowthCase.FAR_POS)
    assert br.n_min == 12                                 # ceil(6*1 + 6)
    br = real_case_branch(SequenceParams(1, -1, 1, 8))    # A+D < 9*8
    assert br.case is GrowthCase.NEAR_TIGHT


def test_branch_thresholds():
    # near threshold: ceil((18 + 7 ln 3) * 3) = 78
    br = real_case_branch(SequenceParams(3, 2, 1, 3))
    assert (br.case, br.n_min) == (GrowthCase.NEAR_TIGHT, 78)
    # far threshold with |Q/P| = 2: ceil(18) = 18
    br = real_case_branch(SequenceParams(13, 42, 1, 2))   # roots 7, 6
    assert (br.case, br.n_min) == (GrowthCase.FAR_POS, 18)


def test_branch_rejects_degenerate_and_zero_pq():
    with pytest.raises(DegenerateInputError):
        real_case_branch(SequenceParams(3, 6, 5, 6))      # non-real
    with pytest.raises(DegenerateInputError):
        real_case_branch(SequenceParams(3, 2, 0, 1))      # P = 0
    with pytest.raises(DegenerateInputError):
        real_case_branch(SequenceParams(3, 2, 1, 1))      # a = 0 (degenerate)
    with pytest.raises(DegenerateInputError):
        real_case_branch(SequenceParams(3, 2, 1, 2))      # b = 0 (degenerate)


def _near_threshold(p, q):
    """ceil((18 + 7 ln|Q|) * max(1, |Q/P|)) with the factor as a Fraction,
    through the uncached ceiling."""
    s = Fraction(max(abs(q), abs(p)), abs(p))
    return ceil_log_affine.__wrapped__(7 * s, abs(q), 18 * s)


_BIG_NEAR = [(3 ** 126 + 2, 2 ** 199 + 7), (-(2 ** 200) + 1, 5 ** 86 - 4),
             (7 ** 71, -(2 ** 200) - 3), (2 ** 200 - 1, 2 ** 200 - 3),
             (1, 2 ** 200 + 1)]


def test_near_threshold_against_fraction_form():
    """real_case_branch's near threshold, cached on (|P|, |Q|), against the
    uncached Fraction form on every near-branch point of a grid and on
    200-bit (P, Q)."""
    seen = 0
    for a, b in [(1, -1), (5, 3), (-4, -2), (7, 12), (3, -10), (-12, 3)]:
        for p in range(-40, 41):
            for q in range(-40, 41):
                params = SequenceParams(a, b, p, q)
                if p == 0 or q == 0 or classify(params).kind is not Kind.REAL:
                    continue
                br = real_case_branch(params)
                if br.kind is BranchKind.NEAR:
                    assert br.n_min == _near_threshold(p, q), params
                    seen += 1
    assert seen > 10000
    for p, q in _BIG_NEAR:
        br = real_case_branch(SequenceParams(5, 3, p, q))
        assert br.kind is BranchKind.NEAR
        assert br.n_min == _near_threshold(p, q), (p, q)


def test_near_threshold_of_huge_initial_values_is_decided():
    """20000-bit P and Q: the reduced factor |Q/P| keeps the enclosure
    narrow, where the equal integer form ceil(ceil(7m*ln|Q| + 18m)/|P|)
    would need ln|Q| past MAX_PREC bits."""
    p, q = 2 ** 20000 + 1, 3 * 2 ** 19998 + 7
    br = real_case_branch(SequenceParams(5, 3, p, q))
    assert (br.kind, br.n_min) == (BranchKind.NEAR, 97057)


# -- real-case growth ---------------------------------------------------------

def test_real_growth_below_threshold_not_applicable():
    rep = check_real_growth(SequenceParams(3, 2, 1, 3), 50)
    assert not rep.applicable and rep.bound_holds is None
    assert rep.threshold == 78


def test_real_growth_holds_on_corrected_example():
    # u_n = 2^(n+1) - 1 for (3, 2, 1, 3)
    rep = check_real_growth(SequenceParams(3, 2, 1, 3), 100)
    assert rep.applicable and rep.bound_holds
    assert rep.regime == "real-near"
    assert all(m.sign >= 0 for m in rep.margins)


def test_real_growth_far_branch():
    rep = check_real_growth(SequenceParams(7, 12, 1, 1), 12)
    assert rep.applicable and rep.bound_holds and rep.regime == "real-far"


def test_real_growth_negative_a_flip():
    # |u_n| is invariant under (A,B,P,Q) -> (-A,B,P,-Q)
    r1 = check_real_growth(SequenceParams(7, 12, 1, 1), 15)
    r2 = check_real_growth(SequenceParams(-7, 12, 1, -1), 15)
    assert r1.bound_holds == r2.bound_holds == True
    assert r1.regime == r2.regime == "real-far"


def test_real_growth_sweep_small_grid():
    for a in range(1, 9):
        for b in range(-8, 9):
            for p, q in [(1, 1), (2, -3), (-1, 4), (3, 2)]:
                params = SequenceParams(a, b, p, q)
                if classify(params).is_degenerate:
                    continue
                if classify(params).kind is not Kind.REAL:
                    continue
                br = real_case_branch(params)
                for n in range(br.n_min, min(br.n_min + 12, 160)):
                    rep = check_real_growth(params, n)
                    assert rep.applicable and rep.bound_holds, (params, n)


# -- sharp per-case bounds ----------------------------------------------------

def test_sharp_far_positive():
    rep = check_sharp_growth(SequenceParams(7, 12, 1, 1), 9)
    assert rep.regime == "sharp-far-positive" and rep.bound_holds
    rep = check_sharp_growth(SequenceParams(7, 12, 1, 1), 6)
    assert not rep.applicable


def test_sharp_far_negative_parity():
    params = SequenceParams(3, -100, 1, 1)
    even = check_sharp_growth(params, 14)
    odd = check_sharp_growth(params, 15)
    assert even.regime == "sharp-far-negative-even" and even.bound_holds
    assert odd.regime == "sharp-far-negative-odd" and odd.bound_holds
    # odd case below its own threshold n >= 6|Q/P| + 3 = 9
    assert not check_sharp_growth(params, 7).applicable


def test_sharp_near_cases():
    wide = SequenceParams(10, 1, 1, 1)       # near-wide, threshold n > 12
    rep = check_sharp_growth(wide, 20)
    assert rep.regime == "sharp-near-wide" and rep.bound_holds
    assert not check_sharp_growth(wide, 12).applicable   # needs n > 12
    assert check_sharp_growth(wide, 13).applicable
    tight = SequenceParams(3, 2, 1, 3)
    rep = check_sharp_growth(tight, 100)
    assert rep.regime == "sharp-near-tight" and rep.bound_holds
    assert not check_sharp_growth(tight, 77).applicable


def test_sharp_sweep_consistent_with_general():
    for a, b in [(7, 12), (3, -100), (10, 1), (3, 2), (5, -2)]:
        for p, q in [(1, 1), (1, 3), (2, -5)]:
            params = SequenceParams(a, b, p, q)
            if classify(params).is_degenerate:
                continue
            for n in range(2, 90):
                rep = check_sharp_growth(params, n)
                if rep.applicable:
                    assert rep.bound_holds, (params, n, rep.regime)


# -- non-real case ------------------------------------------------------------

def test_nonreal_examples():
    params = SequenceParams(1, 2, 1, 1)
    # u: 1, 1, -1, -3, -1, 5, 7, -3
    assert iter_terms(1, 2, 1, 1, 7) == [1, 1, -1, -3, -1, 5, 7, -3]
    assert check_nonreal_growth(params, 7).bound_holds is False   # 27 < 128
    assert check_nonreal_growth(params, 5).bound_holds is True    # 125 >= 32
    assert check_nonreal_growth(params, 0).bound_holds is True    # |P|^3 >= 1


def test_nonreal_threshold_scan():
    params = SequenceParams(1, 2, 1, 1)
    t = empirical_nonreal_threshold(params, 500)
    assert t == 26
    # every n from the threshold up satisfies the cube bound
    seq = iter_terms(1, 2, 1, 1, 500)
    for n in range(t, 501):
        assert abs(seq[n]) ** 3 >= 2 ** n
    assert abs(seq[t - 1]) ** 3 < 2 ** (t - 1)


def test_nonreal_formula_threshold():
    params = SequenceParams(3, 6, 5, 6)
    v = nonreal_threshold_formula(params, Fraction(50))
    assert v >= 1
    assert nonreal_threshold_formula(params, Fraction(100)) >= v
    with pytest.raises(DegenerateInputError):
        nonreal_threshold_formula(SequenceParams(3, 2, 1, 3))


def test_nonreal_rejects_real():
    with pytest.raises(DegenerateInputError):
        check_nonreal_growth(SequenceParams(3, 2, 1, 3), 5)


# -- Lucas growth -------------------------------------------------------------

def test_lucas_growth_examples():
    # 2*F_10 = 110 >= phi^8
    assert check_lucas_growth(1, -1, 10).bound_holds
    # U_5(3,2) = 31 >= 2^4 = 16 (the positive-B clause holds)
    assert check_lucas_growth(3, 2, 5).bound_holds
    # n = 2 with B < 0: 2|A| >= alpha^0 = 1
    assert check_lucas_growth(1, -1, 2).bound_holds
    with pytest.raises(ValueError):
        check_lucas_growth(1, -1, 1)
    with pytest.raises(DegenerateInputError):
        check_lucas_growth(2, 2, 5)     # degenerate pair


def test_lucas_growth_sweeps():
    for a in range(1, 11):
        for b in range(-10, 11):
            pair = SequenceParams(a, b, 0, 1)
            if b == 0 or classify(pair).is_degenerate:
                continue
            if a * a <= 4 * b:
                continue
            for n in range(2, 60):
                assert check_lucas_growth(a, b, n).bound_holds, (a, b, n)


def test_lucas_growth_nonreal_conservative():
    with pytest.raises(DegenerateInputError):
        check_lucas_growth(1, 2, 10)            # needs explicit constant
    rep = check_lucas_growth(1, 2, 10, Fraction(100))
    assert rep.regime == "lucas-nonreal"
    assert rep.bound_holds        # slack 100*(ln 10)^2 > 10: exponent clamps to 0


# -- heights ------------------------------------------------------------------

def test_ratio_height_quadratic_example():
    rh = ratio_height(SequenceParams(1, -1, 1, 1))
    assert rh.coeffs == (1, 3, 1) and rh.height == 3 and not rh.linear


_HEIGHT_BOUND_UNDER_O = """
import brigkit.growth as g, brigkit.sweep as sw
from brigkit import SequenceParams
assert not __debug__
g._height_bound_ok = lambda *args: False
try:
    g.ratio_height(SequenceParams(1, -1, 1, 1))
    print("returned")
except g.HeightBoundError:
    print("raised")
cfg = sw.SweepConfig(a_range=(1, 1), b_range=(-1, -1), p_range=(1, 1),
                     q_range=(1, 1), checks=("height",))
report, violations = sw.run_sweep(cfg)
print(violations, ",".join(report["records"][0]["flags"]))
print(",".join(f"{d['grade']}:{d['check']}:{d['p']}:{d['q']}"
               for d in report["discrepancies"]))
"""


def test_height_bound_survives_optimized_mode():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(brigkit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _HEIGHT_BOUND_UNDER_O],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["raised", "1 height-bound",
                                          "assertion:height-bound:1:1"]


def test_ratio_height_rational_cases():
    rh = ratio_height(SequenceParams(3, -5, 0, 1))
    assert rh.coeffs == (-1, 1) and rh.height == 1 and rh.linear
    # 2Q = PA with irrational D: ratio -1
    rh = ratio_height(SequenceParams(4, 1, 1, 2))
    assert rh.coeffs == (1, 1) and rh.height == 1 and rh.linear


def test_ratio_height_linear_integer_roots():
    # (3, 2, 7, 6): roots 2, 1; b/a = (6-14)/(6-7) = 8
    rh = ratio_height(SequenceParams(3, 2, 7, 6))
    assert rh.linear
    c0, c1 = rh.coeffs
    assert Fraction(-c0, c1) == 8
    assert rh.height == max(abs(c0), abs(c1))


def test_ratio_height_rejects_degenerate():
    for params in [SequenceParams(2, 1, 1, 1),    # equal roots
                   SequenceParams(3, 0, 1, 1),    # B = 0
                   SequenceParams(3, 2, 1, 2),    # b = 0
                   SequenceParams(0, 0, 0, 0)]:
        with pytest.raises(DegenerateInputError):
            ratio_height(params)



# (A, B, P, Q): (coeffs, height, linear), literals computed by the previous
# Discriminant-based ratio_height, one or more per regime
_RATIO_HEIGHT_PINS = {
    (5, 3, 0, -7): ((-1, 1), 1, True),                 # P = 0
    (-5, 3, 0, -7): ((-1, 1), 1, True),
    (7, 12, 5, -3): ((-23, 18), 23, True),             # square delta
    (-7, 12, 5, -3): ((-17, 12), 17, True),
    (5, -6, -4, 9): ((-33, 5), 33, True),
    (0, -1, 1, -1): ((-1, 0), 1, True),                # A = 0, c1 = 0
    (0, -1, 3, 5): ((-1, 4), 4, True),
    (4, 1, 2, 4): ((1, 1), 1, True),                   # 2Q = P*A
    (-4, 1, 2, -4): ((1, 1), 1, True),
    (6, 7, -2, -6): ((1, 1), 1, True),
    (-2, 3, 1, -1): ((1, 1), 1, True),
    (5, 3, -4, 7): ((237, -682, 237), 682, False),     # quadratic
    (-5, 3, -4, 7): ((43, 122, 43), 122, False),
    (12, -3, 8, -8): ((5, -88, 5), 88, False),
    (2, 3, 1, -1): ((3, -2, 3), 3, False),             # non-real
    (0, 2, 1, 1): ((3, 2, 3), 3, False),
    (3, 3, 2, 1): ((7, -2, 7), 7, False),              # root-of-unity ratio
    (2 ** 70 + 1, -3 ** 40, 7 ** 30, -5 ** 33): (
        (3078576487257920042649511343982580276653113214937250145552670715596051,
         708079129477359290516959849653465801290781974130706581245806735975086246986994492609322297727,
         3078576487257920042649511343982580276653113214937250145552670715596051),
        708079129477359290516959849653465801290781974130706581245806735975086246986994492609322297727,
        False),
}


@pytest.mark.parametrize("abpq", list(_RATIO_HEIGHT_PINS))
def test_ratio_height_is_pinned_in_every_regime(abpq):
    rh = ratio_height(SequenceParams(*abpq))
    assert (rh.coeffs, rh.height, rh.linear) == _RATIO_HEIGHT_PINS[abpq]


def test_ratio_height_error_paths_are_pinned(monkeypatch):
    """The degenerate classes without a ratio raise with their label; a
    height past its bound raises HeightBoundError from ratio_height and from
    the sandwich check alike."""
    import brigkit.growth as g
    for abpq, label in [
            ((2, 1, 1, 1), "equal roots (A^2 = 4B)"),
            ((3, 0, 1, 1), "B is zero"),
            ((-3, 2, 1, -2), "closed-form coefficient on the minor root is zero"),
            ((-3, 2, 1, -1), "closed-form coefficient on the dominant root is zero"),
            ((0, 0, 0, 0), "both initial values zero")]:
        with pytest.raises(DegenerateInputError) as err:
            ratio_height(SequenceParams(*abpq))
        assert str(err.value) == f"ratio b/a undefined or zero for degenerate: {label}"
    with pytest.raises(DegenerateInputError, match="the sandwich is trivial"):
        height_sandwich_check(SequenceParams(2, 3, 1, -1))
    monkeypatch.setattr(g, "_height_bound_ok", lambda *args: False)
    for abpq, h in [((1, -1, 1, 1), 3), ((3, 2, 7, 6), 8)]:
        params = SequenceParams(*abpq)
        for check in (ratio_height, height_sandwich_check):
            with pytest.raises(g.HeightBoundError) as err:
                check(params)
            assert str(err.value) == f"height {h} of {params} exceeds its bound"

def _ratio(params):
    """b/a as (r, s, e, delta), meaning (r + s*sqrt(delta))/e with e > 0.

    With A sign-normalized and x = 2Q - P*A, b/a = (Q - P*alpha)/(Q - P*beta)
    = (x - P*sqrt(delta))/(x + P*sqrt(delta)); multiplying through by
    x - P*sqrt(delta) clears the surd from the denominator."""
    a1, p = abs(params.A), params.P
    q = -params.Q if params.A < 0 else params.Q
    delta = a1 * a1 - 4 * params.B
    x = 2 * q - p * a1
    r, s, e = x * x + p * p * delta, -2 * x * p, x * x - p * p * delta
    return (r, s, e, delta) if e > 0 else (-r, -s, -e, delta)


def test_ratio_value_matches_polynomial():
    """b/a, built here from its closed form, is a root of ratio_height's
    quadratic: for g = (r + s*sqrt(delta))/e, both the rational and the
    sqrt(delta) part of e^2*(c2*g^2 + c1*g + c0) vanish."""
    roots = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            for p, q in [(1, 1), (2, -3), (-1, 4), (3, 5)]:
                params = SequenceParams(a, b, p, q)
                cls = classify(params)
                if cls.is_degenerate or cls.kind is not Kind.REAL:
                    continue
                rh = ratio_height(params)
                if rh.linear:
                    continue
                c0, c1, c2 = rh.coeffs
                r, s, e, delta = _ratio(params)
                assert c2 * (r * r + s * s * delta) + c1 * e * r + c0 * e * e == 0
                assert 2 * c2 * r * s + c1 * e * s == 0
                roots += 1
    assert roots > 50


def test_sandwich_examples():
    assert height_sandwich_check(SequenceParams(1, -1, 1, 1))
    assert height_sandwich_check(SequenceParams(3, -5, 0, 1))      # ratio 1
    assert height_sandwich_check(SequenceParams(3, 2, 7, 6))
    with pytest.raises(DegenerateInputError):
        height_sandwich_check(SequenceParams(3, 6, 5, 6))          # non-real


def test_sandwich_and_bound_sweep():
    for a in range(-8, 9):
        for b in range(-8, 9):
            for p, q in [(1, 1), (0, 1), (2, -3), (-1, 2), (3, 4)]:
                params = SequenceParams(a, b, p, q)
                try:
                    rh = ratio_height(params)   # internal bound assert runs
                except DegenerateInputError:
                    continue
                if not rh.linear:
                    assert rh.coeffs[0] == rh.coeffs[2]   # self-reciprocal
                if classify(params).kind is Kind.REAL:
                    assert height_sandwich_check(params), params


def test_sandwich_against_interval_oracle():
    for params in [SequenceParams(1, -1, 1, 1), SequenceParams(5, 3, 2, -7),
                   SequenceParams(9, -4, 3, 1)]:
        r, s, e, delta = _ratio(params)
        sg = interval_sign(Fraction(r, e), Fraction(s, e), delta)
        assert sg in (-1, 1)
        r, s = sg * r, sg * s                      # |b/a| = (r + s*sqrt(delta))/e
        h1 = ratio_height(params).height + 1
        assert interval_sign(h1 * r - e, h1 * s, delta) == 1       # h1|b/a| > 1
        assert interval_sign(h1 * e - r, -s, delta) == 1           # |b/a| < h1
        assert float(Fraction(1, h1)) < (r + s * delta ** 0.5) / e < h1
        assert height_sandwich_check(params)


def test_margin_certificates_against_interval_oracle():
    """Every margin re-evaluates to the reported sign under >256-bit
    directed-rounding interval arithmetic."""
    reports = [check_real_growth(SequenceParams(7, 12, 1, 1), 15),
               check_real_growth(SequenceParams(3, 2, 1, 3), 90),
               check_real_growth(SequenceParams(3, -100, 1, 1), 14),
               check_sharp_growth(SequenceParams(7, 12, 1, 1), 9),
               check_sharp_growth(SequenceParams(3, -100, 1, 1), 14),
               check_sharp_growth(SequenceParams(3, -100, 1, 1), 15),
               check_sharp_growth(SequenceParams(10, 1, 1, 1), 20),
               check_nonreal_growth(SequenceParams(1, 2, 1, 1), 7)]
    margins = 0
    for rep in reports:
        assert rep.applicable
        for m in rep.margins:
            if isinstance(m.value, brigkit.exactnum.QuadElem):
                v = m.value
                assert v.den > 0
                s = interval_sign(Fraction(v.x, v.den), Fraction(v.y, v.den), v.d)
                assert s is not None and s == m.sign
            else:
                assert ((m.value > 0) - (m.value < 0)) == m.sign
            margins += 1
    assert margins == 16


def test_real_checkers_classify_once(monkeypatch):
    """check_real_growth and check_sharp_growth classify their point once,
    below and above the threshold, on both branches."""
    calls = []

    def counted(params):
        calls.append(params)
        return real_classify(params)

    real_classify = brigkit.growth.classify
    monkeypatch.setattr(brigkit.growth, "classify", counted)
    for params, n in [(SequenceParams(7, 12, 1, 1), 5), (SequenceParams(7, 12, 1, 1), 15),
                      (SequenceParams(3, 2, 1, 3), 50), (SequenceParams(3, 2, 1, 3), 90),
                      (SequenceParams(3, -100, 1, 1), 15)]:
        for check in (check_real_growth, check_sharp_growth):
            calls.clear()
            check(params, n)
            assert calls == [params], (check.__name__, params, n)


def test_sharp_far_negative_with_square_discriminant():
    # (3, -4): integer roots 4 and -1, D = 5, D - A = 2 >= 6*(1/3)
    params = SequenceParams(3, -4, 3, 1)
    br = real_case_branch(params)
    assert br.case is GrowthCase.FAR_NEG
    even = check_sharp_growth(params, 14)
    assert even.applicable and even.bound_holds
    odd = check_sharp_growth(params, 15)
    assert odd.applicable and odd.bound_holds


def test_cube_bound_dominates_five_fourths():
    # B^(n/3) >= 1.25^n for every B >= 2 because (5/4)^3 < 2
    assert Fraction(5, 4) ** 3 < 2


def test_sharp_bounds_broad_deterministic_sweep():
    """Every applicable per-case sharp bound holds on a dense small grid."""
    checked = 0
    for a in range(1, 9):
        for b in range(-8, 9):
            if b == 0 or a * a <= 4 * b:
                continue
            for p, q in [(1, 1), (1, -2), (2, 3), (-1, 1), (3, -1), (2, -5)]:
                params = SequenceParams(a, b, p, q)
                if classify(params).is_degenerate:
                    continue
                for n in range(2, 51):
                    rep = check_sharp_growth(params, n)
                    if rep.applicable:
                        assert rep.bound_holds, (params, n, rep.regime)
                        checked += 1
    assert checked > 5000


# The smallest ratio k*2^(e*m)*|u_n| / (c*gamma^m) of each of
# check_sharp_growth's ten rows over the growth box (A in [-12, 12], B in
# [-3, 3], 0 < |P|, |Q| <= 8, n from the row's threshold to 200).  A < 0
# adds nothing: the checker flips it to (|A|, B, P, -Q) with the same |u_n|.
# A float search located candidates; a decimal search of every point and
# index at 60 digits picked the witnesses, and one at 450 digits the two
# rows whose ratio tends to a limit:
#   eleven-a-halves       (3, 2, -3, -1), n = 7:   2^6*251/(11*3^6) = 2.0032...
#   seven-three-halves    (3, 2, -3, -1), n = 7:   2^7*251/(7*3^7) = 2.0986...
#   alpha-linear          (1, -3, -7, 3), n = 200: 1.30277563773199464656...,
#                         falling on even n to (sqrt13 - 1)/2
#   golden-three-fifths   (1, -1, -5, 1), n = 200: 1.55792069291691202086...,
#                         falling on even n to (25 - 7*sqrt5)/6
#   half-n-a-d-halves     (1, -2, -3, 1), n = 5:   2^4*19/(5*3^3) = 304/135
#   sqrt5-fourteen-fifths (1, -1, -5, 1), n = 5:   5*2^5*10/(14*sqrt5^5) = 2.0444...
#   alpha-over-5p         (3, -3, -5, 4), n = 20:  3.4158...
#   golden-over-14p       (1, -1, -3, 1), n = 13:  16.042...
#   alpha-over-22q        (2, -2, -4, 3), n = 26:  3.7372...
#   golden-over-36q       (1, -1, -2, 1), n = 19:  36*987/phi^19 = 3.8006...
# Only alpha-linear and golden-three-fifths fall below 2, so only they have a
# point where c doubled flips a verdict, and none has one for c halved.  The
# bracket lo <= ratio < hi with hi <= 2*lo catches both.
SHARP_ROW_MINIMA = [
    # (label, A, B, P, Q, n, lo, hi)
    ("eleven-a-halves", 3, 2, -3, -1, 7, Fraction(2), Fraction(201, 100)),
    ("seven-three-halves", 3, 2, -3, -1, 7, Fraction(209, 100), Fraction(21, 10)),
    ("alpha-linear", 1, -3, -7, 3, 200, Fraction(13, 10), Fraction(131, 100)),
    ("golden-three-fifths", 1, -1, -5, 1, 200, Fraction(155, 100), Fraction(156, 100)),
    ("half-n-a-d-halves", 1, -2, -3, 1, 5, Fraction(225, 100), Fraction(226, 100)),
    ("sqrt5-fourteen-fifths", 1, -1, -5, 1, 5, Fraction(204, 100), Fraction(205, 100)),
    ("alpha-over-5p", 3, -3, -5, 4, 20, Fraction(341, 100), Fraction(342, 100)),
    ("golden-over-14p", 1, -1, -3, 1, 13, Fraction(16), Fraction(161, 10)),
    ("alpha-over-22q", 2, -2, -4, 3, 26, Fraction(373, 100), Fraction(374, 100)),
    ("golden-over-36q", 1, -1, -2, 1, 19, Fraction(38, 10), Fraction(381, 100)),
]


@pytest.mark.parametrize("label, a, b, p, q, n, lo, hi", SHARP_ROW_MINIMA,
                         ids=[row[0] for row in SHARP_ROW_MINIMA])
def test_sharp_rows_are_pinned_at_their_smallest_ratio(monkeypatch, label, a, b,
                                                       p, q, n, lo, hi):
    """The row check_sharp_growth declares at the witness, with c scaled by
    lo, holds and with c scaled by hi fails, in _bound_margins and in a
    decimal interval referee that shares no code with brigkit."""
    monkeypatch.setattr(brigkit.growth, "_real_report",
                        lambda params, n, regime, t, rows: (t, rows))
    threshold, rows = check_sharp_growth(SequenceParams(a, b, p, q), n)
    assert threshold <= n <= 200
    (row,) = [r for r in rows if r[0] == label]
    _, k, e, c, off, ga, gb = row
    m = n - off
    x = abs(iter_terms(a, b, p, q, n)[n])
    um, vm = iter_lucas_u(ga, gb, m)[m], iter_lucas_v(ga, gb, m)[m]
    for scale, holds in ((lo, True), (hi, False)):
        kk, cc = k * scale.denominator, c * scale.numerator
        scaled = ((label, kk, e, cc, off, ga, gb),)
        assert _bound_margins(x, n, scaled)[0].holds == holds
        sign = decimal_sign(2 * (kk << e * m) * x - cc * vm, -cc * um, ga * ga - 4 * gb)
        assert (sign >= 0) == holds, (scale, sign)


# -- integer sign decisions against the interval referee ----------------------

def _branch_by_intervals(params):
    """real_case_branch's case and far threshold, from interval signs of the
    three comparisons written with rationals; also how many were exact ties."""
    a, b = abs(params.A), params.B
    q = Fraction(abs(params.Q), abs(params.P))
    delta = a * a - 4 * b
    signs = [interval_sign(a - 6 * q, -1, delta),       # A - D - 6|Q/P|
             interval_sign(-(a + 6 * q), 1, delta),     # D - A - 6|Q/P|
             interval_sign(a - 9 * q, 1, delta)]        # A + D - 9|Q/P|
    assert None not in signs
    ties = signs.count(0)
    if signs[0] >= 0:
        return GrowthCase.FAR_POS, ceil(6 * q + 6), ties
    if signs[1] >= 0:
        return GrowthCase.FAR_NEG, ceil(6 * q + 6), ties
    return (GrowthCase.NEAR_WIDE if signs[2] >= 0 else GrowthCase.NEAR_TIGHT), None, ties


def test_branch_against_interval_oracle():
    grid = [SequenceParams(a, b, p, q) for a in range(-12, 13)
            for b in range(-12, 13) for p, q in [(1, 1), (3, 1), (1, 2), (-2, 3), (4, -7)]]
    # one exact tie per comparison (square delta): A - D = 6|Q/P| at (7, 12, 1, 1),
    # D - A = 6|Q/P| at (1, -12, 1, 1) and (3, -4, 3, 1), A + D = 9|Q/P| at (10, 9, 1, 2)
    grid += [SequenceParams(7, 12, 1, 1), SequenceParams(1, -12, 1, 1),
             SequenceParams(3, -4, 3, 1), SequenceParams(10, 9, 1, 2)]
    cases, squares, ties = set(), 0, 0
    for params in grid:
        cls = classify(params)
        if cls.is_degenerate or cls.kind is not Kind.REAL:
            continue
        case, far_min, tie = _branch_by_intervals(params)
        br = real_case_branch(params)
        assert br.case is case, params
        if far_min is not None:
            assert br.n_min == far_min, params
        cases.add(case)
        ties += tie
        d = params.A ** 2 - 4 * params.B
        squares += isqrt(d) ** 2 == d
    assert cases == set(GrowthCase) and squares > 0 and ties >= 4


def _largest_passing_height(a1, B, P, Q):
    """floor(2(|Q| + |P|(A+|D|)/2)^2) - 1 by integer square roots: with
    X = 2|Q| + |P|A and Y = |P|, that is floor((S + 2XY*sqrt|delta|)/2) - 1
    for S = X^2 + Y^2|delta|, and floor((S + t)/2) = floor((S + floor t)/2)."""
    abs_delta = abs(a1 * a1 - 4 * B)
    x, y = 2 * abs(Q) + abs(P) * a1, abs(P)
    return (x * x + y * y * abs_delta + isqrt(4 * x * x * y * y * abs_delta)) // 2 - 1


def test_height_bound_is_tight_at_its_largest_height():
    from brigkit.growth import _height_bound_ok
    exact = 0
    for a1 in range(0, 9):
        for b in range(-8, 9):
            for p, q in [(0, 1), (1, 1), (2, -3), (-1, 2), (3, 4), (5, 0)]:
                h = _largest_passing_height(a1, b, p, q)
                assert _height_bound_ok(a1, b, p, q, h), (a1, b, p, q)
                assert not _height_bound_ok(a1, b, p, q, h + 1), (a1, b, p, q)
                # at a square |delta| the bound is met with equality when
                # (X + Y*sqrt|delta|)^2 is even
                d = abs(a1 * a1 - 4 * b)
                x, y = 2 * abs(q) + abs(p) * a1, abs(p)
                exact += isqrt(d) ** 2 == d and (x + y * isqrt(d)) % 2 == 0
    assert exact > 0


def test_quadratic_sandwich_against_interval_oracle():
    from brigkit.growth import _quadratic_sandwich
    outcomes, neg = set(), 0
    for a in range(-9, 10):
        for b in range(-9, 10):
            for p, q in [(1, 1), (2, -3), (-1, 4), (3, 5), (1, -7), (5, 2)]:
                params = SequenceParams(a, b, p, q)
                cls = classify(params)
                if cls.is_degenerate or cls.kind is not Kind.REAL:
                    continue
                if ratio_height(params).linear:
                    continue
                r, s, e, delta = _ratio(params)
                sg = interval_sign(Fraction(r, e), Fraction(s, e), delta)
                assert sg in (-1, 1)
                neg += sg < 0
                r, s = sg * r, sg * s                  # |b/a| = (r + s*sqrt(delta))/e
                approx = (r + s * delta ** 0.5) / e
                a1 = abs(a)
                x, y = 2 * (q if a >= 0 else -q) - p * a1, p
                for v in (approx, 1 / approx):
                    for h1 in range(max(1, int(v) - 1), int(v) + 3):
                        lower = interval_sign(h1 * r - e, h1 * s, delta)   # e(h1|g| - 1)
                        upper = interval_sign(h1 * e - r, -s, delta)       # e(h1 - |g|)
                        assert lower in (-1, 1) and upper in (-1, 1)
                        want = lower > 0 and upper > 0
                        assert _quadratic_sandwich(x, y, delta, h1) == want, (params, h1)
                        outcomes.add((want, sg))
    assert outcomes == {(True, 1), (False, 1), (True, -1), (False, -1)}
    assert neg > 0


def test_linear_sandwich_at_its_boundaries(monkeypatch):
    """The linear case against Fraction arithmetic, with H + 1 on both sides
    of |b/a| and 1/|b/a| and equal to each (the inequalities are strict)."""
    import brigkit.growth as g
    params = SequenceParams(3, 2, 7, 6)          # real, linear, b/a = 8
    outcomes = set()
    for c0, c1 in [(-8, 1), (1, 3), (-5, 3), (3, 5), (-1, 1)]:
        ratio = Fraction(abs(c0), c1)
        for h in range(0, 10):
            monkeypatch.setattr(g, "_ratio_height",
                                lambda p, cls, h=h: g.RatioHeight((c0, c1), h, True))
            want = Fraction(1, h + 1) < ratio < h + 1
            assert g.height_sandwich_check(params) == want, (c0, c1, h)
            outcomes.add((want, h + 1 in (ratio, 1 / ratio)))
    assert outcomes == {(True, False), (False, False), (False, True)}
