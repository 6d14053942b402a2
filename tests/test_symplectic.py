"""Hessian pairings, obstruction ranks, and graph-Lagrangian intersections."""

import json

import pytest

import dcrit.cli
import dcrit.symplectic
from dcrit.cli import main
from dcrit.groebner import INFINITE
from dcrit.koszul import MatrixComplex, build_koszul
from dcrit.parsing import parse_one_form, parse_poly
from dcrit.poly import Poly, gradient
from dcrit.polyvec import OneForm
from dcrit.symplectic import (NotClosedError, hessian,
                              intersect_graph_lagrangians, is_symmetric,
                              minus_one_pairing, obstruction_theory,
                              pairing_report, tangent_complex)

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def test_hessian_values():
    assert hessian(P("x*y")) == [[P("0"), P("1")], [P("1"), P("0")]]
    assert hessian(P("x^3 + y^3")) == [[P("6*x"), P("0")], [P("0"), P("6*y")]]
    assert is_symmetric(hessian(P("x^4*y + x*y^3 - 2*x")))


def test_a_given_hessian_gives_the_same_reports():
    f = P("x^4*y + x*y^3 - 2*x")
    h = hessian(f, gradient(f))
    assert h == hessian(f)
    assert minus_one_pairing(f, h) == minus_one_pairing(f)
    assert obstruction_theory(f, hess=h) == obstruction_theory(f)
    with pytest.raises(ValueError):
        hessian(f, gradient(f)[:1])
    with pytest.raises(ValueError):
        obstruction_theory(f, hess=h[:1])
    with pytest.raises(ValueError):
        minus_one_pairing(f, [[P("x", ("x",))]])


def test_crit_takes_the_gradient_once(monkeypatch, capsys):
    calls = []

    def counting(f):
        calls.append(f)
        return gradient(f)

    monkeypatch.setattr(dcrit.cli, "gradient", counting)
    monkeypatch.setattr(dcrit.symplectic, "gradient", counting)
    assert main(["crit", "--vars", "x,y", "-f", "x^3 + y^3", "--json", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["pairing"]["hessian"] == doc["obstruction"]["hessian"] == ["6*x", "0", "0", "6*y"]
    assert len(calls) == 1


def test_tangent_complex_shape():
    T = tangent_complex(P("x^3 + y^3"))
    assert isinstance(T, MatrixComplex)
    assert T.degrees == [0]
    assert [len(row) for row in T.differential_matrix(0)] == [2, 2]
    assert T.differential_matrix(0) == hessian(P("x^3 + y^3"))


def test_pairing_symmetric_iff_nondegenerate():
    report = minus_one_pairing(P("x^3 + y^3"))
    assert report.symmetric and report.nondegenerate
    assert "identity" in report.duality_map
    assert report.to_json() == {"hessian": ["6*x", "0", "0", "6*y"],
                                "symmetric": True, "nondegenerate": True}

    skew = MatrixComplex(VS, {0: [[P("0"), P("1")], [P("0"), P("0")]]})
    adversarial = pairing_report(skew)
    assert not adversarial.symmetric and not adversarial.nondegenerate
    assert adversarial.duality_map.startswith("none")


def test_obstruction_isolated_degenerate():
    report = obstruction_theory(P("x^3 + y^3"))
    assert report.quotient_dim == 4
    assert report.h0 == 4 and report.h1 == 4
    assert report.hessian_invertible is False


def test_obstruction_nondegenerate_point():
    report = obstruction_theory(P("x^2 + y^2"))
    assert report.quotient_dim == 1
    assert report.h0 == 0 and report.h1 == 0
    assert report.hessian_invertible is True


def test_obstruction_non_isolated():
    report = obstruction_theory(P("x^2*y^2"))
    assert report.quotient_dim is INFINITE
    assert report.h0 is None and report.h1 is None
    assert report.to_json()["quotient_dim"] == INFINITE


def test_graph_intersection_matches_koszul():
    f = P("x^3 + y^3")
    li = intersect_graph_lagrangians(OneForm.differential_of(f), OneForm.zero(VS))
    direct = build_koszul(VS, list(gradient(f)), gens=li.complex.ambient.gens)
    for p in direct.degrees:
        assert li.complex.differential_matrix(p) == direct.differential_matrix(p)
    assert li.pairing.symmetric and li.pairing.nondegenerate


def test_graph_intersection_of_two_forms():
    alpha = OneForm.differential_of(P("x^2"))
    beta = OneForm.differential_of(P("y^2"))
    li = intersect_graph_lagrangians(alpha, beta)
    # difference section (2x, -2y) cuts out the origin
    assert li.complex.section.components == (P("2*x"), P("-2*y"))


def test_non_closed_input_is_rejected_with_witness():
    with pytest.raises(NotClosedError) as e:
        intersect_graph_lagrangians(parse_one_form("y*d_x", VS), OneForm.zero(VS))
    assert e.value.label == "alpha"
    assert e.value.witness["pair"] == ("x", "y")
    assert "mixed partials differ" in str(e.value)

    with pytest.raises(NotClosedError) as e:
        intersect_graph_lagrangians(OneForm.zero(VS), parse_one_form("x^2*d_y", VS))
    assert e.value.label == "beta"


def test_mismatched_variables_are_rejected():
    with pytest.raises(ValueError):
        intersect_graph_lagrangians(OneForm.zero(VS), OneForm.zero(("x",)))


def test_two_term_complex_validation():
    with pytest.raises(ValueError):
        pairing_report(MatrixComplex(VS, {0: [[P("x"), P("y")]]}))  # 1 x 2 is not square
    with pytest.raises(ValueError):
        MatrixComplex(VS, {0: [[parse_poly("x", ("x",))]]})  # foreign entry
