import json

import pytest

import astriples as at
from astriples.asl2 import (_context, check_asl2_nontrivial_products,
                            check_asl2_trivial_products, check_asl2_valencies,
                            run_asl2_oracle)
from astriples.finfield import field_from_order


def test_labeling_counts(asl2_schemes):
    for q, (scheme, labeling) in asl2_schemes.items():
        assert len(labeling.point_labels) == q - 2
        assert len(labeling.line_labels) == q - 1
        labels = set(labeling.point_labels.values()) | \
            set(labeling.line_labels.values())
        assert labels == set(scheme.nontrivial_labels)


def test_labeling_q3_field_elements(asl2_schemes):
    _, labeling = asl2_schemes[3]
    assert sorted(labeling.point_labels) == [2]
    assert sorted(labeling.line_labels) == [1, 2]


def test_labeling_guard():
    with pytest.raises(at.PreconditionError, match="2 <= q <= 8"):
        _context(9)
    with pytest.raises(at.PreconditionError):
        _context(1)


def test_point_classes_follow_affine_ratio(asl2_schemes):
    # independent membership predicate: (u, v, t) lies in the class of a
    # exactly when t = u + a (v - u) coordinatewise
    for q in (3, 4, 5):
        scheme, labeling = asl2_schemes[q]
        F = field_from_order(q)
        for a, label in labeling.point_labels.items():
            rel = scheme.partition.classes[label]
            for (u, v, t) in rel[:40]:
                ux, uy = divmod(u, q)
                vx, vy = divmod(v, q)
                tx, ty = divmod(t, q)
                assert tx == F.add(ux, F.mul(a, F.sub(vx, ux)))
                assert ty == F.add(uy, F.mul(a, F.sub(vy, uy)))


def test_line_classes_follow_determinant(asl2_schemes):
    # independent membership predicate: (u, v, t) lies in the class of a
    # exactly when det(v - u, t - u) = a
    for q in (3, 4, 5):
        scheme, labeling = asl2_schemes[q]
        F = field_from_order(q)
        for a, label in labeling.line_labels.items():
            rel = scheme.partition.classes[label]
            for (u, v, t) in rel[:40]:
                ux, uy = divmod(u, q)
                vx, vy = divmod(v, q)
                tx, ty = divmod(t, q)
                d1 = (F.sub(vx, ux), F.sub(vy, uy))
                d2 = (F.sub(tx, ux), F.sub(ty, uy))
                det = F.sub(F.mul(d1[0], d2[1]), F.mul(d1[1], d2[0]))
                assert det == a


def test_valency_checks(asl2_schemes):
    for q in (2, 3, 4, 5):
        report = check_asl2_valencies(q)
        assert report.passed
        assert report.checked == 2 * q - 3


def test_valency_values_q3(asl2_schemes):
    scheme, labeling = asl2_schemes[3]
    assert scheme.valencies.third(labeling.point_labels[2]) == 1
    assert scheme.valencies.third(labeling.line_labels[1]) == 3


def test_valency_multiset_q5(asl2_schemes):
    scheme, _ = asl2_schemes[5]
    thirds = sorted(scheme.valencies.third(i)
                    for i in scheme.nontrivial_labels)
    assert thirds == [1, 1, 1, 5, 5, 5, 5]


def test_nontrivial_products_all_q():
    for q in (2, 3, 4, 5):
        for check in check_asl2_nontrivial_products(q):
            assert check.passed, (q, check.name, check.counterexamples[:2])


def test_nontrivial_family_two_vacuous_at_q2():
    checks = {c.name: c for c in check_asl2_nontrivial_products(2)}
    assert "1: point point point" not in checks  # no a outside {0, 1}
    assert "2: two points, one line" not in checks
    assert checks["6: line line line"].checked == 1


def test_line_triple_product_q3(asl2_schemes):
    # 1 + 1 + 1 = 0 in GF(3), so the line product collapses to the scaled
    # point class: coefficient q on the class of -1/1 = 2
    scheme, labeling = asl2_schemes[3]
    i = labeling.line_labels[1]
    expected = [0] * (scheme.m + 1)
    expected[labeling.point_labels[2]] = 3
    assert list(scheme.tensor.slice(i, i, i)) == expected


def test_trivial_products_all_q():
    for q in (2, 3, 4, 5):
        for check in check_asl2_trivial_products(q):
            assert check.passed, (q, check.name, check.counterexamples[:2])


def test_trivial_product_values_q3(asl2_schemes):
    scheme, labeling = asl2_schemes[3]
    p2 = labeling.point_labels[2]
    # 2 * 2 = 1 in GF(3): I_1 A^2 A^2 = I_1
    slc = list(scheme.tensor.slice(1, p2, p2))
    expected = [0] * (scheme.m + 1)
    expected[1] = 1
    assert slc == expected
    # 1 = -2 in GF(3): the sandwiched line pair gives 3 I_2
    l1, l2 = labeling.line_labels[1], labeling.line_labels[2]
    slc = list(scheme.tensor.slice(l1, 2, l2))
    expected = [0] * (scheme.m + 1)
    expected[2] = 3
    assert slc == expected


def test_trivial_point_families_vacuous_at_q2():
    checks = {c.name: c for c in check_asl2_trivial_products(2)}
    assert "t1: I1 point point" not in checks
    assert checks["t5: I1 line line"].checked == 1


def test_oracle_reports(asl2_schemes):
    observed = {}
    for q in (2, 3, 4, 5):
        report = run_asl2_oracle(q)
        assert report.passed
        assert report.nontrivial_relations == 2 * q - 3
        assert report.nu == q * q
        observed[q] = report.commutative_observed
    # computed observation: order dependence appears from q = 4 on
    assert observed == {2: True, 3: True, 4: False, 5: False}


def test_oracle_guard_boundary_q8():
    report = run_asl2_oracle(8)
    assert report.passed
    assert report.nontrivial_relations == 13
    assert report.nu == 64


def test_oracle_drops_its_class_broadcasts(monkeypatch):
    # the scheme stays cached for the next run, its broadcasts do not, and
    # a second run, which builds them again, gives the same report
    from astriples import asl2
    first = run_asl2_oracle(4)
    scheme, _ = _context(4)
    assert scheme.bit_cache == {}
    assert run_asl2_oracle(4) == first
    assert scheme.bit_cache == {}
    monkeypatch.setattr(asl2, "is_commutative_subalgebra",
                        lambda scheme: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_asl2_oracle(4)
    assert scheme.bit_cache == {}


def test_oracle_report_serializes(tmp_path):
    report = run_asl2_oracle(3)
    data = report.to_dict()
    text = json.dumps(data, sort_keys=True)
    back = json.loads(text)
    assert back["passed"] is True
    assert back["q"] == 3
    assert len(back["nontrivial_products"]) == 6
    assert len(back["trivial_products"]) == 7
