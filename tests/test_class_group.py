from fractions import Fraction as F

import pytest

from conftest import coeffs, k_value
from germcalc.class_group import (
    NonGorPoint,
    global_imprimitivity,
    local_primitivity,
)


class TestLocalPrimitivity:
    def test_imprimitive_high_index(self):
        rep = local_primitivity(F(-1, 4), 12)
        assert (rep.image_order, rep.splitting_degree) == (4, 3)
        assert not rep.primitive

    def test_primitive_full_denominator(self):
        rep = local_primitivity(F(-1, 4), 4)
        assert rep.primitive and rep.splitting_degree == 1

    def test_degree_two(self):
        rep = local_primitivity(F(-1, 2), 4)
        assert rep.splitting_degree == 2 and not rep.primitive

    def test_sign_irrelevant(self):
        for value in (F(3, 4), F(-3, 4), F(5, 4)):
            rep = local_primitivity(value, 8)
            assert (rep.image_order, rep.splitting_degree) == (4, 2)

    def test_denominator_must_divide_index(self):
        with pytest.raises(ValueError, match="does not divide"):
            local_primitivity(F(1, 3), 4)

    def test_identity_order_times_degree(self, rng):
        for _ in range(300):
            m = rng.randint(2, 40)
            num = rng.randint(-10, 10) or 1
            den = rng.choice([d for d in range(1, m + 1) if m % d == 0])
            rep = local_primitivity(F(num, den), m)
            assert rep.image_order * rep.splitting_degree == m


class TestGlobalImprimitivity:
    def test_single_imprimitive_point(self):
        got = global_imprimitivity([(4, 2)])
        assert not got.primitive
        assert got.degree == 2
        assert got.base_singularity == "A1"

    def test_two_primitive_points(self):
        got = global_imprimitivity([(4, 1), (6, 1)])
        assert got.degree == 2
        assert got.base_singularity == "A1"

    def test_single_primitive_point(self):
        got = global_imprimitivity([(5, 1)])
        assert got.primitive and got.base_singularity == "smooth"

    def test_coprime_pair_is_primitive(self):
        assert global_imprimitivity([(4, 1), (5, 1)]).primitive

    def test_imprimitive_point_with_company_is_contradictory(self):
        with pytest.raises(ValueError, match="excludes"):
            global_imprimitivity([(4, 2), (3, 1)])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            global_imprimitivity([])


class TestImprimitiveChainFamily:
    def test_splitting_degree_from_canonical_degree(self):
        # chain family [2k-1, 2^(k-1), 5, k+2, 2^(2k-3)] with a component on
        # the second vertex: index m = 2k(2k-1), degree -1/(2k), splitting 2k-1
        from germcalc.cyclic_quot import CycQuot, HJChain, chain_to_quot, classify_T
        from germcalc.dual_graph import ConfigGraph, Vertex, VertexKind, exceptional_clusters
        from germcalc.resolution import codiscrepancy, k_dot_components

        for k in range(2, 7):
            m = 2 * k * (2 * k - 1)
            entries = (2 * k - 1,) + (2,) * (k - 1) + (5, k + 2) + (2,) * (2 * k - 3)
            s = chain_to_quot(HJChain(entries))
            assert s == CycQuot(m * m, m * (2 * k + 1) - 1)
            cert = classify_T(s)
            assert cert.verdict and cert.m == m
            vs = [Vertex(f"e{i}", VertexKind.EXCEPTIONAL, -a)
                  for i, a in enumerate(entries, 1)]
            vs.append(Vertex("c1", VertexKind.COMPONENT, -1))
            es = [(f"e{i}", f"e{i+1}") for i in range(1, len(entries))]
            es.append(("c1", "e2"))
            g = ConfigGraph(vs, es)
            d = codiscrepancy(g, exceptional_clusters(g)[0])
            assert coeffs(d)["e2"] == F(2 * k - 1, 2 * k)
            value = k_value(k_dot_components(g, [d]), "c1")
            assert value == F(-1, 2 * k)
            rep = local_primitivity(value, m)
            assert rep.splitting_degree == 2 * k - 1
            assert not rep.primitive


class TestNonGorPoint:
    def test_validation(self):
        NonGorPoint(4, "cAx/4", ell=0)
        with pytest.raises(ValueError):
            NonGorPoint(1, "cA/1")
        with pytest.raises(ValueError):
            NonGorPoint(4, "cAx/4", ell=-1)
