import math

import pytest
from hypothesis import given, settings, strategies as st

from warpbench import charclasses as cc

MONO_A = [{"index": 3, "exponent": 1}, {"index": 2, "exponent": 3}]
MONO_B = [{"index": 7, "exponent": 1}, {"index": 2, "exponent": 1}]


class TestProjectiveRings:
    def test_total_class_cp2(self):
        ring = cc.ring_cpn(2)
        assert ring.total_sw().bits == frozenset({"1", "b", "b^2"})

    def test_total_class_cp1_truncates_to_one(self):
        ring = cc.ring_cpn(1)
        assert ring.total_sw().bits == frozenset({"1"})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_top_power_vanishes(self, n):
        ring = cc.ring_cpn(n)
        b = ring.cls("b")
        assert (b ** (n + 1)).bits == frozenset()
        assert (b ** n).bits == frozenset({ring.fundamental})


class TestTwistedBundleRings:
    def test_total_classes(self):
        assert repr(cc.ring_wi(1).total_sw()) == "1 + a + (a^1)*"
        assert repr(cc.ring_wi(2).total_sw()) == "1 + a + (a^3)*"

    def test_cohomology_profile(self):
        ring = cc.ring_wi(2)
        # one generator in each degree 0, 2..7, 9; nothing in 1 or 8
        for deg in (0, 2, 3, 4, 5, 6, 7, 9):
            assert len(ring.basis(deg)) == 1, deg
        assert ring.basis(1) == []
        assert ring.basis(8) == []

    def test_duality_pairing(self):
        ring = cc.ring_wi(1)
        prod = ring.cls("a") * ring.cls("(a^1)*")
        assert prod.bits == frozenset({ring.fundamental})

    def test_even_components_match_binomial_parity(self):
        for i in (1, 2, 3):
            ring = cc.ring_wi(i)
            total = ring.total_sw()
            for j in range(1, 2 * i):
                comp = total.component(2 * j)
                lucas_odd = (j & (2 * i + 1 - j)) == 0
                assert bool(comp.bits) == (math.comb(2 * i + 1, j) % 2 == 1)
                assert bool(comp.bits) == lucas_odd

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_associativity_exhaustive(self, i):
        ring = cc.ring_wi(i)
        names = ring.basis()
        for x in names:
            for y in names:
                for z in names:
                    a = (ring.cls(x) * ring.cls(y)) * ring.cls(z)
                    b = ring.cls(x) * (ring.cls(y) * ring.cls(z))
                    assert a.bits == b.bits, (x, y, z)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_associativity_exhaustive(self, n):
        ring = cc.ring_cpn(n)
        names = ring.basis()
        for x in names:
            for y in names:
                for z in names:
                    a = (ring.cls(x) * ring.cls(y)) * ring.cls(z)
                    b = ring.cls(x) * (ring.cls(y) * ring.cls(z))
                    assert a.bits == b.bits

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, i, data):
        ring = cc.ring_wi(i)
        names = ring.basis()
        x = data.draw(st.sampled_from(names))
        y = data.draw(st.sampled_from(names))
        assert (ring.cls(x) * ring.cls(y)).bits == \
            (ring.cls(y) * ring.cls(x)).bits


class TestCharacteristicNumbers:
    def test_quoted_values(self):
        w1, w2, cp2 = cc.ring_wi(1), cc.ring_wi(2), cc.ring_cpn(2)
        assert cc.sw_number([w2], MONO_A) == 1
        assert cc.sw_number([w2], MONO_B) == 0
        assert cc.sw_number([w1, cp2], MONO_A) == 1
        assert cc.sw_number([w1, cp2], MONO_B) == 1

    def test_detecting_number_family(self):
        for i in (1, 2, 3):
            mono = [{"index": 3, "exponent": 1},
                    {"index": 2, "exponent": 2 * i - 1}]
            assert cc.sw_number([cc.ring_wi(i)], mono) == 1

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="monomial degree 4 != "
                           "dimension 5"):
            cc.sw_number([cc.ring_wi(1)], [{"index": 2, "exponent": 2}])

    def test_product_total_class_matches_tensor_expansion(self):
        w1, cp2 = cc.ring_wi(1), cc.ring_cpn(2)
        pr = cc.product_ring(w1, cp2)
        expanded = set()
        for x in w1.total_sw().bits:
            for y in cp2.total_sw().bits:
                expanded ^= {f"{x}|{y}"}
        assert pr.total_sw().bits == frozenset(expanded)
        expected = {"1|1", "a|1", "1|b", "(a^1)*|1", "a|b", "1|b^2",
                    "(a^1)*|b", "a|b^2", "(a^1)*|b^2"}
        assert pr.total_sw().bits == frozenset(expected)


class TestGeneratorTable:
    def test_matrix_and_rank(self):
        table = cc.omega9_generator_table()
        assert table["matrix"] == [[1, 0], [1, 1]]
        assert table["rank"] == 2

    def test_single_row_rank_drops(self):
        from warpbench._util import rank_gf2
        table = cc.omega9_generator_table()
        rows = [(r[0] << 1) | r[1] for r in table["matrix"]]
        assert rank_gf2(rows[:1]) == 1
        assert rank_gf2(rows[1:]) == 1
