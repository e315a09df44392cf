import math
import random

import pytest

from schemealg.errors import (
    InvalidRadix,
    NotAPartition,
    NotCommutative,
    NotConstantIntersectionNumber,
    NotSymmetric,
)
from schemealg.exactmath import QMatrix
from schemealg.scheme import (
    IntersectionTensor,
    intersection_matrices,
    intersection_matrix,
    orbit_classes,
    orbit_scheme,
    scheme_from_relations,
)

from conftest import K3_LABELS, hamming_labels


class TestSchemeFromRelations:
    def test_k3(self):
        s = scheme_from_relations(K3_LABELS)
        assert s.d == 1
        assert s.order == 3
        assert s.valencies == (1, 2)
        assert s.tensor.get(1, 1, 0) == 2
        assert s.tensor.get(1, 1, 1) == 1

    def test_hamming_cube(self):
        s = scheme_from_relations(hamming_labels(3))
        assert s.d == 3
        assert s.order == 8
        assert s.valencies == (1, 3, 3, 1)
        # walking distance 1 twice from distance-2 endpoints: 2 midpoints
        assert s.tensor.get(1, 1, 2) == 2

    def test_not_square(self):
        with pytest.raises(NotAPartition):
            scheme_from_relations([[0, 1], [1, 0], [0, 1]])

    def test_bool_label_rejected(self):
        # bool is a subclass of int, so only an exact type test rejects it
        with pytest.raises(NotAPartition) as info:
            scheme_from_relations([[0, True], [True, 0]])
        assert type(info.value) is NotAPartition
        assert str(info.value) == "label True at (0,1) is not a nonnegative integer"

    def test_diagonal_must_be_class_zero(self):
        with pytest.raises(NotAPartition):
            scheme_from_relations([[1, 0], [0, 1]])

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(NotAPartition):
            scheme_from_relations([[0, 0], [0, 0]])

    def test_empty_class_rejected(self):
        with pytest.raises(NotAPartition):
            scheme_from_relations([[0, 2], [2, 0]])

    def test_asymmetric_rejected(self):
        labels = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
        with pytest.raises(NotSymmetric):
            scheme_from_relations(labels)

    def test_nonconstant_counts_rejected(self):
        # path on 3 vertices: vertex degrees differ, so p_11^0 is not constant
        labels = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        with pytest.raises(NotConstantIntersectionNumber):
            scheme_from_relations(labels)


class TestOrbitScheme:
    def test_m9_r2_orbits(self):
        s = orbit_scheme(9, 2)
        assert s.d == 2
        assert s.order == 9
        assert s.valencies == (1, 6, 2)
        # class of (x, y) is the orbit of x - y: orbit 1 = {1,2,4,5,7,8}, orbit 2 = {3,6}
        labels = s.partition.labels
        assert labels[1][0] == 1
        assert labels[3][0] == 2
        assert labels[0][3] == 2  # symmetric: -3 is in the same orbit
        assert labels[4][0] == 1

    def test_m9_r2_tensor(self):
        t = orbit_scheme(9, 2).tensor
        assert tuple(t.get(1, 1, k) for k in range(3)) == (6, 3, 6)
        assert tuple(t.get(1, 2, k) for k in range(3)) == (0, 2, 0)
        assert tuple(t.get(2, 2, k) for k in range(3)) == (2, 0, 1)

    def test_m8_r3_orbits(self):
        s = orbit_scheme(8, 3)
        assert s.d == 3
        assert s.valencies == (1, 4, 2, 1)
        labels = s.partition.labels
        assert labels[1][0] == 1 and labels[3][0] == 1  # {1,3,5,7}
        assert labels[2][0] == 2  # {2,6}
        assert labels[4][0] == 3  # {4}

    def test_m8_r3_tensor_matches_structure_constants(self):
        t = orbit_scheme(8, 3).tensor
        # x1^2 = 4 + 4*x2 + 4*x3, x2^2 = 2 + 2*x3, x3^2 = 1, x1*x2 = 2*x1,
        # x1*x3 = x1, x2*x3 = x2
        assert tuple(t.get(1, 1, k) for k in range(4)) == (4, 0, 4, 4)
        assert tuple(t.get(2, 2, k) for k in range(4)) == (2, 0, 0, 2)
        assert tuple(t.get(3, 3, k) for k in range(4)) == (1, 0, 0, 0)
        assert tuple(t.get(1, 2, k) for k in range(4)) == (0, 2, 0, 0)
        assert tuple(t.get(1, 3, k) for k in range(4)) == (0, 1, 0, 0)
        assert tuple(t.get(2, 3, k) for k in range(4)) == (0, 0, 1, 0)

    def test_k3_as_orbit_scheme(self):
        s = orbit_scheme(3, 2)
        assert s.valencies == (1, 2)
        assert s.tensor.p == scheme_from_relations(K3_LABELS).tensor.p

    @pytest.mark.parametrize("m,r", [(9, 3), (9, 6), (8, 4), (5, 1), (5, 5), (5, 7), (1, 2)])
    def test_invalid_radix(self, m, r):
        with pytest.raises(InvalidRadix):
            orbit_scheme(m, r)

    def test_translation_counts_match_relation_counts(self):
        pairs = [(m, r) for m in range(3, 41) for r in range(2, m) if math.gcd(r, m) == 1]
        assert len(pairs) == 450
        for m, r in pairs:
            s = orbit_scheme(m, r)
            ref = scheme_from_relations(s.partition.labels)
            assert s.tensor == ref.tensor, (m, r)
            assert s.partition == ref.partition, (m, r)
            orbit_of = orbit_classes(m, r)[0]
            labels = s.partition.labels
            assert all(labels[x][y] == orbit_of[(x - y) % m] for x in range(m) for y in range(m)), (m, r)
            p, n = s.tensor.p, s.d + 1
            for i in range(n):
                b = intersection_matrix(s, i)
                assert all(b[k, c] == p[i][c][k] for k in range(n) for c in range(n)), (m, r, i)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_orbit_schemes_validate(self, seed):
        rng = random.Random(1000 + seed)
        while True:
            m = rng.randint(3, 30)
            units = [r for r in range(2, m) if math.gcd(r, m) == 1]
            if units:
                r = rng.choice(units)
                break
        s = orbit_scheme(m, r)  # would raise if the axioms failed
        assert s.order == m
        assert s.valencies[0] == 1
        assert sum(s.valencies) == m


class TestIntersectionMatrices:
    def test_k3(self):
        s = scheme_from_relations(K3_LABELS)
        m0, m1 = intersection_matrices(s)
        assert m0 == QMatrix.identity(2)
        assert m1 == QMatrix([[0, 2], [1, 1]])

    def test_columns_are_products(self, ex1_scheme):
        mats = intersection_matrices(ex1_scheme)
        t = ex1_scheme.tensor
        # column m of M^i lists the coefficients of x_i * x_m
        for i in range(3):
            for m in range(3):
                assert mats[i].column(m) == tuple(t.get(i, m, k) for k in range(3))

    def test_pairwise_commuting(self, ex2_scheme):
        mats = intersection_matrices(ex2_scheme)
        for a in mats:
            for b in mats:
                assert a @ b == b @ a

    def test_first_matrix_identity(self, hamming_scheme):
        mats = intersection_matrices(hamming_scheme)
        assert mats[0] == QMatrix.identity(4)


class TestTensorValidation:
    def test_noncommutative_tensor_rejected(self):
        # tamper with the K_3 tensor
        p = [
            [[1, 0], [0, 1]],
            [[0, 1], [2, 1]],
        ]
        p[1][0] = [1, 0]  # p_10 != p_01
        with pytest.raises(NotCommutative):
            IntersectionTensor(tuple(tuple(tuple(r) for r in pi) for pi in p)).validate()

    def test_bad_row_sum_rejected(self):
        p = (
            ((1, 0), (0, 1)),
            ((0, 1), (2, 0)),  # sum_j p_1j^1 = 1 != k_1 = 2
        )
        with pytest.raises(NotConstantIntersectionNumber):
            IntersectionTensor(p).validate()

    def test_empty_tensor_rejected(self):
        with pytest.raises(NotConstantIntersectionNumber, match="invalid valencies"):
            IntersectionTensor(()).validate()

    def test_relabel_round_trip(self, ex2_scheme):
        s2 = ex2_scheme.relabel((0, 2, 3, 1))
        assert s2.valencies == (1, 1, 4, 2)
        inv = (0, 3, 1, 2)
        assert s2.relabel(inv).tensor.p == ex2_scheme.tensor.p

    def test_relabel_must_fix_identity(self, ex2_scheme):
        with pytest.raises(ValueError):
            ex2_scheme.relabel((1, 0, 2, 3))
