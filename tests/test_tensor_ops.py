"""Tensor arithmetic: index maps checked against brute-force enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meterfill.tensor_ops import (
    as_mask,
    as_tensor,
    cp_reconstruct,
    fold,
    fro_norm,
    khatri_rao,
    project,
    unfold,
)


def unfold_bruteforce(t, n):
    """Independent enumerator of the unfolding index map.

    Element (i1, i2, i3) (1-based) goes to row i_n and column
    1 + sum over k != n of (i_k - 1) times the product of the non-n dims
    before k.
    """
    dims = t.shape
    rows = dims[n - 1]
    cols = t.size // rows
    out = np.zeros((rows, cols))
    for idx in itertools.product(*(range(1, d + 1) for d in dims)):
        j = 1
        for k in range(1, 4):
            if k == n:
                continue
            stride = 1
            for m in range(1, k):
                if m != n:
                    stride *= dims[m - 1]
            j += (idx[k - 1] - 1) * stride
        out[idx[n - 1] - 1, j - 1] = t[idx[0] - 1, idx[1] - 1, idx[2] - 1]
    return out


def khatri_rao_bruteforce(a, b):
    return np.column_stack([np.kron(a[:, r], b[:, r]) for r in range(a.shape[1])])


dims_strategy = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
)


class TestUnfold:
    def test_first_element_maps_to_origin(self):
        t = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert unfold(t, 1)[0, 0] == t[0, 0, 0]

    def test_index_map_example(self):
        # dims (2,3,4), element (1,2,3), mode 1: column 1 + 1*1 + 2*3 = 8
        t = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert unfold(t, 1)[0, 7] == t[0, 1, 2]

    def test_all_ones_any_mode(self):
        t = np.ones((2, 2, 2))
        for n in (1, 2, 3):
            assert np.array_equal(unfold(t, n), np.ones((2, 4)))

    def test_matches_bruteforce_all_shapes_up_to_5(self):
        rng = np.random.default_rng(1)
        for dims in itertools.product(range(1, 6), repeat=3):
            t = rng.standard_normal(dims)
            for n in (1, 2, 3):
                assert np.array_equal(unfold(t, n), unfold_bruteforce(t, n)), (dims, n)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            unfold(np.ones((2, 2, 2)), 0)
        with pytest.raises(ValueError):
            unfold(np.ones((2, 2, 2)), 4)


class TestFold:
    def test_roundtrip_100_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dims = tuple(rng.integers(1, 7, size=3))
            t = rng.standard_normal(dims)
            n = int(rng.integers(1, 4))
            assert np.array_equal(fold(unfold(t, n), n, dims), t)

    def test_all_ones(self):
        assert np.array_equal(fold(np.ones((2, 4)), 1, (2, 2, 2)), np.ones((2, 2, 2)))

    def test_roundtrip_sequential_values(self):
        t = np.arange(1.0, 106.0).reshape(3, 5, 7)
        assert np.array_equal(fold(unfold(t, 2), 2, (3, 5, 7)), t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.ones((2, 5)), 1, (2, 2, 2))

    @given(dims=dims_strategy, n=st.integers(1, 3), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, dims, n, seed):
        t = np.random.default_rng(seed).standard_normal(dims)
        assert np.array_equal(fold(unfold(t, n), n, dims), t)


class TestKhatriRao:
    def test_single_column_example(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(khatri_rao(a, b), np.array([[3.0], [4.0], [6.0], [8.0]]))

    def test_ones_row_identity(self):
        b = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(khatri_rao(np.ones((1, 3)), b), b)

    def test_shapes(self):
        out = khatri_rao(np.ones((4, 3)), np.ones((5, 3)))
        assert out.shape == (20, 3)

    def test_matches_column_kronecker(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        assert np.allclose(khatri_rao(a, b), khatri_rao_bruteforce(a, b), atol=1e-14)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestCpReconstruct:
    def test_rank_one_ones(self):
        f = (np.ones((2, 1)), np.ones((3, 1)), np.ones((4, 1)))
        assert np.array_equal(cp_reconstruct(f), np.ones((2, 3, 4)))

    def test_rank_one_example(self):
        f = (np.array([[1.0], [2.0]]), np.ones((3, 1)), np.ones((1, 1)))
        expected = np.array([[[1.0], [1.0], [1.0]], [[2.0], [2.0], [2.0]]])
        assert np.array_equal(cp_reconstruct(f), expected)

    def test_triple_loop_oracle(self, rng):
        f = tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5))
        expected = np.zeros((4, 3, 5))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expected[i, j, k] = sum(
                        f[0][i, r] * f[1][j, r] * f[2][k, r] for r in range(3)
                    )
        assert np.allclose(cp_reconstruct(f), expected, atol=1e-12)

    def test_matricized_identity(self, rng):
        u1, u2, u3 = (rng.standard_normal((d, 4)) for d in (5, 6, 7))
        t = cp_reconstruct((u1, u2, u3))
        direct = u1 @ khatri_rao(u3, u2).T
        assert np.linalg.norm(unfold(t, 1) - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            cp_reconstruct((np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2))))

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_unfolding_rank_bound(self, r):
        rng = np.random.default_rng(r)
        f = tuple(rng.standard_normal((d, r)) for d in (6, 7, 8))
        t = cp_reconstruct(f)
        for n in (1, 2, 3):
            s = np.linalg.svd(unfold(t, n), compute_uv=False)
            assert (s > 1e-8 * s[0]).sum() <= r


class TestElementwise:
    def test_fro_norm_values(self):
        assert fro_norm(np.zeros((2, 2, 2))) == 0.0
        t = np.zeros((2, 2, 2))
        t[0, 1, 1] = 3.0
        assert fro_norm(t) == 3.0
        assert fro_norm(np.ones((2, 3, 4))) == pytest.approx(np.sqrt(24), abs=0)


class TestProject:
    def test_full_and_empty_mask(self, rng):
        t = rng.standard_normal((2, 3, 4))
        assert np.array_equal(project(t, np.ones(t.shape, bool)), t)
        assert np.array_equal(project(t, np.zeros(t.shape, bool)), np.zeros_like(t))

    @given(dims=dims_strategy, seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_partition_identity(self, dims, seed):
        g = np.random.default_rng(seed)
        t = g.standard_normal(dims)
        mask = g.random(dims) < 0.5
        total = project(t, mask) + project(t, ~mask)
        assert np.array_equal(total, t)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            project(np.ones((2, 2, 2)), np.ones((2, 2, 3), bool))


class TestValidation:
    def test_nan_rejected(self):
        bad = np.ones((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            as_tensor(bad)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            as_tensor(bad)

    def test_wrong_order(self):
        with pytest.raises(ValueError):
            as_tensor(np.ones((2, 2)))

    def test_mask_requires_bool(self):
        with pytest.raises(ValueError):
            as_mask(np.full((2, 2, 2), 0.5))
        out = as_mask(np.ones((2, 2, 2), dtype=int))
        assert out.dtype == np.bool_
