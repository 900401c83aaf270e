"""Tests for representation extraction and materialization."""

import numpy as np
import pytest

from ssdlab import sss_extract
from ssdlab._lowrank import balanced_factors
from ssdlab.errors import InconsistentTransitionError, RankExceedsWidthError, ShapeMismatchError
from ssdlab.limits import non_dualizable_matrix
from ssdlab.ss_matrix import (
    DEFAULT_EPS,
    ORACLE_MAX_T,
    LowerTriangularMatrix,
    MaskVector,
    _block_sweep,
    diagonal_block_partition,
    numerical_rank,
    one_ss,
    semiseparable_rank,
    submatrix_rank_oracle,
)
from ssdlab.ssm import materialize_kernel, random_instance
from ssdlab.sss_extract import (
    GeneralSssRepresentation,
    extract_sss,
    materialize_sss,
    random_representation,
    rank_factor_step,
    solve_transition,
)
from tests.conftest import random_lower_triangular, rel_fro


def diagonal_as_general(ssm):
    """Embed a diagonal model into the general representation (test helper)."""
    steps, width = ssm.T, ssm.N
    trans = np.zeros((steps, width, width))
    trans[0] = np.eye(width)
    for t in range(1, steps):
        trans[t] = np.diag(ssm.a_diag[t])
    ranks = tuple(min(width, steps - t, t + 1) for t in range(steps))
    return GeneralSssRepresentation(trans, ssm.b, ssm.c, ranks)


def direct_sss(rep):
    """Entry-by-entry c_j' A_j ... A_{i+1} b_i (test oracle)."""
    out = np.zeros((rep.T, rep.T))
    for j in range(rep.T):
        for i in range(j + 1):
            prod = np.eye(rep.N)
            for k in range(j, i, -1):
                prod = prod @ rep.A[k]
            out[j, i] = rep.c[j] @ prod @ rep.b[i]
    return out


def masked_kernel_with_zero_gains(seed, size, width, zeros):
    """mask * (Q K^T) whose mask gains are exactly zero at ``zeros`` (so cuts sit there)."""
    rng = np.random.default_rng(seed)
    gains = rng.uniform(0.95, 1.05, size) * rng.choice([-1.0, 1.0], size)
    gains[list(zeros)] = 0.0
    mask = one_ss(MaskVector(gains)).values
    q, k = rng.standard_normal((2, size, width))
    return LowerTriangularMatrix(mask * (q @ k.T))


class TestMaterializeSss:
    def test_matches_the_direct_formula_with_padded_corners(self):
        # T < 2N, so every rank and every transition's live corner is clipped by padding.
        for seed in range(4):
            rep = random_representation(seed, 7, 4)
            assert not all(rank == rep.N for rank in rep.r)
            expected = direct_sss(rep)
            assert rel_fro(materialize_sss(rep).values, expected) <= 1e-14

    def test_zero_transition_gives_exact_zeros(self):
        rep = random_representation(60, 9, 3)
        trans = rep.A.copy()
        trans[5] = 0.0
        cut = GeneralSssRepresentation(trans, rep.b, rep.c, rep.r)
        got = materialize_sss(cut).values
        assert np.array_equal(got[5:, :5], np.zeros((4, 5)))
        assert rel_fro(got, direct_sss(cut)) <= 1e-14

    def test_identity_transitions_give_outer_products(self):
        rng = np.random.default_rng(50)
        steps = 5
        trans = np.stack([np.eye(1)] * steps)
        b = rng.standard_normal((steps, 1))
        c = rng.standard_normal((steps, 1))
        rep = GeneralSssRepresentation(trans, b, c, (1,) * steps)
        got = materialize_sss(rep).values
        expected = np.tril(np.outer(c[:, 0], b[:, 0]))
        assert np.allclose(got, expected, rtol=1e-14)

    def test_diagonal_representation_matches_kernel(self):
        ssm, _ = random_instance(51, 10, 3, 1)
        rep = diagonal_as_general(ssm)
        assert rel_fro(materialize_sss(rep).values, materialize_kernel(ssm).values) <= 1e-13

    def test_swap_transition_moves_mass_across_modes(self):
        trans = np.zeros((2, 2, 2))
        trans[0] = np.eye(2)
        trans[1] = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[0.0, 0.0], [1.0, 0.0]])
        rep = GeneralSssRepresentation(trans, b, c, (1, 1))
        assert materialize_sss(rep).values[1, 0] == 0.0


class TestRankFactorStep:
    def test_zero_block(self):
        m = LowerTriangularMatrix(np.zeros((4, 4)))
        w, u, rank = rank_factor_step(m, 1, 2)
        assert rank == 0
        assert np.array_equal(w, np.zeros((3, 2)))
        assert np.array_equal(u, np.zeros((2, 2)))

    def test_rank_one_block_of_ones(self):
        m = LowerTriangularMatrix(np.tril(np.ones((5, 5))))
        w, u, rank = rank_factor_step(m, 2, 3)
        assert rank == 1
        assert np.allclose(w @ u, np.ones((3, 3)), rtol=1e-12)
        assert np.array_equal(w[:, 1:], np.zeros((3, 2)))
        assert np.array_equal(u[1:, :], np.zeros((2, 3)))

    def test_corner_matrix_block_rank(self):
        w, u, rank = rank_factor_step(non_dualizable_matrix(5), 2, 2)
        assert rank == 2
        assert np.allclose(w @ u, non_dualizable_matrix(5).values[2:, :3], atol=1e-12)

    def test_raises_above_width(self):
        with pytest.raises(RankExceedsWidthError):
            rank_factor_step(non_dualizable_matrix(5), 2, 1)


class TestSolveTransition:
    def test_equal_factors_give_leading_identity(self):
        rng = np.random.default_rng(52)
        w = np.zeros((5, 3))
        w[:, :2] = rng.standard_normal((5, 2))
        trans = solve_transition(w, w, 2, 2)
        assert np.allclose(trans[:2, :2], np.eye(2), atol=1e-10)
        assert np.array_equal(trans[2:, :], np.zeros((1, 3)))
        assert np.array_equal(trans[:, 2:], np.zeros((3, 1)))

    def test_scalar_multiple(self):
        rng = np.random.default_rng(53)
        w = np.zeros((4, 2))
        w[:, 0] = rng.standard_normal(4)
        trans = solve_transition(w, 2.0 * w, 1, 1)
        assert abs(trans[0, 0] - 2.0) < 1e-12

    def test_random_consistent_pair(self):
        rng = np.random.default_rng(54)
        w_next = np.zeros((6, 3))
        w_next[:, :2] = rng.standard_normal((6, 2))
        mix = np.zeros((3, 3))
        mix[:2, :2] = rng.standard_normal((2, 2))
        w_trunc = w_next @ mix
        trans = solve_transition(w_next, w_trunc, 2, 2)
        assert np.linalg.norm(w_next @ trans - w_trunc) <= 1e-8 * np.linalg.norm(w_trunc)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeMismatchError):
            solve_transition(np.zeros((4, 2)), np.zeros((3, 2)), 1, 1)


class TestExtractSss:
    def test_round_trip_on_diagonal_kernel(self):
        ssm, _ = random_instance(55, 12, 3, 1)
        m = materialize_kernel(ssm)
        rep = extract_sss(m, 3)
        assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-6

    def test_round_trip_on_cumulative_product_mask(self):
        rng = np.random.default_rng(56)
        gains = rng.uniform(0.5, 2.0, 10) * rng.choice([-1.0, 1.0], 10)
        m = one_ss(MaskVector(gains))
        rep = extract_sss(m, 1)
        assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-8
        assert rep.r == (1,) * 10

    def test_corner_matrix_has_width_two_representation(self):
        m = non_dualizable_matrix(5)
        rep = extract_sss(m, 2)
        assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-10

    def test_round_trip_on_random_general_representations(self):
        for seed in range(10):
            source = random_representation(seed, 20, 3)
            m = materialize_sss(source)
            rep = extract_sss(m, 3)
            assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-6
            assert rep.has_exact_padding()

    def test_extracted_ranks_match_block_ranks(self):
        source = random_representation(42, 16, 3)
        m = materialize_sss(source)
        rep = extract_sss(m, 3)
        for t in range(m.T):
            assert rep.r[t] == numerical_rank(m.values[t:, : t + 1])

    def test_refuses_a_chain_that_no_transition_carries(self):
        # A strong and a weak mode plus noise below the rank threshold: every block
        # has rank 2, yet consecutive factors disagree far above rounding level.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            left, right = rng.uniform(1.0, 2.0, (2, 16, 2))
            left[:, 1] *= 1e-3
            right[:, 1] *= 1e-3
            noise = 3e-11 * rng.standard_normal((16, 16))
            m = LowerTriangularMatrix(np.tril(left @ right.T + noise))
            assert semiseparable_rank(m) == 2
            with pytest.raises(InconsistentTransitionError):
                extract_sss(m, 2)

    def test_refuses_a_rank_jump_above_the_width(self):
        vals = np.tril(np.ones((6, 6)))
        vals[5, 0] = 3.0  # the blocks that hold this entry have rank 2
        with pytest.raises(RankExceedsWidthError):
            extract_sss(LowerTriangularMatrix(vals), 1)

    @pytest.mark.parametrize(
        "zeros",
        [(40,), (40, 41), (40, 42), (1, 2, 63), (20, 21, 22, 50)],
        ids=["at", "next-to", "two-after", "edges", "run"],
    )
    def test_round_trip_with_zero_gains_around_cuts(self, zeros):
        for seed in range(3):
            m = masked_kernel_with_zero_gains(seed, 64, 3, zeros)
            assert diagonal_block_partition(m) == sorted(zeros)
            rep = extract_sss(m, 3)
            assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-12

    def test_round_trip_on_block_diagonal_kernels(self):
        # Three cuts at T=256, width 4: each transition next to a cut used to be refused.
        for seed in range(3):
            cuts = np.random.default_rng(100 + seed).choice(np.arange(1, 256), 3, replace=False)
            m = masked_kernel_with_zero_gains(seed, 256, 4, cuts)
            rep = extract_sss(m, 4)
            assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-12

    def test_refuses_insufficient_width(self):
        with pytest.raises(RankExceedsWidthError):
            extract_sss(non_dualizable_matrix(5), 1)

    def test_first_transition_is_identity(self):
        rep = extract_sss(non_dualizable_matrix(5), 2)
        assert np.array_equal(rep.A[0], np.eye(2))

    def test_single_step_matrix(self):
        m = LowerTriangularMatrix([[3.5]])
        rep = extract_sss(m, 1)
        assert np.array_equal(materialize_sss(rep).values, m.values)
        assert rep.r == (1,)


def big_row_matrix(big):
    """Block 1 has singular values ``big`` and 1; block 2, the identity, needs the 1."""
    vals = np.zeros((5, 5))
    vals[1, 0] = big
    vals[2, 0] = vals[3, 1] = vals[4, 2] = 1.0
    return LowerTriangularMatrix(vals)


def noisy_representation(seed, size, width, level):
    """A width-``width`` matrix plus entrywise noise of relative size ``level``."""
    vals = materialize_sss(random_representation(seed, size, width)).values
    noise = np.random.default_rng(seed).standard_normal((size, size))
    return LowerTriangularMatrix(vals + level * np.abs(vals).max() * np.tril(noise))


def graded_matrix(seed, size, width, decades_per_row):
    """tril(C B') whose rows shrink by ``decades_per_row`` powers of ten each."""
    rng = np.random.default_rng(seed)
    c, b = rng.standard_normal((2, size, width))
    c *= 10.0 ** (-decades_per_row * np.arange(size))[:, None]
    return LowerTriangularMatrix(np.tril(c @ b.T))


#: (matrix, width) over which the block sweep is checked against the dense blocks.
SWEEP_FAMILIES = [
    *[
        pytest.param(materialize_sss(random_representation(seed, 24, 3)), 3, id=f"random-rep-{seed}")
        for seed in range(3)
    ],
    *[
        pytest.param(
            masked_kernel_with_zero_gains(1, 48, 3, zeros), 3, id=f"masked-{'-'.join(map(str, zeros))}"
        )
        for zeros in [(20,), (20, 21), (1, 2, 47)]
    ],
    pytest.param(LowerTriangularMatrix(np.zeros((6, 6))), 2, id="zero"),
    pytest.param(LowerTriangularMatrix([[3.5]]), 1, id="single-step"),
    # From T=6 on, the corner matrix's middle blocks have two equal singular values;
    # their basis is then a free choice that the two factorizations may order apart.
    pytest.param(non_dualizable_matrix(5), 2, id="corner"),
    pytest.param(random_lower_triangular(70, 12), 6, id="full-rank"),
    pytest.param(noisy_representation(74, 12, 3, 1e-8), 6, id="noise-near-threshold"),
    # Rows shrink past the rounding level of the blocks above them.
    pytest.param(graded_matrix(75, 12, 3, 2.0), 3, id="graded"),
]

#: (matrix, width): a block keeps a direction that the block before it, much larger,
#: has below its rank threshold, so no transition carries it and extraction refuses.
CHAIN_BREAKING = [
    pytest.param(big_row_matrix(1e10), 3, id="big-row-1e10"),
    # Here the 1 is below rounding level in block 1, so the thin carry drops it.
    pytest.param(big_row_matrix(1e16), 3, id="big-row-1e16"),
    pytest.param(noisy_representation(73, 12, 3, 1e-12), 3, id="noise-below-threshold"),
]


class TestBlockSweep:
    """The thin sweep against the dense per-block oracle ``rank_factor_step``."""

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING)
    def test_each_step_matches_the_dense_block(self, m, width):
        for t, (u, s, vh, rank) in enumerate(_block_sweep(m, DEFAULT_EPS)):
            w_dense, u_dense, rank_dense = rank_factor_step(m, t, width)
            w_sweep, u_sweep = balanced_factors(u, s, vh, rank, width)
            assert rank == rank_dense
            assert rel_fro(w_sweep, w_dense) <= 1e-10
            assert rel_fro(u_sweep, u_dense) <= 1e-10

    @pytest.mark.parametrize(
        "m, width", [p for p in SWEEP_FAMILIES + CHAIN_BREAKING if p.values[0].T <= ORACLE_MAX_T]
    )
    def test_semiseparable_rank_matches_the_oracle(self, m, width):
        assert semiseparable_rank(m) == submatrix_rank_oracle(m)

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES)
    def test_transitions_carry_the_dense_column_factors(self, m, width):
        rep = extract_sss(m, width)
        u_cur = rank_factor_step(m, 0, width)[1]
        for t in range(m.T - 1):
            u_next = rank_factor_step(m, t + 1, width)[1]
            moved, trimmed = rep.A[t + 1] @ u_cur, u_next[:, : t + 1]
            scale = max(np.linalg.norm(moved), np.linalg.norm(trimmed))
            assert np.linalg.norm(moved - trimmed) <= 1e-9 * scale
            u_cur = u_next

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES)
    def test_semiseparable_rank_is_the_largest_extracted_rank(self, m, width):
        assert semiseparable_rank(m) == max(extract_sss(m, width).r)

    @pytest.mark.parametrize("m, width", CHAIN_BREAKING)
    def test_refuses_a_direction_the_previous_block_dropped(self, m, width):
        with pytest.raises(InconsistentTransitionError, match="column-factor"):
            extract_sss(m, width)

    def test_refuses_a_width_that_only_a_dropped_direction_exceeds(self):
        with pytest.raises(RankExceedsWidthError):
            extract_sss(big_row_matrix(1e16), 2)

    def test_extraction_factors_only_thin_matrices(self, monkeypatch):
        size, width = 64, 4
        m = materialize_sss(random_representation(71, size, width))
        columns = []
        original = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            columns.append(np.shape(a)[1])
            return original(a, *args, **kwargs)

        def dense_step(*args, **kwargs):
            raise AssertionError("extract_sss factored a whole block")

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(sss_extract, "rank_factor_step", dense_step)
        extract_sss(m, width)
        assert len(columns) <= size
        assert max(columns) <= width + 1

    def test_long_representation_round_trips(self):
        m = materialize_sss(random_representation(72, 1024, 4))
        rep = extract_sss(m, 4)
        assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-12


class TestRepresentationProperties:
    def test_materialization_of_any_valid_rep_is_width_bounded(self):
        for seed in range(10):
            width = 1 + seed % 4
            rep = random_representation(seed, 12, width)
            assert semiseparable_rank(materialize_sss(rep)) <= width

    def test_padding_validation(self):
        rep = random_representation(7, 10, 3)
        assert rep.has_exact_padding()
        assert rep.r[0] == 1  # so A[1] has one live column only
        trans = rep.A.copy()
        trans[1, 0, 2] = 5.0
        dirty = GeneralSssRepresentation(trans, rep.b, rep.c, rep.r)
        assert not dirty.has_exact_padding()

    def test_rejects_identity_violation(self):
        with pytest.raises(ValueError):
            GeneralSssRepresentation(
                np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), (1, 1)
            )

    def test_rejects_rank_bound_violation(self):
        trans = np.stack([np.eye(2)] * 3)
        with pytest.raises(ValueError):
            GeneralSssRepresentation(trans, np.zeros((3, 2)), np.zeros((3, 2)), (2, 2, 1))

    def test_json_round_trip(self):
        rep = random_representation(9, 8, 2)
        again = GeneralSssRepresentation.from_json(rep.to_json())
        assert np.array_equal(rep.A, again.A)
        assert np.array_equal(rep.b, again.b)
        assert np.array_equal(rep.c, again.c)
        assert rep.r == again.r
