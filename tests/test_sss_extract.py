"""Tests for representation extraction and materialization."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import ss_matrix, sss_extract
from ssdlab.duality import _construct, construct_one_ss_dual, count_block_new_columns, one_ss
from ssdlab.errors import (
    InconsistentTransitionError,
    RankExceedsWidthError,
    ShapeMismatchError,
    SsdError,
)
from ssdlab.limits import non_dualizable_matrix
from ssdlab.ss_matrix import (
    _SWEEP_DROP_SHARE,
    _TILE,
    DEFAULT_EPS,
    BlockNewColumns,
    LowerTriangularMatrix,
    SweepStep,
    _block_sweep,
    blocks_from_cuts,
    diagonal_block_partition,
    rank_of_singular_values,
    semiseparable_rank,
)
from ssdlab.ssm import forward_materialized, materialize_kernel, random_instance
from ssdlab.sss_extract import (
    GeneralSssRepresentation,
    _gate,
    balanced_factors,
    extract_sss,
    materialize_sss,
    random_representation,
    rank_factor_step,
    solve_transition,
    svd_with_rank,
    vector_signs,
)
from tests.conftest import random_lower_triangular, rel_fro
from tests.oracles import (
    ORACLE_MAX_T,
    has_exact_padding,
    numerical_rank,
    reference_extract_sss,
    reference_materialize_sss,
    submatrix_rank_oracle,
)


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
    mask = one_ss(gains).values
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

    @pytest.mark.parametrize("steps", [1, _TILE - 1, _TILE, _TILE + 1, 70])
    def test_panels_are_the_row_loop_bit_for_bit(self, steps):
        rep = random_representation(steps, steps, 3)
        got = materialize_sss(rep).values
        assert got.tobytes() == reference_materialize_sss(rep).tobytes()
        x = np.random.default_rng(steps).standard_normal((steps, 2))
        assert rel_fro(forward_materialized(rep, x), got @ x) <= 1e-14


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
    @staticmethod
    def solve(w_next, w_trunc, r_next, r_cur):
        """``solve_transition`` given the pseudo-inverse of ``w_next`` at cutoff eps."""
        w_pinv = np.linalg.pinv(w_next, rcond=DEFAULT_EPS)
        return solve_transition(w_next, w_trunc, r_next, r_cur, w_pinv)

    def test_equal_factors_give_leading_identity(self):
        rng = np.random.default_rng(52)
        w = np.zeros((5, 3))
        w[:, :2] = rng.standard_normal((5, 2))
        trans = self.solve(w, w, 2, 2)
        assert np.allclose(trans[:2, :2], np.eye(2), atol=1e-10)
        assert np.array_equal(trans[2:, :], np.zeros((1, 3)))
        assert np.array_equal(trans[:, 2:], np.zeros((3, 1)))

    def test_scalar_multiple(self):
        rng = np.random.default_rng(53)
        w = np.zeros((4, 2))
        w[:, 0] = rng.standard_normal(4)
        trans = self.solve(w, 2.0 * w, 1, 1)
        assert abs(trans[0, 0] - 2.0) < 1e-12

    def test_random_consistent_pair(self):
        rng = np.random.default_rng(54)
        w_next = np.zeros((6, 3))
        w_next[:, :2] = rng.standard_normal((6, 2))
        mix = np.zeros((3, 3))
        mix[:2, :2] = rng.standard_normal((2, 2))
        w_trunc = w_next @ mix
        trans = self.solve(w_next, w_trunc, 2, 2)
        assert np.linalg.norm(w_next @ trans - w_trunc) <= 1e-8 * np.linalg.norm(w_trunc)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeMismatchError):
            self.solve(np.zeros((4, 2)), np.zeros((3, 2)), 1, 1)

    def test_a_stack_solves_each_case_as_its_single_solve(self):
        rng = np.random.default_rng(55)
        w_next = rng.standard_normal((4, 6, 3))
        mix = rng.standard_normal((4, 3, 3))
        r_next, r_cur = np.array([3, 2, 3, 1]), np.array([3, 3, 2, 1])
        # Case i has r_next[i] live columns of W, and W' r_cur[i] of them.
        w_next *= np.arange(3) < r_next[:, None, None]
        w_trunc = w_next @ (mix * (np.arange(3) < r_cur[:, None, None]))
        stacked = self.solve(w_next, w_trunc, r_next, r_cur)
        for i in range(4):
            single = self.solve(w_next[i], w_trunc[i], r_next[i], r_cur[i])
            assert rel_fro(stacked[i], single) <= 1e-12


class TestGate:
    """``_gate`` refuses the first case over its gate by step, the first side listed at one step."""

    @staticmethod
    def sides(row_over, column_over):
        """Row and column sides of a stack of 4 cases, over their gates at the cases given."""
        rng = np.random.default_rng(56)
        w, w_trunc, u, u_trim = rng.standard_normal((4, 4, 6, 3))
        row_miss, column_miss = 1e-3 * DEFAULT_EPS * rng.standard_normal((2, 4, 6, 3))
        row_miss[list(row_over)] *= 1e6
        column_miss[list(column_over)] *= 1e6
        return (
            ("row-factor", row_miss, w, w_trunc, "|W|, |W'|"),
            ("column-factor", column_miss, u, u_trim, "|U|, |U'|"),
        )

    @pytest.mark.parametrize(
        "row_over, column_over, side, step",
        [
            ((2, 3), (), 0, 9),
            ((2,), (1, 3), 1, 8),
            ((2,), (2,), 0, 9),
        ],
        ids=["first-over-case", "earlier-column-miss", "row-miss-first-at-one-step"],
    )
    def test_a_stack_refuses_its_first_miss_by_step(self, row_over, column_over, side, step):
        sides = self.sides(row_over, column_over)
        with pytest.raises(InconsistentTransitionError) as refusal:
            _gate(7, DEFAULT_EPS, *sides)
        name, miss, first, second, names = sides[side]
        case = step - 7
        bound = DEFAULT_EPS * max(np.linalg.norm(first[case]), np.linalg.norm(second[case]))
        assert str(refusal.value) == (
            f"{name} residual {np.linalg.norm(miss[case]):.3e} at step {step} exceeds "
            f"1.0e-09 * max({names}) = {bound:.3e}"
        )

    def test_a_stack_within_every_gate_passes(self):
        _gate(7, DEFAULT_EPS, *self.sides((), ()))


class TestExtractSss:
    def test_round_trip_on_diagonal_kernel(self):
        ssm, _ = random_instance(55, 12, 3, 1)
        m = materialize_kernel(ssm)
        rep = extract_sss(m, 3)
        assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-6

    def test_round_trip_on_cumulative_product_mask(self):
        rng = np.random.default_rng(56)
        gains = rng.uniform(0.5, 2.0, 10) * rng.choice([-1.0, 1.0], 10)
        m = one_ss(gains)
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
            assert has_exact_padding(rep)

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

    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(1, 64),
        level_exp=st.floats(-14.0, -10.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_noise_between_rounding_and_eps_round_trips_or_names_its_gate(
        self, seed, size, level_exp
    ):
        m = noisy_representation(seed, size, 4, 10.0**level_exp)
        try:
            rep = extract_sss(m, 4)
        except RankExceedsWidthError as exc:
            assert "above the requested width" in str(exc)
        except InconsistentTransitionError as exc:
            assert str(exc).startswith(("row-factor residual", "column-factor residual"))
            assert " at step " in str(exc)
        else:
            assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-6

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
#: has below its rank threshold. In big-row-1e10 the direction is above block 1's
#: rounding level, so extraction keeps it there; in the other two no transition
#: carries it and extraction refuses.
CHAIN_BREAKING = [
    pytest.param(big_row_matrix(1e10), 3, id="big-row-1e10"),
    # Here the 1 is below rounding level in block 1, so the thin carry drops it.
    pytest.param(big_row_matrix(1e16), 3, id="big-row-1e16"),
    pytest.param(noisy_representation(73, 12, 3, 1e-12), 3, id="noise-below-threshold"),
]

#: (matrix, width) on which the span verdicts are also checked: larger graded and noisy matrices.
SPAN_FAMILIES = [
    *[
        pytest.param(graded_matrix(76, size, 3, decades), 3, id=f"graded-{size}-{decades}")
        for size, decades in [(48, 0.5), (96, 1.0), (96, 4.0)]
    ],
    *[
        pytest.param(noisy_representation(77, 48, 3, level), 6, id=f"noise-{level:.0e}")
        for level in (1e-11, 1e-10, 1e-9)
    ],
    pytest.param(masked_kernel_with_zero_gains(2, 48, 3, (19, 20, 21)), 3, id="masked-19-20-21"),
]


def dense_span_fits(m, eps):
    """``BlockNewColumns`` of one dense ``lstsq`` per column on ``block[t:, :t]`` (test oracle)."""
    blocks = []
    for start, end in blocks_from_cuts(m.T, diagonal_block_partition(m, eps)):
        block = m.values[start:end, start:end]
        fits = []
        for t in range(end - start):
            below, col = block[t:, :t], block[t:, t]
            coeffs = np.linalg.lstsq(below, col, rcond=None)[0]
            residual = np.linalg.norm(below @ coeffs - col)
            fits.append((bool(residual > eps * np.linalg.norm(col)), coeffs))
        blocks.append(BlockNewColumns(start, end, *zip(*fits)))
    return blocks


def span_test_kernel(family, seed, size, width, scaled):
    """A kernel of one family, with one column scaled down by 10^3 to 10^8 when ``scaled``.

    ``sss`` is tril(C B'), a width-``width`` representation whose transitions
    are orthogonal, and ``noisy`` adds entrywise noise of relative size
    10^-12 to 10^-8 to it. (``random_representation`` is not a family here:
    its transition products decay, and at eps 1e-12 the sweep and lstsq's
    cutoff then often call a column differently, far from the threshold.)
    """
    rng = np.random.default_rng(seed)
    if family == "diag":
        model, _ = random_instance(seed, size, width, 1, a_abs=(0.5, 1.0))
        vals = materialize_kernel(model).values
    elif family == "masked":
        cuts = rng.choice(np.arange(1, size), min(2, size - 1), replace=False) if size > 1 else []
        vals = masked_kernel_with_zero_gains(seed, size, width, cuts).values
    else:
        c, b = rng.standard_normal((2, size, width))
        vals = np.tril(c @ b.T)
        if family == "noisy":
            level = 10.0 ** -rng.integers(8, 13)
            vals += level * np.abs(vals).max() * np.tril(rng.standard_normal((size, size)))
    if scaled:
        vals = vals.copy()
        vals[:, rng.integers(size)] *= 10.0 ** -rng.integers(3, 9)
    return LowerTriangularMatrix(vals)


def reference_block_sweep(vals, eps, refactors):
    """``_block_sweep`` with [carry, column] built by ``np.column_stack`` (test oracle).

    This is the step as first written, with the signs ``np.linalg.svd``
    returns, as the sweep keeps them. Every step t at which it refactors is
    appended to ``refactors``.
    """
    carried = vals[:, :0]
    basis = np.zeros((0, 0))
    dropped = 0.0
    before = 0  # carry width of the step before
    norms = np.linalg.norm(vals, axis=0)
    for t in range(len(vals)):
        col = vals[t:, t]
        u, s, vh = np.linalg.svd(np.column_stack([carried, col]), full_matrices=False)
        if dropped > _SWEEP_DROP_SHARE * eps * (float(np.linalg.norm(col)) or s[0]):
            refactors.append(t)
            u, s, basis = np.linalg.svd(vals[t:, :t], full_matrices=False)
            carried, dropped = u * s, 0.0
            u, s, vh = np.linalg.svd(np.column_stack([carried, col]), full_matrices=False)
        rank = rank_of_singular_values(s, eps)
        mapped = np.column_stack([vh[:, :-1] @ basis, vh[:, -1]])
        level = np.finfo(float).eps * max(len(vals) - t, t + 1)
        keep = rank_of_singular_values(s, level)
        widened = carried.shape[1] > before + 1
        rounding = level * s[0]
        norm = float(norms[t])
        yield SweepStep(carried, basis, dropped, vh, u, s, mapped, rank, rounding, keep, widened, norm)
        before = carried.shape[1]
        dropped += s[keep] if keep < s.size else 0.0
        carried = u[1:, :keep] * s[:keep]
        basis = mapped[:keep]


def widened_steps(m, eps=DEFAULT_EPS):
    """Sweep steps, over ``count_block_new_columns``' blocks, whose carry is over one column wider
    than the step before's: only a refactor widens it so."""
    count = 0
    for b in count_block_new_columns(m, eps):
        block = m.values[b.start : b.end, b.start : b.end]
        steps = list(_block_sweep(block, eps))
        widths = [len(step.basis) for step in steps]
        rule = [k > before + 1 for before, k in zip([0, *widths], widths)]
        assert [step.widened for step in steps] == rule
        count += sum(step.widened for step in steps)
    return count


class TestBlockSweep:
    """The thin sweep against the dense per-block oracle ``rank_factor_step``."""

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING)
    def test_each_step_matches_the_dense_block(self, m, width):
        for t, step in enumerate(_block_sweep(m.values, DEFAULT_EPS)):
            w_dense, u_dense, rank_dense = rank_factor_step(m, t, width)
            # The sweep leaves signs free; rank_factor_step applies the shared sign rule.
            signs = vector_signs(step.u)
            u_signed, right_signed = step.u * signs, signs[:, None] * step.right
            w_sweep, u_sweep = balanced_factors(u_signed, step.s, right_signed, step.rank, width)
            assert step.rank == rank_dense
            assert rel_fro(w_sweep, w_dense) <= 1e-10
            assert rel_fro(u_sweep, u_dense) <= 1e-10

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING + SPAN_FAMILIES)
    def test_each_step_is_bitwise_the_column_stack_step(self, m, width):
        refactors = []
        steps = list(_block_sweep(m.values, DEFAULT_EPS))
        reference = list(reference_block_sweep(m.values, DEFAULT_EPS, refactors))
        assert len(steps) == len(reference) == m.T
        for got, want in zip(steps, reference):
            for name in SweepStep._fields:
                g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
        if m is CHAIN_BREAKING[1].values[0]:  # big-row-1e16: the carry drops the 1 and refactors
            assert refactors

    @pytest.mark.parametrize(
        "m, width",
        [*SWEEP_FAMILIES, pytest.param(random_lower_triangular(71, 33), 33, id="33-columns")],
    )
    def test_each_step_carries_its_column_norm_from_one_norm_pass(self, m, width):
        # A column is never normed alone: np.linalg.norm of one column, shaped (n,) or (n, 1),
        # sums pairwise, and over 150 random lower-triangular blocks of 2 to 65 columns (seed 0)
        # that moved the last bit of 1865 of 5252 columns. Normed together (axis=0), each column
        # is summed in row order, so the whole block's norms are bitwise the norms _span_fits
        # once took per _TILE-column tile. The 33-column block's last tile is one (33, 1)
        # column, summed pairwise, but it holds one nonzero entry, the diagonal one.
        vals = m.values
        whole = np.linalg.norm(vals, axis=0)
        tiles = np.concatenate(
            [np.linalg.norm(vals[:, lo : lo + _TILE], axis=0) for lo in range(0, m.T, _TILE)]
        )
        norms = np.array([step.norm for step in _block_sweep(vals, DEFAULT_EPS)])
        assert norms.tobytes() == whole.tobytes() == tiles.tobytes()

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING + SPAN_FAMILIES)
    def test_the_drop_sum_bounds_what_the_carry_lost(self, m, width):
        # _span_fits' margin rests on this bound; rounding adds a few T eps |M| at most.
        vals = m.values
        rounding = 10 * m.T * np.finfo(float).eps * np.linalg.norm(vals, 2)
        for t, step in enumerate(_block_sweep(vals, DEFAULT_EPS)):
            if t:
                lost = np.linalg.norm(vals[t:, :t] - step.carry @ step.basis, 2)
                assert lost <= step.dropped + rounding

    @pytest.mark.parametrize(
        "m, width", [p for p in SWEEP_FAMILIES + CHAIN_BREAKING if p.values[0].T <= ORACLE_MAX_T]
    )
    def test_semiseparable_rank_matches_the_oracle(self, m, width):
        assert semiseparable_rank(m) == submatrix_rank_oracle(m)

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES)
    def test_transitions_carry_the_dense_column_factors(self, m, width):
        # Balanced factors are of order sqrt(|M|); at a step where both sides are rounding
        # noise (one exactly zero on some BLAS kernels), the relative bound alone is ~1e-24.
        rounding = 10 * m.T * np.finfo(float).eps * np.sqrt(np.linalg.norm(m.values, 2))
        rep = extract_sss(m, width)
        u_cur = rank_factor_step(m, 0, width)[1]
        for t in range(m.T - 1):
            u_next = rank_factor_step(m, t + 1, width)[1]
            moved, trimmed = rep.A[t + 1] @ u_cur, u_next[:, : t + 1]
            scale = max(np.linalg.norm(moved), np.linalg.norm(trimmed))
            assert np.linalg.norm(moved - trimmed) <= 1e-9 * scale + rounding
            u_cur = u_next

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING + SPAN_FAMILIES)
    @pytest.mark.filterwarnings("ignore:borderline new-column decision")
    def test_span_verdicts_match_a_dense_lstsq_oracle(self, m, width, eps):
        assert count_block_new_columns(m, eps) == dense_span_fits(m, eps)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING + SPAN_FAMILIES)
    @pytest.mark.filterwarnings("ignore:borderline new-column decision")
    def test_coefficients_reproduce_each_spanned_column(self, m, width, eps):
        for b in count_block_new_columns(m, eps):
            block = m.values[b.start : b.end, b.start : b.end]
            for t, (new, coeffs) in enumerate(zip(b.new, b.coeffs)):
                col = block[t:, t]
                if not new and coeffs is not None:
                    assert np.linalg.norm(block[t:, :t] @ coeffs - col) <= eps * np.linalg.norm(col)

    @given(
        family=st.sampled_from(["diag", "masked", "sss", "noisy"]),
        seed=st.integers(0, 2**16),
        size=st.integers(1, 64),
        width=st.integers(1, 6),
        eps=st.sampled_from([1e-6, 1e-9, 1e-12]),
        scaled=st.booleans(),
    )
    @settings(deadline=None, max_examples=60)
    def test_thin_verdicts_match_the_dense_oracle(self, family, seed, size, width, eps, scaled):
        m = span_test_kernel(family, seed, size, width, scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = count_block_new_columns(m, eps)
        want = dense_span_fits(m, eps)
        assert [(b.start, b.end) for b in got] == [(b.start, b.end) for b in want]
        for b, oracle in zip(got, want):
            block = m.values[b.start : b.end, b.start : b.end]
            for t, (new, coeffs, oracle_new, oracle_coeffs) in enumerate(
                zip(b.new, b.coeffs, oracle.new, oracle.coeffs)
            ):
                below, col = block[t:, :t], block[t:, t]
                threshold = eps * np.linalg.norm(col)
                if not new and coeffs is not None:
                    # A spanned verdict holds coefficients that prove it.
                    assert np.linalg.norm(below @ coeffs - col) <= threshold
                if new and not oracle_new:
                    # A span the oracle proves is missed only in a borderline decision, which
                    # warns, or where the proof rests on rounding: lstsq may then fit through a
                    # direction at the rounding level, which the sweep's carry cuts.
                    oracle_residual = np.linalg.norm(below @ oracle_coeffs - col)
                    rounding = np.linalg.norm(below) * np.linalg.norm(oracle_coeffs)
                    assert max(oracle_residual, np.finfo(float).eps * rounding) >= threshold / 10
                # Spanned against the oracle's verdict is allowed: with a column scaled far
                # down, lstsq's rounding, eps |below| |coeffs|, can pass the threshold of a
                # column that the proving coefficients above reproduce.

    @pytest.mark.parametrize("offset, in_band", [(3e-9, True), (1e-5, False)])
    def test_a_planted_column_gets_the_oracle_verdict_in_and_far_from_the_band(
        self, monkeypatch, offset, in_band
    ):
        vals = np.tril(np.ones((4, 4)))
        vals[3, 0] = 1 + offset  # column 1 misses column 0's span by about offset
        m = LowerTriangularMatrix(vals)
        thin, tested = [], []
        thin_fits, span_fits = ss_matrix._thin_fits, ss_matrix._span_fits

        def recording_thin_fits(*args):
            fits = thin_fits(*args)
            thin.extend(residual for _, _, residual, _ in fits)
            return fits

        def recording_span_fits(*args):
            fits = span_fits(*args)
            tested.extend(fits)
            return fits

        monkeypatch.setattr(ss_matrix, "_thin_fits", recording_thin_fits)
        monkeypatch.setattr(ss_matrix, "_span_fits", recording_span_fits)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocks = count_block_new_columns(m)
        below, col = vals[1:, :1], vals[1:, 1]
        threshold = DEFAULT_EPS * np.linalg.norm(col)
        assert (threshold / 10 <= thin[1] <= threshold * 10) == in_band
        _, coeffs, residual, _ = tested[1]
        if in_band:
            # The verdict and the warning are decided on the dense residual.
            assert residual == float(np.linalg.norm(below @ coeffs - col))
            assert [str(w.message).split(":")[0] for w in caught] == [
                "borderline new-column decision at column 1"
            ]
        else:
            assert residual == thin[1] and caught == []
        assert blocks == dense_span_fits(m, DEFAULT_EPS)
        assert blocks[0].new == (True, True, False, False)

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_factors_match_a_dense_lstsq_construction(self, seed):
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.95, 1.05, 256) * rng.choice([-1.0, 1.0], 256)
        q, k = rng.standard_normal((2, 256, 4))
        m = LowerTriangularMatrix(one_ss(gains).values * (q @ k.T))
        sweep, _ = _construct(m, count_block_new_columns(m), 4, DEFAULT_EPS)
        dense, _ = _construct(m, dense_span_fits(m, DEFAULT_EPS), 4, DEFAULT_EPS)
        assert rel_fro(sweep.Q, dense.Q) <= 1e-13
        assert rel_fro(sweep.K, dense.K) <= 1e-13

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES)
    def test_semiseparable_rank_is_the_largest_extracted_rank(self, m, width):
        assert semiseparable_rank(m) == max(extract_sss(m, width).r)

    @pytest.mark.parametrize("m, width", CHAIN_BREAKING[1:])
    def test_refuses_a_direction_the_previous_block_dropped(self, m, width):
        with pytest.raises(InconsistentTransitionError, match="column-factor"):
            extract_sss(m, width)

    def test_keeps_a_direction_below_the_rank_threshold_but_above_rounding(self):
        m, width = CHAIN_BREAKING[0].values
        rep = extract_sss(m, width)
        assert rep.r == (1, 2, 3, 2, 1)
        assert np.array_equal(materialize_sss(rep).values, m.values)

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


def svd_with_rank_loop(block, eps):
    """``svd_with_rank`` with signs normalized one vector at a time in a loop (test oracle)."""
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    for i in range(s.shape[0]):
        col = u[:, i]
        j = int(np.argmax(np.abs(col)))
        if col[j] < 0.0:
            u[:, i] = -u[:, i]
            vh[i, :] = -vh[i, :]
    return u, s, vh, rank_of_singular_values(s, eps)


class TestPerStepSolves:
    """Each sweep step is factored once: the solves reuse its SVD."""

    @staticmethod
    def counted_pinv(monkeypatch):
        shapes = []
        original = np.linalg.pinv

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting)
        return shapes

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING)
    def test_transitions_match_a_pinv_of_the_row_factor(self, monkeypatch, m, width):
        pairs = []
        original = sss_extract.solve_transition

        def recording(w_next, w_trunc, r_next, r_cur, *args, **kwargs):
            trans = original(w_next, w_trunc, r_next, r_cur, *args, **kwargs)
            # Extraction solves a tile of steps in one call: check it case by case.
            cases = zip(
                *(np.reshape(x, (-1, *np.shape(x)[-2:])) for x in (trans, w_next, w_trunc)),
                np.ravel(r_next),
                np.ravel(r_cur),
            )
            for got, w_case, trunc_case, rows, cols in cases:
                oracle = np.linalg.pinv(w_case, rcond=DEFAULT_EPS) @ trunc_case
                oracle[rows:, :] = 0.0
                oracle[:, cols:] = 0.0
                pairs.append((got, oracle))
            return trans

        monkeypatch.setattr(sss_extract, "solve_transition", recording)
        try:
            extract_sss(m, width)
        except InconsistentTransitionError:
            pass  # CHAIN_BREAKING refuses; the transitions before the refusal still count
        assert pairs or m.T == 1
        for trans, oracle in pairs:
            assert rel_fro(trans, oracle) <= 1e-12

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING)
    def test_extraction_calls_no_pinv(self, monkeypatch, m, width):
        shapes = self.counted_pinv(monkeypatch)
        try:
            extract_sss(m, width)
        except InconsistentTransitionError:
            pass
        assert shapes == []

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING + SPAN_FAMILIES)
    @pytest.mark.filterwarnings("ignore:borderline new-column decision")
    def test_span_fits_pseudo_invert_only_the_small_factor(self, monkeypatch, m, width):
        widened = widened_steps(m)
        shapes = self.counted_pinv(monkeypatch)
        blocks = count_block_new_columns(m)
        # S V_k of a carry with k columns has at most k+1 rows, never the block's T-t.
        assert all(rows <= cols + 1 for rows, cols in (shape[-2:] for shape in shapes))
        # One stacked call per _TILE columns of a block, and one for each refactored carry.
        tiles = sum(math.ceil((b.end - b.start) / _TILE) for b in blocks)
        assert len(shapes) <= tiles + widened

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES)
    def test_span_fits_on_a_width_w_matrix_stay_within_w_plus_one_rows(self, monkeypatch, m, width):
        shapes = self.counted_pinv(monkeypatch)
        count_block_new_columns(m)
        assert all(rows <= width + 1 for rows, _ in (shape[-2:] for shape in shapes))

    def test_sign_normalization_is_bitwise_the_loops(self):
        rng = np.random.default_rng(80)
        tied = 0
        for i in range(200):
            rows = int(rng.integers(1, 25))
            cols = int(rng.integers(1, min(rows, 5) + 1))
            block = rng.standard_normal((rows, cols))
            if i % 3 == 1 and rows >= 2:
                # Rows x and -x: every left vector has tied maxima of opposite signs.
                half = rng.standard_normal(((rows + 1) // 2, cols))
                block = np.vstack([half, -half])[:rows]
            elif i % 3 == 2:
                # Repeated rows give tied maxima of one sign.
                block = np.repeat(rng.standard_normal(((rows + 1) // 2, cols)), 2, axis=0)[:rows]
            got, want = svd_with_rank(block, DEFAULT_EPS), svd_with_rank_loop(block, DEFAULT_EPS)
            for g, w in zip(got[:3], want[:3]):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            assert got[3] == want[3]
            peaks = np.abs(want[0]) == np.abs(want[0]).max(axis=0)
            tied += int(np.count_nonzero(peaks.sum(axis=0) > 1))
        assert tied > 0


def rank_jump_matrix():
    """A width-3 representation plus one entry at (60, 45): blocks 45 to 60 have rank 4."""
    vals = materialize_sss(random_representation(81, 70, 3)).values.copy()
    vals[60, 45] += 1.0
    return LowerTriangularMatrix(vals)


def refusal_pair_matrix(offset):
    """Diagonal blocks: a width-3 representation of size ``offset``, then ``big_row_matrix(1e16)``
    scaled to 1, whose column factor misses at its step 2, then a noisy width-3 representation,
    whose row factor misses at its step 3, six steps later in the same tile."""
    vals = np.zeros((offset + 25, offset + 25))
    if offset:
        head = materialize_sss(random_representation(82, offset, 3)).values
        vals[:offset, :offset] = head / np.abs(head).max()
    vals[offset : offset + 5, offset : offset + 5] = big_row_matrix(1e16).values / 1e16
    tail = noisy_representation(0, 20, 3, 1e-11).values
    vals[offset + 5 :, offset + 5 :] = tail / np.abs(tail).max()
    return LowerTriangularMatrix(vals)


#: (matrix, width) on which tiled extraction is checked against the step-by-step reference:
#: refusals of every kind, in the first tile and later ones, and tile-edge sizes.
REFERENCE_FAMILIES = [
    *SWEEP_FAMILIES,
    *CHAIN_BREAKING,
    *SPAN_FAMILIES,
    *[
        pytest.param(
            noisy_representation(seed, size, 4, level), 4, id=f"noisy-{size}-{level:.0e}-{seed}"
        )
        for size in (40, 100)
        for level in (1e-13, 1e-12, 1e-10)
        for seed in range(3)
    ],
    *[
        pytest.param(
            materialize_sss(random_representation(size, size, 4)), 4, id=f"random-rep-T{size}"
        )
        for size in (1, 2, 31, 32, 33, 64, 65)
    ],
    pytest.param(rank_jump_matrix(), 3, id="rank-jump-45"),
    *[pytest.param(refusal_pair_matrix(k), 3, id=f"refusal-pair-{k}") for k in (0, 40)],
]


def extraction_outcome(extract, m, width):
    """The representation, or the refusal's class, first word (its gate) and the step it names."""
    try:
        return extract(m, width)
    except (RankExceedsWidthError, InconsistentTransitionError) as exc:
        step = int(re.search(r"at step (\d+)", str(exc)).group(1))
        return type(exc), str(exc).split()[0], step


class TestTiledExtraction:
    """``extract_sss`` solves and gates a tile of steps at once, the reference step by step."""

    @pytest.mark.parametrize("m, width", REFERENCE_FAMILIES)
    @pytest.mark.filterwarnings("ignore:borderline new-column decision")
    def test_matches_the_step_by_step_reference(self, m, width):
        got = extraction_outcome(extract_sss, m, width)
        want = extraction_outcome(reference_extract_sss, m, width)
        assert isinstance(got, tuple) == isinstance(want, tuple), (got, want)
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.r == want.r
        for name in ("A", "b", "c"):
            assert rel_fro(getattr(got, name), getattr(want, name)) <= 1e-12, name

    def test_refusals_cover_every_kind_past_the_first_tile(self):
        outcomes = [
            extraction_outcome(extract_sss, *p.values)
            for p in REFERENCE_FAMILIES
            if p.values[0].T > _TILE
        ]
        refusals = {(o[1], o[2] > _TILE) for o in outcomes if isinstance(o, tuple)}
        assert {("block", True), ("row-factor", True), ("column-factor", True)} <= refusals

    @pytest.mark.parametrize("m, width", SWEEP_FAMILIES + CHAIN_BREAKING + SPAN_FAMILIES)
    @pytest.mark.filterwarnings("ignore:borderline new-column decision")
    def test_sweep_signs_change_no_output(self, monkeypatch, m, width):
        # On these matrices LAPACK's SVD of a matrix with negated columns is the negated SVD
        # bit for bit; on some rank-deficient ones it differs in the last bit of a free direction.
        def outputs():
            blocks = count_block_new_columns(m)
            try:
                factors = construct_one_ss_dual(m, width)
                dual = [factors.p.tobytes(), factors.Q.tobytes(), factors.K.tobytes()]
            except SsdError as exc:
                dual = type(exc)
            rep = extraction_outcome(extract_sss, m, width)
            if isinstance(rep, GeneralSssRepresentation):
                rep = [rep.A.tobytes(), rep.b.tobytes(), rep.c.tobytes(), rep.r]
            return (
                semiseparable_rank(m),
                [(b.start, b.end, b.new) for b in blocks],
                [None if c is None else c.tobytes() for b in blocks for c in b.coeffs],
                dual,
                rep,
            )

        want = outputs()
        original, calls = np.linalg.svd, []

        def negating_svd(a, *args, **kwargs):
            u, s, vh = original(a, *args, **kwargs)
            calls.append(len(s))
            signs = np.where((np.arange(len(s)) + len(calls)) % 3 == 1, -1.0, 1.0)
            return u * signs, s, vh * signs[:, None]

        monkeypatch.setattr(np.linalg, "svd", negating_svd)
        got = outputs()
        assert calls
        names = ("rank", "verdicts", "coefficients", "dual", "extraction")
        for name, g, w in zip(names, got, want):
            assert g == w, name


class TestRepresentationProperties:
    def test_materialization_of_any_valid_rep_is_width_bounded(self):
        for seed in range(10):
            width = 1 + seed % 4
            rep = random_representation(seed, 12, width)
            assert semiseparable_rank(materialize_sss(rep)) <= width

    def test_padding_validation(self):
        rep = random_representation(7, 10, 3)
        assert has_exact_padding(rep)
        assert rep.r[0] == 1  # so A[1] has one live column only
        trans = rep.A.copy()
        trans[1, 0, 2] = 5.0
        dirty = GeneralSssRepresentation(trans, rep.b, rep.c, rep.r)
        assert not has_exact_padding(dirty)

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

    @pytest.mark.parametrize(
        "ranks", [[1.7, "2", True, 1.2], "12"], ids=["entries-not-integers", "not-an-array"]
    )
    def test_from_json_refuses_ranks_that_are_not_an_array_of_integers(self, ranks):
        record = json.loads(random_representation(9, 4, 2).to_json())
        record["r"] = ranks
        with pytest.raises(ValueError, match="^r must be an array of integers"):
            GeneralSssRepresentation.from_json(json.dumps(record))

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_from_json_refuses_non_finite_entries(self, value):
        record = json.loads(random_representation(9, 8, 2).to_json())
        record["b"][3][1] = value
        with pytest.raises(ValueError, match="finite"):
            GeneralSssRepresentation.from_json(json.dumps(record))
