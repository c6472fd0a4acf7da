"""Plane-curve, developable, rank, and de Jonquieres systems."""

import itertools
import math
import random
import re
import signal
import time
from fractions import Fraction

import pytest

from polarcalc import plucker
from polarcalc.invariants import dual_surface_table
from polarcalc.plucker import (
    _FIELDS,
    _SYSTEM,
    DevelopableCharacters,
    PlaneCurveCharacters,
    complete_developable,
    complete_plane_characters,
    dejonquieres_count,
    dejonquieres_problem,
    generator_identities_symbolic,
    rank_profile,
    solve_from_genus,
    verify_plucker_relations,
)
from polarcalc.polyring import QQ, DomainError, PolyRing
from polarcalc.reporting import all_ok

N6 = PolyRing(("n", "nd", "d", "k", "b", "f"), QQ)


def _space_curve_system(m, genus):
    """Developable of a degree-m, genus-g space curve with no stationary
    points (beta = 0) and its 4(m + 3g - 3) stationary planes."""
    chars, checks = complete_developable(
        m=m, genus=genus, alpha=4 * (m + 3 * genus - 3), beta=0
    )
    assert all_ok(checks)
    return chars


# Consistent systems whose subsets of 2..5 characters make the solver grid.
# A cubic of genus 2 or 3 would have h = (m^2 - 3m + 2 - 2g)/2 < 0.
GRID_SYSTEMS = [dual_surface_table(d).hessian for d in range(3, 9)] + [
    _space_curve_system(m, genus)
    for m in range(3, 16)
    for genus in range(4)
    if m > 3 or genus < 2
]


class TestPlaneCharacters:
    def test_smooth_quartic(self):
        chars = complete_plane_characters(4, 0, 0)
        assert chars.as_tuple() == (4, 12, 0, 0, 28, 24)
        # the closed bitangent count for smooth curves: n(n-2)(n-3)(n+3)/2
        assert chars.bitangents == 4 * 2 * 1 * 7 // 2

    def test_nodal_cubic(self):
        assert complete_plane_characters(3, 1, 0).as_tuple() == (3, 4, 1, 0, 0, 3)

    def test_cuspidal_cubic(self):
        assert complete_plane_characters(3, 0, 1).as_tuple() == (3, 3, 0, 1, 0, 1)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(DomainError):
            complete_plane_characters(3, 4, 0)  # too many nodes for a cubic

    def test_solve_from_genus_cubic_branch(self):
        chars = solve_from_genus(6, 12, 4)
        assert (chars.nodes, chars.cusps) == (0, 6)
        assert (chars.bitangents, chars.flexes) == (27, 24)

    def test_solve_from_genus_quartic_branch(self):
        chars = solve_from_genus(12, 36, 19)
        assert (chars.nodes, chars.cusps) == (12, 24)
        assert (chars.bitangents, chars.flexes) == (480, 96)

    def test_solve_from_genus_smooth_cubic(self):
        chars = solve_from_genus(3, 6, 1)
        assert (chars.nodes, chars.cusps) == (0, 0)
        assert (chars.bitangents, chars.flexes) == (0, 9)


class TestPluckerRelations:
    def test_consistent_set_all_residuals_zero(self):
        chars = complete_plane_characters(4, 0, 0)
        assert all_ok(verify_plucker_relations(chars))

    def test_nodal_cubic_residuals_zero(self):
        chars = PlaneCurveCharacters(3, 4, 1, 0, 0, 3)
        assert all_ok(verify_plucker_relations(chars))

    def test_many_consistent_sets(self):
        rng = random.Random(73)
        verified = 0
        for _ in range(200):
            n = rng.randint(3, 9)
            nodes = rng.randint(0, 3)
            cusps = rng.randint(0, 2)
            try:
                chars = complete_plane_characters(n, nodes, cusps)
            except DomainError:
                continue
            assert all_ok(verify_plucker_relations(chars))
            verified += 1
        assert verified >= 50

    def test_perturbed_bitangent_count(self):
        chars = PlaneCurveCharacters(4, 12, 0, 0, 29, 24)
        named = {c.name: c for c in verify_plucker_relations(chars)}
        assert named["P1_dual"].lhs == -2
        assert named["G3"].lhs == -18
        assert not named["P1_dual"].ok
        # structural identities still hold on inconsistent data
        assert named["reconstruct P1"].ok
        assert named["G3 composition"].ok

    def test_generator_identities_are_zero_polynomials(self):
        checks = generator_identities_symbolic()
        assert len(checks) == 10
        assert all_ok(checks)

    def test_genus_relation_on_symbolic_consistent_set(self):
        # 1/2 (n-1)(n-2) - d - k = 1/2 (nd-1)(nd-2) - b - f restated
        n, nd, d, k, b, f = N6.gens()
        chars = PlaneCurveCharacters(n, nd, d, k, b, f)
        named = {c.name: c for c in verify_plucker_relations(chars)}
        genus_residual = named["genus"].lhs
        direct = ((n - 1) * (n - 2) / 2 - d - k) - ((nd - 1) * (nd - 2) / 2 - b - f)
        assert genus_residual == direct


class TestDevelopables:
    def test_twisted_cubic(self):
        chars, _ = complete_developable(m=3, genus=0, alpha=0, beta=0)
        assert (chars.n, chars.r, chars.x, chars.y, chars.g, chars.h) == (3, 4, 0, 0, 1, 1)
        # smooth regression edge: the plane-section count gives x = r - 4
        assert chars.x == chars.r - 4

    def test_hessian_system_degree_three(self):
        chars, _ = complete_developable(r=30, n=24, alpha=54)
        assert (chars.m, chars.g, chars.beta, chars.h) == (72, 180, 150, 2316)

    def test_hessian_system_degree_four(self):
        chars, _ = complete_developable(r=128, n=96, alpha=320)
        assert (chars.m, chars.g, chars.beta, chars.h) == (416, 4016, 960, 84816)

    def test_all_relations_checked(self):
        _, checks = complete_developable(m=3, genus=0, alpha=0, beta=0)
        assert len(checks) >= 10
        assert all_ok(checks)

    def test_insufficient_knowns(self):
        with pytest.raises(DomainError):
            complete_developable(m=3, genus=0)

    def test_inconsistent_knowns(self):
        with pytest.raises(DomainError):
            complete_developable(m=3, genus=0, alpha=0, beta=0, r=5)

    def test_overdetermined_consistent(self):
        chars, _ = complete_developable(m=3, genus=0, alpha=0, beta=0, r=4, n=3)
        assert chars.h == 1

    def test_rank_and_two_zeros_give_the_twisted_cubic(self):
        chars, checks = complete_developable(r=4, alpha=0, x=0)
        assert chars == DevelopableCharacters(
            m=3, n=3, r=4, alpha=0, beta=0, x=0, y=0, g=1, h=1, genus=0
        )
        assert all_ok(checks)

    def test_solvable_characters_are_derived_from_the_relations(self):
        solvable = {name: set(slopes) for name, _, _, slopes in _SYSTEM}
        assert len(solvable) == 13
        assert solvable["apparent-node difference"] == {"g", "h"}
        assert solvable["class from rank section"] == {"m", "n", "x"}

    @pytest.mark.parametrize(
        "system", GRID_SYSTEMS, ids=lambda s: f"m={s.m},r={s.r},genus={s.genus}"
    )
    def test_every_small_subset_completes_exactly_or_is_refused(self, system):
        full = {f: getattr(system, f) for f in _FIELDS}
        completed = 0
        for size in range(2, 6):
            for subset in itertools.combinations(_FIELDS, size):
                try:
                    chars, checks = complete_developable(**{f: full[f] for f in subset})
                except DomainError:
                    continue
                assert chars == system, subset
                assert len(checks) == 13 and all_ok(checks)
                completed += 1
        assert completed > 0

    def test_symbolic_solution(self):
        ring = PolyRing(("n",), QQ)
        n = ring.var("n")
        rank = 2 * n * (n - 2) * (3 * n - 4)
        class_degree = 4 * n * (n - 1) * (n - 2)
        stationary = 2 * n * (n - 2) * (11 * n - 24)
        chars, checks = complete_developable(r=rank, n=class_degree, alpha=stationary)
        assert chars.m == 4 * n * (n - 2) * (7 * n - 15)
        assert all_ok(checks)


class TestRankProfiles:
    def test_twisted_cubic(self):
        profile = rank_profile(3, 3, 0, (0, 0, 0))
        assert profile.ranks == (3, 4, 3)
        dual = profile.dual()
        assert dual.ranks == (3, 4, 3)
        assert dual.dual().ranks == profile.ranks

    def test_elliptic_space_quartic(self):
        profile = rank_profile(3, 4, 1, (0, 0, 16))
        assert profile.ranks == (4, 8, 12)
        dual = profile.dual()
        assert dual.ranks == (12, 8, 4)
        assert tuple(int(x) for x in dual.k) == (16, 0, 0)

    def test_closing_relation_enforced(self):
        with pytest.raises(DomainError):
            rank_profile(3, 4, 1, (0, 0, 15))

    @pytest.mark.parametrize(
        "degree, genus, k, name",
        [
            (-3, 0, (0, 0, 0), "degree"),
            (0, 1, (0, 0, 0), "degree"),
            (3, -1, (0, 0, 0), "genus"),
            (3, 0, (0, -1, 2), "k_2"),
            (3, 0, (1, 0, -3), "k_3"),
        ],
    )
    def test_numeric_inputs_checked_before_the_closing_relation(self, degree, genus, k, name):
        # (0, 1, (0, 0, 0)) satisfies the closing relation with ranks 0, 0, 0,
        # and the k with a negative entry satisfy it too.
        with pytest.raises(DomainError, match=rf"^{name} = -?\d+ is "):
            rank_profile(3, degree, genus, k)

    def test_dual_curve_degree_is_bounded_like_the_degree(self):
        # Ranks (1, 0) pass the closing relation, but r_1 is the degree of
        # the dual curve.
        with pytest.raises(DomainError, match=r"^r_1 = 0 is below 1"):
            rank_profile(2, 1, 2, (4, 1))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_symbolic_telescoping_and_duality(self, dim):
        ring = PolyRing(("m", "g") + tuple(f"k{i}" for i in range(1, dim)), QQ)
        m, g, *k = ring.gens()
        # k_N from the closing relation sum (N-j+1) k_j = (N+1)(m + N(g-1))
        k.append((dim + 1) * (m + dim * (g - 1))
                 - sum((dim - j + 1) * k[j - 1] for j in range(1, dim)))
        profile = rank_profile(dim, m, g, k)
        padded = [0 * m, *profile.ranks, 0 * m]
        for i in range(dim):
            assert padded[i] - 2 * padded[i + 1] + padded[i + 2] == 2 * g - 2 - k[i]
        assert profile.dual().ranks == tuple(reversed(profile.ranks))
        assert profile.dual().dual() == profile

    def test_plane_curve_case_matches_plucker(self):
        # smooth plane quartic as a curve in P^2: k_1 = cusps, k_2 = flexes
        chars = complete_plane_characters(4, 0, 0)
        profile = rank_profile(2, 4, chars.genus, (0, chars.flexes))
        assert profile.ranks == (4, chars.dual_degree)


class TestDeJonquieres:
    def test_problem_fills_simple_points(self):
        problem = dejonquieres_problem(4, 0, {2: 1})
        assert problem.multiplicities == {1: 2, 2: 1}
        assert problem.dimension == 1

    def test_negative_genus_is_refused(self):
        with pytest.raises(DomainError, match=r"^genus = -1 is negative$"):
            dejonquieres_problem(4, -1, {2: 1})

    def test_examples(self):
        assert dejonquieres_count(4, 0, {2: 1}) == 6
        assert dejonquieres_count(3, 1, {2: 1}) == 6
        assert dejonquieres_count(4, 0, {3: 1}) == 6

    def test_double_point_grid_matches_ramification(self):
        for m in range(2, 13):
            for g in range(0, 6):
                assert dejonquieres_count(m, g, {2: 1}) == 2 * m + 2 * g - 2

    def test_higher_contact_grid(self):
        # one (i+1)-fold point in an i-dimensional series
        for i in (2, 3):
            for m in range(i + 1, 13):
                for g in range(0, 6):
                    expected = (i + 1) * (m + (g - 1) * i)
                    assert dejonquieres_count(m, g, {i + 1: 1}) == expected

    def test_multi_point_patterns(self):
        for args, expected in (
            ((12, 2, {2: 3}), 1176),
            ((Fraction(12), Fraction(2), {2: 3}), 1176),
            ((16, 3, {2: 4, 3: 2}), 457920),
            ((24, 3, {2: 6, 3: 2}), 234710784),
            ((40, 5, {2: 10, 3: 3}), 235650290024448),
        ):
            assert dejonquieres_count(*args) == expected, args

    def test_counts_at_the_smallest_degrees(self):
        # A single s-fold point in a series of degree s: a triple point of a
        # rational g^2_3 and a double point of a rational g^1_2.
        assert dejonquieres_count(3, 0, {3: 1}) == 3 * (3 - 2)
        assert dejonquieres_count(2, 0, {2: 1}) == 2

    @staticmethod
    def enumerated_count(degree, genus, multiplicities):
        """The count as the sum over every share j of C in the multiple points
        with |j| <= genus: the enumeration the closed sum replaced."""
        problem = dejonquieres_problem(degree, genus, multiplicities)
        g = problem.genus
        simple = problem.multiplicities.get(1, 0)
        multiple = sorted((s, ms) for s, ms in problem.multiplicities.items() if s > 1)

        def multinomial(parts):
            out, total = 1, 0
            for k in parts:
                total += k
                out *= math.comb(total, k)
            return out

        count = 0
        for j in itertools.product(*(range(ms + 1) for _, ms in multiple)):
            if sum(j) > g:
                continue
            rest = [ms - js for (_, ms), js in zip(multiple, j)]
            weight = math.prod((s * (s - 1)) ** js * s ** r for (s, _), js, r in zip(multiple, j, rest))
            count += math.comb(g, sum(j)) * multinomial(j) * multinomial([simple, *rest]) * weight
        return count

    def test_closed_sum_matches_the_enumeration(self):
        rng = random.Random(20240913)
        counted = 0
        for _ in range(600):
            mult = {rng.randint(1, 7): rng.randint(-1, 6) for _ in range(rng.randint(0, 3))}
            degree = sum(s * ms for s, ms in mult.items()) + rng.randint(-2, 12)
            genus = rng.randint(-1, 9)
            try:
                expected = self.enumerated_count(degree, genus, mult)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                    dejonquieres_count(degree, genus, mult)
                continue
            assert dejonquieres_count(degree, genus, mult) == expected, (degree, genus, mult)
            counted += 1
        assert counted > 300

    @pytest.mark.parametrize(
        "args",
        [(400, 40, {2: 40, 3: 40, 4: 40}), (2000, 100, {2: 100, 3: 100, 4: 100, 5: 100})],
        ids=["12341 shares", "over 4 million shares"],
    )
    def test_many_multiple_points_are_bounded(self, args):
        # The closed sum has min(genus, sum m_s) + 1 terms, whatever the
        # number of shares j the enumeration would visit.
        def expired(signum, frame):
            raise TimeoutError(f"dejonquieres_count{args} ran past 5 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(5)
        start = time.perf_counter()
        try:
            count = dejonquieres_count(*args)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 0.5
        assert count > 0

    def test_pattern_exceeding_degree_rejected(self):
        with pytest.raises(DomainError):
            dejonquieres_count(3, 0, {2: 2})
