"""Acceptance suite: one test per criterion, a PASS/FAIL line printed each.

Criteria that reuse the discounted-value runs (root location and the
kernel-certificate sweep) share them through a module-scoped fixture so
the stated runtime bounds apply to the criterion that owns the work.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from stochgame.absorbing import AbsorbingGame, verify_kohlberg_identity
from stochgame.gamecore import affine_normalize
from stochgame.matrixgame import matrix_game_sign, solve_matrix_game
from stochgame.oracle import shapley_operator, value_iteration
from stochgame.pencil import (
    build_pencil,
    pencil_matrix_kronecker,
    player1_profiles,
    profile_row_index,
)
from stochgame.ratlinalg import LAM, RatMatrix, det, sign
from stochgame.solver import _normalized, discounted_value, limit_value

from chain_refs import expected_reward, transition_matrix
from conftest import ALL_FIXTURES
from gens import (
    rand_absorbing_game,
    rand_fraction,
    rand_game,
    rand_matrix,
    rand_profile,
    rand_stochastic_matrix,
    rand_strategy,
)
from ladder import anchor_pencils, anchor_rungs, anchored_sign, shallow_ladder_sign
from mdp_refs import mdp_limit_brute_force, pure
from snow_ref import shapley_snow_certificate

SEED = 20260810
ROOT_CHECK_LAMBDAS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16))
ORACLE_TOL = Fraction(1, 2**16)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def root_oracle_data(fixture_docs):
    """Discounted-value runs and oracle vectors for every fixture."""
    start = time.perf_counter()
    data = {}
    for name in ALL_FIXTURES:
        doc = fixture_docs[name]
        k = doc.initial_state or 1
        for lam in ROOT_CHECK_LAMBDAS:
            result = discounted_value(doc.game, k, lam, 12)
            oracle = value_iteration(doc.game, lam, ORACLE_TOL)
            data[(name, lam)] = {"k": k, "result": result, "oracle": oracle}
    data["elapsed"] = time.perf_counter() - start
    return data


def test_criterion_1_denominator_lower_bound():
    rng = random.Random(SEED)
    lambdas = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 100)]
    start = time.perf_counter()
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        p = rand_stochastic_matrix(rng, n)
        lam = rng.choice(lambdas)
        m = RatMatrix(
            [
                [Fraction(int(i == j)) - (1 - lam) * p.rows[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
        if det(m) < lam**n:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        failures == 0 and elapsed < 10,
        f"200 stochastic matrices, 0 expected failures (got {failures}), "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_2_pencil_multilinearity():
    rng = random.Random(SEED + 2)
    start = time.perf_counter()
    failures = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        n_i = rng.randint(1, 3)
        n_j = rng.randint(1, 3)
        game = rand_game(rng, n, n_i, n_j)
        k = rng.randint(1, n)
        lam = Fraction(1, rng.randint(2, 9))
        z = rand_fraction(rng)
        x = rand_strategy(rng, n, n_i)
        j_vec = rand_profile(rng, n, n_j)
        pencil = build_pencil(game, k, lam)
        matrix = pencil.matrix_at(z)
        col = profile_row_index(j_vec, n_j)
        mixed_entry = Fraction(0)
        for row, i_vec in enumerate(player1_profiles(game)):
            weight = Fraction(1)
            for l, a in enumerate(i_vec):
                weight *= x.rows[l][a]
            if weight:
                mixed_entry += weight * matrix.entry(row, col)
        # independent route: determinants of the mixed-strategy chain
        y = pure(j_vec, n_j)
        q = transition_matrix(game, x, y)
        g = expected_reward(game, x, y)
        system = RatMatrix(
            [
                [Fraction(int(l == t)) - (1 - lam) * q.rows[l][t] for t in range(n)]
                for l in range(n)
            ]
        )
        numerator = det(system.replace_column(k, [lam * gv for gv in g]))
        denominator = det(system)
        if mixed_entry != numerator - z * denominator:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        failures == 0 and elapsed < 30,
        f"100 mixed-vs-pure pencil identities, 0 expected failures "
        f"(got {failures}), {elapsed:.2f}s < 30s",
    )


def test_criterion_3_strict_decrease():
    rng = random.Random(SEED + 3)
    failures = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        game = rand_game(rng, n, rng.randint(1, 3), rng.randint(1, 3))
        k = rng.randint(1, n)
        lam = Fraction(1, rng.randint(2, 9))
        z1 = rand_fraction(rng)
        z2 = z1 + Fraction(rng.randint(1, 5), rng.randint(1, 6))
        pencil = build_pencil(game, k, lam)
        v1 = solve_matrix_game(pencil.matrix_at(z1)).value
        v2 = solve_matrix_game(pencil.matrix_at(z2)).value
        if v1 - v2 < (z2 - z1) * lam**n:
            failures += 1
    report(3, failures == 0, f"100 quantified decrease checks, {failures} failures")


def test_criterion_4_root_vs_oracle(root_oracle_data):
    budget = Fraction(1, 2**12) + ORACLE_TOL
    violations = []
    for name in ALL_FIXTURES:
        for lam in ROOT_CHECK_LAMBDAS:
            entry = root_oracle_data[(name, lam)]
            gap = abs(entry["result"].value_estimate - entry["oracle"][entry["k"] - 1])
            if gap > budget:
                violations.append((name, lam, gap))
    elapsed = root_oracle_data["elapsed"]
    report(
        4,
        not violations and elapsed < 120,
        f"{len(ALL_FIXTURES)} fixtures x 3 discount rates vs oracle within "
        f"2^-12 + 2^-16 ({len(violations)} violations), {elapsed:.1f}s < 120s",
    )


def test_criterion_5_root_location(fixture_docs, root_oracle_data):
    violations = []
    exact_hits = 0
    for name in ALL_FIXTURES:
        game = fixture_docs[name].game
        for lam in ROOT_CHECK_LAMBDAS:
            entry = root_oracle_data[(name, lam)]
            k = entry["k"]
            u = entry["oracle"]
            z = u[k - 1]
            pencil = build_pencil(game, k, lam)
            if shapley_operator(game, lam, u) == u:
                exact_hits += 1
                if solve_matrix_game(pencil.matrix_at(z)).value != 0:
                    violations.append((name, lam, "exact oracle but nonzero value"))
            else:
                below = solve_matrix_game(pencil.matrix_at(z - ORACLE_TOL)).value
                above = solve_matrix_game(pencil.matrix_at(z + ORACLE_TOL)).value
                if below < 0 or above > 0:
                    violations.append((name, lam, "no bracketing around oracle value"))
    report(
        5,
        not violations,
        f"root bracketed at every oracle value ({exact_hits} exact fixed points, "
        f"{len(violations)} violations)",
    )


def test_criterion_6_big_match(fixture_docs):
    game = fixture_docs["big_match"].game
    start = time.perf_counter()
    problems = []
    for lam in (Fraction(1, 2**4), Fraction(1, 2**8)):
        oracle = value_iteration(game, lam, ORACLE_TOL)
        if abs(oracle[0] - Fraction(1, 2)) > ORACLE_TOL:
            problems.append(f"oracle at {lam} gave {oracle[0]}")
        disc = discounted_value(game, 1, lam, 10)
        if abs(disc.value_estimate - Fraction(1, 2)) > Fraction(1, 2**10):
            problems.append(f"discounted at {lam} gave {disc.value_estimate}")
    lim = limit_value(game, 1, 10)
    if abs(lim.value_estimate - Fraction(1, 2)) > Fraction(1, 2**10):
        problems.append(f"limit value gave {lim.value_estimate}")
    elapsed = time.perf_counter() - start
    report(
        6,
        not problems and elapsed < 60,
        f"limit and discounted values all 1/2 within 2^-10 "
        f"({'; '.join(problems) or 'no deviations'}), {elapsed:.1f}s < 60s",
    )


def test_criterion_7_kronecker_equivalence(fixture_docs):
    rng = random.Random(SEED + 7)
    failures = 0
    for name in ALL_FIXTURES:
        game = fixture_docs[name].game
        for _ in range(2):
            k = rng.randint(1, game.n_states)
            lam = Fraction(1, rng.randint(2, 9))
            if build_pencil(game, k, lam) != pencil_matrix_kronecker(game, k, lam):
                failures += 1
    for _ in range(50):
        game = rand_game(rng, 2, rng.randint(1, 3), rng.randint(1, 3))
        k = rng.randint(1, 2)
        lam = Fraction(1, rng.randint(2, 9))
        if build_pencil(game, k, lam) != pencil_matrix_kronecker(game, k, lam):
            failures += 1
    report(
        7,
        failures == 0,
        f"both constructions identical on all fixtures and 50 random games "
        f"({failures} failures)",
    )


def test_criterion_8_absorbing_identity():
    rng = random.Random(SEED + 8)
    failures = 0
    for _ in range(50):
        game = rand_absorbing_game(rng, rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 2))
        ab = AbsorbingGame.from_game(game)
        lam = Fraction(1, rng.randint(2, 12))
        z = rand_fraction(rng)
        rep = verify_kohlberg_identity(ab, lam, z, build_pencil(game, 1, lam))
        if not (rep.values_equal and rep.ok):
            failures += 1
    report(
        8,
        failures == 0,
        f"50 random absorbing games: scaled pencil value equals the Shapley "
        f"quotient exactly ({failures} failures)",
    )


def test_criterion_9_kernel_certificates(fixture_docs, root_oracle_data):
    rng = random.Random(SEED + 9)
    start = time.perf_counter()
    failures = 0
    for _ in range(200):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        if shapley_snow_certificate(m).value != solve_matrix_game(m).value:
            failures += 1
    checked = 0
    for name in ALL_FIXTURES:
        game = fixture_docs[name].game
        for lam in ROOT_CHECK_LAMBDAS:
            entry = root_oracle_data[(name, lam)]
            ngame, _, _ = affine_normalize(game)
            pencil = build_pencil(ngame, entry["k"], lam)
            if pencil.n_rows > 16 or pencil.n_cols > 16:
                continue
            for z, _ in entry["result"].trace:
                w = pencil.matrix_at(z)
                if shapley_snow_certificate(w).value != solve_matrix_game(w).value:
                    failures += 1
                checked += 1
            # matrices probed by the criterion-5 root-location checks
            raw_pencil = build_pencil(game, entry["k"], lam)
            z_star = entry["oracle"][entry["k"] - 1]
            if shapley_operator(game, lam, entry["oracle"]) == entry["oracle"]:
                spots = [z_star]
            else:
                spots = [z_star - ORACLE_TOL, z_star + ORACLE_TOL]
            for z in spots:
                w = raw_pencil.matrix_at(z)
                if shapley_snow_certificate(w).value != solve_matrix_game(w).value:
                    failures += 1
                checked += 1
    # profile matrices of the Big Match limit run (criterion 6), at the
    # deepest rung of the anchored ladder
    bm = fixture_docs["big_match"].game
    nbm, _, _, r_eff = _normalized(bm, 10)
    lim = limit_value(bm, 1, 10)
    rung = build_pencil(nbm, 1, Fraction(1, 2 ** anchor_rungs(nbm, r_eff)[-1]))
    for z, _ in lim.trace:
        w = rung.matrix_at(z)
        if w.n_rows <= 16 and w.n_cols <= 16:
            if shapley_snow_certificate(w).value != solve_matrix_game(w).value:
                failures += 1
            checked += 1
    for lam in (Fraction(1, 2**4), Fraction(1, 2**8)):
        disc = discounted_value(bm, 1, lam, 10)
        pencil = build_pencil(nbm, 1, lam)
        for z, _ in disc.trace:
            w = pencil.matrix_at(z)
            if shapley_snow_certificate(w).value != solve_matrix_game(w).value:
                failures += 1
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        9,
        failures == 0,
        f"kernel certificate equals LP value on 200 random matrices and "
        f"{checked} solver-trace matrices ({failures} failures), {elapsed:.1f}s",
    )


def test_criterion_10_mdp_degeneration():
    rng = random.Random(SEED + 10)
    violations = []
    for trial in range(20):
        n = rng.randint(1, 3)
        actions = rng.randint(1, 3)
        if rng.random() < 0.5:
            game = rand_game(rng, n, actions, 1)
        else:
            game = rand_game(rng, n, 1, actions)
        k = rng.randint(1, n)
        lim = limit_value(game, k, 10)
        reference = mdp_limit_brute_force(game, k)
        gap = abs(lim.value_estimate - reference)
        if gap > lim.radius:
            violations.append((trial, gap))
    report(
        10,
        not violations,
        f"20 one-player games: the exact pure-strategy limit lies in the bisection "
        f"enclosure ({len(violations)} violations)",
    )


def test_criterion_11_sign_stability(fixture_docs):
    start = time.perf_counter()
    grid = [Fraction(t, 16) for t in range(17)]
    unstable = []
    mismatches = []
    discrepancies = []
    for name in ALL_FIXTURES:
        game, _, _ = affine_normalize(fixture_docs[name].game)
        k = fixture_docs[name].initial_state or 1
        pencils = anchor_pencils(game, k, 4)
        germs = build_pencil(game, k, LAM)
        for z in grid:
            exact = matrix_game_sign(germs.scaled_at(z))
            if exact != anchored_sign(pencils, z):
                mismatches.append((name, z))
            shallow, _ = shallow_ladder_sign(game, k, z, depth_cap=64)
            if shallow is None:
                unstable.append((name, z))
            elif shallow != exact:
                discrepancies.append((name, str(z), shallow, exact))
    elapsed = time.perf_counter() - start
    for item in discrepancies:
        print(f"[criterion 11] logged shallow-vs-exact discrepancy: {item}")
    report(
        11,
        not unstable and not mismatches,
        f"exact sign equals the anchored ladder's and the shallow ladder "
        f"stabilized within depth 64 at all {len(ALL_FIXTURES) * len(grid)} grid "
        f"points ({len(mismatches)} mismatches, {len(unstable)} unstable, "
        f"{len(discrepancies)} discrepancies logged), {elapsed:.1f}s",
    )
