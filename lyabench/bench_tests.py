"""Tests of the benchmark itself.  From the root of the checkout:

    python3 -m pytest -q lyabench/bench_tests.py

The file name keeps these tests out of the default collection: the smoke
runs take about a minute and a half.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import spans
import stats

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "lyabench" / "run.py"


def bracket_of(name: str, dense: bool, seed: int = 7):
    rng = random.Random(f"{seed}:{name}")
    fam = gen.family(name, rng)
    c = fam["c"]
    if dense:
        p, p_inv = gen.random_basis_change(len(c), rng)
        return gen.transport_bracket(c, p, p_inv), p, p_inv, fam
    return c, None, None, fam


@pytest.mark.parametrize("name", ["h3", "h5", "h7", "gl2", "gl3"])
@pytest.mark.parametrize("dense", [False, True])
def test_brackets_are_lie(name, dense):
    c, _, _, _ = bracket_of(name, dense)
    n = len(c)
    for i in range(n):
        for j in range(n):
            assert [-x for x in c[i][j]] == c[j][i]
    assert gen.jacobi_residuals(c) == []


def test_jacobi_check_sees_a_broken_bracket():
    _, c = gen.heisenberg(1)
    c[0][2][0] = Fraction(1)  # [x, z] = x
    c[2][0][0] = Fraction(-1)
    assert gen.jacobi_residuals(c) != []


@pytest.mark.parametrize("name", ["h3", "h5", "gl2"])
def test_basis_change_is_invertible_and_keeps_answers(name):
    c, p, p_inv, fam = bracket_of(name, dense=True)
    n = len(c)
    assert gen.matmul(p, p_inv) == gen.identity(n) == gen.matmul(p_inv, p)
    want = gen.expected(name)
    ident = gen.identity(n)
    assert gen.twisted_derivation_dim(fam["c"], ident) == want["der"]
    assert gen.twisted_derivation_dim(c, ident) == want["der"]
    theta = gen.conjugate(fam["automorphism"], p, p_inv)
    assert gen.twisted_derivation_dim(c, theta) == want["gder"]


def test_dense_tensors_are_denser():
    sparse = sum(1 for row in gen.heisenberg(2)[1] for v in row for x in v if x)
    c, _, _, _ = bracket_of("h5", dense=True)
    dense = sum(1 for row in c for v in row for x in v if x)
    assert dense > 5 * sparse


@pytest.mark.parametrize("name", ["h3", "h5", "gl2", "gl3"])
def test_closed_form_maps(name):
    """The known derivation is a derivation, the automorphism preserves the
    bracket, and the random map carries its obstruction."""
    fam = gen.family(name, random.Random(3))
    c = fam["c"]
    n = len(c)
    units = [gen.unit(n, i) for i in range(n)]
    d, t = fam["known_derivation"], fam["automorphism"]
    col = lambda m, j: [m[r][j] for r in range(n)]  # noqa: E731
    for i in range(n):
        for j in range(n):
            lhs = gen.apply(d, c[i][j])
            rhs = [a + b for a, b in zip(gen.bracket(c, col(d, i), units[j]),
                                         gen.bracket(c, units[i], col(d, j)))]
            assert lhs == rhs
            assert gen.apply(t, c[i][j]) == gen.bracket(c, col(t, i), col(t, j))
    assert gen.inverse(t) is not None
    assert gen.quasi_obstruction(c, d) is None
    assert gen.quasi_obstruction(c, gen.random_obstructed_map(c, random.Random(5))) is not None


def test_inputs_depend_only_on_the_seed(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = gen.write_family(tmp_path / "a", "h5", 3, dense=True)
    b = gen.write_family(tmp_path / "b", "h5", 3, dense=True)
    other = gen.write_family(tmp_path / "c", "h5", 4, dense=True)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()
    assert a["algebra"].read_bytes() != other["algebra"].read_bytes()


@pytest.mark.parametrize("n, want", [
    (10, None),
    (11, (9, 0)),
    (20, (50, 9)),
    (100, (90, 89)),
    (1000, (99, 989)),
])
def test_tail_percentile(n, want):
    values = list(range(n))
    random.Random(n).shuffle(values)
    got = stats.tail_percentile(values)
    assert got == want
    if got is not None:
        p, value = got
        assert sum(1 for v in values if v > value) >= 10
        # one percentile higher leaves fewer than ten beyond it
        next_rank = -(-(p + 1) * n // 100)
        assert n - next_rank < 10


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "0"):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["suite", "scale-sparse", "scale-dense"])
def test_smoke_run_has_no_failures(workload):
    result = last_json(run_bench(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"pass_cal", "job_p50_cal", "cpu_cal", "peak_rss_mb",
                                      "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    first, second = (last_json(run_bench("suite", trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(spans.METRICS)
    for name in spans.COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["derivations.g_derivation_space.calls"]["value"] == 35
    assert first["metrics"]["theorems.checks"]["value"] == 28


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "lyabench", tmp_path / "lyabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("suite", trace=0, cwd=tmp_path, seconds="1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
