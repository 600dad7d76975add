"""The benchmark's workloads: fixed job lists over seeded inputs, each job
paired with the answer an independent oracle expects from it.

A job is one ``lya`` command line.  Its check receives the exit code and the
parsed stdout report and returns a reason when the answer is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

# Algebras of the two scale workloads.  h7 is left out of both: its eight
# jobs take about 25 s per pass on a 2-core host, so a run could not hold
# the several passes that the per-job best times need.
SCALE_ALGEBRAS = ("h5", "gl2")

WORKLOADS = {
    "suite": "lya verify suite: the paper's 28 checks over catalog algebras with n <= 4",
    "scale-sparse": "h5 and gl2 in the standard basis: integer, very sparse tensors",
    "scale-dense": "h5 and gl2 after a seeded rational change of basis: dense tensors",
}

SUITE_REPORTS = 28


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: Callable[[int, dict], str | None]


def _expect(code: int, **fields) -> Callable[[int, dict], str | None]:
    """Check the exit code and fields of the report's ``result``."""

    def check(got_code: int, report: dict) -> str | None:
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        result = report.get("result")
        if not isinstance(result, dict):
            return "no result in the report"
        for key, want in fields.items():
            if result.get(key) != want:
                return f"result.{key} = {result.get(key)!r}, expected {want!r}"
        return None

    return check


def _suite_check(code: int, report: dict) -> str | None:
    reason = _expect(0, all_pass=True)(code, report)
    if reason is None and len(report["result"].get("reports", ())) != SUITE_REPORTS:
        reason = f"{len(report['result'].get('reports', ()))} reports, expected {SUITE_REPORTS}"
    return reason


def write_inputs(workload: str, out: Path, seed: int) -> dict[str, dict[str, Path]]:
    """Write the workload's input files under ``out``; suite needs none."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "suite":
        return {}
    dense = workload == "scale-dense"
    return {name: gen.write_family(out, name, seed, dense) for name in SCALE_ALGEBRAS}


def expected_answers(workload: str) -> dict[str, dict]:
    if workload == "suite":
        return {}
    return {name: gen.expected(name) for name in SCALE_ALGEBRAS}


def jobs(workload: str, files: dict[str, dict[str, Path]],
         answers: dict[str, dict]) -> list[Job]:
    """The fixed job list of one pass.

    Every scale answer is basis independent, so a scale-dense job is held to
    the same answer as its scale-sparse twin.
    """
    if workload == "suite":
        return [Job("suite", ("verify", "suite"), _suite_check)]
    out = []
    for name in SCALE_ALGEBRAS:
        f = {key: str(path) for key, path in files[name].items()}
        want = answers[name]
        alg = f["algebra"]
        known_hat = 0 if want["dhat_known"] else 1
        out += [
            Job(f"{name}/check", ("check", alg), _expect(0, passed=True)),
            Job(f"{name}/der", ("der", alg), _expect(0, dim=want["der"])),
            Job(f"{name}/centroid", ("centroid", alg), _expect(0, dim=want["centroid"])),
            Job(f"{name}/gder", ("gder", alg, "--theta", f["theta"]),
                _expect(0, dim=want["gder"])),
            Job(f"{name}/quasi-known", ("quasi", alg, "--map", f["known"]),
                _expect(0, feasible=True)),
            Job(f"{name}/dhat-known", ("dhat", alg, "--map", f["known"]),
                _expect(known_hat, consistent=want["dhat_known"])),
            Job(f"{name}/quasi-random", ("quasi", alg, "--map", f["random"]),
                _expect(1, feasible=False)),
            Job(f"{name}/dhat-random", ("dhat", alg, "--map", f["random"]),
                _expect(1, consistent=False)),
        ]
    return out
