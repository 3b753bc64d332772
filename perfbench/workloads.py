"""The three workloads: which qrook jobs each runs, and the reference each
job's output is checked against.

The seed draws the aAlg parameter pair in ``verify_symbolic`` and orders
the jobs of every workload; qrook sees only the generated argv.  Why each
workload exists, and which layer it is meant to stress, is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from reference import (
    aitken_count,
    check_bratteli_dot,
    check_dims,
    check_regular_dimension,
    check_rep,
    check_schurweyl,
    check_tableaux,
    check_verify_modules,
    check_verify_single,
    multi_count,
)

# Each pair takes 3.0-3.6 s under `verify --family aAlg --k 5`.
AALG_PAIRS = ("1,3", "2,5", "1/2,3", "3,7")

Q2_DEFECT = (
    "verify(q0=2) specialises the relation coefficients but keeps the "
    "module matrices symbolic, so the suite fails although every module "
    "satisfies it when all entries are specialised at q = 2"
)


@dataclass(frozen=True)
class Job:
    name: str  # row of the per-job time, cli.job.<name>.s
    key: str  # the exact invocation; keys the pinned stdout digest
    spec: dict  # {"argv": [...]} for the CLI, {"call": ..., "arg": ...} for the library
    check: Callable  # (exit code, stdout) -> list of discrepancies
    known_defect: str | None = None


def _cli(name, argv, check, known_defect=None) -> Job:
    return Job(name, "qrook " + " ".join(argv), {"argv": argv}, check, known_defect)


def _verify_symbolic(rng):
    pair = rng.choice(AALG_PAIRS)
    return [
        _cli("verify_rook_k6", ["verify", "--family", "rook", "--k", "6"],
             check_verify_modules(6)),
        _cli("verify_aAlg_k5", ["verify", "--family", "aAlg", "--k", "5", "--u", pair],
             check_verify_modules(5)),
    ]


def _span_saturation(rng):
    return [
        _cli("schurweyl_m11_k6", ["schurweyl", "--m", "1,1", "--k", "6", "--u", "0,1"],
             check_schurweyl(6, (1, 1))),
        _cli("schurweyl_m12_k4", ["schurweyl", "--m", "1,2", "--k", "4", "--u", "0,1"],
             check_schurweyl(4, (1, 2))),
        Job("regular_dimension_3", "qrook.rook.regular_dimension(3)",
            {"call": "regular_dimension", "arg": 3}, check_regular_dimension(3)),
    ]


def _build_export(rng):
    return [
        _cli("dims_rook11", ["dims", "--rook", "11"], check_dims(11)),
        _cli("rep_multi_1_321", ["rep", "--multi", "[[1],[3,2,1]]", "--u", "0,1"],
             check_rep(7, multi_count([(1,), (3, 2, 1)]))),
        _cli("rep_shifted_k7_d3", ["rep", "--k", "7", "--d", "3", "--u1", "1"],
             check_rep(7, aitken_count((6, 3), (2,)))),
        _cli("tableaux_21_211", ["tableaux", "--multi", "[[2,1],[2,1,1]]"],
             check_tableaux([(2, 1), (2, 1, 1)])),
        _cli("bratteli_B6_dot", ["bratteli", "--family", "B", "--levels", "6", "--format", "dot"],
             check_bratteli_dot(6)),
        _cli("verify_rook_k7_q1", ["verify", "--family", "rook", "--k", "7", "--q", "1"],
             check_verify_single),
        _cli("verify_aAlg_k5_q2", ["verify", "--family", "aAlg", "--k", "5", "--q", "2"],
             check_verify_modules(5), known_defect=Q2_DEFECT),
    ]


WORKLOADS = {
    "verify_symbolic": _verify_symbolic,
    "span_saturation": _span_saturation,
    "build_export": _build_export,
}


def jobs_for(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
