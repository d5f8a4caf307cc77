"""Tests of the benchmark's own checks: each must pass baxcat's real output
and reject a deliberately wrong copy of it.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from baxcat import cli  # noqa: E402
from baxcat.catalog import build_family  # noqa: E402
from baxcat.treerep import enumerate_trees  # noqa: E402


def baxcat_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--format", "json", *argv])
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# the exact oracle


@pytest.mark.parametrize("k, verdict", [(6, oracle.TREE_UNIQUE), (7, oracle.INCONSISTENT)])
def test_spin_3half_phi2_obstruction_starts_at_level_7(k, verdict):
    assert oracle.solve(oracle.su2(k), 3, 4).verdict == verdict


def test_ty24_long_cycle_closes_exactly():
    top = oracle.ty(24)
    sol = oracle.solve(top, top.label("X"), 1)
    assert sol.verdict == oracle.CYCLE_CONSISTENT
    assert sol.graph.n_cycles == 1 and len(sol.graph.edges) == 24


def test_twist_only_trees_are_tree_unique():
    for top in (oracle.so(5, 2), oracle.sp(2, 3), oracle.g2(1)):
        assert {s.verdict for s in oracle.classify(top)} == {oracle.TREE_UNIQUE}


@pytest.mark.parametrize("family, params, rho, L", [
    ("su2", {"level": 3}, "1/2", 6), ("ty", {"M": 4}, "X", 4), ("minimal", {"level": 5}, "1", 3)])
def test_height_count_matches_enumerated_basis(family, params, rho, L):
    top = oracle.family(family, **params)
    cat = build_family(family, **{("k" if key == "level" else key): v for key, v in params.items()})
    r = top.label(rho)
    for bc, periodic in (("open_all", False), ("periodic", True)):
        assert enumerate_trees(cat, r, L, bc).size == oracle.height_count(top, r, L, periodic)


# ---------------------------------------------------------------------------
# classify


def test_classify_accepts_real_output_and_rejects_a_flipped_verdict():
    top = oracle.su2(7)
    doc = baxcat_json("classify", "--family", "su2", "--level", "7")
    assert checks.classify_errors(doc, top) == ([], [])
    bad = copy.deepcopy(doc)
    row = next(r for r in bad["pairs"] if r["verdict"] == oracle.INCONSISTENT)
    row["verdict"] = oracle.CYCLE_CONSISTENT
    errors, known = checks.classify_errors(bad, top)
    assert len(errors) == 1 and not known


def test_classify_rejects_wrong_graph_counts():
    top = oracle.minimal(6)
    bad = baxcat_json("classify", "--family", "minimal", "--level", "6")
    bad["pairs"][-1]["edges"] += 1
    assert checks.classify_errors(bad, top)[0]


def test_classify_names_the_ty24_long_cycle_pairs_apart():
    errors, known = checks.classify_errors(
        baxcat_json("classify", "--family", "ty", "--M", "24"), oracle.ty(24))
    assert not errors
    assert known and known[0].startswith("(X, 1): INCONSISTENT 24v/24e/1c")


# ---------------------------------------------------------------------------
# baxterize


def test_baxterize_accepts_real_ratios_and_rejects_a_wrong_one():
    top = oracle.su2(6)
    (rho, phi), = workloads.widest_pairs(top)
    mus = ["0.4-0.3j", "-1.7+0.9j"]
    doc = baxcat_json("baxterize", "--family", "su2", "--level", "6", "--rho", top.labels[rho],
                      "--phi", top.labels[phi], *(f"--mu={mu}" for mu in mus))
    values = [complex(mu) for mu in mus]
    assert checks.baxterize_errors(doc, top, rho, phi, values) == []
    bad = copy.deepcopy(doc)
    ratios = bad["evaluations"][1]["edge_ratios"]
    key = sorted(ratios)[0]
    ratios[key] = [repr(float(ratios[key][0]) * (1 + 1e-6)), ratios[key][1]]
    assert len(checks.baxterize_errors(bad, top, rho, phi, values)) == 1


# ---------------------------------------------------------------------------
# verify reports


def test_report_rejects_a_wrong_basis_dim():
    top = oracle.su2(3)
    doc = baxcat_json("verify", "projectors", "--family", "su2", "--level", "3",
                      "--rho", "1/2", "--L", "5")
    dim = oracle.height_count(top, 1, 5, False)
    assert checks.report_errors(doc, name="projector_algebra", dim=dim) == []
    doc["params"]["dim"] += 1
    assert checks.report_errors(doc, name="projector_algebra", dim=dim)


def test_report_rejects_fewer_samples_than_asked():
    top = oracle.ty(5)
    x = top.label("X")
    doc = baxcat_json("verify", "current", "--family", "ty", "--M", "5", "--rho", "X",
                      "--phi", "2", "--samples", "4")
    edges = len(oracle.graph(top, x, 2).directed)
    assert checks.report_errors(doc, name="current_vertex", samples=4, per_sample=edges) == []
    assert checks.report_errors(doc, name="current_vertex", samples=5, per_sample=edges)
    # the CLI caps transfer samples at 10: asking for more shows as too few
    doc = baxcat_json("verify", "transfer", "--family", "su2", "--level", "3", "--rho", "1/2",
                      "--phi", "1", "--L", "4", "--samples", "12")
    assert checks.report_errors(doc, name="commuting_transfer", samples=12)


def test_loop_rejects_fewer_samples_than_asked():
    doc = baxcat_json("verify", "loop", "--samples", "3", "--seed", "1")
    assert checks.loop_errors(doc, 3) == []
    assert checks.loop_errors(doc, 4)


# ---------------------------------------------------------------------------
# lib-session negative controls and the failure tally


@pytest.mark.parametrize("kind", ["corrupt_f", "perturbed_current"])
def test_negative_control_that_passes_is_an_error(kind):
    plan = workloads.SessionPlan({})
    job = {"kind": kind, "category": None, "out": {"verdict": "fail"}}
    assert workloads.session_errors(plan, job) == []
    job["out"]["verdict"] = "pass"
    assert workloads.session_errors(plan, job)


def test_only_the_designated_job_may_show_the_known_fault(capsys):
    tally = run.Tally()
    tally.record("ty 24", 1.0, [], ["(X, 1): ..."], known_fault=True)
    assert tally.correct and tally.failed == 1
    tally.record("ty 20", 1.0, [], ["(X, 1): ..."], known_fault=False)
    assert not tally.correct and tally.failed == 2
    assert "(X, 1)" in capsys.readouterr().err


def test_inputs_follow_the_seed():
    assert workloads.cli_verify(3)[2].argv == workloads.cli_verify(3)[2].argv
    assert workloads.cli_verify(3)[2].argv != workloads.cli_verify(4)[2].argv
    for mu in workloads.mu_values(random.Random(5), 50):
        assert not 0.8 < abs(complex(mu)) < 1.25
