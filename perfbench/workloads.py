"""The three workloads: their jobs, the inputs made from the seed, and the
check bound to every job.

The seed sets only spectral parameters and `verify --seed` values.  Levels,
pairs and lattice sizes are fixed, so every seed asks for the same work and
the one known fault (classify --family ty --M 24) fails on every seed.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
import oracle

# Every program process runs with BLAS and OpenMP pinned to one thread.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


@dataclass
class CliJob:
    """One `baxcat --format json ARGV` process and the check of its output.

    `check(doc)` returns (errors, known): `known` lists wrong results of the
    known TY long-cycle kind, allowed only where `known_fault` is set.
    """

    argv: tuple
    check: object
    known_fault: bool = False

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def mu_values(rng: random.Random, n: int) -> list:
    """n spectral parameters as CLI strings, with |mu| in [0.3, 0.8] or
    [1.25, 3], well away from the unit circle that carries every pole."""
    out = []
    for _ in range(n):
        r = rng.uniform(0.3, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 3.0)
        z = cmath.rect(r, rng.uniform(0.0, 2 * math.pi))
        out.append(f"{z.real:.6f}{z.imag:+.6f}j")
    return out


def widest_pairs(top: oracle.Topology, n: int = 1) -> list:
    """The n consistent, connected pairs with the most edges, then cycles,
    ties in `classify` order."""
    sols = [s for s in oracle.classify(top)
            if s.verdict in (oracle.TREE_UNIQUE, oracle.CYCLE_CONSISTENT)]
    sols.sort(key=lambda s: (-len(s.graph.edges), -s.graph.n_cycles))
    return [(s.graph.rho, s.graph.phi) for s in sols[:n]]


def _family_argv(family, **params) -> tuple:
    flags = {"level": "--level", "M": "--M", "n": "--n", "m": "--m"}
    out = ("--family", family)
    for key, val in params.items():
        out += (flags[key], str(val))
    return out


# ---------------------------------------------------------------------------
# cli-classify


def _classify_job(family, known_fault=False, **params) -> CliJob:
    top = oracle.family(family, **params)
    return CliJob(("classify",) + _family_argv(family, **params),
                  lambda doc: checks.classify_errors(doc, top), known_fault)


def _baxterize_job(rng, family, **params) -> CliJob:
    top = oracle.family(family, **params)
    (rho, phi), = widest_pairs(top)
    mus = mu_values(rng, 2)
    argv = (("baxterize",) + _family_argv(family, **params)
            + ("--rho", top.labels[rho], "--phi", top.labels[phi]))
    argv += tuple(f"--mu={mu}" for mu in mus)     # "=" keeps a leading minus a value
    values = [complex(mu) for mu in mus]
    return CliJob(argv, lambda doc: (checks.baxterize_errors(doc, top, rho, phi, values), []))


def cli_classify(seed: int) -> list:
    rng = random.Random(seed)
    return [
        _classify_job("su2", level=11),
        _classify_job("minimal", level=10),
        _baxterize_job(rng, "su2", level=10),
        _classify_job("ty", M=16),
        _classify_job("ty", known_fault=True, M=24),
        _classify_job("ty", M=27),
        _classify_job("so", n=5, level=2),
        _classify_job("sp", m=2, level=3),
        _classify_job("g2", level=1),
    ]


# ---------------------------------------------------------------------------
# cli-verify


def _verify_job(check, family, rho, phi=None, L=None, samples=None, seed=None,
                **params) -> CliJob:
    top = oracle.family(family, **params)
    r = top.label(rho)
    argv = ("verify", check) + _family_argv(family, **params) + ("--rho", rho)
    for flag, val in (("--phi", phi), ("--L", L), ("--samples", samples), ("--seed", seed)):
        if val is not None:
            argv += (flag, str(val))
    expect = {"params": {"category": top.name, "rho": rho}}
    if check == "projectors":
        expect.update(name="projector_algebra", dim=oracle.height_count(top, r, L, False))
        expect["params"]["L"] = L
    elif check == "transfer":
        expect.update(name="commuting_transfer", samples=samples,
                      dim=oracle.height_count(top, r, L, True))
        expect["params"].update(L=L, phi=phi)
    elif check == "ybe":
        expect.update(name="ybe", samples=samples)
        expect["params"].update(L=L, phi=phi)
    elif check == "current":
        expect.update(name="current_vertex", samples=samples,
                      per_sample=len(oracle.graph(top, r, top.label(phi)).directed))
        expect["params"]["phi"] = phi
    else:
        expect.update(name="braid_limits")
        expect["params"]["phi"] = phi
    return CliJob(argv, lambda doc: (checks.report_errors(doc, **expect), []))


def _loop_job(samples, seed) -> CliJob:
    return CliJob(("verify", "loop", "--samples", str(samples), "--seed", str(seed)),
                  lambda doc: (checks.loop_errors(doc, samples), []))


def cli_verify(seed: int) -> list:
    rng = random.Random(seed)

    def s():
        return rng.randrange(1 << 16)
    return [
        _verify_job("projectors", "su2", "1/2", L=9, level=3),
        _verify_job("projectors", "ty", "X", L=5, M=4),
        _verify_job("transfer", "su2", "1/2", "1", L=8, samples=5, seed=s(), level=3),
        _verify_job("transfer", "su2", "1/2", "1", L=7, samples=3, seed=s(), level=8),
        _verify_job("transfer", "ty", "X", "1", L=5, samples=5, seed=s(), M=5),
        _verify_job("transfer", "minimal", "1/2", "1", L=8, samples=5, seed=s(), level=4),
        _verify_job("ybe", "su2", "1", "1", L=4, samples=10, seed=s(), level=5),
        _verify_job("ybe", "ty", "X", "1", L=4, samples=10, seed=s(), M=4),
        _verify_job("braid", "su2", "1/2", "1", L=8, level=4),
        _verify_job("braid", "minimal", "1", "1", L=5, level=5),
        _verify_job("current", "su2", "2", "1", samples=25, seed=s(), level=8),
        _verify_job("current", "ty", "X", "2", samples=25, seed=s(), M=5),
        _loop_job(25, s()),
    ]


# ---------------------------------------------------------------------------
# lib-session


def fless_json(top: oracle.Topology, k: int) -> str:
    """Category JSON with fusion rules, dims, spins and signs but no F table,
    as a researcher would write it from closed-form su(2)_k data."""
    n = top.n
    s0 = math.sin(math.pi / (k + 2))
    return json.dumps({
        "schema": "baxcat-category-v1",
        "name": top.name,
        "labels": list(top.labels),
        "Delta": [f"{d.numerator}/{d.denominator}" for d in top.spins],
        "nu": [[a, b, c, top.nu(a, b, c)] for b in range(n) for c in range(n)
               for a in top.fuse(b, c)],
        "dual": list(top.dual),
        "N": [[a, b, c] for a in range(n) for b in range(n) for c in top.fuse(a, b)],
        "d": [repr(math.sin((A + 1) * math.pi / (k + 2)) / s0) for A in range(n)],
    })


FLESS_LEVELS = (22,)
FULL = (("su2", {"level": 6}), ("minimal", {"level": 6}), ("ty", {"M": 10}))
AMPLITUDE_PAIRS = 6          # widest consistent pairs per F-less category
CURRENT_SAMPLES = 10
CORRUPT = ("ty", {"M": 6})   # its JSON copy gets one wrong F entry
PERTURB = ("su2", {"level": 6}, 1e-3)


@dataclass
class SessionPlan:
    """What one lib-session process runs (`doc`, sent to it as JSON) and what
    its results are checked against."""

    doc: dict
    tops: dict = field(default_factory=dict)      # category name -> Topology
    pairs: dict = field(default_factory=dict)     # category name -> [(rho, phi)]
    mus: list = field(default_factory=list)


def lib_session(seed: int, inputs: Path) -> SessionPlan:
    rng = random.Random(seed)
    plan = SessionPlan({"fless": [], "full": [], "samples": CURRENT_SAMPLES})
    plan.mus = mu_values(rng, 2)
    plan.doc["mus"] = plan.mus
    inputs.mkdir(parents=True, exist_ok=True)
    for k in FLESS_LEVELS:
        top = oracle.su2(k)
        path = inputs / f"su2_k{k}_fless.json"
        path.write_text(fless_json(top, k))
        pairs = widest_pairs(top, AMPLITUDE_PAIRS)
        plan.tops[top.name], plan.pairs[top.name] = top, pairs
        plan.doc["fless"].append({"path": str(path), "pairs": pairs})
    for family, params in FULL:
        top = oracle.family(family, **params)
        plan.tops[top.name] = top
        plan.doc["full"].append({"family": family, "params": params, "seed": rng.randrange(1 << 16)})
    family, params = CORRUPT
    plan.doc["corrupt"] = {"family": family, "params": params}
    family, params, eps = PERTURB
    (rho, phi), = widest_pairs(oracle.family(family, **params))
    plan.doc["perturb"] = {"family": family, "params": params, "rho": rho, "phi": phi,
                           "eps": eps, "seed": rng.randrange(1 << 16)}
    return plan


def session_errors(plan: SessionPlan, job: dict) -> list:
    """Check one job record of a lib-session process."""
    kind, cat, out = job["kind"], job["category"], job["out"]
    if kind in ("corrupt_f", "perturbed_current"):
        # negative controls: the program must reject the wrong input
        return [] if out["verdict"] == "fail" else [f"negative control {kind} passed"]
    top = plan.tops.get(cat)
    if top is None:
        return [f"{kind} job on unexpected category {cat!r}"]
    if kind == "import":
        want = (top.name, top.n)
        return [] if (out["name"], out["n"]) == want else [f"imported {out}, expected {want}"]
    if kind == "fusion_ring":
        return checks.report_errors(out, name="fusion_ring", params={"n_objects": top.n})
    if kind == "classify":
        errors, known = checks.classify_errors(out, top)
        return errors + known
    if kind == "amplitudes":
        if [tuple(p) for p in out["pairs"]] != plan.pairs[cat]:
            return [f"amplitudes for pairs {out['pairs']}, expected {plan.pairs[cat]}"]
        mus = [complex(mu) for mu in plan.mus]
        return [f"({top.labels[rho]}, {top.labels[phi]}): {e}"
                for (rho, phi), doc in zip(plan.pairs[cat], out["docs"])
                for e in checks.baxterize_errors(doc, top, rho, phi, mus)]
    if kind == "build":
        return [] if out["name"] == top.name else [f"built {out['name']}, expected {top.name}"]
    if kind == "json":
        return [] if out["lossless"] else ["JSON round trip changed the document"]
    if kind == "f_identities":
        return checks.report_errors(out, name="f_identities", params={"category": top.name})
    if kind == "currents":
        want = [(s.graph.rho, s.graph.phi) for s in oracle.classify(top)
                if s.verdict != oracle.INCONSISTENT]
        got = [(r["rho"], r["phi"]) for r in out]
        if got != want:
            return [f"currents checked on {got}, expected the consistent pairs {want}"]
        return [f"({top.labels[r['rho']]}, {top.labels[r['phi']]}): {e}" for r in out
                for e in checks.report_errors(
                    r["report"], name="current_vertex", samples=plan.doc["samples"],
                    per_sample=len(oracle.graph(top, r["rho"], r["phi"]).directed))]
    return [f"unknown job kind {kind!r}"]
