"""Checks of baxcat's outputs against the exact oracle and against properties
the method must have.  Each check returns a list of error strings; an empty
list means the output is correct."""

from __future__ import annotations

import oracle

REL_TOL = 1e-9          # floating-point agreement of ratios and amplitudes

# check names whose `samples` count spectral-parameter samples
MU_SAMPLED = {"current_vertex": "vertex_divergence", "ybe": "ybe_residual",
              "commuting_transfer": "commutator"}


def _close(got, want) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _row(verdict, v, e, c) -> str:
    return f"{verdict} {v}v/{e}e/{c}c"


def classify_errors(doc: dict, top: oracle.Topology):
    """Compare a `classify` document pair by pair with the oracle.

    Returns (errors, long_cycle): `long_cycle` holds the wrong pairs of one
    known kind, a Tambara-Yamagami pair rho = X whose single cycle closes
    exactly but is reported INCONSISTENT with the right graph counts.
    """
    errors, long_cycle = [], []
    if doc.get("category") != top.name:
        errors.append(f"category {doc.get('category')!r}, expected {top.name!r}")
    want = oracle.classify(top)
    got = doc.get("pairs", [])
    if len(got) != len(want):
        return errors + [f"{len(got)} pairs, expected {len(want)}"], long_cycle
    for row, sol in zip(got, want):
        g = sol.graph
        pair = f"({top.labels[g.rho]}, {top.labels[g.phi]})"
        if (row["rho"], row["phi"]) != (top.labels[g.rho], top.labels[g.phi]):
            errors.append(f"pair ({row['rho']}, {row['phi']}) where {pair} was expected")
            continue
        have = _row(row["verdict"], row["vertices"], row["edges"], row["cycles"])
        exact = _row(sol.verdict, sol.n_vertices, len(g.edges), g.n_cycles)
        if have == exact:
            continue
        text = f"{pair}: {have}, expected {exact}"
        if (top.name.startswith("ty_") and top.labels[g.rho] == "X"
                and sol.verdict == oracle.CYCLE_CONSISTENT and g.n_cycles == 1
                and have == _row(oracle.INCONSISTENT, sol.n_vertices, len(g.edges), 1)):
            long_cycle.append(text)
        else:
            errors.append(text)
    return errors, long_cycle


def baxterize_errors(doc: dict, top: oracle.Topology, rho: int, phi: int, mus) -> list:
    """Verdict, reference, every amplitude and every edge ratio of a
    `baxterize --mu` document against the closed-form ratios."""
    sol = oracle.solve(top, rho, phi)
    lab = top.labels
    errors = []
    if doc.get("verdict") != sol.verdict:
        errors.append(f"verdict {doc.get('verdict')}, expected {sol.verdict}")
    if doc.get("reference") != lab[sol.reference]:
        errors.append(f"reference {doc.get('reference')}, expected {lab[sol.reference]}")
    evals = doc.get("evaluations", [])
    if len(evals) != len(mus):
        return errors + [f"{len(evals)} evaluations, expected {len(mus)}"]
    for mu, row in zip(mus, evals):
        if not _close(_complex(row["mu"]), mu):
            errors.append(f"evaluated at mu={row['mu']}, expected {mu}")
        want = {}
        for a, b in sol.graph.edges:
            want[f"{lab[b]}/{lab[a]}"] = oracle.edge_ratio(top, rho, a, b, mu)
            want[f"{lab[a]}/{lab[b]}"] = oracle.edge_ratio(top, rho, b, a, mu)
        have = row.get("edge_ratios", {})
        if set(have) != set(want):
            errors.append(f"mu={mu}: edge ratios {sorted(have)}, expected {sorted(want)}")
        for key in sorted(set(have) & set(want)):
            if not _close(_complex(have[key]), want[key]):
                errors.append(f"mu={mu}: A[{key}] = {_complex(have[key])}, expected {want[key]}")
        amps = row.get("amplitudes", {})
        if sol.verdict != oracle.INCONSISTENT:
            for ch, amp in sol.amplitudes.items():
                if lab[ch] not in amps:
                    errors.append(f"mu={mu}: no amplitude for channel {lab[ch]}")
                elif not _close(_complex(amps[lab[ch]]), amp(mu)):
                    errors.append(f"mu={mu}: A[{lab[ch]}] = {_complex(amps[lab[ch]])}, "
                                  f"expected {amp(mu)}")
    return errors


def report_errors(doc: dict, *, name: str, params: dict | None = None,
                  samples: int | None = None, dim: int | None = None,
                  per_sample: int = 1) -> list:
    """A verification report must pass every check, be the report asked for
    with the given `params`, state `samples` (times `per_sample`) on its
    mu-sampled check, and state `dim` when one is given."""
    errors = []
    if doc.get("report") != name:
        errors.append(f"report {doc.get('report')!r}, expected {name!r}")
    for key, val in (params or {}).items():
        if doc.get("params", {}).get(key) != val:
            errors.append(f"params[{key!r}] = {doc.get('params', {}).get(key)!r}, expected {val!r}")
    checks = doc.get("checks", [])
    if doc.get("verdict") != "pass" or not checks:
        errors.append(f"verdict {doc.get('verdict')!r} with {len(checks)} checks")
    for c in checks:
        if c["verdict"] != "pass" or not float(c["max_residual"]) < float(c["tolerance"]):
            errors.append(f"check {c['check']} {c['verdict']}: residual {c['max_residual']}"
                          f" against tolerance {c['tolerance']}")
    if samples is not None:
        sampled = [c for c in checks if c["check"] == MU_SAMPLED[name]]
        stated = sampled[0]["samples"] if sampled else None
        if stated != samples * per_sample:
            errors.append(f"{MU_SAMPLED[name]} states {stated} samples, "
                          f"expected {samples * per_sample}")
    if dim is not None and doc.get("params", {}).get("dim") != dim:
        errors.append(f"basis dim {doc.get('params', {}).get('dim')}, expected {dim}")
    return errors


def loop_errors(doc: dict, samples: int) -> list:
    errors = []
    if doc.get("check") != "loop" or doc.get("verdict") != "pass":
        errors.append(f"loop check {doc.get('check')!r}: {doc.get('verdict')!r}")
    if doc.get("samples") != samples:
        errors.append(f"loop states {doc.get('samples')} samples, expected {samples}")
    return errors
