"""One lib-session process: a researcher's session on baxcat's library API.

Usage: python3 session.py SPAWNED TRACE < plan.json

SPAWNED is the parent's time.monotonic() when it started this process and
TRACE is 0 or 1.  The plan comes from workloads.lib_session.  Prints one JSON
object: for every job its kind, category, wall time and output, which the
parent checks; with TRACE 1 also the interpreter start-up time and the layer
totals.  Outputs are converted to plain data outside the timed calls.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spawned, trace = float(sys.argv[1]), sys.argv[2] == "1"
    import baxcat as bx
    from baxcat.verify import perturb_solution
    started = time.monotonic() - spawned
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    plan = json.load(sys.stdin)
    jobs = []

    def job(kind, category, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        jobs.append({"kind": kind, "category": category, "s": time.perf_counter() - t})
        return out

    def classify_doc(cat, rows):
        return {"category": cat.name, "pairs": [
            {"rho": cat.display(r.rho), "phi": cat.display(r.phi), "verdict": r.verdict,
             "vertices": r.n_vertices, "edges": r.n_edges, "cycles": r.n_cycles}
            for r in rows]}

    def amplitudes(cat, pairs, mus):
        docs = []
        for rho, phi in pairs:
            sol = bx.solve_central(cat, rho, phi)
            evals = []
            for mu in mus:
                amp = {ch: bx.amplitude_at(sol, ch, mu) for ch in sol.channels}
                ratios = {}
                for a, b in sol.graph.edges:
                    ratios[f"{cat.display(b)}/{cat.display(a)}"] = amp[b] / amp[a]
                    ratios[f"{cat.display(a)}/{cat.display(b)}"] = amp[a] / amp[b]
                evals.append((mu, amp, ratios))
            docs.append((sol, evals))
        return docs

    def pair(z):
        return [repr(z.real), repr(z.imag)]

    mus = [complex(mu) for mu in plan["mus"]]
    for entry in plan["fless"]:
        with open(entry["path"]) as fh:
            text = fh.read()
        cat = job("import", None, bx.category_from_json, text)
        name = cat.name
        jobs[-1]["category"] = name
        jobs[-1]["out"] = {"name": name, "n": cat.n_objects}
        rep = job("fusion_ring", name, bx.check_fusion_ring, cat.rules)
        jobs[-1]["out"] = rep.to_dict()
        rows = job("classify", name, bx.classify_pairs, cat)
        jobs[-1]["out"] = classify_doc(cat, rows)
        docs = job("amplitudes", name, amplitudes, cat, entry["pairs"], mus)
        jobs[-1]["out"] = {"pairs": entry["pairs"], "docs": [
            {"verdict": sol.verdict, "reference": cat.display(sol.reference), "evaluations": [
                {"mu": pair(mu), "amplitudes": {cat.display(ch): pair(v) for ch, v in amp.items()},
                 "edge_ratios": {key: pair(v) for key, v in ratios.items()}}
                for mu, amp, ratios in evals]}
            for sol, evals in docs]}

    def family_kwargs(params):
        return {("k" if key == "level" else key): val for key, val in params.items()}

    def round_trip(cat):
        text = bx.category_to_json(cat)
        back = bx.category_from_json(text)
        return back, bx.category_to_json(back) == text

    def currents(cat, samples, seed):
        out = []
        for r in bx.classify_pairs(cat):
            if r.verdict != "INCONSISTENT":
                sol = bx.solve_central(cat, r.rho, r.phi)
                out.append((r.rho, r.phi, bx.verify_current_vertex(
                    cat, r.rho, r.phi, sol, samples=samples, seed=seed)))
        return out

    for entry in plan["full"]:
        cat = job("build", None, bx.build_family, entry["family"],
                  **family_kwargs(entry["params"]))
        name = cat.name
        jobs[-1].update(category=name, out={"name": name})
        back, lossless = job("json", name, round_trip, cat)
        jobs[-1]["out"] = {"lossless": lossless}
        rep = job("f_identities", name, bx.check_f_identities, back)
        jobs[-1]["out"] = rep.to_dict()
        res = job("currents", name, currents, back, plan["samples"], entry["seed"])
        jobs[-1]["out"] = [{"rho": rho, "phi": phi, "report": rep.to_dict()}
                           for rho, phi, rep in res]

    def corrupt_f(family, params):
        # edit a parsed copy of the exported document, never the shared arrays
        doc = json.loads(bx.category_to_json(bx.build_family(family, **params)))
        entry = next(e for e in doc["F"] if 0.1 < abs(complex(float(e[6][0]), float(e[6][1]))) < 0.99)
        entry[6] = [repr(1.5 * float(entry[6][0])), repr(1.5 * float(entry[6][1]))]
        return bx.check_f_identities(bx.category_from_json(json.dumps(doc)))

    ctl = plan["corrupt"]
    rep = job("corrupt_f", "corrupt", corrupt_f, ctl["family"], family_kwargs(ctl["params"]))
    jobs[-1]["out"] = {"verdict": "pass" if rep.passed else "fail"}

    def perturbed_current(family, params, rho, phi, eps, seed):
        cat = bx.build_family(family, **params)
        sol = bx.solve_central(cat, rho, phi)
        bad = perturb_solution(sol, max(sol.channels), eps)
        return bx.verify_current_vertex(cat, rho, phi, bad, samples=plan["samples"], seed=seed)

    ctl = plan["perturb"]
    rep = job("perturbed_current", "perturbed", perturbed_current, ctl["family"],
              family_kwargs(ctl["params"]), ctl["rho"], ctl["phi"], ctl["eps"], ctl["seed"])
    jobs[-1]["out"] = {"verdict": "pass" if rep.passed else "fail"}

    result = {"jobs": jobs}
    if tracer is not None:
        result["trace"] = {"start_s": started, **tracer.summary()}
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
