"""The op chains the benchmark times, and the checks on their answers.

An op is the public hadperm call chain behind one CLI subcommand, applied to
the text of one input.  ``run`` is the timed part.  ``answer`` reduces the
raw result to plain data and ``check`` compares that with what the input
generator built in; both run outside the timed window.

Modules are referenced by attribute (``torus.parse_phm``), so wrappers that
the tracer binds onto the modules are seen here too.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from hadperm import completion, pperm, prelatin, submagic, torus
from hadperm.errors import NotCompletable

import inputs

SUM_TOL = 1e-8  # magic row and column sums of a completed grid
UNITARY_TOL = 1e-8  # |H H* - N| / N of a completed matrix


def _grid(text: str) -> dict:
    grid = submagic.grid_from_hadamard(torus.parse_phm(text))
    out = {"grid": grid, "report": submagic.check_grid(grid)}
    if out["report"].commuting:
        square = submagic.pre_latin_from_rank_one(grid, grid.dim)
        out["square"] = square
        out["semigroup"] = prelatin.semigroup_of(square)
        out["points"] = submagic.classical_points(grid)
        if grid.size < grid.dim:
            out["completed"] = submagic.complete_commuting(grid, grid.dim)
    return out


def _criteria(text: str) -> dict:
    """``hadperm criteria``, then ``hadperm complete-row`` when all agree."""
    h = torus.parse_phm(text)
    profile = completion.modulus_profile(h)
    gram = completion.gram_criterion(h)
    weighted = completion.weighted_criterion(h)
    grid = submagic.grid_from_hadamard(h, tol=0.1)
    try:
        submagic.complete_last(grid)
        border = True
    except NotCompletable:
        border = False
    out = {"votes": [profile.constant, gram, weighted.passes, border]}
    if all(out["votes"]):
        out["completed"] = torus.format_phm(completion.complete_row(h))
    return out


def _pls(text: str) -> dict:
    return {"semigroup": prelatin.semigroup_of(prelatin.parse_pls(text))}


def _gens(text: str) -> dict:
    gens = [pperm.parse_pperm(line) for line in text.splitlines()]
    return {"semigroup": pperm.generate_semigroup(gens)}


def _count(text: str) -> dict:
    return {"count": pperm.count_all(int(text))}


def _enumerate(text: str) -> dict:
    return {"elements": list(pperm.enumerate_all(int(text)))}


OPS = {"grid": _grid, "criteria": _criteria, "pls": _pls, "gens": _gens,
       "count": _count, "enumerate": _enumerate}


def run(kind: str, text: str) -> dict:
    return OPS[kind](text)


# --------------------------------------------------------------------------
# answers: plain, deterministic data (floats kept to the last bit)


def answer(kind: str, raw: dict) -> dict:
    if kind == "grid":
        return _grid_answer(raw)
    if kind == "criteria":
        return {"votes": raw["votes"], "completed": raw.get("completed")}
    if kind in ("pls", "gens"):
        return {"elements": [e.image for e in raw["semigroup"]]}
    if kind == "count":
        return raw
    return {"elements": [e.image for e in raw["elements"]]}


def _grid_answer(raw: dict) -> dict:
    grid, report = raw["grid"], raw["report"]
    out = {
        "shape": [grid.size, grid.dim],
        "flags": [report.submagic, report.magic, report.commuting],
        "violations": report.worst_violations,
    }
    if "square" in raw:
        out["square"] = [list(row) for row in raw["square"].entries]
        out["semigroup"] = [e.image for e in raw["semigroup"]]
        out["points"] = sorted((p.image, c) for p, c in raw["points"].items())
    if "completed" in raw:
        full = raw["completed"].blocks
        m = grid.size
        eye = np.eye(grid.dim)
        out["completed"] = {
            "size": full.shape[0],
            "corner_exact": bool(np.array_equal(full[:m, :m], grid.blocks)),
            "row_sum_err": float(np.abs(full.sum(axis=1) - eye).max()),
            "col_sum_err": float(np.abs(full.sum(axis=0) - eye).max()),
        }
    return out


# --------------------------------------------------------------------------
# checks against the generator's known answers


def check(kind: str, expect: dict, ans: dict) -> list[str]:
    """Every way ``ans`` differs from ``expect``; empty when correct."""
    if kind == "grid":
        return _check_grid(expect, ans)
    if kind == "criteria":
        return _check_criteria(expect, ans)
    if kind in ("pls", "gens"):
        return _check_semigroup(expect, ans["elements"])
    if kind == "count":
        return [] if ans["count"] == expect["count"] else [f"count {ans['count']}"]
    elements = ans["elements"]
    problems = []
    if len(elements) != expect["count"] or len(set(elements)) != len(elements):
        problems.append(f"{len(elements)} elements, {len(set(elements))} distinct")
    return problems


def _check_grid(expect: dict, ans: dict) -> list[str]:
    problems = []
    flags = [expect["submagic"], expect["magic"], expect["commuting"]]
    if ans["flags"] != flags:
        problems.append(f"flags {ans['flags']} != {flags}")
    if not expect["commuting"] or not ans["flags"][2]:
        return problems
    if not _relabelled(ans["square"], expect["square"]):
        problems.append("pre-Latin square is not a relabelling of the difference table")
    elements = ans["semigroup"]
    if len(elements) != expect["order"]:
        problems.append(f"semigroup order {len(elements)} != {expect['order']}")
    problems += _closure_problems(inputs.square_generators(ans["square"], expect["cols"]),
                                  elements)
    points = Counter(dict(ans["points"]))
    if sum(points.values()) != expect["cols"]:
        problems.append(f"classical point multiplicities sum to {sum(points.values())}")
    if points != Counter(dict(expect["points"])):
        problems.append("classical points differ from the character translations")
    if expect["rows"] < expect["cols"]:
        done = ans.get("completed")
        if done is None:
            problems.append("complete_commuting did not run")
        elif not (done["corner_exact"] and done["size"] == expect["cols"]
                  and max(done["row_sum_err"], done["col_sum_err"]) <= SUM_TOL):
            problems.append(f"completion {done}")
    return problems


def _relabelled(a, b) -> bool:
    """True when a bijection of symbols maps square a onto square b."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for row_a, row_b in zip(a, b):
        for va, vb in zip(row_a, row_b):
            if forward.setdefault(va, vb) != vb or backward.setdefault(vb, va) != va:
                return False
    return len(a) == len(b)


def _check_criteria(expect: dict, ans: dict) -> list[str]:
    label = expect["completable"]
    problems = []
    if ans["votes"] != [label] * 4:
        problems.append(f"votes {ans['votes']} for a {'positive' if label else 'negative'}")
    if label and ans["completed"] is not None:
        h = inputs.parse_tokens(ans["completed"])
        n = expect["n"]
        if h.shape != (n, n):
            problems.append(f"completed shape {h.shape}")
        else:
            err = float(np.abs(h @ h.conj().T - n * np.eye(n)).max()) / n
            if err > UNITARY_TOL:
                problems.append(f"completed H H* deviates from N by {err:.3e} N")
    return problems


def _check_semigroup(expect: dict, elements: list) -> list[str]:
    problems = []
    if len(elements) != expect["order"]:
        problems.append(f"order {len(elements)} != {expect['order']}")
    return problems + _closure_problems(expect["generators"], elements)


def _closure_problems(generators, elements) -> list[str]:
    """Independent closure test: the elements are exactly what a breadth-first
    search over right multiplication by the generators reaches, so every
    element times every generator stays in the set and every element is
    reached."""
    members = set(elements)
    if len(members) != len(elements):
        return ["repeated elements"]
    reached = inputs.closure(generators)
    if reached != members:
        return [f"{len(members - reached)} elements unreachable from the generators, "
                f"{len(reached - members)} products missing"]
    return []
