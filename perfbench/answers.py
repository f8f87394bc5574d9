"""Answer checking: answers frozen from a known-good commit, plus relations
that must hold for any seed.

A record is `(key, answer)` for one operation; a failed operation has the
answer None and is accounted as failed, not as wrong.  `check` returns a
list of problems; an empty list means every answer is right.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

FROZEN_DIR = Path(__file__).resolve().parent / "frozen"

# Graphs on n = 1..7 vertices up to isomorphism (OEIS A000088), and how many
# of them are perfect and Meyniel, as computed by the reference commit.
CENSUS_COUNTS = {
    "graphs": (1, 2, 4, 11, 34, 156, 1044),
    "perfect": (1, 2, 4, 11, 33, 148, 906),
    "meyniel": (1, 2, 4, 11, 32, 130, 622),
}


def load_frozen(workload: str) -> dict:
    path = FROZEN_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["answers"]


def _holds(verdict) -> bool:
    return verdict is True or verdict == "vacuous"


def _expected_exit(verdict) -> int:
    if _holds(verdict):
        return 0
    return 2 if verdict == "undecided" else 1


def _systems_relations(records) -> list[str]:
    return [
        f"{key}: integral polyhedron and lifted Hilbert basis without TDI"
        for key, ans in records
        if ans is not None and not ans["implication_respected"]
    ]


def _clutters_relations(records) -> list[str]:
    problems = []
    by_clutter: dict = defaultdict(dict)
    for key, ans in records:
        if ans is None or "verdict" not in ans:
            continue
        if ans["exit"] != _expected_exit(ans["verdict"]):
            problems.append(f"{key}: exit {ans['exit']} for verdict {ans['verdict']!r}")
        clutter, command = key.split(":", 1)
        by_clutter[clutter][command] = ans["verdict"]
    for clutter, verdicts in by_clutter.items():
        mfmc, normal = verdicts.get("check mfmc"), verdicts.get("check normal")
        if mfmc is not None and normal is not None and _holds(mfmc) and normal is not True:
            problems.append(f"{clutter}: flow property without normality up to the bound")
    return problems


def _census_relations(records) -> list[str]:
    problems = []
    first_pass: dict = {}
    per_n = defaultdict(lambda: [0, 0, 0])
    enumerated: dict = defaultdict(list)
    incomplete = set()
    for key, ans in records:
        if ans is None:
            incomplete.add(int(key.split(":")[1]))
            continue
        if key.startswith("enumerate:"):
            enumerated[int(key.split(":")[1])].append(ans["graphs"])
            continue
        if ans["meyniel"] != ans["meyniel_via_hoang"]:
            problems.append(f"{key}: chord count and stable-set witnesses disagree")
        if ans["meyniel"] and not ans["perfect"]:
            problems.append(f"{key}: Meyniel but not perfect")
        if key in first_pass:
            continue  # `check` compares later passes with the first
        first_pass[key] = ans
        counts = per_n[int(key.split(":")[1])]
        counts[0] += 1
        counts[1] += ans["perfect"]
        counts[2] += ans["meyniel"]
    for n in range(1, len(CENSUS_COUNTS["graphs"]) + 1):
        if n in incomplete:
            continue
        want = tuple(CENSUS_COUNTS[f][n - 1] for f in ("graphs", "perfect", "meyniel"))
        if any(c != want[0] for c in enumerated.get(n, [])):
            problems.append(f"n={n}: enumerated {enumerated[n]} graphs, expected {want[0]}")
        if n in per_n and tuple(per_n[n]) != want:
            problems.append(f"n={n}: (graphs, perfect, meyniel) = {tuple(per_n[n])}, expected {want}")
    return problems


RELATIONS = {
    "systems": _systems_relations,
    "clutters": _clutters_relations,
    "census": _census_relations,
}


def check(workload: str, records, frozen: dict | None = None) -> list[str]:
    """Problems with the answers of one run of whole passes.

    Every answer must match its frozen answer when one exists, repeat
    exactly for the same input in every pass, and satisfy the workload's
    relations.
    """
    frozen = load_frozen(workload) if frozen is None else frozen
    problems = []
    seen: dict = {}
    for key, ans in records:
        if ans is None:
            continue
        want = frozen.get(key)
        if want is not None and want != ans:
            problems.append(f"{key}: answer {ans} differs from frozen {want}")
        if key in seen and seen[key] != ans:
            problems.append(f"{key}: answer {ans} differs from an earlier pass {seen[key]}")
        seen.setdefault(key, ans)
    problems.extend(RELATIONS[workload](records))
    return problems
