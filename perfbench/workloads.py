"""The three workloads: their inputs, their operations and their answers.

Each workload builds its inputs once (set-up), then yields the operations
of one pass; every pass of a run repeats the same operations in the same
order.  An operation is a `(key, thunk)` pair: calling the thunk is the
timed work and returns the answer, a JSON-able value that leaves out
certificate bytes, timings and statistics.

* `systems` and `clutters` run a fixed pool of inputs in an order set by
  the seed.  Random draws per seed make the heavy-tailed costs differ by
  20-60 % between seeds in a run of this length (see README.md).
* `census` enumerates every graph on at most 7 vertices and classifies
  each one after a seeded relabeling of its vertices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from clutterlab import cli, combinat, families, tdi
from clutterlab.combinat import Clutter, SimpleGraph
from clutterlab.tdi import LinearSystem

# Criterion 07a's generator and seed: the pool is the first systems it draws.
SYSTEMS_POOL_SEED = 2024
SYSTEMS_POOL_SIZE = 100
CLUTTERS_POOL_SEED = 7
CLUTTERS_POOL_SIZE = 48
CLUTTER_COMMANDS = (("invariants",), ("check", "normal"), ("check", "mfmc"))
CENSUS_MAX_N = 7


def digest(payload) -> str:
    """Label of an input, independent of the program's own serialization."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pass_order(size: int, seed: int) -> list[int]:
    order = list(range(size))
    random.Random(f"{seed}:order").shuffle(order)
    return order


def random_system(rng: random.Random, lo: int = -3):
    """The criterion 07a generator: n in 1..4, q in 1..6, entries lo..3."""
    n = rng.randint(1, 4)
    q = rng.randint(1, 6)
    cols = []
    while len(cols) < q:
        v = tuple(rng.randint(lo, 3) for _ in range(n))
        if any(v):
            cols.append(v)
    w = tuple(rng.randint(lo, 3) for _ in range(q))
    return cols, w


class Systems:
    name = "systems"

    def setup(self, workdir: Path):
        rng = random.Random(SYSTEMS_POOL_SEED)
        self.pool = [random_system(rng) for _ in range(SYSTEMS_POOL_SIZE)]
        self.keys = [digest({"columns": c, "w": w}) for c, w in self.pool]

    def ops(self, seed: int):
        for i in pass_order(len(self.pool), seed):
            cols, w = self.pool[i]
            system = LinearSystem(cols, w)
            yield self.keys[i], lambda system=system: self.answer(tdi.sufficiency_check(system))

    @staticmethod
    def answer(report) -> dict:
        return {
            "integral": report.integral,
            "lifted_hilbert": report.lifted_hilbert,
            "tdi": report.tdi,
            "implication_respected": report.implication_respected,
        }

    @staticmethod
    def failure(answer) -> str | None:
        return "undecided" if answer["tdi"] == "undecided" else None


def clutter_pool(size: int = CLUTTERS_POOL_SIZE, seed: int = CLUTTERS_POOL_SEED):
    """Instance payloads: blockers of random connected bipartite graphs
    (n 4..8) alternating with graphs of the conjecture families (n <= 8),
    which the command line turns into their clique clutters."""
    rng = random.Random(seed)
    pool = []
    for i in range(size):
        if i % 2 == 0:
            g = families.random_bipartite(rng.randint(4, 8), rng.randrange(1 << 30))
            obj = combinat.blocker(Clutter(g.n, g.edges))
        else:
            fam = families.CONJECTURE_FAMILIES[(i // 2) % len(families.CONJECTURE_FAMILIES)]
            obj = families.conjecture_instance(fam, i, 8, seed)
        pool.append(cli.instance_payload(obj))
    return pool


def _command_answer(argv, cert: dict, code: int) -> dict:
    answer = {"exit": code, "verdict": cert["verdict"]}
    if argv[0] == "invariants":
        inv = cert["invariants"]
        for field in ("hvector", "a_invariant", "a_invariant_interior", "regularity",
                      "dim", "is_ehrhart"):
            answer[field] = inv[field]
    else:
        # faces_checked counts work done before a verdict, not an answer
        answer["witnesses"] = {
            k: v for k, v in cert["witnesses"].items() if k != "faces_checked"
        }
    return answer


class Clutters:
    name = "clutters"

    def setup(self, workdir: Path):
        payloads = clutter_pool()
        inst = workdir / "instances"
        inst.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for payload in payloads:
            key = digest(payload)
            path = inst / f"{key}.json"
            path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            self.pool.append((key, str(path)))

    def ops(self, seed: int):
        for i in pass_order(len(self.pool), seed):
            key, path = self.pool[i]
            for argv in CLUTTER_COMMANDS:
                yield f"{key}:{' '.join(argv)}", lambda argv=argv, path=path: self.run(argv, path)

    @staticmethod
    def run(argv, path: str) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--input", path, "--json"])
        text = out.getvalue()
        if code not in (cli.EXIT_HOLDS, cli.EXIT_FAILS, cli.EXIT_UNDECIDED) or not text:
            return {"exit": code}
        return _command_answer(argv, json.loads(text), code)

    @staticmethod
    def failure(answer) -> str | None:
        if answer["exit"] == cli.EXIT_UNDECIDED:
            return "undecided"
        if answer["exit"] not in (cli.EXIT_HOLDS, cli.EXIT_FAILS):
            return f"exit {answer['exit']}"
        return None


def classify(g: SimpleGraph) -> dict:
    return {
        "meyniel": combinat.is_meyniel(g)[0],
        "perfect": combinat.is_perfect_small(g)[0],
        "meyniel_via_hoang": combinat.is_meyniel_via_hoang(g),
    }


class Census:
    name = "census"

    def setup(self, workdir: Path):
        pass

    def ops(self, seed: int):
        rng = random.Random(f"{seed}:relabel")
        levels = {}
        for n in range(1, CENSUS_MAX_N + 1):
            box: dict = {}

            def enumerate_n(n=n, box=box):
                box["graphs"] = families.graphs_upto_iso(n)
                return {"graphs": len(box["graphs"])}

            yield f"enumerate:{n}", enumerate_n
            levels[n] = box.get("graphs", ())
        for n, graphs in levels.items():
            for i, g in enumerate(graphs):
                perm = list(range(n))
                rng.shuffle(perm)
                h = SimpleGraph(n, [(perm[a], perm[b]) for a, b in g.edges])
                yield f"classify:{n}:{i}", lambda h=h: classify(h)

    @staticmethod
    def failure(answer) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (Systems, Clutters, Census)}
