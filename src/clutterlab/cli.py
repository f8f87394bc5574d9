"""Command-line front end: instance I/O, property checks, certificates.

Exit codes: 0 = property holds, 1 = property fails, 2 = undecided (step budget
or resource cap), 64 = usage or parse error.  Certificates are byte-stable
JSON for a fixed input and schema version; timing is only included on
request (`check --timing`) so that repeated runs stay byte-identical.

`main` resolves the step budget once (`--budget`, else CLUTTERLAB_BUDGET, else
10^7; exit 64 when negative) and runs the command in that `errors.budget` scope.
Every certificate records the limit in force (`budget.limit`), read from that
scope.  `render` writes the text of every file and stdout certificate.  When
`Undecided` or `ResourceExceeded` stops `check`, `invariants` or `examples`,
the command writes its undecided certificate where asked and re-raises, and
`main` prints the reason once on stderr and exits 2.

Every clutter property of `check` decides edgeless clutters.  `invariants`
rejects them with exit 64: the edge polytope of a clutter without edges is
empty, so there is no series to report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import combinat, ehrhart, families, ideals, tdi
from .combinat import Clutter, RawClutter, SimpleGraph
from .errors import ResourceExceeded, Undecided, UsageError, budget, step_budget
from .tdi import LinearSystem

SCHEMA_VERSION = 1

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64

PROPERTIES = (
    "ehrhart", "ideal", "mfmc", "tdi", "meyniel", "perfect",
    "unmixed", "uniform", "konig", "ntf", "normal",
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_payload(obj):
    if isinstance(obj, SimpleGraph):
        return {"kind": "graph", "n": obj.n, "edges": [list(e) for e in obj.edges]}
    if isinstance(obj, RawClutter):
        return {"kind": "clutter", "n": obj.n, "edges": [list(e) for e in obj.edges]}
    if isinstance(obj, LinearSystem):
        return {
            "kind": "system",
            "columns": [list(v) for v in obj.columns],
            "w": list(obj.w),
        }
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(instance_payload(obj)).encode()).hexdigest()


def parse_instance(text: str, where: str = "<input>"):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{where}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise UsageError(f"{where}: JSON nested too deeply") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise UsageError(f"{where}: expected an object with a 'kind' field")
    kind = data["kind"]

    def ints(x):
        """Nested lists of JSON integers as nested tuples; a float, string or
        bool is not silently converted.  One loop over a stack of (items
        left, items done) frames, so the nesting depth costs no recursion."""
        stack = [(iter([x]), [])]
        while True:
            items, done = stack[-1]
            for y in items:
                if isinstance(y, list):
                    stack.append((iter(y), []))
                    break
                if type(y) is not int:
                    raise UsageError(f"{where}: bad {kind} payload: {json.dumps(y)} is not an integer")
                done.append(y)
            else:
                stack.pop()
                if not stack:
                    return done[0]
                stack[-1][1].append(tuple(done))

    try:
        if kind == "graph":
            return SimpleGraph(ints(data["n"]), ints(data["edges"]))
        if kind == "clutter":
            return combinat.as_clutter_or_raw(ints(data["n"]), ints(data["edges"]))
        if kind == "system":
            return LinearSystem(ints(data["columns"]), ints(data["w"]))
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{where}: bad {kind} payload: {exc}") from exc
    raise UsageError(f"{where}: unknown kind {kind!r}")


def load_instance(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_instance(text, where=path)


# ---------------------------------------------------------------------------
# Property dispatch
# ---------------------------------------------------------------------------


def _as_clutter(obj, notes: dict) -> RawClutter:
    if isinstance(obj, RawClutter):
        return obj
    if isinstance(obj, SimpleGraph):
        notes["derived"] = "clique-clutter"
        return combinat.clique_clutter(obj)
    raise UsageError("this property needs a clutter (or a graph, via its clique clutter)")


def _as_graph(obj) -> SimpleGraph:
    if isinstance(obj, SimpleGraph):
        return obj
    raise UsageError("this property needs a graph input")


def _tdi_payload(cert: tdi.TdiCertificate):
    payload = {"faces_checked": len(cert.faces)}
    if cert.failing is not None:
        payload["failing_face"] = {
            "point": [str(x) for x in cert.failing.point],
            "active_columns": list(cert.failing.active),
            "missing_lattice_points": [list(w) for w in cert.failing.witnesses],
        }
    if cert.note:
        payload["note"] = cert.note
    return payload


def _tdi_result(cert: tdi.TdiCertificate):
    """(verdict, witnesses, invariants) of a TDI certificate.  One that the
    budget stopped raises `Undecided`, so `check` stops the one way every
    property does."""
    if cert.verdict == "undecided":
        raise Undecided(cert.note)
    return cert.verdict, _tdi_payload(cert), {}


def run_check(prop: str, obj, notes: dict):
    """Returns (verdict, witnesses, invariants).  Notes on the input, such as
    a derived clique clutter, go into `notes` as they arise, so they survive
    a stopped run."""
    if prop == "tdi":
        if not isinstance(obj, LinearSystem):
            raise UsageError("check tdi: input must be a system")
        return _tdi_result(tdi.is_tdi(obj))
    if prop == "meyniel":
        ok, wit = combinat.is_meyniel(_as_graph(obj))
        wits = {} if ok else {"odd_cycle": list(wit[0]), "chords": wit[1]}
        return ok, wits, {}
    if prop == "perfect":
        ok, wit = combinat.is_perfect_small(_as_graph(obj))
        wits = {} if ok else {"kind": wit[0], "cycle": list(wit[1])}
        return ok, wits, {}
    c = _as_clutter(obj, notes)
    if prop == "ehrhart":
        ok, wits = ehrhart.is_ehrhart_clutter(c)
        return ok, {"missing_lattice_points": [list(w) for w in wits]} if not ok else {}, {}
    if prop == "ideal":
        ok, wit = tdi.is_ideal_clutter(c)
        wits = {} if ok else {"fractional_vertex": [str(x) for x in wit]}
        return ok, wits, {}
    if prop == "mfmc":
        return _tdi_result(tdi.is_mfmc(c))
    if prop == "unmixed":
        sizes = sorted({len(s) for s in combinat.minimal_covers(c)})
        return len(sizes) == 1, {}, {"cover_sizes": sizes}
    if prop == "uniform":
        d = combinat.is_uniform(c)
        return d is not None, {}, {"d": d}
    if prop == "konig":
        g = combinat.covering_number(c)
        m = combinat.max_disjoint_edges(c)
        return g == m, {}, {"covering_number": g, "matching_number": m}
    if prop in ("ntf", "normal"):
        rep = (ideals.is_ntf if prop == "ntf" else ideals.is_normal)(c)
        wits = {} if rep.ok else {"power": rep.failure_power, "monomial": list(rep.witness)}
        return rep.ok, wits, {}
    raise UsageError(f"unknown property {prop!r}")


def make_certificate(command: str, obj, verdict, witnesses, invariants, notes,
                     timing_ms=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instance": instance_payload(obj),
        "digest": digest(obj),
        "verdict": verdict,
        "witnesses": witnesses,
        "invariants": invariants,
        "notes": notes,
        "seed": None,
        "budget": {"limit": step_budget(), "exceeded": verdict == "undecided"},
        "timing_ms": timing_ms,
    }


def render(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def emit(cert, args) -> None:
    text = render(cert)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)


def _undecided_certificate(command: str, obj, notes: dict, exc):
    """Certificate of a run that a step budget or a resource cap stopped."""
    cert = make_certificate(command, obj, "undecided", {}, {}, {**notes, "reason": str(exc)})
    cert["budget"]["exceeded"] = isinstance(exc, Undecided)
    return cert


def _verdict_exit(verdict) -> int:
    if verdict is True or verdict == "vacuous":
        return EXIT_HOLDS
    if verdict == "undecided":
        return EXIT_UNDECIDED
    return EXIT_FAILS


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    obj = load_instance(args.input)
    notes: dict = {}
    t0 = time.monotonic()
    try:
        verdict, wits, inv = run_check(args.property, obj, notes)
    except (Undecided, ResourceExceeded) as exc:
        emit(_undecided_certificate(f"check {args.property}", obj, notes, exc), args)
        raise  # main prints the reason and exits 2
    ms = round((time.monotonic() - t0) * 1000)
    cert = make_certificate(
        f"check {args.property}", obj, verdict, wits, inv, notes, ms if args.timing else None
    )
    emit(cert, args)
    if not args.json:
        word = {True: "holds", False: "fails"}.get(verdict, verdict)
        print(f"{args.property}: {word}  [{cert['digest'][:15]}...]")
        if wits and verdict is not True:
            print(f"  witness: {canonical_json(wits)}")
    return _verdict_exit(verdict)


def cmd_invariants(args) -> int:
    obj = load_instance(args.input)
    notes: dict = {}
    try:
        c = _as_clutter(obj, notes)
        analysis = ehrhart.analyze(c)
        bounds = ehrhart.check_regularity_bounds(c)
    except (Undecided, ResourceExceeded) as exc:
        emit(_undecided_certificate("invariants", obj, notes, exc), args)
        raise  # main prints the reason and exits 2
    inv = {
        "hvector": list(analysis.hvector),
        "a_invariant": analysis.a_invariant,
        "a_invariant_interior": analysis.a_invariant,  # analyze checks both routes agree
        "regularity": analysis.regularity,
        "dim": analysis.dim,
        "is_ehrhart": analysis.is_ehrhart,
        "covering_number": bounds.g,
        "d": bounds.d,
        "bounds": {
            "hypotheses_met": bounds.hypotheses_met,
            "missing": list(bounds.missing),
            "a_bound": bounds.a_bound,
            "a_tight": bounds.a_tight,
            "regularity_bound": bounds.reg_bound,
            "regularity_tight": bounds.reg_tight,
        },
    }
    cert = make_certificate("invariants", obj, True, {}, inv, notes)
    emit(cert, args)
    if not args.json:
        print(f"h-vector    {inv['hvector']}")
        print(f"a-invariant {inv['a_invariant']} (interior route {inv['a_invariant_interior']})")
        print(f"regularity  {inv['regularity']}")
        print(f"covering number {inv['covering_number']}, d {inv['d']}")
        if bounds.hypotheses_met:
            print(f"bounds: a <= {bounds.a_bound} (tight: {bounds.a_tight}), "
                  f"reg <= {bounds.reg_bound} (tight: {bounds.reg_tight})")
        else:
            print(f"bounds: hypotheses not met (missing: {', '.join(bounds.missing)})")
    return EXIT_HOLDS


def cmd_conjecture(args) -> int:
    fams = [f.strip() for f in args.families.split(",") if f.strip()]
    if not fams:
        raise UsageError("conjecture: --families names no family")
    for f in fams:
        if f not in families.CONJECTURE_FAMILIES:
            raise UsageError(
                f"unknown family {f!r}; choose from {', '.join(families.CONJECTURE_FAMILIES)}"
            )
    if args.max_n > 9:
        raise UsageError("conjecture: max-n capped at 9")
    if args.count < 0:
        raise UsageError(f"conjecture: negative count {args.count}")
    rows = []
    counterexamples = 0
    undecided = 0
    for idx in range(args.count):
        fam = fams[idx % len(fams)]
        g = families.conjecture_instance(fam, idx, args.max_n, args.seed)
        perfect, _ = combinat.is_perfect_small(g)
        # one DD of the covering polyhedron: idealness is read off the flow
        # certificate, as in `tdi.clutter_verdicts`
        cert = tdi.is_mfmc(combinat.clique_clutter(g))
        row = {
            "family": fam,
            "index": idx,
            "digest": digest(g),
            "n": g.n,
            "perfect": perfect,
            "ideal": cert.integral,
        }
        if cert.integral:
            row["mfmc"] = cert.verdict
            if cert.verdict == "undecided":
                undecided += 1
            elif not cert.holds:
                counterexamples += 1
                row["counterexample"] = True
        else:
            row["mfmc"] = None
        rows.append(row)
    rows.sort(key=lambda r: r["digest"])
    batch = {
        "schema_version": SCHEMA_VERSION,
        "command": "conjecture",
        "families": fams,
        "max_n": args.max_n,
        "seed": args.seed,
        "count": args.count,
        "instances": rows,
        "counterexamples": counterexamples,
        "undecided": undecided,
    }
    emit(batch, args)
    if not args.json:
        print(f"{'digest':<24} {'family':<18} {'n':>2}  perfect ideal mfmc")
        for r in rows:
            print(f"{r['digest'][:24]:<24} {r['family']:<18} {r['n']:>2}"
                  f"  {str(r['perfect']):<7} {str(r['ideal']):<5} {r['mfmc']}")
        print(f"counterexamples: {counterexamples}, undecided: {undecided}")
    if counterexamples:
        return EXIT_FAILS
    if undecided:
        return EXIT_UNDECIDED
    return EXIT_HOLDS


EXAMPLES = {
    "triangle": lambda: [("triangle", families.triangle_clutter())],
    "c4": lambda: [("c4", families.cycle_clutter(4))],
    "c5": lambda: [("c5", families.cycle_clutter(5))],
    "blocker-c4": lambda: [("blocker-c4", combinat.blocker(families.cycle_clutter(4)))],
    "sharpness-2-2": lambda: [("sharpness-2-2", families.sharpness_clutter(2, 2))],
    "sharpness-2-3": lambda: [("sharpness-2-3", families.sharpness_clutter(2, 3))],
    "sharpness-3-2": lambda: [("sharpness-3-2", families.sharpness_clutter(3, 2))],
    "sharpness-2-4": lambda: [("sharpness-2-4", families.sharpness_clutter(2, 4))],
    "sharpness-4-2": lambda: [("sharpness-4-2", families.sharpness_clutter(4, 2))],
    "line-k24": lambda: list(zip(("line-k24-graph", "line-k24-clutter"),
                                 families.line_graph_k24())),
}


def cmd_examples(args) -> int:
    if args.name not in EXAMPLES:
        raise UsageError(
            f"unknown example {args.name!r}; known: {', '.join(sorted(EXAMPLES))}"
        )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def write(path: Path, obj) -> None:
        path.write_text(render(obj), encoding="utf-8")
        print(path)

    for stem, obj in EXAMPLES[args.name]():
        write(outdir / f"{stem}.json", instance_payload(obj))
        cpath = outdir / f"{stem}.cert.json"
        graph = isinstance(obj, SimpleGraph)
        command = "check perfect" if graph else "examples"
        notes: dict = {}
        try:
            verdict, wits, inv = run_check("perfect" if graph else "ehrhart", obj, notes)
            if not graph:
                a = ehrhart.analyze(obj)
                inv = {"hvector": list(a.hvector), "a_invariant": a.a_invariant,
                       "regularity": a.regularity}
        except (Undecided, ResourceExceeded) as exc:
            write(cpath, _undecided_certificate(command, obj, notes, exc))
            raise  # main prints the reason and exits 2
        write(cpath, make_certificate(command, obj, verdict, wits, inv, notes))
    return EXIT_HOLDS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clutterlab",
        description="Exact certification of clutter, cone and covering-system properties.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    limit = argparse.ArgumentParser(add_help=False)
    limit.add_argument("--budget", type=int, default=None,
                       help="step budget, at least 0 (default: CLUTTERLAB_BUDGET or 10^7)")
    certificate = argparse.ArgumentParser(add_help=False, parents=[limit])
    certificate.add_argument("--json", action="store_true",
                             help="emit the JSON certificate on stdout")
    certificate.add_argument("--output", help="write the JSON certificate to a file")

    p = sub.add_parser("check", parents=[certificate], help="decide one property of an instance")
    p.add_argument("property", choices=PROPERTIES,
                   help="ntf and normal compare the powers of the edge ideal at every "
                        "power at once; a failure names the least failing power")
    p.add_argument("--input", required=True, help="instance file (graph, clutter or system)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the certificate "
                        "(breaks byte-stability across runs)")

    p = sub.add_parser("invariants", parents=[certificate],
                       help="series invariants and bound checks of a clutter")
    p.add_argument("--input", required=True)

    p = sub.add_parser("conjecture", parents=[certificate],
                       help="ideal => flow-property batch over perfect graphs")
    p.add_argument("--families", default="chordal,bipartite",
                   help=f"comma-separated from: {', '.join(families.CONJECTURE_FAMILIES)}")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)

    p = sub.add_parser("examples", parents=[limit],
                       help="write a named instance and its certificate")
    p.add_argument("--name", required=True)
    p.add_argument("--outdir", default=".")

    return ap


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.budget is None:
            args.budget = step_budget()
        if args.budget < 0:
            raise UsageError(f"the step budget must be at least 0, got {args.budget}")
        with budget(args.budget):
            # looked up at call time, so that a rebound command function runs
            return globals()[f"cmd_{args.cmd}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Undecided as exc:
        print(exc, file=sys.stderr)
        return EXIT_UNDECIDED
    except ResourceExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
