import json
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clutterlab import cli, polyhedron
from clutterlab.families import sharpness_clutter, triangle_clutter

from conftest import two_k4_graph

GOLDEN = Path(__file__).parent / "golden"

TRIANGLE = '{"kind":"clutter","n":3,"edges":[[0,1],[1,2],[0,2]]}'
SQUARE = '{"kind":"clutter","n":4,"edges":[[0,1],[1,2],[2,3],[0,3]]}'
C5_GRAPH = '{"kind":"graph","n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'
GOOD_SYSTEM = '{"kind":"system","columns":[[1,2],[1,1],[2,1]],"w":[0,0,0]}'
BAD_SYSTEM = '{"kind":"system","columns":[[1,2],[2,1]],"w":[0,0]}'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run(args):
    return cli.main(args)


def test_check_mfmc_exit_codes(tmp_path, capsys):
    sq = write(tmp_path, "sq.json", SQUARE)
    tri = write(tmp_path, "tri.json", TRIANGLE)
    assert run(["check", "mfmc", "--input", sq]) == 0
    assert run(["check", "mfmc", "--input", tri]) == 1


def test_check_tdi_system(tmp_path):
    good = write(tmp_path, "good.json", GOOD_SYSTEM)
    bad = write(tmp_path, "bad.json", BAD_SYSTEM)
    assert run(["check", "tdi", "--input", good]) == 0
    assert run(["check", "tdi", "--input", bad]) == 1


def test_check_tdi_on_a_hyperplane_written_as_two_rows(tmp_path, capsys):
    # x + y = 1 on x, y >= 0 is an integral segment; 2x + 2y = 1 has the
    # vertex (0, 1/2), whose face misses the lattice points of its cone
    segment = '{"kind":"system","columns":[[1,1],[-1,-1],[-1,0],[0,-1]],"w":[1,-1,0,0]}'
    half = '{"kind":"system","columns":[[2,2],[-2,-2],[-1,0],[0,-1]],"w":[1,-1,0,0]}'
    assert run(["check", "tdi", "--input", write(tmp_path, "segment.json", segment)]) == 0
    capsys.readouterr()
    assert run(["check", "tdi", "--input", write(tmp_path, "half.json", half)]) == 1
    assert '"point":["0","1/2"]' in capsys.readouterr().out


def test_step_counts_of_skipped_reductions(tmp_path, monkeypatch, capsys):
    # the face cones of P4 are certified by facet heights and the bull's
    # lifted cone by one Bareiss minor; every box is empty, so the
    # reductions are skipped and only their comparisons are charged
    p4 = write(tmp_path, "p4.json", '{"kind":"clutter","n":4,"edges":[[0,1],[1,2],[2,3]]}')
    bull = write(tmp_path, "bull.json",
                 '{"kind":"clutter","n":5,"edges":[[0,1],[1,2],[0,2],[1,3],[2,4]]}')
    for prop, path, enough in (("mfmc", p4, 4), ("ehrhart", bull, 6)):
        for budget, code in ((enough - 1, 2), (enough, 0)):
            monkeypatch.setenv("CLUTTERLAB_BUDGET", str(budget))
            assert run(["check", prop, "--input", path]) == code, (prop, budget)


def test_main_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call; a budget given once must not stick
    bad = write(tmp_path, "bad.json", BAD_SYSTEM)
    assert run(["check", "tdi", "--input", bad, "--budget", "1"]) == 2
    assert run(["check", "tdi", "--input", bad]) == 1


def test_check_meyniel_witness(tmp_path, capsys):
    c5 = write(tmp_path, "c5.json", C5_GRAPH)
    assert run(["check", "meyniel", "--input", c5, "--json"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] is False
    assert cert["witnesses"]["odd_cycle"] == [0, 1, 2, 3, 4]
    assert cert["witnesses"]["chords"] == 0


def test_check_ehrhart_witness_on_line_k24(tmp_path, capsys):
    assert run(["examples", "--name", "line-k24", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = run(["check", "ehrhart", "--input", str(tmp_path / "line-k24-clutter.json"), "--json"])
    assert code == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["witnesses"]["missing_lattice_points"] == [[1, 1, 1, 1, 1, 1, 1, 1, 3]]


def test_graph_input_derives_clique_clutter(tmp_path, capsys):
    c5 = write(tmp_path, "c5.json", C5_GRAPH)
    assert run(["check", "ideal", "--input", c5, "--json"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["notes"]["derived"] == "clique-clutter"


def test_malformed_input_is_usage_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", '{"kind":"clutter","n":3')
    assert run(["check", "mfmc", "--input", bad]) == 64
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    # no traceback, and no instance silently altered (a truncated 1.5, n read as 2)
    for payload, prop in [
        ('{"kind":"system","columns":[[1.5]],"w":[1]}', "tdi"),
        ('{"kind":"system","columns":[[1]],"w":[true]}', "tdi"),
        ('{"kind":"graph","n":2.5,"edges":[]}', "perfect"),
        ('{"kind":"graph","n":true,"edges":[]}', "perfect"),
        ('{"kind":"clutter","n":3,"edges":[["a",1]]}', "mfmc"),
        ('{"kind":"graph","n":3,"edges":[[0,1,2]]}', "perfect"),
        ('{"kind":"graph","n":-1,"edges":[]}', "perfect"),
        ('{"kind":"clutter","n":-1,"edges":[]}', "ntf"),
    ]:
        path = write(tmp_path, "bad.json", payload)
        assert run(["check", prop, "--input", path, "--json"]) == 64, payload
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: "), payload


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"kind":"clutter","n":3,"edges":[[0,1]]}')
    assert run(["check", "mfmc", "--input", str(path)]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "UTF-8" in out.err


def test_deeply_nested_edge_is_usage_error(tmp_path, capsys):
    # 900 brackets parse as JSON; the payload reader walks them with no
    # recursion and the clutter rejects the nested edge
    edge = "[" * 900 + "1" + "]" * 900
    path = write(tmp_path, "deep.json", '{"kind":"clutter","n":3,"edges":[' + edge + "]}")
    assert run(["check", "mfmc", "--input", path]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "Traceback" not in out.err


def test_json_nested_beyond_the_parser_is_usage_error(tmp_path, capsys):
    edge = "[" * 50_000 + "1" + "]" * 50_000
    path = write(tmp_path, "deeper.json", '{"kind":"clutter","n":3,"edges":[' + edge + "]}")
    assert run(["check", "mfmc", "--input", path]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {path}: JSON nested too deeply\n"


def test_normal_decides_edgeless_clutters(tmp_path, capsys):
    # the closure of every power of the zero ideal is the zero ideal
    # (with n = 0 there are no Rees generators at all); with n = 0 the
    # covering system has no rows, and its polyhedron is the one integral
    # point of R^0; the empty set is a Hilbert basis of {0}, so an edgeless
    # clutter is Ehrhart
    for payload in [
        '{"kind":"clutter","n":3,"edges":[]}',
        '{"kind":"clutter","n":0,"edges":[]}',
        '{"kind":"graph","n":0,"edges":[]}',
    ]:
        path = write(tmp_path, "edgeless.json", payload)
        for prop in ("normal", "ntf", "mfmc", "ideal", "ehrhart"):
            assert run(["check", prop, "--input", path, "--json"]) == 0, (payload, prop)
            assert json.loads(capsys.readouterr().out)["verdict"] is True
        # the rest of the exit-code contract: every clutter property decides
        for prop in ("unmixed", "uniform", "konig"):
            code = run(["check", prop, "--input", path, "--json"])
            assert code in (0, 1), (payload, prop)
            assert json.loads(capsys.readouterr().out)["verdict"] is (code == 0)
        if '"clutter"' in payload:
            for prop in ("meyniel", "perfect"):
                assert run(["check", prop, "--input", path, "--json"]) == 64, (payload, prop)
                out = capsys.readouterr()
                assert out.out == "" and "needs a graph" in out.err
        # the empty edge polytope has no series to report
        assert run(["invariants", "--input", path, "--json"]) == 64, payload
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: clutter has no edges: the empty edge polytope has no series to report\n"
        )
    # an empty system stays malformed
    empty = write(tmp_path, "empty.json", '{"kind":"system","columns":[],"w":[]}')
    assert run(["check", "tdi", "--input", empty]) == 64


def test_power_checks_spend_the_budget(tmp_path, capsys):
    # the pentagon, not the triangle: the triangle's Rees cone is decided
    # without spending a step
    c5 = write(tmp_path, "c5.json", C5_GRAPH.replace("graph", "clutter"))
    for prop, code in (("normal", 0), ("ntf", 1)):
        out = tmp_path / f"{prop}.json"
        assert run(["check", prop, "--input", c5, "--budget", "1", "--output", str(out)]) == 2
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "undecided" and cert["witnesses"] == {}
        assert cert["budget"] == {"limit": 1, "exceeded": True}
        assert cert["notes"]["reason"] == "undecided: hilbert basis enumeration"
        assert run(["check", prop, "--input", c5]) == code


def test_undecided_graph_check_keeps_the_derived_note(tmp_path, capsys):
    # a stopped check on a graph input records both the clique-clutter note
    # and the reason, as invariants does
    c5 = write(tmp_path, "c5.json", C5_GRAPH)
    assert run(["check", "normal", "--input", c5, "--budget", "1", "--json"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "undecided"
    assert cert["budget"] == {"limit": 1, "exceeded": True}
    assert cert["notes"] == {
        "derived": "clique-clutter",
        "reason": "undecided: hilbert basis enumeration",
    }
    # C5's clique clutter is Ehrhart, so invariants decides its flow property
    # by idealness at budget 1; the two K4s need the face checks, and budget
    # 10 lets `analyze` finish but stops a face check
    assert run(["invariants", "--input", c5, "--budget", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["notes"] == {"derived": "clique-clutter"}
    k4s = write(tmp_path, "k4s.json", json.dumps(cli.instance_payload(two_k4_graph())))
    assert run(["invariants", "--input", k4s, "--budget", "10", "--json"]) == 2
    notes = json.loads(capsys.readouterr().out)["notes"]
    assert notes.keys() == {"derived", "reason"}
    assert notes["derived"] == "clique-clutter"
    # and so does a check that a resource cap stops
    c25 = write(tmp_path, "c25.json", _cycle_graph(25))
    assert run(["check", "ideal", "--input", c25, "--json"]) == 2
    notes = json.loads(capsys.readouterr().out)["notes"]
    assert notes == {
        "derived": "clique-clutter",
        "reason": "resource exceeded: clique enumeration vertex count (cap 24)",
    }


def test_power_checks_are_exact(tmp_path, capsys):
    # the verdicts cover every power: C_7 fails NTF at power 4 and two
    # disjoint pentagons fail normality at power 5
    c7_edges = [[i, (i + 1) % 7] for i in range(7)]
    pentagon_edges = [[b + i, b + (i + 1) % 5] for b in (0, 5) for i in range(5)]
    c7 = write(tmp_path, "c7.json", json.dumps({"kind": "clutter", "n": 7, "edges": c7_edges}))
    pentagons = write(tmp_path, "pentagons.json",
                      json.dumps({"kind": "clutter", "n": 10, "edges": pentagon_edges}))
    for prop, path, power, n in (("ntf", c7, 4, 7), ("normal", pentagons, 5, 10)):
        assert run(["check", prop, "--input", path, "--json"]) == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["witnesses"] == {"power": power, "monomial": [1] * n}
        assert cert["invariants"] == {} and cert["notes"] == {}
    tri = write(tmp_path, "tri.json", TRIANGLE)
    assert run(["check", "normal", "--input", tri, "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] is True and cert["invariants"] == {} and cert["notes"] == {}
    assert run(["check", "ntf", "--input", tri, "--power-bound", "3"]) == 64


def test_ray_cap_is_undecided(tmp_path, monkeypatch, capsys):
    sq = write(tmp_path, "sq.json", SQUARE)
    assert run(["check", "mfmc", "--input", sq]) == 0
    monkeypatch.setattr(polyhedron, "DEFAULT_RAY_CAP", 2)
    out = tmp_path / "cap.json"
    assert run(["check", "mfmc", "--input", sq, "--output", str(out)]) == 2
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "undecided" and cert["witnesses"] == {}
    assert cert["budget"]["exceeded"] is False
    assert cert["notes"]["reason"] == "resource exceeded: double description ray count (cap 2)"
    assert "undecided: resource exceeded" in capsys.readouterr().err


def test_wrong_kind_is_usage_error(tmp_path):
    sq = write(tmp_path, "sq.json", SQUARE)
    assert run(["check", "tdi", "--input", sq]) == 64
    c5 = write(tmp_path, "c5.json", C5_GRAPH)
    sysf = write(tmp_path, "s.json", GOOD_SYSTEM)
    assert run(["check", "meyniel", "--input", sysf]) == 64


def test_invariants_output(tmp_path, capsys):
    sq = write(tmp_path, "sq.json", SQUARE)
    assert run(["invariants", "--input", sq, "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    inv = cert["invariants"]
    assert inv["hvector"] == [1, 1]
    assert inv["a_invariant"] == inv["a_invariant_interior"] == -2
    assert inv["regularity"] == 1
    assert inv["bounds"]["hypotheses_met"] is True
    tri = write(tmp_path, "tri.json", TRIANGLE)
    assert run(["invariants", "--input", tri, "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["invariants"]["bounds"]["hypotheses_met"] is False
    assert "mfmc" in cert["invariants"]["bounds"]["missing"]


def test_invariants_certificates_match_golden_files(tmp_path, monkeypatch):
    # bounds met and tight, and hypotheses not met; the golden bytes were
    # frozen from an earlier version, so this guards across versions
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    for name, clutter in [("sharpness_3_2", sharpness_clutter(3, 2)),
                          ("triangle", triangle_clutter())]:
        inp = write(tmp_path, f"{name}.json", json.dumps(cli.instance_payload(clutter)))
        out = tmp_path / f"{name}.cert.json"
        assert run(["invariants", "--input", inp, "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"invariants_{name}.json").read_bytes()


def test_check_conjecture_and_examples_match_golden_files(tmp_path, monkeypatch, capsys):
    # the golden bytes of check and conjecture were frozen before the CLI
    # wrote every certificate through one renderer
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    sq = write(tmp_path, "sq.json", SQUARE)
    tri = write(tmp_path, "tri.json", TRIANGLE)
    edges = write(tmp_path, "edges.json",
                  '{"kind":"system","columns":[[2,0],[-2,0],[0,1],[0,-1]],"w":[1,-1,1,0]}')
    for golden, argv, code in [
        ("check_mfmc_square", ["check", "mfmc", "--input", sq], 0),
        ("check_mfmc_triangle", ["check", "mfmc", "--input", tri], 1),
        ("check_tdi_edges", ["check", "tdi", "--input", edges], 1),
        ("conjecture_count_12", ["conjecture", "--count", "12"], 0),
    ]:
        out = tmp_path / f"{golden}.cert.json"
        assert run([*argv, "--output", str(out)]) == code, golden
        assert out.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes(), golden
    assert run(["examples", "--name", "c5", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "c5.cert.json").read_bytes() == (GOLDEN / "examples_c5.json").read_bytes()


def test_stopped_example_writes_an_undecided_certificate(tmp_path, capsys):
    assert run(["examples", "--name", "line-k24", "--budget", "1", "--outdir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "undecided: hilbert basis enumeration\n"
    names = ["line-k24-graph.json", "line-k24-graph.cert.json",
             "line-k24-clutter.json", "line-k24-clutter.cert.json"]
    assert captured.out.splitlines() == [str(tmp_path / name) for name in names]
    assert json.loads((tmp_path / "line-k24-graph.cert.json").read_text())["verdict"] is True
    cert = json.loads((tmp_path / "line-k24-clutter.cert.json").read_text())
    assert cert["command"] == "examples"
    assert cert["verdict"] == "undecided"
    assert cert["witnesses"] == {} and cert["invariants"] == {}
    assert cert["notes"] == {"reason": "undecided: hilbert basis enumeration"}
    assert cert["budget"] == {"limit": 1, "exceeded": True}


def test_timing_is_an_integer_and_only_check_takes_it(tmp_path, capsys):
    sq = write(tmp_path, "sq.json", SQUARE)
    assert run(["check", "mfmc", "--input", sq, "--timing", "--json"]) == 0
    assert type(json.loads(capsys.readouterr().out)["timing_ms"]) is int
    out = str(tmp_path / "out.json")
    for argv in (["invariants", "--input", sq, "--timing"],
                 ["conjecture", "--count", "1", "--timing"],
                 ["examples", "--name", "c5", "--outdir", str(tmp_path), "--timing"],
                 ["examples", "--name", "c5", "--outdir", str(tmp_path), "--json"],
                 ["examples", "--name", "c5", "--outdir", str(tmp_path), "--output", out]):
        assert run(argv) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err, argv
    assert not (tmp_path / "c5.json").exists() and not Path(out).exists()


def test_invariants_undecided_bound_check_exits_2(tmp_path, capsys):
    # sharpness_clutter(3, 2) is Ehrhart, so its flow property is its
    # idealness and budget 1 decides it; the two K4s are not Ehrhart, and
    # budget 10 stops their face checks after `analyze` has finished
    s32 = write(tmp_path, "s32.json", json.dumps(cli.instance_payload(sharpness_clutter(3, 2))))
    assert run(["invariants", "--input", s32, "--budget", "1"]) == 0
    capsys.readouterr()
    inp = write(tmp_path, "k4s.json", json.dumps(cli.instance_payload(two_k4_graph())))
    assert run(["invariants", "--input", inp, "--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "undecided: flow property: budget exhausted during a face check\n"
    assert "hypotheses not met" not in captured.out
    out = tmp_path / "k4s.cert.json"
    assert run(["invariants", "--input", inp, "--budget", "10", "--json", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "undecided: flow property: budget exhausted during a face check\n"
    assert captured.out == out.read_text(encoding="utf-8")
    cert = json.loads(captured.out)
    assert cert["command"] == "invariants"
    assert cert["verdict"] == "undecided"
    assert cert["notes"]["reason"] == "undecided: flow property: budget exhausted during a face check"
    assert cert["budget"] == {"limit": 10, "exceeded": True}
    assert run(["invariants", "--input", inp, "--budget", "26", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["invariants"]["bounds"]["missing"] == ["uniform"]


def test_certificates_roundtrip_and_digest_stability(tmp_path, capsys):
    sq = write(tmp_path, "sq.json", SQUARE)
    out1 = tmp_path / "a.cert.json"
    out2 = tmp_path / "b.cert.json"
    assert run(["check", "mfmc", "--input", sq, "--output", str(out1)]) == 0
    assert run(["check", "mfmc", "--input", sq, "--output", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    cert = json.loads(b1)
    assert json.loads(json.dumps(cert)) == cert
    # digest depends only on the canonical instance
    sq2 = write(tmp_path, "sq2.json", '{"kind":"clutter","n":4,"edges":[[3,0],[1,0],[2,1],[3,2]]}')
    assert run(["check", "mfmc", "--input", sq2, "--output", str(out2)]) == 0
    assert json.loads(out2.read_bytes())["digest"] == cert["digest"]
    assert cert["timing_ms"] is None


def test_conjecture_batch_deterministic(tmp_path, capsys):
    args = ["conjecture", "--families", "chordal,bipartite", "--max-n", "6",
            "--seed", "7", "--count", "8", "--json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    batch = json.loads(first)
    assert batch["counterexamples"] == 0
    assert len(batch["instances"]) == 8
    digests = [r["digest"] for r in batch["instances"]]
    assert digests == sorted(digests)


def test_conjecture_runs_one_dd_per_instance(monkeypatch, capsys):
    # idealness is read off the flow certificate, so the default batch of
    # 25 instances converts each covering polyhedron once; no cache holds
    # a covering polyhedron, so the count does not depend on earlier tests
    calls = Counter()
    convert = polyhedron.dd_convert

    def counted(*args):
        calls["dd_convert"] += 1
        return convert(*args)

    monkeypatch.setattr(polyhedron, "dd_convert", counted)
    assert run(["conjecture", "--json"]) == 0
    batch = json.loads(capsys.readouterr().out)
    assert len(batch["instances"]) == 25
    assert calls == {"dd_convert": 25}


def test_conjecture_rejects_unknown_family():
    assert run(["conjecture", "--families", "nope", "--count", "1"]) == 64


def test_conjecture_rejects_empty_family_list(capsys):
    assert run(["conjecture", "--families", ",", "--count", "1"]) == 64
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""


def test_conjecture_rejects_negative_count(capsys):
    assert run(["conjecture", "--count", "-1", "--json"]) == 64
    captured = capsys.readouterr()
    assert "count" in captured.err and captured.out == ""


def test_examples_writes_instance_and_certificate(tmp_path):
    assert run(["examples", "--name", "sharpness-2-3", "--outdir", str(tmp_path)]) == 0
    inst = json.loads((tmp_path / "sharpness-2-3.json").read_text())
    assert inst["kind"] == "clutter" and inst["n"] == 6
    cert = json.loads((tmp_path / "sharpness-2-3.cert.json").read_text())
    assert cert["invariants"]["a_invariant"] == -3
    assert cert["verdict"] is True
    # the certificate records the limit in force
    assert run(["examples", "--name", "c5", "--budget", "7", "--outdir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "c5.cert.json").read_text())
    assert cert["budget"] == {"limit": 7, "exceeded": False}
    assert run(["examples", "--name", "unknown-name", "--outdir", str(tmp_path)]) == 64


def test_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "not-a-number")
    sq = write(tmp_path, "sq.json", SQUARE)
    assert run(["check", "mfmc", "--input", sq]) == 64


def test_negative_budget_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    p4 = write(tmp_path, "p4.json", '{"kind":"clutter","n":4,"edges":[[0,1],[1,2],[2,3]]}')
    out = tmp_path / "cert.json"
    for prop in ("mfmc", "uniform"):  # also where no enumeration would run
        assert run(["check", prop, "--input", p4, "--budget=-5", "--output", str(out)]) == 64
        assert "at least 0, got -5" in capsys.readouterr().err
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "-5")
    assert run(["check", "mfmc", "--input", p4, "--output", str(out)]) == 64
    assert not out.exists()
    assert run(["check", "uniform", "--input", p4, "--budget", "0"]) == 0  # the flag wins


def _cycle_graph(n):
    edges = [[i, (i + 1) % n] for i in range(n)]
    return json.dumps({"kind": "graph", "n": n, "edges": edges})


def test_meyniel_vertex_cap_is_undecided(tmp_path, capsys):
    # the odd-cycle enumeration refuses graphs above MEYNIEL_CAP = 16 vertices
    c17 = write(tmp_path, "c17.json", _cycle_graph(17))
    assert run(["check", "meyniel", "--input", c17]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("undecided: resource exceeded")
    assert captured.out == ""
    out = tmp_path / "c17.cert.json"
    assert run(["check", "meyniel", "--input", c17, "--json", "--output", str(out)]) == 2
    again = capsys.readouterr()
    assert again.err == captured.err
    assert again.out == out.read_text(encoding="utf-8")
    cert = json.loads(again.out)
    assert cert["command"] == "check meyniel"
    assert cert["verdict"] == "undecided"
    assert cert["notes"]["reason"] == "resource exceeded: odd cycle enumeration vertex count (cap 16)"
    assert cert["budget"]["exceeded"] is False  # a vertex cap, not the step budget


def test_check_stops_one_way(tmp_path, capsys):
    # a budget stop and a cap stop both print nothing on stdout and the
    # reason once on stderr; the certificate tells them apart
    c5 = write(tmp_path, "c5.json", C5_GRAPH.replace("graph", "clutter"))
    c17 = write(tmp_path, "c17.json", _cycle_graph(17))
    # a face check that the budget stops makes the TDI certificate undecided
    p4 = write(tmp_path, "p4.json", '{"kind":"clutter","n":4,"edges":[[0,1],[1,2],[2,3]]}')
    bad = write(tmp_path, "bad.json", BAD_SYSTEM)
    cap = "resource exceeded: odd cycle enumeration vertex count (cap 16)"
    face = "undecided: budget exhausted during a face check"
    for argv, reason, err, exceeded in (
        (["normal", "--input", c5, "--budget", "1"], "undecided: hilbert basis enumeration",
         "undecided: hilbert basis enumeration\n", True),
        (["meyniel", "--input", c17], cap, f"undecided: {cap}\n", False),
        (["mfmc", "--input", p4, "--budget", "3"], face, f"{face}\n", True),
        (["tdi", "--input", bad, "--budget", "1"], face, f"{face}\n", True),
    ):
        assert run(["check", *argv]) == 2
        assert capsys.readouterr() == ("", err)
        out = tmp_path / "stop.json"
        assert run(["check", *argv, "--timing", "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", err)
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "undecided" and cert["timing_ms"] is None
        assert cert["notes"] == {"reason": reason}
        assert cert["budget"]["exceeded"] is exceeded


def test_meyniel_on_complete_graph_at_the_cap(tmp_path):
    # the induced cycles of K_16 are its 560 triangles, so it is decided
    # quickly although it has a vast number of simple cycles
    k16 = [[a, b] for a in range(16) for b in range(a + 1, 16)]
    path = write(tmp_path, "k16.json", json.dumps({"kind": "graph", "n": 16, "edges": k16}))
    assert run(["check", "meyniel", "--input", path]) == 0


def test_perfect_on_large_edgeless_graph(tmp_path):
    # the complement is K_120, whose induced cycles are all triangles
    path = write(tmp_path, "e120.json", json.dumps({"kind": "graph", "n": 120, "edges": []}))
    assert run(["check", "perfect", "--input", path]) == 0


def test_unmixed_and_konig_on_many_singleton_edges(tmp_path, capsys):
    # one minimal cover and a matching of all 1,200 edges, far past the
    # recursion limit of a search with one call per edge
    path = write(tmp_path, "single.json", json.dumps({"kind": "clutter", "n": 1200, "edges": [[v] for v in range(1200)]}))
    assert run(["check", "unmixed", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["invariants"] == {"cover_sizes": [1200]}
    assert run(["check", "konig", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["invariants"] == {"covering_number": 1200, "matching_number": 1200}


def test_clique_vertex_cap_is_undecided(tmp_path, capsys):
    # deriving the clique clutter refuses graphs above CLIQUE_CAP = 24 vertices
    c25 = write(tmp_path, "c25.json", _cycle_graph(25))
    assert run(["check", "ideal", "--input", c25]) == 2
    assert capsys.readouterr().err.startswith("undecided: resource exceeded")


# ---------------------------------------------------------------------------
# The exit-code contract on drawn and mutated instance files
# ---------------------------------------------------------------------------

CONTRACT_COMMANDS = [["check", p] for p in cli.PROPERTIES] + [["invariants"]]


def _slots(x, out):
    """Every (container, key) of a nested JSON value, parents first."""
    for k, y in (x.items() if isinstance(x, dict) else enumerate(x)):
        out.append((x, k))
        if isinstance(y, (dict, list)):
            _slots(y, out)
    return out


@st.composite
def contract_files(draw):
    """Instance file bytes: a valid graph, clutter or system; one with one
    or two mutations (a value replaced by junk or an out-of-range vertex,
    an item dropped, another kind); one with a character inserted or
    deleted; or raw bytes."""
    mode = draw(st.sampled_from(("valid", "valid", "mutated", "edited", "bytes")))
    if mode == "bytes":
        return draw(st.binary(max_size=40))
    kind = draw(st.sampled_from(("graph", "clutter", "system")))
    n = draw(st.integers(2, 7))
    if kind == "system":
        d = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=5))
        w = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        payload = {"kind": kind, "columns": rows, "w": w}
    else:
        size = (2, 2) if kind == "graph" else draw(st.sampled_from(((1, 4), (2, 3))))
        edge = st.lists(st.integers(0, n - 1), min_size=size[0], max_size=size[1], unique=True)
        edges = draw(st.lists(edge, min_size=1, max_size=9))
        edges = [e for e in edges if not any(set(f) < set(e) for f in edges)]
        payload = {"kind": kind, "n": n, "edges": edges}
    junk = st.one_of(
        st.floats(), st.booleans(), st.none(), st.text(max_size=4),
        st.sampled_from((-1, n, n + 3)), st.lists(st.integers(-1, 3), max_size=3),
    )
    for _ in range(draw(st.integers(1, 2)) if mode == "mutated" else 0):
        slots = _slots(payload, [])
        op = draw(st.sampled_from(("junk", "drop", "kind")))
        if op == "kind" or not slots:
            payload["kind"] = draw(st.sampled_from(("graph", "clutter", "system", "cone", "")))
            continue
        box, key = draw(st.sampled_from(slots))
        if op == "junk":
            box[key] = draw(junk)
        else:
            del box[key]
    text = json.dumps(payload)
    if mode == "edited":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(("", "[", "]", "{", ",", "-", ".5", "1e3", '"'))) + text[i + 1:]
    return text.encode()


@settings(
    max_examples=500, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(contract_files(), st.sampled_from((0, 1, 5, 50, 10**4)), st.booleans())
@example(TRIANGLE.encode(), 10**4, False)  # not ideal: a fractional vertex in the witness
@example(b'{"kind":"clutter","n":4,"edges":[[0,1],[1,2],[2,3]]}', 3, True)  # P4 stops at budget 3
@example(BAD_SYSTEM.encode(), 10**4, True)
@example(_cycle_graph(17).encode(), 50, True)  # past the odd-cycle vertex cap
def test_exit_code_contract_on_drawn_and_mutated_inputs(tmp_path, capsys, data, limit, as_json):
    # 0 holds, 1 fails, 2 undecided, 64 usage, and never a traceback: a
    # decided or stopped run writes one certificate, a usage error one line
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    for command in CONTRACT_COMMANDS:
        argv = command + ["--input", str(path), "--budget", str(limit)] + ["--json"] * as_json
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 64), (argv, data)
        assert "Traceback" not in out + err
        if code == 64:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, data)
        elif as_json:
            assert json.loads(out)["verdict"] in (True, False, "vacuous", "undecided"), (argv, data)
