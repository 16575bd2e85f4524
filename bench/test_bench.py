"""Tests of the benchmark's own machinery: each checker passes a genuine
report and fails a tampered one (so error_rate cannot pass vacuously), the
tracer rebinds every binding and reports missing names, and the tail rule.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from orthoapart import cli  # noqa: E402
from workloads import Command  # noqa: E402


def outcome(cmd, tmp_path, capsys):
    """Run the command in-process; return (exit code, report dict)."""
    argv = [str(tmp_path / a) if a in cmd.files else a for a in cmd.argv]
    for name, body in cmd.files.items():
        (tmp_path / name).write_text(json.dumps(body))
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    stdout = capsys.readouterr().out
    return code, json.loads(stdout if cmd.kind == "planted" else out.read_text())


def first(workload, kind, seed=3):
    return next(c for c in workloads.commands(workload, seed) if c.kind == kind)


def small_label(kind):
    dims = (1, 2)
    if kind == "scan":
        return Command("scan", ["scan-boundary", "--alphas=1,-2", "--dims", "1,2",
                                "--n-range", "7:8"], "scan", 0, {"ns": [7, 8]})
    sub = {"lemma3": "verify-lemma3", "lemma4": "verify-lemma4"}[kind]
    return Command(kind, [sub, "--n", "12", "--alphas=1/2,-3", "--dims", "1,2"], sub,
                   workloads.pairs(12, dims), {"members": workloads.member_count(12, dims)})


def assert_tamper_fails(cmd, code, report, tamper):
    assert checks.check(cmd, code, report) is None
    bad = copy.deepcopy(report)
    tamper(bad)
    assert checks.check(cmd, code, bad) is not None


def test_lemma3_checker(tmp_path, capsys):
    cmd = small_label("lemma3")
    code, report = outcome(cmd, tmp_path, capsys)
    violation = {"pair": [0, 1], "m": 0, "count": 0, "bound": 9}
    assert_tamper_fails(cmd, code, report, lambda r: r["violations"].append(violation))
    assert_tamper_fails(cmd, code, report, lambda r: r.update(pairs_checked=r["pairs_checked"] - 1))
    assert_tamper_fails(cmd, code, report, lambda r: r["counts_histogram"]["0"][0].__setitem__(1, 0))
    assert_tamper_fails(cmd, code, report,
                        lambda r: r.update(orthogonal_pairs_with_k_squared=r["orthogonal_pairs"] - 1))
    assert checks.check(cmd, 1, report) is not None


def test_lemma4_and_scan_checkers(tmp_path, capsys):
    cmd = small_label("lemma4")
    code, report = outcome(cmd, tmp_path, capsys)
    disagreement = {"pair": [0, 1], "by_count": True, "direct": False}
    assert_tamper_fails(cmd, code, report, lambda r: r["violations"].append(disagreement))
    cmd = small_label("scan")
    code, report = outcome(cmd, tmp_path, capsys)
    assert_tamper_fails(cmd, code, report, lambda r: r["entries"].pop())
    assert_tamper_fails(cmd, code, report, lambda r: r["entries"][0].update(first_such_pair=None))


def test_refine_checker(tmp_path, capsys):
    cmd = min((c for c in workloads.commands("matrix-refine", 3) if c.kind == "refine"),
              key=lambda c: c.units)
    code, report = outcome(cmd, tmp_path, capsys)
    assert_tamper_fails(cmd, code, report, lambda r: r["frame"]["lines"].pop())
    # a line replaced by the sum of two: no longer orthogonal to them
    def merge(r):
        lines = r["frame"]["lines"]
        lines[0] = [str(checks.parse(a)[0] + checks.parse(b)[0]) for a, b in zip(lines[0], lines[1])]
    assert_tamper_fails(cmd, code, report, merge)
    # a valid frame that does not refine the family
    n = cmd.units  # a refine command's work is its n output lines
    coordinate = {"n": n, "lines": [[str(int(i == j)) for i in range(n)] for j in range(n)]}
    assert checks.frame_problem(cmd.expect["family"], coordinate) is not None


def test_planted_checker(tmp_path, capsys):
    cmd = first("matrix-refine", "planted")
    code, report = outcome(cmd, tmp_path, capsys)
    assert code == 1
    assert_tamper_fails(cmd, code, report, lambda r: r.update(pair=[r["pair"][1], r["pair"][1] + 1]))
    assert checks.check(cmd, 0, report) is not None


@pytest.mark.parametrize("kind", ["comm", "orth"])
def test_counterexample_checker(kind, tmp_path, capsys):
    cmd = first("operator-certify", kind)
    code, report = outcome(cmd, tmp_path, capsys)
    relation = {"comm": "commute", "orth": "orthogonal"}[kind]
    assert_tamper_fails(cmd, code, report, lambda r: r.update(witness=None))
    assert_tamper_fails(cmd, code, report, lambda r: r["witness"].update(rhs=r["witness"]["lhs"]))
    assert_tamper_fails(cmd, code, report, lambda r: r["preserves"].update({relation: False}))
    assert_tamper_fails(cmd, code, report, lambda r: r.update(domain_size=11))


def test_planted_pair_is_the_only_incompatible_pair():
    from orthoapart import projections_commute, serialize

    for seed in (1, 2):
        for cmd in workloads.commands("matrix-refine", seed):
            fam = serialize.family_from_json(next(iter(cmd.files.values())))
            bad = [[i, j] for i in range(len(fam)) for j in range(i + 1, len(fam))
                   if not projections_commute(fam[i], fam[j])]
            assert bad == ([cmd.expect["pair"]] if cmd.kind == "planted" else [])


def test_commands_depend_only_on_seed():
    for wl in workloads.WORKLOADS:
        a, b = workloads.commands(wl, 7), workloads.commands(wl, 7)
        assert [c.argv for c in a] == [c.argv for c in b]
        assert [c.files for c in a] == [c.files for c in b]
        assert sorted(c.kind for c in a) == sorted(c.kind for c in workloads.commands(wl, 8))


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.home defines f and a class with an aliased method;
    fakepkg.user imports f by name, as the orthoapart modules do."""
    home = types.ModuleType("fakepkg.home")

    def f(x):
        return x + 1

    class K:
        def add(self, other):
            return 1

        radd = add

    f.__module__ = K.__module__ = "fakepkg.home"
    home.f, home.K = f, K
    user = types.ModuleType("fakepkg.user")
    user.f = f
    user.call = lambda x: user.f(x)
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.home", home),
                      ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return home, user


def test_tracer_rebinds_every_binding(fake_package, monkeypatch):
    home, user = fake_package
    monkeypatch.setattr(tracer, "SPANS", (("home.f", "fakepkg.home", "f"),
                                          ("home.K.add", "fakepkg.home", "K.add"),
                                          ("gone", "fakepkg.home", "no_such_function")))
    t = tracer.Tracer()
    t.install("spans", package="fakepkg")
    assert user.f is home.f and home.f.__wrapped__ is not None
    assert home.K.radd is home.K.add
    assert user.call(1) == 2
    home.K().radd(None)
    dump = t.dump()
    assert dump["calls"] == {"home.f": 1, "home.K.add": 1}
    assert dump["missing"] == ["gone"]


def test_missing_names_are_not_zero():
    agg = run.merge_traces([])
    agg["missing"] = {"matrices.rref"}
    layers = run.per_layer(agg, [], 0.0)
    assert layers["matrices.rref.calls"][0] is None
    assert layers["matrices.rref.cells"][0] is None
    assert layers["matrices.matmul.calls"][0] == 0


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_child_traces_the_real_package(tmp_path):
    """A spans-mode child sees calls made through names the CLI imported
    from other modules (cli -> refine_to_frame, operators -> is_compatible)."""
    import os
    import subprocess

    cmd = first("matrix-refine", "refine")
    (tmp_path / "fam.json").write_text(json.dumps(cmd.files[cmd.argv[1]]))
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    done = subprocess.run([sys.executable, str(BENCH / "child.py"), str(record), "spans", "--",
                           "refine", str(tmp_path / "fam.json"), "--out", str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls = json.loads(record.read_text())["trace"]["calls"]
    assert calls["cli.main"] == calls["cli.cmd"] == calls["compatibility.refine_to_frame"] == 1
    assert calls["serialize.family_from_json"] == calls["serialize.frame_to_json"] == 1
    assert calls["compatibility.is_compatible"] > 0 and calls["subspaces.intersect"] > 0
