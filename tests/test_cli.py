import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberflow.cli import EXIT_INTERNAL, main
from fiberflow.scenario import (
    random_scenario,
    scenario_to_dict,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
    write_scenario,
)
from test_runner import LINES


@pytest.fixture()
def two_point_file(tmp_path):
    return str(write_scenario(two_point_scenario(), tmp_path / "two_point.json"))


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


def test_validate_ok(two_point_file, capsys):
    assert main(["validate", two_point_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_evolve_with_time_override(two_point_file, tmp_path):
    out = tmp_path / "rep"
    assert main(["--out", str(out), "evolve", two_point_file, "--times", "0.5,1,2"]) == 0
    rows = _read_csv(out / "two-point_evolution.csv")
    b1 = {float(r["t"]): float(r["u"]) for r in rows if r["base_id"] == "b1"}
    assert b1[0.5] == pytest.approx(1.0, abs=1e-12)
    assert b1[1.0] == pytest.approx(1.0, abs=1e-12)
    assert b1[2.0] == pytest.approx(0.5, abs=1e-12)


def test_slopes_and_transform_commands(two_point_file, tmp_path):
    out = tmp_path / "rep"
    assert main(["--out", str(out), "slopes", two_point_file]) == 0
    rows = _read_csv(out / "two-point_slopes.csv")
    assert {r["base_id"] for r in rows} == {"b0", "b1"}
    assert main(["--out", str(out), "transform", two_point_file, "--y", "b1", "--t", "1.0"]) == 0
    rows = _read_csv(out / "two-point_transform.csv")
    assert rows[0]["lstar"] == rows[0]["hamiltonian"]
    assert any(r["claim_matches"] == "0" for r in rows)


def test_variational_command(two_point_file, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--out", str(out), "variational", two_point_file, "--y", "b1", "--t", "2.0", "--steps", "8"]) == 0
    printed = capsys.readouterr().out
    assert "value=0.5" in printed
    assert "best_z=b0" in printed
    assert "converged=True" in printed


def test_check_singleton_all_pass(tmp_path, capsys):
    path = write_scenario(singleton_constant_scenario(), tmp_path / "s.json")
    assert main(["--out", str(tmp_path / "rep"), "check", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed


def test_check_exit_nonzero_on_failure(tmp_path):
    # at t = 0.5 the two-point neighbor slope is order one while the field is
    # still frozen, so the HJ residual verdict fails and check exits nonzero
    doc = scenario_to_dict(two_point_scenario())
    doc["grids"]["times"] = [0.5]
    path = tmp_path / "active.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path / "rep"), "check", str(path)]) == 1


def test_invalid_scenario_exit_code(tmp_path):
    doc = scenario_to_dict(two_point_scenario())
    doc["section"]["b1"] = [1.0, 1.1]
    path = tmp_path / "offfiber.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path / "rep"), "check", str(path)]) == 5


def test_paper_example_command(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--out", str(out), "paper-example"]) == 0
    assert (out / "paper_counterexample.json").exists()
    verdicts = json.loads((out / "paper-counterexample_verdicts.json").read_text())
    ref = [v for v in verdicts if v["check"] == "reference_triple_violation"]
    assert ref and ref[0]["status"] == "PASS"
    assert "discrepancy flagged" in ref[0]["note"]


def test_exit_codes(tmp_path):
    assert main(["check", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", str(bad)]) == 4
    # scenario without params: variational refused with its own exit code
    doc = scenario_to_dict(two_point_scenario())
    for rec in doc["base"]:
        del rec["param"]
    noparam = tmp_path / "noparam.json"
    noparam.write_text(json.dumps(doc))
    assert main(["variational", str(noparam), "--y", "b1", "--t", "1.0"]) == 6


@pytest.mark.parametrize("steps", [0, -2])
def test_variational_without_a_time_step_is_refused(two_point_file, tmp_path, capsys, steps):
    out = tmp_path / "rep"
    args = ["--out", str(out), "variational", two_point_file, "--y", "b1", "--t", "2.0", "--steps", str(steps)]
    assert main(args) == 6
    assert f"error: need at least one time step, got m={steps}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, value",
    [
        pytest.param(["evolve", "--times", "nan"], "nan", id="evolve-nan"),
        pytest.param(["evolve", "--times", "0.5,inf"], "inf", id="evolve-inf"),
        pytest.param(["evolve", "--times", "-1"], "-1.0", id="evolve-negative"),
        pytest.param(["transform", "--y", "b1", "--t", "nan"], "nan", id="transform-nan"),
        pytest.param(["transform", "--y", "b1", "--t", "inf"], "inf", id="transform-inf"),
        pytest.param(["variational", "--y", "b1", "--t", "nan"], "nan", id="variational-nan"),
        pytest.param(["variational", "--y", "b1", "--t=-inf"], "-inf", id="variational-minus-inf"),
    ],
)
def test_non_finite_or_nonpositive_time_is_refused(two_point_file, tmp_path, capsys, args, value):
    out = tmp_path / "rep"
    assert main(["--out", str(out), args[0], two_point_file, *args[1:]]) == 6
    assert f"error: time {value} must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_scenario_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    for command in ("validate", "check"):
        assert main(["--out", str(tmp_path / "rep"), command, str(path)]) == 4, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1, command


def test_out_naming_a_file_is_a_usage_error(two_point_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for command in ("check", "evolve"):
        assert main(["--out", str(taken), command, two_point_file]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write under --out {taken}:") and err.count("\n") == 1, command
    assert taken.read_text() == "keep"


def test_variational_out_naming_a_file_fails_before_the_solve(two_point_file, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("keep")

    def solve(*args, **kwargs):
        raise AssertionError("the curve solve ran before --out was checked")

    monkeypatch.setattr("fiberflow.cli.solve_variational", solve)
    assert main(["--out", str(taken), "variational", two_point_file, "--y", "b1", "--t", "2.0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write under --out {taken}:")
    assert taken.read_text() == "keep"


@pytest.mark.parametrize(
    "path, value, field",
    [
        pytest.param(("grids", "xi_resolution"), "x", "grids.xi_resolution", id="xi_resolution-string"),
        pytest.param(("grids", "hj_base_stride"), "x", "grids.hj_base_stride", id="hj_base_stride-string"),
        pytest.param(("grids", "tolerances", "tau_tie"), "x", "grids.tolerances.tau_tie", id="tau_tie-string"),
        pytest.param(("grids", "xi_resolution"), 0, "grids.xi_resolution", id="xi_resolution-zero"),
        # above XI_RESOLUTION_MAX = 4096, whose transform tables could not be allocated
        pytest.param(("grids", "xi_resolution"), 4097, "grids.xi_resolution", id="xi_resolution-above-cap"),
        pytest.param(("grids", "xi_resolution"), 2**70, "grids.xi_resolution", id="xi_resolution-2^70"),
        pytest.param(("grids", "hj_times"), [], "grids.hj_times", id="hj_times-empty"),
        pytest.param(("grids", "tolerances", "tau_tie"), -1, "grids.tolerances.tau_tie", id="tau_tie-negative"),
        pytest.param(
            ("lagrangian",), {"name": "power", "params": {"exponent": "x"}}, "lagrangian.params.exponent",
            id="exponent-string",
        ),
        pytest.param(("lagrangian", "params"), [1], "lagrangian.params", id="params-list"),
        pytest.param(("lagrangian", "name"), "cubic", "lagrangian.name", id="unknown-lagrangian"),
        pytest.param(
            ("lagrangian",), {"name": "power", "params": {"exponent": 0.5}}, "lagrangian.params.exponent",
            id="exponent-below-one",
        ),
        pytest.param(("grids", "times"), [True, 2.0], "grids.times", id="times-boolean"),
        pytest.param(("base", 0, "point"), [True, 0.0], "base[0].point", id="point-boolean"),
        # coordinates above COORD_MAX = 2^500, whose squares could overflow in the distance kernels
        pytest.param(("base", 1, "point"), [1e200, 1.0], "base[1].point", id="point-above-bound"),
        pytest.param(("base", 0, "point"), [0.0, -(2**501)], "base[0].point", id="point-integer-above-bound"),
        pytest.param(
            ("fibers", "b0"), {"type": "points", "data": [[0.0, 0.0], [1e200, 5e199]]}, "fibers['b0'].data[1]",
            id="fiber-point-above-bound",
        ),
        pytest.param(
            ("fibers", "b1"), {"type": "segments", "data": [[[1.0, 1.0], [-3e200, 1.0]]]}, "fibers['b1'].data[0][1]",
            id="segment-end-above-bound",
        ),
        pytest.param(("section", "b1"), [1.0, 2.0**500 * 1.5], "section['b1']", id="section-above-bound"),
        pytest.param(
            ("reference_triple",), {"x": "b0", "y": "b1", "z": "b0", "stated_constant": "x"},
            "reference_triple.stated_constant", id="stated_constant-string",
        ),
        pytest.param(
            ("reference_triple",), {"x": "b0", "y": "b1", "z": "b0", "stated_constant": None},
            "reference_triple.stated_constant", id="stated_constant-null",
        ),
        # above KAPPA_MAX = 2^20; at 2^70 a fiber of no points had no array shape
        pytest.param(("kappa",), 2**70, "kappa", id="kappa-2^70"),
        pytest.param(("meta", "name"), "../x", "meta.name", id="name-parent-path"),
        pytest.param(("meta", "name"), "..", "meta.name", id="name-dot-dot"),
        pytest.param(("meta", "name"), ".", "meta.name", id="name-dot"),
        pytest.param(("meta", "name"), "", "meta.name", id="name-empty"),
        pytest.param(("meta", "name"), "a\\b", "meta.name", id="name-backslash"),
        pytest.param(("meta", "name"), "a\0b", "meta.name", id="name-nul"),
    ],
)
def test_bad_scenario_field_is_a_format_error(tmp_path, capsys, path, value, field):
    doc = scenario_to_dict(two_point_scenario())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    scenario_file = tmp_path / "bad.json"
    scenario_file.write_text(json.dumps(doc))
    for command in ("validate", "check"):
        assert main(["--out", str(tmp_path / "rep"), command, str(scenario_file)]) == 4, command
        assert f"error: {field}:" in capsys.readouterr().err, command
    assert list(tmp_path.rglob("*")) == [scenario_file]  # nothing written, inside --out or out of it


def test_unexpected_exception_exits_with_the_internal_error_code(two_point_file, monkeypatch, capsys):
    def broken(ns):
        raise KeyError("boom")

    monkeypatch.setattr("fiberflow.cli.cmd_validate", broken)
    assert main(["validate", two_point_file]) == EXIT_INTERNAL == 7
    assert capsys.readouterr().err == "error: internal: KeyError: 'boom'\n"


def _paths(node, prefix=()):
    """Every key and index path into a JSON document, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


DELETE = object()


def _mutate(doc, path, value) -> None:
    """Set the field at `path` to `value`, or delete it when `value` is
    DELETE; a path that an earlier mutation removed is left alone."""
    parent, target = None, doc
    for key in path:
        if not isinstance(target, (dict, list)):
            return
        try:
            parent, target = target, target[key]
        except (KeyError, IndexError, TypeError):
            return
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


PROBE_DOCS = {
    "two-point": scenario_to_dict(two_point_scenario()),
    "tie": scenario_to_dict(tie_scenario()),
    "random-3": scenario_to_dict(random_scenario(3)),
    "random-7": scenario_to_dict(random_scenario(7)),
    # long lists: a bad coordinate deep inside one must be reported at its index
    "two-line-60": scenario_to_dict(LINES["two-line-60"]()),
}
PROBE_PATHS = {name: list(_paths(doc)) for name, doc in PROBE_DOCS.items()}
PROBE_VALUES = [None, True, False, math.nan, 2**70, "x", [1.0, "x"], DELETE]


@st.composite
def mutated_docs(draw):
    name = draw(st.sampled_from(sorted(PROBE_DOCS)))
    doc = copy.deepcopy(PROBE_DOCS[name])
    for path in draw(st.lists(st.sampled_from(PROBE_PATHS[name]), min_size=1, max_size=3)):
        _mutate(doc, path, draw(st.sampled_from(PROBE_VALUES)))
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=mutated_docs())
def test_mutated_scenario_exits_with_a_documented_code(doc):
    # a Python traceback would exit with 1, the code of a failed check; every
    # mutation must run or be refused with a documented code, never raise
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "mutated.json"
        path.write_text(json.dumps(doc))
        assert main(["--out", str(Path(d) / "rep"), "check", str(path)]) in {0, 1, 4, 5, 6}
