import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberflow.cli import EXIT_INTERNAL, main
from fiberflow.scenario import (
    paper_counterexample,
    random_scenario,
    scenario_to_dict,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
    write_scenario,
)
from conftest import scaled_document
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


def test_evolve_writes_the_times_in_the_order_given(two_point_file, tmp_path):
    out = tmp_path / "rep"
    assert main(["--out", str(out), "evolve", two_point_file, "--times", "2,1,1.5"]) == 0
    rows = _read_csv(out / "two-point_evolution.csv")
    assert [(r["base_id"], r["t"]) for r in rows] == [(b, t) for b in ("b0", "b1") for t in ("2", "1", "1.5")]


@pytest.mark.parametrize("build", [paper_counterexample, two_point_scenario])
def test_check_transform_rows_are_those_of_the_transform_command(tmp_path, build):
    # check tabulates each HJ node at each grid time; the command writes one (y, t) at a time
    scenario = build()
    path = str(write_scenario(scenario, tmp_path / "s.json"))
    assert main(["--out", str(tmp_path / "check"), "check", path]) == 0
    prefix = scenario.report_prefix
    _, *rows = (tmp_path / "check" / f"{prefix}_transform.csv").read_text().splitlines(keepends=True)
    nodes = scenario.base_ids[:: scenario.grids.hj_base_stride]
    expected = []
    for bid in nodes:
        for t in scenario.grids.times:
            out = tmp_path / f"{bid}-{t!r}"
            assert main(["--out", str(out), "transform", path, "--y", bid, "--t", repr(t)]) == 0
            expected += (out / f"{prefix}_transform.csv").read_text().splitlines(keepends=True)[1:]
    assert len(expected) == len(nodes) * len(scenario.grids.times) * scenario.grids.xi_resolution
    assert "".join(rows) == "".join(expected)


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
    rows = ["k,s,w", "0,0,0", "1,0.25,0.176776695297", "2,0.5,0.353553390593", "3,0.75,0.53033008589"]
    rows += ["4,1,0.707106781187", "5,1.25,0.883883476483", "6,1.5,1.06066017178", "7,1.75,1.23743686708"]
    rows += ["8,2,1.41421356237"]
    assert (out / "two-point_variational.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


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


def test_check_fails_the_compatibility_axiom_of_a_negative_penalty(tmp_path):
    # the loader takes any finite scale; at -1, L(E / t) is negative off the diagonal, where sqrt is undefined
    doc = scenario_to_dict(paper_counterexample())
    doc["lagrangian"] = {"name": "power", "params": {"scale": -1}}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path / "rep"), "check", str(path)]) == 1
    written = json.loads((tmp_path / "rep" / f"{doc['meta']['name']}_verdicts.json").read_text())
    verdicts = {v["check"]: v for v in written}
    compatibility = verdicts["axiom_compatibility"]
    assert (compatibility["status"], compatibility["worst_slack"], compatibility["location"]) == ("FAIL", "inf", None)
    for item in ("a_bounds", "c_spatial_estimate", "d_cross_time_estimate"):
        assert verdicts[f"suite_{item}"]["status"] == "SKIPPED", item


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


def test_reference_triple_on_two_points_gets_a_verdict(tmp_path, capsys):
    # the triple reads only D and E, so it needs no third base point; here it is no violation
    doc = scenario_to_dict(two_point_scenario())
    doc["reference_triple"] = {"x": "b0", "y": "b1", "z": "b0"}
    path = tmp_path / "two_point_triple.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path / "rep"), "check", str(path)]) == 1
    assert "FAIL    reference_triple_violation" in capsys.readouterr().out
    verdicts = json.loads((tmp_path / "rep" / f"{doc['meta']['name']}_verdicts.json").read_text())
    (ref,) = [v for v in verdicts if v["check"] == "reference_triple_violation"]
    assert ref["location"] == "x=b0,y=b1,z=b0" and ref["note"].startswith("gap=")
    assert [v["check"] for v in verdicts if v["status"] == "FAIL"] == ["reference_triple_violation"]


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


BAD_TIME = "must be a finite number > 0"
# speeds of order 1e300 overflow the model penalty; numpy printed its warnings and the slacks were NaN
OVERFLOW = "is too small: the penalty overflows at speed"


@pytest.mark.parametrize(
    "args, value, reason",
    [
        pytest.param(["evolve", "--times", "nan"], "nan", BAD_TIME, id="evolve-nan"),
        pytest.param(["evolve", "--times", "0.5,inf"], "inf", BAD_TIME, id="evolve-inf"),
        pytest.param(["evolve", "--times", "-1"], "-1.0", BAD_TIME, id="evolve-negative"),
        pytest.param(["evolve", "--times", "1,1e-300"], "1e-300", OVERFLOW, id="evolve-overflow"),
        # t + h overflowed inside the HJ residuals: "t must be positive and finite, got inf"
        pytest.param(
            ["evolve", "--times", "1.7976931348623157e308"], "1.7976931348623157e+308", BAD_TIME, id="evolve-float-max"
        ),
        pytest.param(["transform", "--y", "b1", "--t", "nan"], "nan", BAD_TIME, id="transform-nan"),
        pytest.param(["transform", "--y", "b1", "--t", "inf"], "inf", BAD_TIME, id="transform-inf"),
        pytest.param(["transform", "--y", "b1", "--t", "1e-300"], "1e-300", OVERFLOW, id="transform-overflow"),
        # above FLOAT_MAX / 2, where check could not evaluate the time: 2t overflows
        pytest.param(["transform", "--y", "b1", "--t", "1e308"], "1e+308", BAD_TIME, id="transform-2t-overflow"),
        pytest.param(["variational", "--y", "b1", "--t", "nan"], "nan", BAD_TIME, id="variational-nan"),
        pytest.param(["variational", "--y", "b1", "--t=-inf"], "-inf", BAD_TIME, id="variational-minus-inf"),
        pytest.param(["variational", "--y", "b1", "--t", "1e-300"], "1e-300", OVERFLOW, id="variational-overflow"),
    ],
)
def test_non_finite_or_nonpositive_time_is_refused(two_point_file, tmp_path, capsys, args, value, reason):
    out = tmp_path / "rep"
    assert main(["--out", str(out), args[0], two_point_file, *args[1:]]) == 6
    err = capsys.readouterr().err
    assert f"error: time {value} {reason}" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "variational"])
def test_unknown_base_id_is_a_refused_precondition(two_point_file, tmp_path, capsys, command):
    out = tmp_path / "rep"
    assert main(["--out", str(out), command, two_point_file, "--y", "nope", "--t", "1.0"]) == 6
    assert "error: unknown base id 'nope'" in capsys.readouterr().err
    assert not out.exists()


TWO_POINT = scenario_to_dict(two_point_scenario())
# the two-point scenario cut to its base point b0, whose ILS is 0
ONE_POINT = {**TWO_POINT, "base": TWO_POINT["base"][:1]}
ONE_POINT["fibers"], ONE_POINT["section"] = {"b0": TWO_POINT["fibers"]["b0"]}, {"b0": TWO_POINT["section"]["b0"]}


@pytest.fixture()
def one_point_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_POINT), encoding="utf-8")
    return str(path)


def test_check_on_one_base_point_writes_no_transform_rows_and_no_warning(one_point_file, tmp_path, capsys):
    # the default xi grid spans [0, ILS] = [0, 0]: the bundle held 101 copies of xi = 0 per grid time
    out = tmp_path / "rep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out", str(out), "check", one_point_file]) == 0
    assert not caught
    assert "Warning" not in capsys.readouterr().err
    lines = (out / "two-point_transform.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("base_id,")


def test_transform_on_one_base_point_is_a_refused_precondition(one_point_file, tmp_path, capsys):
    out = tmp_path / "rep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out", str(out), "transform", one_point_file, "--y", "b0", "--t", "1"]) == 6
    assert not caught
    err = capsys.readouterr().err
    assert "ILS = 0.0" in err and "Warning" not in err
    assert not (out / "two-point_transform.csv").exists()


def _scaled_power(doc: dict, factor: float, exponent: int, times: list[float]) -> dict:
    """`doc` scaled by `factor` (see `scaled_document`), with the power penalty and the grid times given."""
    doc = scaled_document(doc, factor)
    doc["grids"]["times"] = times
    doc["lagrangian"] = {"name": "power", "params": {"exponent": exponent}}
    return doc


PAPER = scenario_to_dict(paper_counterexample())
RANDOM_3 = scenario_to_dict(random_scenario(3))
# the step test: 2t must be finite and the forward-difference step sqrt(eps) t nonzero
STEP = ("must be a finite number > 0",)


def _with_grids(doc: dict, **grids) -> dict:
    return {**doc, "grids": {**doc["grids"], **grids}}


@pytest.mark.parametrize(
    "doc, fields",
    [
        pytest.param(
            {**PAPER, "lagrangian": {"name": "power", "params": {"exponent": 1000}}},
            ("lagrangian", "grids.times", "overflows at speed"),
            id="exponent-1000",
        ),
        pytest.param(
            {**PAPER, "grids": {**PAPER["grids"], "times": [1e-300, 0.02]}},
            ("lagrangian", "grids.times", "overflows at speed"),
            id="time-1e-300",
        ),
        # the HJ grids evaluate the model penalty at their own times
        pytest.param(
            {**PAPER, "grids": {**PAPER["grids"], "hj_times": [1e-300]}},
            ("grids.hj_times", "overflows at speed"),
            id="hj-time-1e-300",
        ),
        # L(D/t) is finite at D.max = sqrt(2), but the compatibility bound reads L at (E + Dmax) / t = 2 sqrt(2)
        pytest.param(
            {**TWO_POINT, "lagrangian": {"name": "power", "params": {"exponent": 1000}}},
            ("lagrangian", "grids.times", "overflows at speed"),
            id="compatibility-bound",
        ),
        # L(D/t) ~ 1e270 is finite, but the branch cost t L(D/t) is not
        pytest.param(
            _scaled_power(TWO_POINT, 1e150, 3, [1e60]),
            ("lagrangian", "grids.times", "overflows at speed"),
            id="branch-cost",
        ),
        # every penalty term is finite, but K * K * (s - t) in suite item i's bound is not: check
        # PASSed the item at an inf bound, and numpy's overflow warning made main() return 7
        pytest.param(
            _scaled_power(PAPER, 1e140, 3, [1e60, 2e60]),
            ("grids.times", "suite item i's bound K^2 (s - t) / (2 t s) leaves the float range"),
            id="time-lipschitz-bound",
        ),
        # and 2 t s underflows to 0, so the bound was 0 / 0
        pytest.param(
            _scaled_power(
                {**PAPER, "grids": {**PAPER["grids"], "tolerances": {"tau_geo": 0.0}}}, 1e-290, 3, [1e-170, 2e-170]
            ),
            ("grids.times", "suite item i's bound K^2 (s - t) / (2 t s) leaves the float range"),
            id="time-lipschitz-underflow",
        ),
        # validate accepted these times, and check refused them or warned
        # t + h overflowed in the HJ residuals: check and evolve exited 6
        pytest.param(
            _with_grids(TWO_POINT, times=[1.7976931348623157e308]), ("grids.times", *STEP), id="time-float-max"
        ),
        # 2t overflowed in the pair scan and in suite item h, with numpy warnings
        pytest.param(_with_grids(TWO_POINT, times=[1e308]), ("grids.times", *STEP), id="time-1e308-two-point"),
        pytest.param(_with_grids(RANDOM_3, times=[1e308]), ("grids.times", *STEP), id="time-1e308-random-3"),
        # the step sqrt(eps) t underflowed to 0: check exited 6 with "need 0 < h < t", and evolve ran the HJ times
        pytest.param(_with_grids(ONE_POINT, times=[5e-324]), ("grids.times", *STEP), id="time-5e-324-one-point"),
        pytest.param(
            _with_grids(ONE_POINT, hj_times=[5e-324]), ("grids.hj_times", *STEP), id="hj-time-5e-324-one-point"
        ),
    ],
)
def test_a_penalty_that_overflows_is_a_validation_error(tmp_path, capsys, doc, fields):
    # the penalty overflowed to inf and inf - inf gave NaN slacks: check FAILed axioms at nan with numpy warnings
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "check", "evolve"):
        assert main(["--out", str(tmp_path / "rep"), command, str(path)]) == 5, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fields[0]}: "), command
        assert all(field in err for field in fields) and "Warning" not in err, command
    assert not (tmp_path / "rep").exists()


def test_suite_item_h_saturates_an_overflowing_bound_without_a_warning(tmp_path, capsys):
    # 2 t ILS overflows at t = 8.9e307 with ILS > 1, and numpy warned; the bound saturates at FLOAT_MAX >= D+
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_with_grids(RANDOM_3, times=[8.9e307])))
    assert main(["--out", str(tmp_path / "rep"), "check", str(path)]) == 0
    assert "Warning" not in capsys.readouterr().err
    verdicts = json.loads((tmp_path / "rep" / "random-3_verdicts.json").read_text())
    (item,) = [v for v in verdicts if v["check"] == "suite_h_speed_bound"]
    assert item["status"] == "PASS" and item["note"] is None
    assert type(item["worst_slack"]) is float and math.isfinite(item["worst_slack"])


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
        # a base id is a column of the report CSVs and an entry of their argmin lists and locations
        pytest.param(("base", 0, "id"), "a,b", "base[0].id", id="id-comma"),
        pytest.param(("base", 0, "id"), "a;b", "base[0].id", id="id-semicolon"),
        pytest.param(("base", 0, "id"), "a=b", "base[0].id", id="id-equals"),
        pytest.param(("base", 0, "id"), 'a"b', "base[0].id", id="id-quote"),
        pytest.param(("base", 0, "id"), "a\nb", "base[0].id", id="id-newline"),
        pytest.param(("base", 0, "id"), "a\tb", "base[0].id", id="id-tab"),
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
    "two-point": TWO_POINT,
    "tie": scenario_to_dict(tie_scenario()),
    "random-3": scenario_to_dict(random_scenario(3)),
    "random-7": scenario_to_dict(random_scenario(7)),
    # long lists: a bad coordinate deep inside one must be reported at its index
    "two-line-60": scenario_to_dict(LINES["two-line-60"]()),
    # a penalty with parameters: a large exponent or a tiny time overflows it
    "two-point-power-4": {
        **TWO_POINT,
        "lagrangian": {"name": "power", "params": {"exponent": 4}},
    },
}
PROBE_PATHS = {name: list(_paths(doc)) for name, doc in PROBE_DOCS.items()}
PROBE_VALUES = [None, True, False, math.nan, 2**70, "x", [1.0, "x"], DELETE, 1e-300, 1000]
# the float range's ends, where 2t overflows or the step sqrt(eps) t underflows to 0
PROBE_VALUES += [1.7976931348623157e308, 1e308, 5e-324]


@st.composite
def mutated_docs(draw):
    name = draw(st.sampled_from(sorted(PROBE_DOCS)))
    doc = copy.deepcopy(PROBE_DOCS[name])
    for path in draw(st.lists(st.sampled_from(PROBE_PATHS[name]), min_size=1, max_size=3)):
        _mutate(doc, path, draw(st.sampled_from(PROBE_VALUES)))
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=mutated_docs())
@example(doc=_with_grids(TWO_POINT, times=[1.7976931348623157e308]))
@example(doc=_with_grids(RANDOM_3, times=[1e308]))
@example(doc=_with_grids(ONE_POINT, hj_times=[5e-324]))
def test_mutated_scenario_exits_with_a_documented_code(doc):
    # a Python traceback would exit with 1, the code of a failed check; every
    # mutation must run or be refused with a documented code, never raise, and
    # a scenario that validate accepts must run: check then exits 0 or 1
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "mutated.json"
        path.write_text(json.dumps(doc))
        valid = main(["validate", str(path)])
        assert valid in {0, 4, 5, 6}
        assert main(["--out", str(Path(d) / "rep"), "check", str(path)]) in ({0, 1} if valid == 0 else {valid})
