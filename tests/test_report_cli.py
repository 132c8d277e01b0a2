import contextlib
import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplace import (
    Archive,
    DeviceSpec,
    GridDims,
    Netlist,
    ObjectiveVector,
    Placement,
    RunReport,
    SaConfig,
    Solution,
    evaluate,
    PlacementError,
    netlist_to_dict,
    parse_netlist,
    parse_rendered,
    render_placement,
    report_from_json,
    report_to_json,
    run,
)
from ccplace.cli import build_parser, default_grid_dims, main

from conftest import make_grid, mutated


# -- rendering ----------------------------------------------------------------


def test_render_row():
    assert render_placement(make_grid(["ABBA"])) == "A B B A"


def test_render_empty_cell():
    p = Placement(GridDims(1, 3), ("A", None, "B"))
    assert render_placement(p) == "A   B"
    assert parse_rendered("A   B") == p


def test_render_parse_round_trip(topologies):
    for p in topologies.values():
        text = render_placement(p)
        again = render_placement(parse_rendered(text))
        assert again == text


def test_render_multi_char_names():
    nl_names = ["M1", "M2"]
    p = parse_rendered("A B\nB A", nl_names)
    assert p.at(1, 1) == "M1"
    assert render_placement(p) == "A B\nB A"


def test_parse_rendered_rejects_garbage():
    with pytest.raises(Exception):
        parse_rendered("", ["A"])
    # a character in a separator column is an error, not a dropped cell
    with pytest.raises(PlacementError, match="line 1, column 2"):
        parse_rendered("AB")
    with pytest.raises(PlacementError, match="line 2, column 4"):
        parse_rendered("A B\nB AB")


# -- report round trip ----------------------------------------------------------


def small_report(pair_netlist, pair_dims, wall_clock_s=None):
    cfg = SaConfig(seed=11, iters_per_temp=5, t_min=1.0)
    archive = run(pair_netlist, pair_dims, cfg)
    sols = list(archive)
    return RunReport(
        seed=11,
        config={"iters_per_temp": 5},
        dims=pair_dims,
        netlist=netlist_to_dict(pair_netlist),
        archive=sols,
        selected=0,
        ranges=[(0.0, 1.0)] * 5,
        wall_clock_s=wall_clock_s,
    )


def test_report_round_trip(pair_netlist, pair_dims):
    report = small_report(pair_netlist, pair_dims)
    text = report_to_json(report)
    back = report_from_json(text)
    assert back.archive == report.archive
    assert back.seed == report.seed
    assert back.dims == report.dims
    assert back.ranges == report.ranges
    assert back.wall_clock_s is None
    assert "wall_clock_s" not in text  # timing is written only when set
    assert report_to_json(back) == text


def test_report_timing_opt_in(pair_netlist, pair_dims):
    report = small_report(pair_netlist, pair_dims, wall_clock_s=1.23)
    doc = json.loads(report_to_json(report))
    assert doc["wall_clock_s"] == 1.23


def test_report_writes_cells_as_names(pair_netlist):
    p = Placement(GridDims(2, 4), ("A", "B", None, "A", "B", "A", None, "B"))
    report = RunReport(seed=0, config={}, dims=p.dims, netlist={},
                       archive=[Solution(p, evaluate(p, pair_netlist))], selected=0, ranges=[])
    doc = json.loads(report_to_json(report))
    assert doc["grid"] == {"rows": 2, "cols": 4}
    assert doc["archive"][0].keys() == {"cells", "objectives"}
    assert doc["archive"][0]["cells"] == ["A", "B", None, "A", "B", "A", None, "B"]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_reports(draw):
    # 1..5 on each side, so odd x odd grids with a centre cell are common
    dims = GridDims(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=min(5, dims.cells),
                          unique=True))
    # one unit of each device plus extra units; every member places them all
    extra = draw(st.lists(st.sampled_from(names), max_size=dims.cells - len(names)))
    units = [*names, *extra] + [None] * (dims.cells - len(names) - len(extra))
    cells = st.permutations(units)
    vectors = st.builds(ObjectiveVector, _FINITE, _FINITE, *[st.integers(0, 10**6)] * 3)
    archive = draw(st.lists(st.builds(Solution, cells.map(lambda c: Placement(dims, tuple(c))),
                                      vectors), min_size=1, max_size=4))
    devices = tuple(DeviceSpec(n, 1 + extra.count(n), "G", "S", "D") for n in names)
    return RunReport(
        seed=draw(st.integers(0, 2**32)),
        config={},
        dims=dims,
        netlist=netlist_to_dict(Netlist(devices)),
        archive=archive,
        selected=draw(st.integers(0, len(archive) - 1)),
        ranges=[(0.0, 1.0)] * 5,
        wall_clock_s=draw(st.none() | st.floats(0, 1e6)),
    )


@settings(deadline=None, max_examples=200)
@given(random_reports())
def test_report_round_trip_random(report):
    text = report_to_json(report)
    back = report_from_json(text)
    assert back.archive == report.archive
    assert back.wall_clock_s == report.wall_clock_s
    assert report_to_json(back) == text


def test_netlist_dict_round_trip(pair_netlist):
    assert parse_netlist(json.dumps(netlist_to_dict(pair_netlist))) == pair_netlist


# -- CLI ------------------------------------------------------------------------


NETLIST_DOC = {
    "devices": [
        {"name": "A", "units": 4, "gate": "G", "source": "S", "drain": "D"},
        {"name": "B", "units": 4, "gate": "G", "source": "S", "drain": "D"},
    ],
    "route_nets": [
        {"net": "A", "members": ["A"]},
        {"net": "B", "members": ["B"]},
    ],
    "grid": {"rows": 2, "cols": 4},
}

FAST = ["--tmin", "1.0", "--iters", "5"]


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(NETLIST_DOC))
    return path


def test_cli_place_writes_report(netlist_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["place", str(netlist_file), "--seed", "3", *FAST, "--out", str(out)])
    assert rc == 0
    report = report_from_json(out.read_text())
    assert report.seed == 3
    assert report.dims == GridDims(2, 4)
    assert len(report.archive) >= 1
    printed = capsys.readouterr().out
    assert "selected:" in printed


def test_cli_place_stdout_report(netlist_file, capsys):
    rc = main(["place", str(netlist_file), "--seed", "3", *FAST])
    assert rc == 0
    report = report_from_json(capsys.readouterr().out)
    assert report.seed == 3


def test_cli_place_env_seed(netlist_file, tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("CCPLACE_SEED", "77")
    assert main(["place", str(netlist_file), *FAST, "--out", str(out)]) == 0
    assert report_from_json(out.read_text()).seed == 77


def test_cli_place_flag_overrides_env(netlist_file, tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("CCPLACE_SEED", "77")
    assert main(["place", str(netlist_file), "--seed", "5", *FAST, "--out", str(out)]) == 0
    assert report_from_json(out.read_text()).seed == 5


def test_cli_place_grid_flags(netlist_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["place", str(netlist_file), "--rows", "4", "--cols", "2", *FAST,
                 "--out", str(out)]) == 0
    assert report_from_json(out.read_text()).dims == GridDims(4, 2)


def test_cli_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"devices": []}))
    rc = main(["place", str(bad)])
    assert rc == 1
    assert "no devices" in capsys.readouterr().err


def test_cli_missing_file_exits_one(capsys):
    assert main(["place", "/nonexistent/netlist.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_partial_grid_flags_rejected(netlist_file, capsys):
    assert main(["place", str(netlist_file), "--rows", "2", *FAST]) == 1
    assert "--cols" in capsys.readouterr().err


def test_cli_render_subcommand(netlist_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["place", str(netlist_file), "--seed", "3", *FAST, "--out", str(out)])
    capsys.readouterr()
    assert main(["render", str(out)]) == 0
    grid = capsys.readouterr().out.strip()
    assert len(grid.splitlines()) == 2
    assert main(["render", str(out), "--solution", "0"]) == 0
    assert main(["render", str(out), "--solution", "999"]) == 1


def _placed_report(netlist_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["place", str(netlist_file), "--seed", "3", *FAST, "--out", str(out)]) == 0
    return out, json.loads(out.read_text())


def _render_error(path, capsys):
    capsys.readouterr()
    assert main(["render", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_cli_render_report_without_archive(netlist_file, tmp_path, capsys):
    out, doc = _placed_report(netlist_file, tmp_path)
    del doc["archive"]
    out.write_text(json.dumps(doc))
    assert "archive" in _render_error(out, capsys)


def test_cli_render_report_with_bad_cell(netlist_file, tmp_path, capsys):
    out, doc = _placed_report(netlist_file, tmp_path)
    doc["archive"][0]["cells"][2] = ["A", 1, False]
    out.write_text(json.dumps(doc))
    assert "archive[0].cells[2]" in _render_error(out, capsys)


def test_cli_render_rejects_old_member_format(netlist_file, tmp_path, capsys):
    # a member written as a placement object of [device, index, flip] cells
    out, doc = _placed_report(netlist_file, tmp_path)
    for entry in doc["archive"]:
        cells = entry.pop("cells")
        entry["placement"] = {"rows": 2, "cols": 4,
                              "cells": [c and [c, 0, False] for c in cells]}
    out.write_text(json.dumps(doc))
    assert _render_error(out, capsys).startswith("error: archive[0].cells: missing field")


@pytest.mark.parametrize("command, field", [("place", "devices"), ("render", "archive")])
def test_cli_deeply_nested_json_is_one_error_line(command, field, tmp_path, capsys):
    # the decoder gives up with a RecursionError, not a JSONDecodeError
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text(f'{{"{field}": ' + "[" * depth + "]" * depth + "}")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: invalid JSON: nested too deeply"]


_BAD_REPORTS = [
    (lambda d: d.pop("seed"), "seed"),
    (lambda d: d.update(grid={"rows": 0, "cols": 4}), "grid"),
    (lambda d: d.update(archive={}), "archive"),
    (lambda d: d["archive"][0].pop("objectives"), "archive[0].objectives"),
    (lambda d: d["archive"][0]["objectives"].update(routing_cost="7"),
     "archive[0].objectives.routing_cost"),
    (lambda d: d["archive"][0].update(cells=[]), "archive[0].cells"),
    (lambda d: d.update(objective_ranges=[[0, 1, 2]]), "objective_ranges[0]"),
    (lambda d: d["archive"][0]["cells"].__setitem__(0, ["A", 0, False]), "archive[0].cells[0]"),
    (lambda d: d.update(selected=len(d["archive"])), "selected"),
    (lambda d: d["archive"][0]["objectives"].update(neg_dispersion=float("nan")),
     "archive[0].objectives.neg_dispersion"),
    (lambda d: d.update(objective_ranges=[[0, 1], [0, float("inf")]]), "objective_ranges[1]"),
    (lambda d: d.update(wall_clock_s=float("-inf")), "wall_clock_s"),
    (lambda d: d.update(objective_ranges=[[0, 1]]), "objective_ranges"),
    (lambda d: d["archive"][0]["cells"].__setitem__(0, "Z"), "archive[0].cells[0]: device 'Z'"),
    (lambda d: d["archive"][0].update(cells=["A"] * 8),
     "archive[0].cells: device 'A': 8 units placed, the netlist has 4"),
    (lambda d: d["archive"][0]["objectives"].update(diffusion_breaks=-1),
     "archive[0].objectives.diffusion_breaks"),
    (lambda d: d["netlist"].pop("devices"), "netlist.devices"),
    (lambda d: d["netlist"]["devices"][0].update(units="x"), "netlist.devices[0].units"),
    (lambda d: d["netlist"]["route_nets"][0]["members"].append("Z"),
     "netlist.route_nets[0].members[1]: route net 'A' references unknown device 'Z'"),
]


@pytest.mark.parametrize("edit, field", _BAD_REPORTS, ids=[f for _, f in _BAD_REPORTS])
def test_report_from_json_names_the_field(pair_netlist, pair_dims, edit, field):
    doc = json.loads(report_to_json(small_report(pair_netlist, pair_dims)))
    edit(doc)
    with pytest.raises(ValueError) as info:
        report_from_json(json.dumps(doc))
    assert str(info.value).startswith(field)


@functools.cache
def _written_report():
    nl = parse_netlist(json.dumps(NETLIST_DOC))
    return json.loads(report_to_json(small_report(nl, GridDims(2, 4))))


@given(st.data())
@settings(deadline=None, max_examples=400)
def test_report_reader_raises_only_value_error(data):
    doc = data.draw(mutated(_written_report()))
    with contextlib.suppress(ValueError):
        report_from_json(json.dumps(doc))


def test_report_from_json_rejects_non_json():
    with pytest.raises(ValueError, match="invalid JSON"):
        report_from_json("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):  # past the integer digit limit
        report_from_json('{"seed": 1' + "0" * 5000 + "}")
    with pytest.raises(ValueError, match="top level"):
        report_from_json("[]")


def test_cli_place_weights_flag(netlist_file, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["place", str(netlist_file), "--seed", "3", *FAST,
               "--weights", "1", "0", "0", "0", "0", "--out", str(out)])
    assert rc == 0
    report = report_from_json(out.read_text())
    assert report.config["selection_weights"] == [1.0, 0.0, 0.0, 0.0, 0.0]
    # full weight on dispersion: the selected member maximises it
    best = min(s.objectives.neg_dispersion for s in report.archive)
    assert report.archive[report.selected].objectives.neg_dispersion == best


@pytest.mark.parametrize("flags", [
    ["--tmax", "inf"],
    ["--weights", "nan", "1", "1", "1", "1"],
    ["--weights", "inf", "1", "1", "1", "1"],
], ids=["tmax-inf", "weight-nan", "weight-inf"])
def test_cli_rejects_non_finite_flags(netlist_file, tmp_path, capsys, flags):
    out = tmp_path / "r.json"
    assert main(["place", str(netlist_file), *FAST, *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--rows", "2147483647", "--cols", "2147483647"], "error: out of memory"),
    (["--alpha", "0.99999999", "--tmin", "1e-300"], "error: schedule of 6,953,806,911,200 steps"),
], ids=["grid-too-large", "schedule-over-cap"])
def test_cli_unrunnable_size_is_one_error_line(netlist_file, tmp_path, capsys, flags, message):
    # the grid's cell tuple cannot even be sized, so nothing is allocated
    out = tmp_path / "r.json"
    assert main(["place", str(netlist_file), *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert captured.out == ""
    assert not out.exists()


def test_cli_place_unreachable_bound_exits_one(tmp_path, capsys):
    # two 2-unit devices with disjoint nets: no move from the 2-break start
    # reaches a break-free placement, so the archive under --db-max 0 is empty
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps({"devices": [
        {"name": "A", "units": 2, "gate": "GA", "source": "n1", "drain": "n2"},
        {"name": "B", "units": 2, "gate": "GB", "source": "n3", "drain": "n4"},
    ]}))
    out = tmp_path / "r.json"
    argv = ["place", str(path), "--rows", "2", "--cols", "4", *FAST, "--db-max", "0"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "db_max=0" in lines[0] and "2 breaks" in lines[0]
    assert captured.out == ""
    assert not out.exists()
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_cli_place_odd_total_default_grid(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"devices": [
        {"name": "A", "units": 4, "gate": "G", "source": "S", "drain": "D"},
        {"name": "B", "units": 5, "gate": "G", "source": "S", "drain": "D"},
    ]}))
    out = tmp_path / "r.json"
    assert main(["place", str(path), *FAST, "--out", str(out)]) == 0
    assert report_from_json(out.read_text()).dims == GridDims(3, 3)


def test_cli_schedule_defaults_match_config():
    cfg = SaConfig()
    parser = build_parser()
    for argv in (["place", "net.json"], ["bench"]):
        args = parser.parse_args(argv)
        assert (args.tmax, args.tmin, args.alpha, args.iters) == \
            (cfg.t_max, cfg.t_min, cfg.alpha, cfg.iters_per_temp)


def test_cli_invalid_env_seed(netlist_file, monkeypatch, capsys):
    monkeypatch.setenv("CCPLACE_SEED", "not-a-number")
    assert main(["place", str(netlist_file), *FAST]) == 1
    assert "CCPLACE_SEED" in capsys.readouterr().err


def test_cli_bench_single_case(capsys):
    rc = main(["bench", "--suite", "table1", "--case", "CM:3", "--seed", "1",
               "--tmin", "1.0", "--iters", "5"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "CM:3" in table
    assert "published" in table


def test_cli_bench_unknown_case(capsys):
    assert main(["bench", "--case", "NOPE"]) == 1
    assert "NOPE" in capsys.readouterr().err


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ccplace.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "place" in proc.stdout


def test_default_grid_dims():
    assert default_grid_dims(24) == GridDims(2, 12)
    assert default_grid_dims(18) == GridDims(2, 9)
    assert default_grid_dims(15) == GridDims(3, 5)
    assert default_grid_dims(9) == GridDims(3, 3)
    assert default_grid_dims(40) == GridDims(5, 8)
    assert default_grid_dims(29) == GridDims(1, 29)


# -- report bytes -----------------------------------------------------------------


def _indent_encoded(r):
    """The report as the pure-Python indenting encoder writes it."""
    doc = {
        "seed": r.seed,
        "config": r.config,
        "grid": {"rows": r.dims.rows, "cols": r.dims.cols},
        "netlist": r.netlist,
        "archive": [{"cells": list(s.placement.cells), "objectives": s.objectives._asdict()}
                    for s in r.archive],
        "selected": r.selected,
        "objective_ranges": [[lo, hi] for lo, hi in r.ranges],
    }
    if r.wall_clock_s is not None:
        doc["wall_clock_s"] = r.wall_clock_s
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("units, rows, cols", [([4, 4], 2, 4), ([2, 2, 4], 3, 4), ([3, 2, 4], 3, 3)])
@pytest.mark.parametrize("wall_clock_s", [None, 0.125])
def test_report_bytes_match_indenting_encoder(units, rows, cols, wall_clock_s):
    from ccplace import current_mirror_netlist

    nl, dims = current_mirror_netlist(units), GridDims(rows, cols)
    cfg = SaConfig(seed=3)
    sols = list(run(nl, dims, cfg))
    r = RunReport(seed=3, config={"seed": 3, "weights": [1.0, 3.0]}, dims=dims,
                  netlist=netlist_to_dict(nl), archive=sols, selected=len(sols) - 1,
                  ranges=[(0.0, 1.5)] * 5, wall_clock_s=wall_clock_s)
    if rows * cols > sum(units):
        assert any(c is None for s in sols for c in s.placement.cells)
    assert report_to_json(r) == _indent_encoded(r)
    r.ranges = []
    assert report_to_json(r) == _indent_encoded(r)


_AWKWARD_NAME = st.lists(st.sampled_from(['"', "\\", ", ", "\n", "é", "漢", " ", "M"]),
                         min_size=1, max_size=4).map("".join) | st.text(min_size=1, max_size=4)


@st.composite
def _awkward_reports(draw):
    dims = GridDims(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    names = draw(st.lists(_AWKWARD_NAME, min_size=1, max_size=3, unique=True))
    cells = st.lists(st.sampled_from([*names, None]), min_size=dims.cells, max_size=dims.cells)
    vectors = st.builds(ObjectiveVector, st.floats(), st.floats(), *[st.integers(0, 10**6)] * 3)
    archive = draw(st.lists(st.builds(Solution, cells.map(lambda c: Placement(dims, tuple(c))),
                                      vectors), max_size=3))
    return RunReport(
        seed=draw(st.integers(0, 2**32)),
        config={name: draw(st.integers()) for name in names},
        dims=dims,
        netlist=netlist_to_dict(Netlist(tuple(DeviceSpec(n, 1, "G", "S", "D") for n in names))),
        archive=archive,
        selected=0,
        ranges=draw(st.lists(st.tuples(st.floats(), st.floats()), max_size=5)),
        wall_clock_s=draw(st.none() | st.floats(0, 1e6)),
    )


@settings(deadline=None, max_examples=300)
@given(_awkward_reports())
def test_report_bytes_match_indenting_encoder_on_awkward_names(r):
    assert report_to_json(r) == _indent_encoded(r)
