import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from ccplace import DeviceSpec, Netlist, NetlistError, parse_grid, parse_netlist
from ccplace.cli import main

from conftest import json_values, mutated


def doc(**overrides):
    base = {
        "devices": [
            {"name": "M1", "units": 2, "gate": "G", "source": "S", "drain": "G"},
            {"name": "M2", "units": 4, "gate": "G", "source": "S", "drain": "D1"},
        ],
        "route_nets": [
            {"net": "G", "members": ["M1", "M2"]},
            {"net": "D1", "members": ["M2"]},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_valid():
    nl = parse_netlist(doc())
    assert [d.name for d in nl.devices] == ["M1", "M2"]
    assert nl.total_units == 6
    assert nl.devices[1].drain_net == "D1"
    assert nl.route_nets[0] == ("G", ("M1", "M2"))


def test_parse_cm_benchmark_shape():
    devices = [
        {"name": f"M{i+1}", "units": u, "gate": "G", "source": "S",
         "drain": "G" if i == 0 else f"D{i}"}
        for i, u in enumerate([2, 2, 4, 8, 8])
    ]
    nl = parse_netlist(json.dumps({"devices": devices}))
    assert len(nl.devices) == 5
    assert nl.total_units == 24


def test_empty_devices_rejected():
    with pytest.raises(NetlistError, match="no devices"):
        parse_netlist(json.dumps({"devices": []}))
    with pytest.raises(NetlistError, match="no devices"):
        parse_netlist(json.dumps({}))


def test_unknown_route_member_names_net():
    bad = doc(route_nets=[{"net": "X", "members": ["nope"]}])
    with pytest.raises(NetlistError, match="'X'.*'nope'"):
        parse_netlist(bad)


def test_bad_units_named():
    bad = doc(devices=[{"name": "M1", "units": 0, "gate": "G", "source": "S", "drain": "D"}])
    with pytest.raises(NetlistError, match=r"devices\[0\].units"):
        parse_netlist(bad)


def test_missing_field_named():
    bad = doc(devices=[{"name": "M1", "units": 2, "gate": "G", "source": "S"}])
    with pytest.raises(NetlistError, match="drain"):
        parse_netlist(bad)


def test_duplicate_device_names():
    dup = doc(devices=[
        {"name": "M1", "units": 2, "gate": "G", "source": "S", "drain": "D"},
        {"name": "M1", "units": 2, "gate": "G", "source": "S", "drain": "D"},
    ], route_nets=[])
    with pytest.raises(NetlistError, match="duplicate"):
        parse_netlist(dup)


def test_invalid_json_diagnostic():
    with pytest.raises(NetlistError, match="invalid JSON"):
        parse_netlist("{nope")
    with pytest.raises(NetlistError, match="invalid JSON"):  # past the integer digit limit
        parse_netlist('{"devices": 1' + "0" * 5000 + "}")


def test_parse_grid():
    assert parse_grid(doc()) is None
    assert parse_grid(json.dumps({"devices": [], "grid": {"rows": 2, "cols": 8}})) == (2, 8)
    with pytest.raises(NetlistError, match="grid.rows"):
        parse_grid(json.dumps({"grid": {"rows": 0, "cols": 8}}))


def test_device_spec_validation():
    with pytest.raises(NetlistError):
        DeviceSpec("", 1, "G", "S", "D")
    with pytest.raises(NetlistError):
        DeviceSpec("A", -1, "G", "S", "D")
    with pytest.raises(NetlistError):
        DeviceSpec("A", 1, "G", "", "D")


def test_netlist_ctor_checks_members():
    with pytest.raises(NetlistError):
        Netlist((DeviceSpec("A", 1, "G", "S", "D"),), (("N", ("B",)),))


# -- fuzzing ------------------------------------------------------------------

_NETLIST = {
    "devices": [
        {"name": "M1", "units": 2, "gate": "G", "source": "S", "drain": "G"},
        {"name": "M2", "units": 4, "gate": "G", "source": "S", "drain": "D1"},
        {"name": "M3", "units": 4, "gate": "G", "source": "S", "drain": "D2"},
    ],
    "route_nets": [{"net": "G", "members": ["M1", "M2", "M3"]}, {"net": "D1", "members": ["M2"]}],
    "grid": {"rows": 2, "cols": 5},
}
netlist_documents = json_values | mutated(_NETLIST)


def _rejected(text):
    """Whether the netlist reader refuses ``text``; any error other than
    NetlistError propagates."""
    try:
        parse_netlist(text)
        parse_grid(text)
    except NetlistError:
        return True
    return False


@given(netlist_documents)
@settings(deadline=None, max_examples=400)
def test_netlist_reader_raises_only_netlist_error(doc):
    _rejected(json.dumps(doc))


@given(netlist_documents)
@settings(deadline=None, max_examples=50)
def test_cli_rejects_bad_netlist_in_one_error_line(doc):
    text = json.dumps(doc)
    if not _rejected(text):
        return
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "netlist.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["place", str(path)])
    assert rc == 1
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
