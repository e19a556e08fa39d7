"""The packaged outputs against committed references in ``tests/packaged``.

Each test runs one subcommand in-process on the packaged config and
compares its file with the reference: headers, column and key names,
flags, routes and labels exactly, numbers at a stated tolerance.  ``fig2b``
has no reference file; its trace is held to one drive period.  A
change that moves a packaged output updates its reference file in the
same change.  Bits may differ across numpy and BLAS builds, so numbers
are not compared by hash.
"""

import csv
import json
import math
import re
from pathlib import Path

import pytest

from geomgates import cli

REF = Path(__file__).parent / "packaged"

# Wrapped phases, cone angles, defects, fidelities and matrix entries may
# move by ABS; raw (unwrapped or dynamical) phases, times and ratios by
# REL of their size, and by REL below a size of 1.  Both lie a thousand
# times below the tightest phase bound of ``verify`` (1e-8 rad) and leave
# room for the last digits that another numpy or BLAS build moves.
ABS = 1e-11
REL = 1e-11
RAW = ("tau", "unwrapped", "dynamical", "detuning", "rel_deviation", "target_gamma")

# The README's gate description.
README_GATE = {
    "platform": "nmr",
    "omega0": 7.745966692414834,
    "omega1": 0.8,
    "omega": 1.9364916731037085,
    "j": 1.0,
    "delta": 0,
    "reversal": "negated_reversed",
}


# A number inside a text cell, such as a verify row's detail.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# The text that introduces a computed number in a detail: a target phase,
# a geometric sum, a crossover ratio.  Every other number is an input (a
# drive parameter, a count, a grid end) and is printed from the config.
COMPUTED = ("target ", "geometric sum ", "] = ")


def _check_detail(got, ref):
    """A verify row's detail: the text around its numbers and its input
    numbers exactly, computed numbers within ABS or one unit of their last
    printed digit: rounding can flip that digit by one."""
    assert NUMBER.sub("#", got) == NUMBER.sub("#", ref), f"detail: {got!r} vs {ref!r}"
    for g, m in zip(NUMBER.findall(got), NUMBER.finditer(ref), strict=True):
        r = m.group()
        if not ref[: m.start()].endswith(COMPUTED):
            assert g == r, f"detail: {got!r} vs {ref!r}"
            continue
        mantissa, _, exp = r.lower().partition("e")
        unit = 10.0 ** (int(exp or 0) - len(mantissa.partition(".")[2]))
        # the digits differ by a whole number of units; allow for the
        # rounding of their difference
        assert abs(float(g) - float(r)) <= max(ABS, 1.001 * unit), f"detail: {got!r} vs {ref!r}"


def _check(name, got, ref):
    """``got`` equals ``ref`` exactly, or within the tolerance of ``name``
    where ``ref`` is a number or a table cell holding one."""
    if name == "detail":
        _check_detail(got, ref)
        return
    try:
        r = float(ref)
    except (TypeError, ValueError):  # None, or a name, flag or route
        r = None
    if r is None or isinstance(ref, bool):
        assert got == ref, name
        return
    g = float(got)
    if math.isnan(r):  # a report row's bound
        assert math.isnan(g), name
        return
    bound = REL * max(abs(r), 1.0) if any(k in name for k in RAW) else ABS
    assert abs(g - r) <= bound, f"{name}: {g!r} vs {r!r} differ by more than {bound:g}"


def _csv(path):
    """(header parameters, column names, rows) of a written table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    params = [ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# ")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return params, rows[0], rows[1:]


def _flat(doc, prefix=""):
    """Leaves of a JSON document under their dotted key paths."""
    if isinstance(doc, dict):
        return [kv for k, v in doc.items() for kv in _flat(v, f"{prefix}{k}.")]
    if isinstance(doc, list):
        return [kv for i, v in enumerate(doc) for kv in _flat(v, f"{prefix}{i}.")]
    return [(prefix[:-1], doc)]


def _compare_csv(got, ref):
    got_params, got_names, got_rows = _csv(got)
    ref_params, ref_names, ref_rows = _csv(ref)
    assert [k for k, _ in got_params] == [k for k, _ in ref_params]
    for (key, g), (_, r) in zip(got_params, ref_params):
        _check(key, g, r)
    assert got_names == ref_names
    assert len(got_rows) == len(ref_rows)
    for got_row, ref_row in zip(got_rows, ref_rows):
        for name, g, r in zip(ref_names, got_row, ref_row, strict=True):
            _check(name, g, r)


def _compare_json(got, ref):
    got_leaves = _flat(json.loads(got.read_text(encoding="utf-8")))
    ref_leaves = _flat(json.loads(ref.read_text(encoding="utf-8")))
    assert [k for k, _ in got_leaves] == [k for k, _ in ref_leaves]
    for (key, g), (_, r) in zip(got_leaves, ref_leaves):
        _check(key, g, r)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """One run of each subcommand, on demand, into a shared directory."""
    root = tmp_path_factory.mktemp("packaged")
    done = {}

    def run(*argv):
        if argv not in done:
            done[argv] = cli.main([*argv, "--out", str(root)])
        assert done[argv] == 0
        return root

    return run


@pytest.mark.parametrize("name", ["fig1a", "fig1b"])
def test_fig1_tables_match_their_references(out, name):
    _compare_csv(out(name) / f"{name}.csv", REF / f"{name}.csv")


@pytest.mark.parametrize("name", ["fig2c.csv", "fig2c_inset.csv", "fig2c_crossover.json"])
def test_fig2c_files_match_their_references(out, name):
    compare = _compare_json if name.endswith(".json") else _compare_csv
    compare(out("fig2c") / name, REF / name)


def test_fig2b_trace_spans_one_drive_period(out):
    # fig2b has no reference file: its header's omega tau is one turn, and
    # its last field row, at t = tau, is its first
    params, names, rows = _csv(out("fig2b") / "fig2b.csv")
    params = dict(params)
    assert abs(float(params["omega"]) * float(params["tau"]) - 2.0 * math.pi) <= 1e-12
    first, last = (dict(zip(names, map(float, row), strict=True)) for row in (rows[0], rows[-1]))
    assert last["t"] == float(params["tau"])
    for b in ("Bx", "By", "Bz"):
        assert abs(last[b] - first[b]) <= 1e-12, b


def test_sweep_table_matches_its_reference(out):
    _compare_csv(out("sweep") / "sweep.csv", REF / "sweep.csv")


def test_verify_table_matches_its_reference(out):
    # row names, kinds and PASS flags exactly; measured values and bounds at ABS
    _compare_csv(out("verify") / "verify.csv", REF / "verify.csv")


def test_verify_json_holds_the_verify_table(out):
    # --format json writes the table's parameters and columns, as for
    # every other table
    params, names, rows = _csv(out("verify") / "verify.csv")
    doc = json.loads((out("verify", "--format", "json") / "verify.json").read_text("utf-8"))
    assert doc["params"] == dict(params)
    assert sorted(doc["columns"]) == sorted(names)
    table = dict(zip(names, map(list, zip(*rows, strict=True)), strict=True))
    for name in ("name", "kind", "detail"):
        assert doc["columns"][name] == table[name], name
    assert ["true" if p else "false" for p in doc["columns"]["passed"]] == table["passed"]


def test_readme_gate_report_matches_its_reference(out, tmp_path):
    spec = tmp_path / "gate.json"
    spec.write_text(json.dumps(README_GATE), encoding="utf-8")
    _compare_json(out("gate", str(spec)) / "gate_report.json", REF / "gate_report.json")
