"""The CLI keeps the outputs recorded in tests/corpus/corpus.json: bytes on
the recorded numpy, BLAS and machine, numbers to 1e-12 elsewhere (see
_corpus.py, which also regenerates the record)."""

import pytest

import _corpus

CORPUS = _corpus.load()
EXACT = CORPUS["build"] == _corpus.build()


def test_the_record_holds_every_case():
    assert [case["argv"] for case in CORPUS["cases"]] == _corpus.CASES
    assert {case["code"] for case in CORPUS["cases"]} == {0, 1}


@pytest.mark.parametrize("case", CORPUS["cases"],
                         ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CORPUS["cases"])])
def test_case_keeps_its_output(case):
    assert _corpus.compare(_corpus.run_case(case["argv"]), case, EXACT) == []


def _curve_case():
    return next(case for case in CORPUS["cases"]
                if case["argv"][0] == "curve" and case["out"] is not None)


def _with_cell(case, row, col, text):
    lines = case["out"].split("\n")
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    return {**case, "out": "\n".join(lines)}


def test_one_last_digit_in_a_curve_row_is_caught():
    case = _curve_case()
    cell = case["out"].split("\n")[5].split(",")[0]
    last = "1" if cell[-1] != "1" else "2"
    moved = _with_cell(case, 5, 0, cell[:-1] + last)
    assert _corpus.compare(moved, case, exact=True) == ["out: bytes differ"]
    # a last-digit move is far inside numeric mode's 1e-12
    assert _corpus.compare(moved, case, exact=False) == []


def test_numeric_mode_bounds_each_column():
    case = _curve_case()
    header = case["out"].split("\n")[0].split(",")
    row = [float(v) for v in case["out"].split("\n")[5].split(",")]
    mu, residual = header.index("mu"), header.index("residual")
    far = _with_cell(case, 5, mu, repr(row[mu] * (1.0 + 1e-11)))
    assert len(_corpus.compare(far, case, exact=False)) == 1
    # the residual column has an absolute floor of 1e-12
    floored = _with_cell(case, 5, residual, repr(row[residual] + 5e-13))
    assert _corpus.compare(floored, case, exact=False) == []
    beyond = _with_cell(case, 5, residual, repr(row[residual] + 2e-12))
    assert len(_corpus.compare(beyond, case, exact=False)) == 1
