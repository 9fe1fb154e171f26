"""End-to-end acceptance run: every numbered criterion, one line each.

The suite is computed once per session; each test prints its criterion's
verdict line so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  One criterion (8, the 1.1R half) encodes a guarantee that its
own certificate rules out: above the rate the optimal tv error is below
the 0.1 it demands.  It is asserted as stated and fails honestly rather
than being loosened; a proper replacement needs a converse bound.
"""

import pytest

from coherence_forge import acceptance, convert


@pytest.fixture(scope="session")
def results():
    return acceptance.run_all()


@pytest.mark.parametrize("index", range(1, 13))
def test_criterion(results, index):
    r = results[index - 1]
    assert r.index == index
    print(acceptance.format_result(r))
    assert r.passed, acceptance.format_result(r)


def test_criterion_8_reads_each_clock_once(monkeypatch):
    # |+>'s clock once and each source's once, for the same detail line
    calls = []
    clock = convert.intrinsic_clock

    def counted(psi, H):
        calls.append(len(psi))
        return clock(psi, H)

    monkeypatch.setattr(convert, "intrinsic_clock", counted)
    name, _, check = acceptance.CRITERIA[7]
    assert name == "rate threshold trend"
    assert check()[1] == ("cbit->cbit 0.9R tv=0.0339, 1.1R tv=0.0234; "
                          "u023->cbit 0.9R tv=0.0258, 1.1R tv=0.0236")
    assert calls == [2, 2, 3]


def test_all_twelve_reported(results):
    assert len(results) == 12
    assert [r.index for r in results] == list(range(1, 13))
