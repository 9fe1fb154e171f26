"""The acceptance table and the budget rule run_all applies to it.

The rows' names and budgets are frozen here, so that a refactor of the
suite cannot change what `coherence-forge accept` prints or how long a
criterion may take.  The budget rule is checked on fake rows under a
fake clock, so no criterion runs.
"""

from types import SimpleNamespace

from coherence_forge import acceptance


def test_criteria_names_and_budgets_are_frozen():
    assert [row[:2] for row in acceptance.CRITERIA] == [
        ("optimal purification variance", 10.0),
        ("convex-roof ensemble optimality", 20.0),
        ("measure monotonicity", 60.0),
        ("inequality chain P>=F, F/8<=W<=F/4", None),
        ("near-mixed |P/F-1| scaling", None),
        ("QFI via fidelity curvature", None),
        ("translated-Poisson convergence", 10.0),
        ("rate threshold trend", 30.0),
        ("min-entropy SDP sandwich", 60.0),
        ("bound-resource diagnostic", None),
        ("period and Bezout fixtures", None),
        ("achievability-gap arithmetic", None),
    ]


def test_run_all_fails_a_row_at_or_over_its_budget(monkeypatch):
    # the clock reads start, end for each row in turn
    clock = iter([0.0, 12.34, 5.0, 15.0, 0.0, 9.9, 0.0, 1e6, 0.0, 0.5])
    monkeypatch.setattr(acceptance, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("over", 10.0, lambda: (True, "fine")),
        ("at", 10.0, lambda: (True, "fine")),
        ("under", 10.0, lambda: (True, "fine")),
        ("unbounded", None, lambda: (True, "fine")),
        ("failed", None, lambda: (False, "bad")),
    ))
    results = acceptance.run_all()
    assert [(r.index, r.name, r.passed, r.detail, r.seconds)
            for r in results] == [
        (1, "over", False, "fine; runtime 12.3s over budget 10.0s", 12.34),
        (2, "at", False, "fine; runtime 10.0s over budget 10.0s", 10.0),
        (3, "under", True, "fine", 9.9),
        (4, "unbounded", True, "fine", 1e6),
        (5, "failed", False, "bad", 0.5),
    ]
    assert next(clock, None) is None
