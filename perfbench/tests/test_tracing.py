import inspect
import sys

import pytest

import tracing
import workloads
import worker


def _package_functions():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "coherence_forge" or name.startswith("coherence_forge."):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    out[(name, attr)] = value
    return out


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, "r0", info]


def test_self_time_arithmetic():
    spans = [
        _span("request", 0.0, 10.0, -1),
        _span("cli.cmd_measures", 1.0, 9.0, 0),
        _span("cli.load_state", 1.0, 2.0, 1),
        _span("linalg.eig_hermitian", 1.2, 1.7, 2, 2),
        _span("measures.purity_of_coherence", 3.0, 8.0, 1),
        _span("measures.support_commutes", 3.5, 5.5, 4),
        _span("linalg.eig_hermitian", 4.0, 5.0, 5, 4),
        _span("linalg.eig_hermitian", 6.0, 7.0, 4, 3),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.calls"] == 2
    assert m["cli.s"] == pytest.approx(8.0)        # load_state nested in cmd
    assert m["cli.self_s"] == pytest.approx(8.0 - 5.0 - 0.5)
    assert m["cli.load_s"] == pytest.approx(1.0)
    assert m["measures.calls"] == 2
    assert m["measures.s"] == pytest.approx(5.0)   # support_commutes nested
    assert m["measures.self_s"] == pytest.approx((5.0 - 2.0 - 1.0) + (2.0 - 1.0))
    assert m["linalg.calls"] == 3
    assert m["linalg.s"] == pytest.approx(2.5)
    assert m["linalg.self_s"] == pytest.approx(2.5)
    assert m["linalg.eig_calls"] == 3
    assert m["linalg.eig_n3_sum"] == 8 + 64 + 27
    assert m["linalg.eig_n_max"] == 4
    assert m["measures.eig_calls"] == 2
    assert m["purification.eig_calls"] == 0
    assert m["distill.gap_margin"] == 1.0


def test_self_times_add_up_to_request_time():
    spans = [
        _span("request", 0.0, 4.0, -1),
        _span("distill.omega_state", 0.5, 1.0, 0),
        _span("distill.conditional_min_entropy", 1.0, 3.0, 0,
              "SolverStallError"),
        _span("convert.best_shift", 3.0, 3.5, 0),
        _span("clockdist.tv_distance", 3.1, 3.2, 3),
        _span("clockdist.tv_distance", 3.6, 3.7, 0),
    ]
    m = tracing.layer_metrics(spans)
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(3.1)       # 4.0 minus request self 0.9
    assert m["distill.stalls"] == 1
    assert m["convert.tv_evals"] == 1
    assert m["clockdist.calls"] == 2


def test_wrappers_are_restored_even_after_an_error():
    import coherence_forge.cli  # noqa: F401  (loads every layer)
    from coherence_forge import linalg, measures

    before = _package_functions()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert measures.eig_hermitian is not before[
                ("coherence_forge.measures", "eig_hermitian")]
            assert linalg.eig_hermitian is measures.eig_hermitian
            raise RuntimeError("boom")
    assert _package_functions() == before


def test_traced_request_records_nested_spans(tmp_path):
    req = workloads.build_rounds("spectral", 3, 1, str(tmp_path))[1][0][0]
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.request(req.id):
            outcome = worker.run_request(req)
    assert not outcome.failed, outcome.reason()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "request"
    assert "cli.cmd_measures" in names and "measures.qfi" in names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))
    assert all(s[4] == req.id for s in tracer.spans)
    m = tracing.layer_metrics(tracer.spans)
    assert m["measures.eig_calls"] >= 1
    assert m["linalg.eig_n_max"] == 2
