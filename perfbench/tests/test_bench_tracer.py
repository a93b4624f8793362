"""Self-time arithmetic of the tracer on a synthetic span tree."""

import pytest

import tracer


def _spans():
    # name, start, end, parent
    return [
        ["cli.main", 0.0, 10.0, -1],
        ["selberg.explicit_formula_scan", 1.0, 6.0, 0],
        ["zeta.log_deriv_band", 1.5, 2.5, 1],
        ["arith.lambda_segments", 3.0, 3.5, 1],
        ["arith.lambda_segments", 4.0, 4.5, 1],
        ["nufft.NufftSum.add", 3.5, 4.0, 1],
        ["lab.sample_line", 7.0, 9.0, 0],
        ["zeta.log_deriv_band", 7.0, 8.5, 6],
    ]


def test_self_time_is_duration_minus_children():
    assert tracer.self_times(_spans()) == pytest.approx(
        [10.0 - 5.0 - 2.0, 5.0 - 1.0 - 0.5 - 0.5 - 0.5, 1.0, 0.5, 0.5, 0.5, 0.5, 1.5])


def test_overlapping_children_are_counted_once():
    spans = [["a", 0.0, 4.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_sum_self_time_per_name():
    layers = tracer.layer_metrics(_spans(), {"zeta.hardy_z.calls": 12,
                                             "zeta.find_zero_ordinates.zeros": 4})
    assert layers["zeta.log_deriv_band.self_s"] == pytest.approx(2.5)
    assert layers["arith.lambda_segments.self_s"] == pytest.approx(1.0)
    assert layers["cli.main.self_s"] == pytest.approx(3.0)
    assert layers["zeta.hardy_z.calls_per_zero"] == 3.0
    assert layers["torus.chf_product.calls"] == 0


def test_covered_share_counts_root_spans_only():
    spans = [["a", 1.0, 3.0, -1], ["b", 2.0, 4.0, 0], ["c", 5.0, 6.0, -1]]
    assert tracer.covered_share(spans, 0.0, 10.0) == pytest.approx(0.3)


def test_generator_spans_cover_each_next():
    tr = tracer.Tracer("t")

    def gen():
        yield 1
        yield 2

    wrapped = tr.wrap("g", gen)
    assert list(wrapped()) == [1, 2]
    assert [s[0] for s in tr.spans] == ["g", "g", "g"]  # two items and the stop
