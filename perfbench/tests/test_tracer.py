"""The tracer is transparent, accounts for its wall time and leaves nothing behind."""

import importlib
import time

import numpy as np
import pytest

import calibrate
import tracer
import workloads
from semihilbert import bounds, core, generators

MODULES = [importlib.import_module(f"semihilbert.{name}") for name in tracer.LAYERS] + [np.linalg, tracer._LINALG_IMPL]


def snapshot():
    return [dict(vars(m)) for m in MODULES]


def assert_restored(before):
    for module, saved in zip(MODULES, before):
        now = vars(module)
        changed = [k for k in saved if now.get(k) is not saved[k]]
        assert changed == [], f"{module.__name__} still has {changed}"


@pytest.fixture(scope="module")
def bm():
    spec = generators.GenSpec(n=3, d=3, rank=2, seed=11)
    return generators.gen_block_matrix(spec, workloads.CAMPAIGN_TOL)


def test_no_wrapper_left_behind(bm):
    before = snapshot()
    with tracer.Tracer() as t:
        assert np.linalg.eigvalsh is not before[-2]["eigvalsh"]
        assert tracer._LINALG_IMPL.svd is not before[-1]["svd"]
        bounds.evaluate_all(bm, workloads.CAMPAIGN_TOL)
    assert t.spans
    assert_restored(before)


def test_no_wrapper_left_behind_after_an_error():
    before = snapshot()
    with pytest.raises(ValueError):
        with tracer.Tracer() as t:
            generators.gen_psd(3, 5, 0)  # rank above n
    assert t.errors["generators"] == 1
    assert_restored(before)


def test_traced_results_are_unchanged(bm):
    plain = bounds.evaluate_all(bm, workloads.CAMPAIGN_TOL)
    with tracer.Tracer():
        traced = bounds.evaluate_all(bm, workloads.CAMPAIGN_TOL)
    assert traced.omega == plain.omega
    assert traced.bounds == plain.bounds


def test_self_times_account_for_wall_time(bm):
    setup = tracer.Tracer()  # nothing generated under trace
    with tracer.Tracer() as loop:
        start = time.perf_counter()
        for _ in range(3):
            bounds.evaluate_all(bm, workloads.CAMPAIGN_TOL)
        wall = time.perf_counter() - start
    m = tracer.layer_metrics(loop, setup, ops=3, wall=wall)
    layer_total = sum(m[f"self.{layer}_ms"] for layer in tracer.ALL_LAYERS)
    assert layer_total + m["trace.unspanned_ms"] == pytest.approx(1e3 * wall / 3)
    assert m["trace.self_share"] > 0.9
    # the flattened radius and the diagonal radii each make a primary and a
    # validation search; the pair radii and the B3 bound one search each
    assert m["radii.primary_searches_per_op"] == 2
    assert m["radii.validation_searches_per_op"] == 2
    assert m["circle.searches_per_op"] == 6
    assert set(m) | {"trace.overhead_ratio"} == set(tracer.PER_LAYER)


def test_svd_inside_norm_is_linalg_time():
    m = np.random.default_rng(0).standard_normal((5, 5))
    with tracer.Tracer() as t:
        core.spectral_norm(m)
    table = tracer.SpanTable(t)
    assert table.mask(layer="linalg", names=("svd",)).sum() == 1
    assert table.self_time[table.mask(layer="core")].sum() < table.dur[table.mask(layer="core")].sum()


def test_calibration_kernel_is_not_traced():
    kernel = calibrate.Kernel()
    with tracer.Tracer() as t:
        times = kernel()
    assert t.spans == [] and len(times) == calibrate.PASSES
