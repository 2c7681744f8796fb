"""Full-row-rank rule for gain arrays: the Gram-Cholesky screen against the SVD."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfield import (
    LeadField,
    SingularMatrixError,
    builtin_1020_electrodes,
    spherical_grid,
    synth_leadfield,
)
from pcfield.forward import _full_rank_gain
from pcfield.matcore import RANK_TOL


def gain_with_ratio(rows: int, cols: int, ratio: float, seed: int) -> np.ndarray:
    """Random gain whose min(rows, cols) singular values run from 1 down to ``ratio``."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (u * np.geomspace(1.0, ratio, k)) @ v.T


def svd_refusal(gain: np.ndarray) -> str | None:
    """The message the SVD rule refuses ``gain`` with, or None when it accepts it."""
    singular_values = np.linalg.svd(gain, compute_uv=False)
    if singular_values[-1] > RANK_TOL * singular_values[0]:
        return None
    return (
        "gain matrix is not of full row rank "
        f"(singular values span [{singular_values[-1]:.3e}, "
        f"{singular_values[0]:.3e}]); perturb the voxel grid or "
        "electrode layout"
    )


def decision(gain: np.ndarray) -> str | None:
    """The refusal message of ``_full_rank_gain``, or None when it accepts."""
    try:
        _full_rank_gain(gain)
    except SingularMatrixError as error:
        return str(error)
    return None


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestThreeOutcomes:
    def test_screen_accepts_the_default_lead_field_without_an_svd(self, svd_calls):
        leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid())
        assert leadfield.gain.shape == (19, 847)
        assert decision(leadfield.gain) is None
        assert svd_calls == []

    def test_screen_falls_back_and_the_svd_accepts(self, svd_calls):
        gain = gain_with_ratio(19, 847, 1e-7, seed=1)
        assert decision(gain) is None
        assert svd_calls == [(19, 847)]

    def test_svd_refuses_with_the_full_row_rank_message(self, svd_calls):
        gain = gain_with_ratio(19, 847, 1e-12, seed=2)
        expected = svd_refusal(gain)
        svd_calls.clear()
        assert expected is not None and expected.startswith("gain matrix is not of full row rank")
        with pytest.raises(SingularMatrixError) as raised:
            LeadField(gain=gain, electrodes=builtin_1020_electrodes(), voxels=spherical_grid())
        assert str(raised.value) == expected
        assert svd_calls == [(19, 847)]


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("ratio", [1e-3, 1e-12])
    def test_overflowing_or_underflowing_gram_gets_the_svd_decision(self, scale, ratio):
        # K K' overflows at 1e200 and underflows to zero at 1e-200; the
        # screen must neither trust it nor warn about it.
        gain = gain_with_ratio(19, 847, ratio, seed=3) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decision(gain) == svd_refusal(gain)

    @pytest.mark.parametrize("exponent", [-158, -157, -156, -155])
    def test_subnormal_gram_is_not_trusted(self, exponent):
        # K K' is subnormal here, so its rounding is no longer relative to
        # its size; a screen that trusted it accepted some of these gains.
        for seed in range(20):
            gain = gain_with_ratio(3, 10, 1e-12, seed) * 10.0**exponent
            expected = svd_refusal(gain)
            assert expected is not None and decision(gain) == expected


@given(
    shape=st.sampled_from([(5, 3), (19, 847), (128, 2000)]),
    log_ratio=st.floats(min_value=-13.0, max_value=-3.0),
    exponent=st.integers(min_value=-200, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_decision_is_the_svd_rule_under_scaling_and_permutation(shape, log_ratio, exponent, seed):
    rows, cols = shape
    gain = gain_with_ratio(rows, cols, 10.0**log_ratio, seed)
    rng = np.random.default_rng(seed)
    moved = gain[rng.permutation(rows)][:, rng.permutation(cols)] * 10.0**exponent
    assert decision(gain) == svd_refusal(gain)
    assert decision(moved) == svd_refusal(moved)
    # Away from the tolerance, the rule itself cannot tell the copies apart.
    if abs(log_ratio - np.log10(RANK_TOL)) > 0.5:
        assert (decision(moved) is None) == (decision(gain) is None)
