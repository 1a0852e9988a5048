"""Device models: MOSFET, varactor, spiral inductor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import (
    AccumulationModeVaractor,
    MosfetGeometry,
    MosfetModel,
    SpiralInductor,
)
from repro.errors import NetlistError
from repro.technology import make_technology


@pytest.fixture(scope="module")
def nmos_model():
    tech = make_technology()
    return MosfetModel(tech.mos_parameters("nmos_rf"),
                       MosfetGeometry(width=200e-6, length=0.18e-6))


@pytest.fixture(scope="module")
def pmos_model():
    tech = make_technology()
    return MosfetModel(tech.mos_parameters("pmos_rf"),
                       MosfetGeometry(width=120e-6, length=0.18e-6))


# -- MOSFET -----------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(NetlistError):
        MosfetGeometry(width=-1.0, length=0.18e-6)
    geometry = MosfetGeometry(width=200e-6, length=0.18e-6)
    assert geometry.drain_area == pytest.approx(200e-6 * 0.6e-6)
    assert geometry.source_area > geometry.drain_area


def test_cutoff_region(nmos_model):
    op = nmos_model.evaluate(vgs=0.0, vds=1.0, vbs=0.0)
    assert op.region == "cutoff"
    assert op.ids == 0.0
    assert op.gm == 0.0
    assert op.gds > 0.0        # gmin keeps the matrix non-singular


def test_saturation_and_triode_regions(nmos_model):
    sat = nmos_model.evaluate(vgs=0.8, vds=1.5, vbs=0.0)
    assert sat.region == "saturation"
    assert sat.ids > 0.0
    triode = nmos_model.evaluate(vgs=1.6, vds=0.05, vbs=0.0)
    assert triode.region == "triode"
    assert triode.gds > sat.gds


def test_current_continuity_at_vdsat(nmos_model):
    """The triode and saturation expressions meet at vds = vdsat."""
    vgs = 1.0
    op = nmos_model.evaluate(vgs, 2.0, 0.0)
    vdsat = (vgs - op.vth) / (1.0 + (vgs - op.vth) / (
        nmos_model.parameters.esat * nmos_model.geometry.length))
    below = nmos_model.evaluate(vgs, vdsat * 0.999, 0.0)
    above = nmos_model.evaluate(vgs, vdsat * 1.001, 0.0)
    assert below.ids == pytest.approx(above.ids, rel=2e-2)


def test_body_effect_raises_threshold(nmos_model):
    nominal = nmos_model.evaluate(0.8, 1.0, 0.0)
    reverse = nmos_model.evaluate(0.8, 1.0, -0.5)
    assert reverse.vth > nominal.vth
    assert reverse.ids < nominal.ids


def test_gmb_fraction_of_gm(nmos_model):
    op = nmos_model.evaluate(1.0, 1.0, 0.0)
    assert 0.1 < op.gmb / op.gm < 0.8


def test_paper_gmb_gds_ranges(nmos_model):
    """The calibrated card reproduces the paper's measured small-signal ranges.

    Paper: gmb = 10-38 mS and gds = 2.8-22 mS for the 4 x 50 um RF NMOS over a
    0.5-1.6 V bias sweep.  The synthetic model is required to stay within a
    factor ~1.5 of those bands at the sweep extremes.
    """
    low = nmos_model.evaluate(0.5, 0.5, 0.0)
    high = nmos_model.evaluate(1.6, 1.6, 0.0)
    assert 6e-3 < low.gmb < 20e-3
    assert 25e-3 < high.gmb < 55e-3
    assert 1.5e-3 < low.gds < 5e-3
    assert 15e-3 < high.gds < 40e-3
    # The back-gate-to-output gain falls with bias (the Figure-3 trend).
    assert low.backgate_gain > high.backgate_gain


def test_paper_junction_capacitances(nmos_model):
    """Cdbj ~ 120 fF and Csbj ~ 200 fF for the paper's 4 x 50 um device."""
    op = nmos_model.evaluate(0.5, 0.0, 0.0)
    assert op.cdb == pytest.approx(120e-15, rel=0.35)
    assert op.csb == pytest.approx(200e-15, rel=0.35)


def test_junction_crossover_is_multi_ghz(nmos_model):
    """The junction-cap path overtakes the back-gate path only above a few GHz."""
    for bias in (0.5, 1.0, 1.6):
        crossover = nmos_model.junction_crossover_frequency(bias, bias)
        assert crossover > 2e9


def test_pmos_polarity(pmos_model):
    op = pmos_model.evaluate(vgs=-1.0, vds=-1.0, vbs=0.0)
    assert op.ids < 0.0
    assert op.region == "saturation"
    off = pmos_model.evaluate(vgs=0.0, vds=-1.0, vbs=0.0)
    assert off.ids == 0.0


def test_drain_source_swap_antisymmetry(nmos_model):
    forward = nmos_model.evaluate(1.0, 0.3, 0.0)
    # Swap drain and source: vgs' = vgd = 0.7, vds' = -0.3, vbs' = -0.3.
    reverse = nmos_model.evaluate(0.7, -0.3, -0.3)
    assert reverse.ids == pytest.approx(-forward.ids, rel=1e-6)


@given(vgs=st.floats(min_value=0.0, max_value=1.8),
       vds=st.floats(min_value=0.0, max_value=1.8),
       vbs=st.floats(min_value=-0.8, max_value=0.3))
@settings(max_examples=60, deadline=None)
def test_mosfet_outputs_finite_and_passive(nmos_model, vgs, vds, vbs):
    op = nmos_model.evaluate(vgs, vds, vbs)
    assert math.isfinite(op.ids)
    assert op.ids >= 0.0
    assert op.gm >= 0.0 and op.gds > 0.0 and op.gmb >= 0.0
    assert op.cgs >= 0.0 and op.cgd >= 0.0 and op.cdb > 0.0 and op.csb > 0.0


@given(vgs=st.floats(min_value=0.4, max_value=1.8),
       vds=st.floats(min_value=0.0, max_value=1.8))
@settings(max_examples=40, deadline=None)
def test_mosfet_current_increases_with_vgs(nmos_model, vgs, vds):
    lower = nmos_model.evaluate(vgs, vds, 0.0)
    higher = nmos_model.evaluate(vgs + 0.1, vds, 0.0)
    assert higher.ids >= lower.ids


_BIAS = st.floats(-2.0, 2.0, allow_nan=False)


def _field_bits(point, index=None):
    """Every field of an operating point (corner ``index`` of a stack) as
    exact bits."""
    bits = {}
    for name, value in point._asdict().items():
        if index is not None:
            value = value[index]
        bits[name] = (str(value) if name == "region"
                      else np.float64(value).tobytes())
    return bits


@given(biases=st.lists(st.tuples(_BIAS, _BIAS, _BIAS), min_size=1,
                       max_size=12))
@settings(max_examples=60, deadline=None)
def test_stacked_evaluation_equals_each_corner_alone(nmos_model, pmos_model,
                                                     biases):
    """A stack of bias corners evaluates, bit for bit, to each corner
    evaluated alone: every region, either polarity, both orientations."""
    # Pinned corners: cutoff, triode, saturation and swapped drain/source.
    biases = biases + [(0.0, 1.0, 0.0), (1.6, 0.05, 0.0), (0.8, 1.5, -0.3),
                       (0.7, -0.3, -0.3)]
    vgs, vds, vbs = (np.array(column) for column in zip(*biases))
    for model, sign in ((nmos_model, 1.0), (pmos_model, -1.0)):
        stacked = model.evaluate(sign * vgs, sign * vds, sign * vbs)
        assert isinstance(stacked.region, np.ndarray)
        for index in range(len(biases)):
            alone = model.evaluate(float(sign * vgs[index]),
                                   float(sign * vds[index]),
                                   float(sign * vbs[index]))
            assert isinstance(alone.gm, float)
            assert _field_bits(stacked, index) == _field_bits(alone)
        if sign > 0:
            regions = set(stacked.region[-4:].tolist())
            assert regions == {"cutoff", "triode", "saturation"}


def _old_junction_sensitivity(model, vgs, vds, vbs, delta=1e-3):
    """The junction sensitivity as two full device evaluations computed it."""
    plus = model.evaluate(vgs, vds, vbs + delta)
    minus = model.evaluate(vgs, vds, vbs - delta)
    return abs((plus.cdb + plus.csb) - (minus.cdb + minus.csb)) / (2.0 * delta)


@given(biases=st.lists(st.tuples(_BIAS, _BIAS, _BIAS), min_size=1,
                       max_size=12))
@settings(max_examples=60, deadline=None)
def test_junction_sensitivity_equals_the_full_evaluation(nmos_model,
                                                         pmos_model, biases):
    """Evaluating only the junction capacitances gives the bits of the full
    device evaluation: every region, swapped drain/source, either
    polarity, on floats and on stacks."""
    from repro.vco.sensitivity import junction_capacitance_sensitivity

    biases = biases + [(0.0, 1.0, 0.0), (1.6, 0.05, 0.0), (0.8, 1.5, -0.3),
                       (0.7, -0.3, -0.3)]
    vgs, vds, vbs = (np.array(column) for column in zip(*biases))
    for model, sign in ((nmos_model, 1.0), (pmos_model, -1.0)):
        bias = (sign * vgs, sign * vds, sign * vbs)
        full = model.evaluate(*bias)
        assert [np.asarray(c).tobytes()
                for c in model.junction_capacitances(*bias)] \
            == [full.cdb.tobytes(), full.csb.tobytes()]
        stacked = junction_capacitance_sensitivity(model, *bias)
        assert stacked.tobytes() \
            == _old_junction_sensitivity(model, *bias).tobytes()
        for index in range(len(biases)):
            alone = [float(value[index]) for value in bias]
            value = junction_capacitance_sensitivity(model, *alone)
            assert isinstance(value, float)
            assert np.float64(value).tobytes() \
                == np.float64(_old_junction_sensitivity(model, *alone)
                              ).tobytes() == stacked[index].tobytes()


def test_stacked_varactor_equals_each_corner_alone():
    varactor = AccumulationModeVaractor(cmin=0.6e-12, cmax=1.8e-12)
    bias = np.linspace(-3.0, 3.0, 37)
    for method in (varactor.capacitance, varactor.dc_dv):
        stacked = method(bias)
        assert [value.tobytes() for value in stacked] == [
            np.float64(method(float(v))).tobytes() for v in bias]


# -- varactor ------------------------------------------------------------------------------


def test_varactor_validation():
    with pytest.raises(NetlistError):
        AccumulationModeVaractor(cmin=-1e-12, cmax=1e-12)
    with pytest.raises(NetlistError):
        AccumulationModeVaractor(cmin=2e-12, cmax=1e-12)
    with pytest.raises(NetlistError):
        AccumulationModeVaractor(cmin=1e-12, cmax=2e-12, slope=0.0)


def test_varactor_limits_and_midpoint():
    varactor = AccumulationModeVaractor(cmin=0.6e-12, cmax=1.8e-12,
                                        v_half=0.4, slope=4.0)
    assert varactor.capacitance(-3.0) == pytest.approx(0.6e-12, rel=1e-3)
    assert varactor.capacitance(3.0) == pytest.approx(1.8e-12, rel=1e-3)
    assert varactor.capacitance(0.4) == pytest.approx(1.2e-12, rel=1e-6)
    assert varactor.tuning_range() == pytest.approx(3.0)


def test_varactor_dcdv_peaks_at_transition():
    varactor = AccumulationModeVaractor(cmin=0.6e-12, cmax=1.8e-12,
                                        v_half=0.4, slope=4.0)
    assert varactor.dc_dv(0.4) > varactor.dc_dv(1.5)
    assert varactor.dc_dv(0.4) > varactor.dc_dv(-0.7)


@given(v=st.floats(min_value=-2.0, max_value=2.0),
       dv=st.floats(min_value=1e-4, max_value=1e-2))
@settings(max_examples=50, deadline=None)
def test_varactor_charge_derivative_is_capacitance(v, dv):
    varactor = AccumulationModeVaractor(cmin=0.6e-12, cmax=1.8e-12,
                                        v_half=0.4, slope=4.0)
    numeric = (varactor.charge(v + dv) - varactor.charge(v - dv)) / (2 * dv)
    assert numeric == pytest.approx(varactor.capacitance(v), rel=1e-2)


@given(v=st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_varactor_capacitance_bounded_and_monotonic(v):
    varactor = AccumulationModeVaractor(cmin=0.6e-12, cmax=1.8e-12)
    c = varactor.capacitance(v)
    assert 0.6e-12 <= c <= 1.8e-12
    assert varactor.capacitance(v + 0.1) >= c


# -- inductor -------------------------------------------------------------------------------


def test_inductor_validation():
    with pytest.raises(NetlistError):
        SpiralInductor(inductance=0.0, series_resistance=1.0)
    with pytest.raises(NetlistError):
        SpiralInductor(inductance=1e-9, series_resistance=-1.0)


def test_inductor_quality_factor_and_loss():
    coil = SpiralInductor(inductance=2e-9, series_resistance=4.0)
    q = coil.quality_factor(3e9)
    assert q == pytest.approx(2 * math.pi * 3e9 * 2e-9 / 4.0)
    r_parallel = coil.parallel_tank_loss(3e9)
    assert r_parallel == pytest.approx(4.0 * (1 + q * q))
    with pytest.raises(NetlistError):
        coil.quality_factor(0.0)


def test_inductor_impedance_and_resonance():
    coil = SpiralInductor(inductance=2e-9, series_resistance=4.0,
                          substrate_capacitance=120e-15)
    z = coil.impedance(1e9)
    assert z.real == pytest.approx(4.0)
    assert z.imag == pytest.approx(2 * math.pi * 1e9 * 2e-9)
    # Self resonance with 60 fF effective capacitance: ~14.5 GHz.
    assert coil.self_resonance_frequency() == pytest.approx(14.5e9, rel=0.05)


def test_ideal_inductor_infinite_q():
    coil = SpiralInductor(inductance=1e-9, series_resistance=0.0)
    assert math.isinf(coil.quality_factor(1e9))
    assert math.isinf(coil.parallel_tank_loss(1e9))
