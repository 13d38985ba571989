"""Every config object checks its fields once, when it is built, and names a bad one."""

import math
from dataclasses import fields, replace

import pytest

from fiberqed.fiber_mode import ModeFunctionParams, SimplifiedFit, make_mode_params
from fiberqed.linear_response import ProbeSettings
from fiberqed.params import PhysicalConfig
from fiberqed.saturation import SaturationConfig

#: a valid instance of each config type
VALID = {
    PhysicalConfig: PhysicalConfig(),
    SaturationConfig: SaturationConfig(),
    ModeFunctionParams: make_mode_params(),
    SimplifiedFit: SimplifiedFit(qprime=2.8e6, A_mf=0.15, max_rel_error=0.2, params=make_mode_params()),
    ProbeSettings: ProbeSettings(),
}
CASES = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type == "float"]


def test_every_type_has_float_fields_and_no_validate_method():
    for cls in VALID:
        assert any(c is cls for c, _ in CASES)
        assert not hasattr(cls, "validate")


@pytest.mark.parametrize("cls, name", CASES, ids=[f"{c.__name__}.{n}" for c, n in CASES])
def test_nan_field_is_rejected_by_name_when_built(cls, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        replace(VALID[cls], **{name: math.nan})
