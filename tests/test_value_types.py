"""``ModelParams`` and ``Environment``: their one-pass range test against
the per-field checks it replaces, and the frozen-dataclass behaviour their
handwritten ``__init__`` keeps."""

import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfield_gaussian.model import ModelParams
from hopfield_gaussian.states import Environment
from hopfield_gaussian.sweep import run_point
from oracles import environment_check, model_params_check, unchecked

FLOAT_MAX = sys.float_info.max
# the edges of every range test: NaN of either sign, +-inf, +-0.0, the
# smallest subnormal and normal, the largest float, and plain values
SPECIAL = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.min, -sys.float_info.min, FLOAT_MAX, -FLOAT_MAX, 1.0, -1.0, 0.25,
)
# any float, NaN, infinities and subnormals included, with the specials and
# finite non-negative values drawn often enough that whole points pass
FIELD = st.floats() | st.sampled_from(SPECIAL) | st.floats(0.0, FLOAT_MAX)

REFERENCE = {ModelParams: model_params_check, Environment: environment_check}
VALID = {ModelParams: (1.1, 1.0, 0.4, 0.3, 0.1), Environment: (0.3, 0.02, 0.05)}


def outcome(build):
    """('accepted', repr) of what ``build`` returns, or (type, message) of
    what it raises."""
    try:
        return "accepted", repr(build())
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


def reference_outcome(cls, values):
    """The outcome of the per-field checks on an instance holding ``values``."""
    def build():
        obj = unchecked(cls, *values)
        REFERENCE[cls](obj)
        return obj

    return outcome(build)


def assert_as_reference(cls, values):
    assert outcome(lambda: cls(*values)) == reference_outcome(cls, values), values


class TestOnePassValidation:
    """Each type accepts exactly what its per-field checks accept, and refuses
    the rest with their exception and message."""

    @settings(max_examples=1000)
    @given(st.tuples(*[FIELD] * 5))
    def test_model_params_any_floats(self, values):
        assert_as_reference(ModelParams, values)

    @settings(max_examples=1000)
    @given(st.tuples(*[FIELD] * 3))
    def test_environment_any_floats(self, values):
        assert_as_reference(Environment, values)

    @pytest.mark.parametrize("cls", [ModelParams, Environment], ids=lambda c: c.__name__)
    def test_each_edge_in_each_field(self, cls):
        # every special value in each field of a valid point, and in pairs of
        # fields, where the first refusal sets the message
        valid = VALID[cls]
        accepted = 0
        for i in range(len(valid)):
            for x in SPECIAL:
                values = valid[:i] + (x,) + valid[i + 1:]
                assert_as_reference(cls, values)
                accepted += reference_outcome(cls, values)[0] == "accepted"
                for j in range(i + 1, len(valid)):
                    for y in SPECIAL:
                        assert_as_reference(cls, values[:j] + (y,) + values[j + 1:])
        assert accepted > 0

    @pytest.mark.parametrize(
        "value",
        [
            1, 0, -1, True, int(FLOAT_MAX) + 1, Fraction(1, 3), Fraction(-1, 3),
            np.float64("nan"), np.float64(0.5), np.float32(-0.0), "1.0", None, 1j,
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("cls", [ModelParams, Environment], ids=lambda c: c.__name__)
    def test_values_that_are_not_floats(self, cls, value):
        # what is not a number fails the range test and takes the per-field
        # checks, which word it; numbers of other types compare as they did
        valid = VALID[cls]
        for i in range(len(valid)):
            assert_as_reference(cls, valid[:i] + (value,) + valid[i + 1:])

    def test_an_int_past_the_float_range_fails_at_evaluation(self):
        # the one input the range test admits and the per-field checks refused:
        # an int compares with inf exactly, where math.isfinite cannot convert
        # it; the point's evaluation raises the same error
        value = 10**400
        assert reference_outcome(ModelParams, (value, 1.0, 0.0, 0.0, 0.0)) == (
            OverflowError, "int too large to convert to float")
        params = ModelParams(value, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            run_point(params, None, "ground")


@pytest.mark.parametrize(
    "cls, values, text",
    [
        (ModelParams, VALID[ModelParams],
         "ModelParams(omega_a=1.1, omega_b=1.0, lambda1=0.4, lambda2=0.3, diamag=0.1)"),
        (Environment, VALID[Environment],
         "Environment(temperature=0.3, gamma_a=0.02, gamma_b=0.05)"),
    ],
    ids=["ModelParams", "Environment"],
)
class TestValueTypes:
    """What the generated dataclass gave and the handwritten ``__init__``
    keeps."""

    def test_fields(self, cls, values, text):
        names = {
            ModelParams: ["omega_a", "omega_b", "lambda1", "lambda2", "diamag"],
            Environment: ["temperature", "gamma_a", "gamma_b"],
        }[cls]
        defaults = {ModelParams: [dataclasses.MISSING] * 5,
                    Environment: [dataclasses.MISSING, 0.01, 0.01]}[cls]
        fields = dataclasses.fields(cls)
        assert [f.name for f in fields] == names
        assert [f.default for f in fields] == defaults
        assert all(f.type == "float" and f.init for f in fields)
        obj = cls(*values)
        assert dataclasses.astuple(obj) == values
        assert dataclasses.asdict(obj) == dict(zip(names, values))

    def test_replace_one_field(self, cls, values, text):
        obj = cls(*values)
        name = dataclasses.fields(cls)[1].name
        changed = dataclasses.replace(obj, **{name: 0.5})
        assert type(changed) is cls
        assert dataclasses.astuple(changed) == (values[0], 0.5, *values[2:])
        assert obj == cls(*values)  # the original is unchanged
        # a replaced value passes the same checks as a constructed one
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(obj, **{name: math.nan})

    def test_equality_and_hash(self, cls, values, text):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b and a is not b
        assert hash(a) == hash(b) == hash(values)
        other = cls(values[0] * 2, *values[1:])
        assert a != other
        assert a != values  # a tuple of the same fields is not equal
        assert len({a, b, other}) == 2

    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == str(cls(*values)) == text

    def test_frozen(self, cls, values, text):
        obj = cls(*values)
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1.0
        assert obj == cls(*values)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, values, text, protocol):
        obj = cls(*values)
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls
        assert back == obj and hash(back) == hash(obj) and repr(back) == text

    def test_positional_and_keyword_construction(self, cls, values, text):
        names = [f.name for f in dataclasses.fields(cls)]
        keywords = dict(zip(names, values))
        assert cls(*values) == cls(**keywords) == cls(values[0], **dict(list(keywords.items())[1:]))
        with pytest.raises(TypeError):
            cls(*values, 1.0)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[0]: values[0]})
        with pytest.raises(TypeError):
            cls(**keywords, extra=1.0)
        if cls is ModelParams:
            with pytest.raises(TypeError):
                cls(*values[:-1])


def test_environment_defaults():
    assert Environment(0.3) == Environment(0.3, 0.01, 0.01) == Environment(temperature=0.3)
    assert Environment(0.3, gamma_b=0.05) == Environment(0.3, 0.01, 0.05)
    assert Environment(0.3, 0.02) == Environment(0.3, gamma_a=0.02, gamma_b=0.01)
    with pytest.raises(TypeError):
        Environment()
