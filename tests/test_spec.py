"""CampaignSpec: construction-time validation and the versioned codec.

The spec's JSON form is the contract between every producer (CLI,
``run_campaign``, the fleet supervisor) and consumer (fleet worker,
checkpoint identity), so it must round-trip exactly and reject anything
it does not understand: a version-less or version-1 dict included.
"""

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FuzzerError
from repro.fuzz.spec import (
    EXEC_MODES,
    RESUMABLE_FIELDS,
    SANITIZERS,
    SPEC_VERSION,
    SURFACES,
    CampaignSpec,
)


def _optional(strategy):
    return st.none() | strategy


specs = st.builds(
    CampaignSpec,
    firmware=st.text(min_size=1, max_size=20),
    budget=st.integers(1, 10**6),
    seed=st.integers(-(2**31), 2**31),
    seeds=_optional(st.lists(st.integers(0, 99), min_size=1, max_size=4)),
    sanitizers=_optional(
        st.lists(st.sampled_from(SANITIZERS), min_size=1, max_size=3)
    ),
    faults=_optional(st.sampled_from(["alloc:every=25", "irq:drop=0.05"])),
    fault_seed=_optional(st.integers(0, 2**16)),
    crash_budget=_optional(st.integers(0, 100)),
    watchdog_insns=_optional(st.integers(0, 10**7)),
    watchdog_cycles=_optional(
        st.floats(0, 1e9, allow_nan=False) | st.integers(0, 10**9)
    ),
    checkpoint_every=st.integers(0, 5000),
    exec_mode=st.sampled_from(EXEC_MODES),
    surface=st.sampled_from(SURFACES),
)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(specs)
    def test_json_round_trip(self, spec):
        wire = json.loads(json.dumps(spec.to_json()))
        assert CampaignSpec.from_json(wire) == spec

    def test_version_less_spec_rejected(self):
        # the shape specs had before they carried a version
        legacy = CampaignSpec("InfiniTime", budget=1200, seed=1).to_json()
        del legacy["version"]
        with pytest.raises(FuzzerError, match="version None not supported"):
            CampaignSpec.from_json(legacy)

    def test_v1_dict_rejected(self):
        # every v1 `to_json` carried the retired engine knobs
        v1 = CampaignSpec("InfiniTime", budget=300, seed=4).to_json()
        v1.update(version=1, engine="tcg", jit_threshold=None)
        with pytest.raises(FuzzerError, match="version 1 not supported"):
            CampaignSpec.from_json(v1)
        del v1["engine"], v1["jit_threshold"]
        with pytest.raises(FuzzerError, match="version 1 not supported"):
            CampaignSpec.from_json(v1)

    def test_v2_dict_rejected(self):
        # every v2 `to_json` carried the retired seed-schedule knob
        v2 = CampaignSpec("InfiniTime", budget=300, seed=4).to_json()
        v2.update(version=2, seed_schedule="uniform")
        with pytest.raises(FuzzerError, match="version 2 not supported"):
            CampaignSpec.from_json(v2)

    @pytest.mark.parametrize("knobs", [
        {"engine": "jit"},
        {"engine": "bogus"},
        {"jit_threshold": 8},
        {"engine": "tcg", "jit_threshold": 4},
    ])
    @pytest.mark.parametrize("version", [1, None])
    def test_v1_dict_selecting_the_jit_rejected(self, knobs, version):
        data = {"firmware": "InfiniTime", **knobs}
        if version is not None:
            data["version"] = version
        with pytest.raises(FuzzerError, match="version .* not supported"):
            CampaignSpec.from_json(data)

    def test_v2_dict_with_engine_knob_rejected(self):
        data = CampaignSpec("InfiniTime").to_json()
        data["engine"] = "tcg"
        with pytest.raises(FuzzerError, match="unknown spec fields"):
            CampaignSpec.from_json(data)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "1", None])
    def test_non_int_version_rejected(self, version):
        # True == 1 and 1.0 == 1 in Python; neither is version 1
        with pytest.raises(FuzzerError, match="version"):
            CampaignSpec.from_json({"version": version,
                                    "firmware": "InfiniTime"})

    def test_unknown_field_rejected(self):
        with pytest.raises(FuzzerError, match="unknown spec fields"):
            CampaignSpec.from_json({"version": SPEC_VERSION,
                                    "firmware": "InfiniTime", "turbo": 1})

    def test_future_version_rejected(self):
        data = CampaignSpec("InfiniTime").to_json()
        data["version"] = SPEC_VERSION + 1
        with pytest.raises(FuzzerError, match="version"):
            CampaignSpec.from_json(data)


class TestValidation:
    def test_lists_freeze_to_tuples(self):
        spec = CampaignSpec("InfiniTime", seeds=[1, 2], sanitizers=["kasan"])
        assert spec.seeds == (1, 2) and spec.sanitizers == ("kasan",)
        hash(spec)  # deeply immutable, so hashable

    def test_replace_revalidates(self):
        with pytest.raises(FuzzerError):
            replace(CampaignSpec("InfiniTime"), exec_mode="fork")

    def test_identity_leaves_out_resumable_fields(self):
        spec = CampaignSpec("InfiniTime", seed=3, sanitizers=("kasan",))
        identity = spec.identity()
        assert not set(RESUMABLE_FIELDS) & set(identity)
        assert identity["seed"] == 3 and identity["sanitizers"] == ["kasan"]
        changed = replace(spec, budget=9, exec_mode="forkserver")
        assert changed.identity() == identity

    def test_default_identity_is_pinned(self):
        # checkpoints store this dict; it moves only with the spec
        # version (a checkpoint written under another identity is
        # refused at resume)
        assert CampaignSpec("InfiniTime").identity() == {
            "firmware": "InfiniTime", "seed": 0, "seeds": None,
            "sanitizers": None, "faults": None, "fault_seed": None,
            "crash_budget": None, "watchdog_insns": None,
            "watchdog_cycles": None, "checkpoint_every": 0,
            "surface": "syscall",
        }

    def test_fields(self):
        assert len(fields(CampaignSpec)) == 13
        assert RESUMABLE_FIELDS == ("budget", "exec_mode")

    def test_fuzzer_options_leave_unset_knobs_to_the_frontend(self):
        options = CampaignSpec("InfiniTime", seed=2).fuzzer_options()
        assert options == {"seed": 2, "exec_mode": "journal",
                           "surface": "syscall"}
