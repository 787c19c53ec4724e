"""Tests for the construction registry (repro.api.registry)."""

import re

import pytest

from repro.api import (
    ConstructionResult,
    ConstructionSpec,
    available_constructions,
    build_construction,
    construction_keys,
    get_construction,
    register_construction,
)
from repro.api.registry import _ALIASES, _REGISTRY, resolve_inputs
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons
from repro.core.raster import FaultRaster
from repro.core.reference import build_minimum_polygons_via_labelling
from repro.distributed.dmfp import build_minimum_polygons_distributed
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(num_faults=40, width=20, model="clustered", seed=5)


class TestLookup:
    def test_all_four_models_resolvable(self):
        for key in ("fb", "fp", "mfp", "dmfp"):
            spec = get_construction(key)
            assert spec.key == key

    def test_cmfp_registered_too(self):
        assert get_construction("cmfp").label == "CMFP"

    def test_lookup_is_case_insensitive(self):
        assert get_construction("MFP") is get_construction("mfp")
        assert get_construction("Fb") is get_construction("fb")

    def test_aliases_resolve(self):
        assert get_construction("faulty-block") is get_construction("fb")
        assert get_construction("distributed") is get_construction("dmfp")
        assert get_construction("minimum_polygons") is get_construction("mfp")

    def test_unknown_key_lists_known_keys(self):
        with pytest.raises(KeyError, match="fb"):
            get_construction("nope")

    def test_available_and_keys(self):
        keys = construction_keys()
        assert ("fb", "fp", "mfp", "cmfp", "dmfp") == keys[:5]
        assert [spec.key for spec in available_constructions()] == list(keys)


class TestUniformBuild:
    def test_build_from_scenario(self, scenario):
        for key in ("fb", "fp", "mfp", "dmfp"):
            result = get_construction(key).build(scenario)
            assert isinstance(result, ConstructionResult)
            assert result.key == key
            assert result.grid.num_faulty == scenario.num_faults
            assert result.num_regions == len(result.regions)

    def test_build_from_faults_and_topology(self, scenario):
        topology = scenario.topology()
        via_scenario = get_construction("fb").build(scenario)
        via_faults = get_construction("fb").build(scenario.faults, topology)
        assert via_scenario.disabled_set() == via_faults.disabled_set()

    def test_results_match_legacy_builders(self, scenario):
        legacy = {
            "fb": build_faulty_blocks,
            "fp": build_sub_minimum_polygons,
            "mfp": build_minimum_polygons,
            "dmfp": build_minimum_polygons_distributed,
        }
        for key, builder in legacy.items():
            new = get_construction(key).build(scenario)
            old = builder(scenario.faults, topology=scenario.topology())
            assert new.disabled_set() == old.grid.disabled_set()
            assert new.rounds == old.rounds
            assert new.mean_region_size == old.mean_region_size

    def test_default_topology_is_paper_mesh(self):
        result = get_construction("fb").build([(1, 1), (2, 2)])
        assert result.grid.topology.width == 100

    def test_via_labelling_matches_hull(self, scenario):
        # Solution A is a named reference, not an option of the mfp key.
        hull = get_construction("mfp").build(scenario)
        labelled = build_minimum_polygons_via_labelling(scenario.faults, scenario.topology())
        assert hull.disabled_set() == labelled.grid.disabled_set()
        assert hull.rounds == labelled.rounds
        with pytest.raises(TypeError):
            get_construction("mfp").build(scenario, via_labelling=True)

    def test_option_overrides_as_keywords(self, scenario):
        # Constructions take no options: a keyword override is refused.
        with pytest.raises(TypeError):
            build_construction("mfp", scenario, rounds=0)

    def test_explicit_options_object(self, scenario):
        with pytest.raises(TypeError):
            get_construction("mfp").build(scenario, options=None)

    def test_wrong_options_type_rejected(self, scenario):
        with pytest.raises(TypeError):
            get_construction("fb").build(scenario, options=object())

    @pytest.mark.parametrize(
        "key, faults, bad",
        [
            # A float used to end in an IndexError, a bool to build (1, 2).
            ("fb", [(1.5, 2)], "(1.5, 2)"),
            ("mfp", [(True, 2), (3, 3)], "(True, 2)"),
            ("dmfp", [(3, 3), ("4", 2)], "('4', 2)"),
        ],
    )
    def test_non_integer_fault_refused(self, key, faults, bad):
        with pytest.raises(ValueError, match=re.escape(f"integers, not {bad}")):
            get_construction(key).build(faults, Mesh2D(10, 10))

    def test_unknown_option_field_rejected(self, scenario):
        with pytest.raises(TypeError):
            get_construction("mfp").build(scenario, bogus=True)

    def test_build_construction_convenience(self, scenario):
        a = build_construction("fp", scenario)
        b = get_construction("fp").build(scenario)
        assert a.disabled_set() == b.disabled_set()

    def test_cmfp_always_computes_rounds(self, scenario):
        cmfp = get_construction("cmfp").build(scenario)
        mfp = get_construction("mfp").build(scenario)
        assert cmfp.rounds == mfp.rounds > 0
        assert cmfp.disabled_set() == mfp.disabled_set()

    def test_metrics_extraction(self, scenario):
        result = get_construction("fb").build(scenario)
        metrics = result.metrics(num_faults=scenario.num_faults)
        assert metrics.model == "FB"
        assert metrics.disabled_nonfaulty == result.num_disabled_nonfaulty
        relabelled = result.metrics(label="CMFP")
        assert relabelled.model == "CMFP"

    def test_resolve_inputs_scenario_topology_override(self, scenario):
        topology = Mesh2D(30, 30)
        raster, resolved = resolve_inputs(scenario, topology)
        assert resolved is topology
        assert isinstance(raster, FaultRaster) and raster.topology is topology
        assert tuple(raster) == tuple(scenario.faults)
        # A raster of the resolved topology passes through as it is.
        assert resolve_inputs(raster) == (raster, topology)
        assert resolve_inputs(raster, Mesh2D(30, 30))[0] is raster
        assert resolve_inputs(raster, Mesh2D(40, 40))[0].topology == Mesh2D(40, 40)


class TestPluggability:
    def test_register_custom_spec(self, scenario):
        spec = ConstructionSpec(
            key="fb-test-custom",
            label="FBX",
            description="test double of fb",
            builder=lambda faults, topology: build_faulty_blocks(faults, topology=topology),
        )
        try:
            register_construction(spec)
            result = get_construction("fb-test-custom").build(scenario)
            assert result.label == "FBX"
            assert (
                result.disabled_set()
                == get_construction("fb").build(scenario).disabled_set()
            )
        finally:
            _REGISTRY.pop("fb-test-custom", None)

    def test_duplicate_key_rejected(self):
        spec = get_construction("fb")
        with pytest.raises(ValueError):
            register_construction(spec)

    def test_duplicate_key_with_replace(self):
        spec = get_construction("fb")
        register_construction(spec, replace=True)
        assert get_construction("fb") is spec

    def test_alias_table_consistent(self):
        for alias, target in _ALIASES.items():
            assert target in _REGISTRY


class TestDeprecatedShims:
    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_name


class TestReplaceSafety:
    """register_construction(replace=True) must not hijack other models."""

    def test_replacement_alias_cannot_shadow_other_primary_key(self):
        spec = ConstructionSpec(
            key="mfp",
            label="MFP",
            description="hijack attempt",
            builder=lambda f, t: None,
            aliases=("fb",),
        )
        original = _REGISTRY["mfp"]
        try:
            with pytest.raises(ValueError, match="collides"):
                register_construction(spec, replace=True)
            assert get_construction("fb").key == "fb"
        finally:
            _REGISTRY["mfp"] = original
            # Restore the built-in aliases dropped before the collision check.
            for alias in original.aliases:
                _ALIASES[alias.replace("_", "-")] = "mfp"

    def test_replacement_alias_cannot_shadow_other_alias(self):
        spec = ConstructionSpec(
            key="fp",
            label="FP",
            description="hijack attempt",
            builder=lambda f, t: None,
            aliases=("distributed",),  # belongs to dmfp
        )
        original = _REGISTRY["fp"]
        try:
            with pytest.raises(ValueError, match="collides"):
                register_construction(spec, replace=True)
            assert get_construction("distributed").key == "dmfp"
        finally:
            _REGISTRY["fp"] = original
            for alias in original.aliases:
                _ALIASES[alias.replace("_", "-")] = "fp"

    def test_cannot_replace_via_alias_key(self):
        spec = ConstructionSpec(
            key="distributed",  # an alias of dmfp, not a primary key
            label="X",
            description="alias takeover attempt",
            builder=lambda f, t: None,
        )
        with pytest.raises(ValueError, match="alias"):
            register_construction(spec, replace=True)

    def test_stale_aliases_of_replaced_spec_are_dropped(self):
        original = _REGISTRY["fp"]
        replacement = ConstructionSpec(
            key="fp",
            label="FP",
            description="no aliases",
            builder=original.builder,
        )
        try:
            register_construction(replacement, replace=True)
            with pytest.raises(KeyError):
                get_construction("sub-minimum")
        finally:
            register_construction(original, replace=True)
        assert get_construction("sub-minimum").key == "fp"

    def test_cmfp_registers_the_mfp_builder(self):
        # CMFP is the MFP build reported under its own label (Figure 11).
        assert get_construction("cmfp").builder is get_construction("mfp").builder
