"""Spec file parsing: ring expressions, groups, graded/filter/graph files."""

import pytest

from gradedprime import finring as fr
from gradedprime import specio
from gradedprime.errors import SpecError
from gradedprime.groups import Z


class TestRingExpressions:
    def test_nested_constructors(self):
        ring = specio.parse_ring_spec("product(gf(2), zmod(4))")
        assert ring.order == 8

    def test_whitespace_and_comments_are_ignored(self):
        ring = specio.parse_ring_spec("""
            # a field
            mat( gf(2) ,
                 2 )    # two by two
        """)
        assert ring.order == 16

    def test_tables_with_nested_rows(self):
        ring = specio.parse_ring_spec(
            "tables{order=2; add=[[0,1],[1,0]]; mul=[[0,0],[0,1]]}"
        )
        assert ring.unit == 1

    def test_tables_with_flat_rows(self):
        ring = specio.parse_ring_spec("tables{order=2; add=[0,1,1,0]; mul=[0,0,0,1]}")
        assert ring.unit == 1

    def test_subring_selection(self):
        ring = specio.parse_ring_spec("subring(zmod(8), [0, 2, 4, 6])")
        assert ring.unit is None

    def test_group_algebra_over_a_symmetric_group(self):
        ring = specio.parse_ring_spec("grpalg(gf(2), sym(3))")
        assert ring.order == 64

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_ring_spec("gf(2) gf(3)")

    def test_out_of_range_table_entry_rejected(self):
        with pytest.raises(SpecError, match="element indices"):
            specio.parse_ring_spec("tables{order=2; add=[[0,1],[1,99999]]; mul=[[0,0],[0,0]]}")

    def test_unknown_constructor_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_ring_spec("field(2)")

    def test_unknown_character_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_ring_spec("gf(2) @")

    def test_group_algebra_needs_a_finite_group(self):
        with pytest.raises(SpecError):
            specio.parse_ring_spec("grpalg(gf(2), Z)")


class TestGroupExpressions:
    def test_integers(self):
        assert specio.parse_group_spec("Z") is Z

    def test_cyclic(self):
        g = specio.parse_group_spec("cyclic(5)")
        assert g.order == 5 and g.inverse(2) == 3

    def test_symmetric(self):
        g = specio.parse_group_spec("sym(3)")
        assert g.order == 6

    def test_tables(self):
        g = specio.parse_group_spec("tables{order=2; op=[[0,1],[1,0]]}")
        assert g.identity == 0 and g.inverse(1) == 1

    def test_bad_tables_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_group_spec("tables{order=2; op=[[0,0],[0,0]]}")

    def test_order_must_be_an_integer(self):
        with pytest.raises(SpecError, match="order"):
            specio.parse_group_spec("tables{order=[1]; op=[[0]]}")


class TestGradedFiles:
    def test_negative_degrees(self):
        graded = specio.parse_graded_file("""
            ring: mat(gf(2), 2)
            group: Z
            component -1: [0, 2]
            component 0: [0, 1, 8, 9]
            component 1: [0, 4]
        """)
        assert graded.support == (-1, 0, 1)

    def test_component_indices_accept_bare_lists(self):
        graded = specio.parse_graded_file("""
            ring: gf(2)
            group: Z
            component 0: 0 1
        """)
        assert graded.e_mask == 3

    def test_duplicate_component_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_graded_file("""
                ring: gf(2)
                group: Z
                component 0: [0, 1]
                component 0: [0]
            """)

    def test_missing_group_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_graded_file("ring: gf(2)\ncomponent 0: [0, 1]")

    def test_invalid_grading_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_graded_file("""
                ring: gf(4)
                group: cyclic(2)
                component 0: [0, 1]
                component 1: [0, 2]
            """)


class TestFilterFiles:
    def test_finite_assignment_by_generators(self):
        filt = specio.parse_filter_file("""
            ring: product(gf(2), gf(2))
            group: cyclic(3)
            I 1 = [2]
            I 2 = [2]
        """)
        assert filt.ideal_at(1) == filt.ideal_at(2)
        assert filt.ideal_at(0) == filt.ring.full_mask

    def test_identity_line_may_be_omitted_but_not_shrunk(self):
        with pytest.raises(SpecError):
            specio.parse_filter_file("""
                ring: gf(2)
                group: cyclic(2)
                I 0 = [0]
                I 1 = [1]
            """)

    def test_missing_assignment_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_filter_file("""
                ring: gf(2)
                group: cyclic(3)
                I 1 = [1]
            """)

    def test_subgroup_pattern_with_off_ideal(self):
        filt = specio.parse_filter_file("""
            ring: tri(gf(2), 2)
            group: Z
            pattern subgroup 2 [4]
        """)
        assert filt.ideal_at(2) == filt.ring.full_mask
        assert filt.ideal_at(1) == fr.generate_ideal(filt.ring, [4]).members

    def test_constant_pattern_with_override(self):
        filt = specio.parse_filter_file("""
            ring: zmod(4)
            group: Z
            pattern constant [2]
            override 3 = [0]
        """)
        assert filt.ideal_at(3) == filt.ring.zero_mask
        assert filt.ideal_at(5) == fr.generate_ideal(filt.ring, [2]).members

    def test_patterns_on_finite_groups_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_filter_file("""
                ring: gf(2)
                group: cyclic(2)
                pattern subgroup 2
            """)

    def test_assignments_on_integer_filters_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_filter_file("""
                ring: gf(2)
                group: Z
                pattern subgroup 1
                I 1 = [1]
            """)


class TestRepeatedLines:
    @pytest.mark.parametrize(
        "parse,text",
        [
            (specio.parse_graded_file, "ring: gf(3)\nring: gf(2)\ngroup: Z\ncomponent 0: [0, 1]"),
            (specio.parse_graded_file, "ring: gf(2)\ngroup: Z\ngroup: Z\ncomponent 0: [0, 1]"),
            (specio.parse_filter_file, "ring: gf(2)\nring: gf(2)\ngroup: cyclic(2)\nI 1 = [1]"),
            (specio.parse_filter_file, "ring: gf(2)\ngroup: cyclic(2)\nI 1 = [1]\nI 1 = [0]"),
            (specio.parse_filter_file, "ring: gf(2)\ngroup: Z\npattern subgroup 1\npattern constant"),
            (
                specio.parse_filter_file,
                "ring: gf(2)\ngroup: Z\npattern subgroup 1\noverride 1 = [0]\noverride 1 = [1]",
            ),
        ],
        ids=["ring", "group", "filter_ring", "I", "pattern", "override"],
    )
    def test_repeated_line_rejected(self, parse, text):
        with pytest.raises(SpecError, match="given twice"):
            parse(text)


class TestGraphFiles:
    def test_roundtrip(self):
        g = specio.parse_graph_file("""
            vertex v
            vertex w
            edge e: v -> w   # forward
            edge f: w -> v
        """)
        assert g.vertices == ("v", "w")
        assert g.edges[0].name == "e"

    def test_flexible_spacing(self):
        g = specio.parse_graph_file("vertex v\nedge e:v->v")
        assert g.edges[0].dst == "v"

    def test_malformed_lines_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_graph_file("vertex v\nedge e v v")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_graph_file("vertex v\nedge e: v -> u")
