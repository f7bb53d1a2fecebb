"""Spec file parsing: ring expressions, groups, graded/filter/graph files."""

import re
from unittest import mock

import pytest

from gradedprime import finring as fr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.errors import CapError, SpecError
from gradedprime.groups import Z


class TestRingExpressions:
    def test_nested_constructors(self):
        ring = specio.parse_ring_spec("product(gf(2), zmod(4))")
        assert ring.order == 8

    def test_each_field_and_residue_ring_is_built_once_per_text(self):
        with mock.patch.object(fr, "gf", wraps=fr.gf) as gf:
            ring = specio.parse_ring_spec("product(gf(2), gf(4), gf(2), gf(2))")
            specio.parse_ring_spec("gf(2)")
        assert ring == fr.product(fr.gf(2), fr.gf(4), fr.gf(2), fr.gf(2))
        assert [c.args for c in gf.call_args_list] == [(2,), (4,), (2,)]
        with mock.patch.object(fr, "zmod", wraps=fr.zmod) as zmod:
            assert specio.parse_ring_spec("product(zmod(4), zmod(4))").order == 16
        assert [c.args for c in zmod.call_args_list] == [(4,)]

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


class TestTokensAndLists:
    """Token and list forms and their error texts, the same as before the
    tokenizer returned plain strings."""

    @pytest.mark.parametrize(
        "parse,text,expected",
        [
            (specio.parse_element_list, "[1 2, 3,]", [1, 2, 3]),
            (specio.parse_element_list, "4, -5 6", [4, -5, 6]),
            (specio.parse_element_list, "[]", []),
            (lambda t: specio.parse_ring_spec(t).unit, "tables{order=2 add=[[0,1] [1,0]]; mul=[0 0 0 1];}", 1),
            (lambda t: specio.parse_ring_spec(t).order, "gf(\u0663)", 3),
            (
                lambda t: specio.parse_graded_file(t).support,
                "ring: subring(zmod(4), [0, 2]) # c ,,,\ngroup: Z\ncomponent -1: [0, 1,]\n",
                (-1,),
            ),
        ],
    )
    def test_accepted_forms(self, parse, text, expected):
        assert parse(text) == expected

    @pytest.mark.parametrize(
        "parse,text,error",
        [
            (specio.parse_ring_spec, "gf(2) @", "unexpected character '@'"),
            (specio.parse_ring_spec, "gf(2) - 3 @", "unexpected character '-'"),
            (specio.parse_ring_spec, "gf(2) a-> >", "unexpected character '>'"),
            (specio.parse_ring_spec, "gf(x)", "expected 'int', found 'x'"),
            (specio.parse_ring_spec, "gf 2", "expected '(', found '2'"),
            (specio.parse_ring_spec, "(gf)", "expected 'name', found '('"),
            (specio.parse_ring_spec, "subring(zmod(4), [0, 2", "unexpected end of input"),
            (specio.parse_ring_spec, "tables{order=2; add=[[0,1],[1,0]]; mul=", "unexpected end of input"),
            (specio.parse_element_list, "[1,,2]", "expected 'int', found ','"),
            (specio.parse_element_list, "[1, 2", "unexpected end of input"),
            (specio.parse_element_list, "[[1], 2]", "expected a flat list of element indices"),
            (specio.parse_element_list, "[1] 2", "trailing input after element list"),
            (specio.parse_group_spec, "cyclic(2) ->", "trailing input after group expression"),
            (specio.parse_ring_spec, "gf(2) a->b, -1 x_2 # c ,,,\n)", "trailing input after ring expression"),
        ],
    )
    def test_error_texts(self, parse, text, error):
        with pytest.raises(SpecError) as info:
            parse(text)
        assert str(info.value) == error


    @pytest.mark.parametrize(
        "parse,text,error",
        [
            (
                specio.parse_ring_spec,
                "tables{order=2; add=[[0,1],[1,0]]; mul=[[0,0],[0,1]]; mul=[[0,0],[0,0]]}",
                "tables field mul given twice",
            ),
            (specio.parse_ring_spec, "tables{order=1; order=1; add=[0]; mul=[0]}", "tables field order given twice"),
            (
                specio.parse_ring_spec,
                "tables{order=2; add=[[0,1],[1,0]]; mul=[[0,0],[0,1]]; junk=[5]}",
                "tables need order, add and mul",
            ),
            (specio.parse_ring_spec, "tables{order=1; add=[0]; mul=[0]; op=[0]}", "tables need order, add and mul"),
            (specio.parse_group_spec, "tables{order=1; op=[0]; op=[0]}", "tables field op given twice"),
            (specio.parse_group_spec, "tables{order=1; op=[0]; add=[0]}", "group tables need order and op"),
        ],
    )
    def test_a_tables_field_is_given_once_and_known(self, parse, text, error):
        with pytest.raises(SpecError, match=f"^{re.escape(error)}$"):
            parse(text)


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

    @pytest.mark.parametrize(
        "text,error",
        [
            ("cyclic(257)", "group order 257 exceeds cap 256"),
            ("sym(6)", "group order 6! exceeds cap 256"),
            ("sym(100000)", "group order 100000! exceeds cap 256"),
            ("tables{order=300; op=[0]}", "group order 300 exceeds cap 256"),
        ],
    )
    def test_group_order_cap_is_checked_before_building(self, text, error):
        with pytest.raises(CapError, match=re.escape(error)):
            specio.parse_group_spec(text)

    def test_the_default_group_cap_admits_order_256(self):
        assert specio.parse_group_spec("cyclic(256)").order == 256
        assert specio.parse_group_spec("sym(5)").order == 120

    def test_sym_counts_past_a_partial_factorial_equal_to_the_cap(self):
        caps = fr.Caps(max_group_order=6)
        assert specio.parse_group_spec("sym(3)", caps=caps).order == 6
        with pytest.raises(CapError, match=r"^group order 4! exceeds cap 6$"):
            specio.parse_group_spec("sym(4)", caps=caps)

    def test_the_group_cap_reaches_every_group_expression(self):
        caps = fr.Caps(max_group_order=5)
        assert specio.parse_group_spec("cyclic(5)", caps=caps).order == 5
        with pytest.raises(CapError):
            specio.parse_group_spec("sym(3)", caps=caps)
        with pytest.raises(CapError):
            specio.parse_ring_spec("grpalg(gf(2), cyclic(6))", caps=caps)
        with pytest.raises(CapError):
            specio.parse_graded_file("ring: gf(2)\ngroup: cyclic(6)\ncomponent 0: [0, 1]\n", caps=caps)


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

    @pytest.mark.parametrize("line", ["pattern subgroup 2", "override 3 = [1]"])
    def test_a_pattern_or_an_override_alone_is_refused_on_a_finite_group(self, line):
        """Each one is refused by itself, in a file that assigns every element."""
        with pytest.raises(SpecError, match="^patterns and overrides are for integer filters$"):
            specio.parse_filter_file(f"ring: gf(2)\ngroup: cyclic(2)\nI 1 = [1]\n{line}\n")

    def test_assignments_on_integer_filters_rejected(self):
        with pytest.raises(SpecError):
            specio.parse_filter_file("""
                ring: gf(2)
                group: Z
                pattern subgroup 1
                I 1 = [1]
            """)


class TestKeywords:
    """A line's keyword is its whole first token, and whitespace around
    its separators is free."""

    @pytest.mark.parametrize(
        "parse,text",
        [
            (specio.parse_filter_file, "ring: gf(2)\ngroup: Z\npatterns subgroup 1"),
            (specio.parse_graded_file, "ring: gf(2)\ngroup: Z\ncomponent0: [0, 1]"),
            (specio.parse_filter_file, "ring: gf(2)\ngroup: Z\npattern: subgroup 1"),
            (specio.parse_filter_file, "ring: gf(2)\ngroup: Z\npattern subgroup 1\noverride1 = [0]"),
        ],
        ids=["patterns", "component0", "pattern_colon", "override1"],
    )
    def test_a_keyword_with_characters_glued_on_is_refused(self, parse, text):
        with pytest.raises(SpecError):
            parse(text)

    def test_whitespace_before_the_colon_is_read(self):
        graded = specio.parse_graded_file("ring : gf(2)\ngroup :Z\ncomponent 0 : [0, 1]")
        assert graded.ring == fr.gf(2) and graded.group is Z and graded.e_mask == 3

    def test_separators_need_no_whitespace(self):
        filt = specio.parse_filter_file("ring:gf(2)\ngroup:Z\npattern constant[]\noverride-1=[1]")
        assert filt.zrule.n == 0 and filt.table == ((-1, 3),)  # the mask of the whole ring

    def test_a_constant_pattern_is_the_rule_of_n_0(self):
        ring = fr.tri(fr.gf(2), 2)
        parsed = specio.parse_filter_file("ring: tri(gf(2), 2)\ngroup: Z\npattern constant [4]\n")
        built = gfl.GFilter(ring, Z, {}, gfl.ZRule(0, fr.generate_ideal(ring, [4]).members))
        assert parsed == built and hash(parsed) == hash(built)

    def test_a_nested_generator_list_is_refused(self):
        with pytest.raises(SpecError, match="^expected a flat list of element indices$"):
            specio.parse_filter_file("ring: tri(gf(2), 2)\ngroup: Z\npattern subgroup 2 [[4]]")


class TestLongIntegers:
    """An integer literal over Python's digit limit for int() is a spec
    error that gives its length, wherever it stands."""

    NINES = "9" * 4301

    @pytest.mark.parametrize(
        "parse,text",
        [
            (specio.parse_ring_spec, f"gf({NINES})"),
            (specio.parse_ring_spec, f"subring(zmod(4), [0, -{NINES}])"),
            (specio.parse_ring_spec, f"tables{{order=1; add=[[{NINES}]]; mul=[[0]]}}"),
            (specio.parse_element_list, f"1 {NINES}"),
            (specio.parse_graded_file, f"ring: gf(2)\ngroup: Z\ncomponent {NINES}: [0, 1]"),
        ],
        ids=["ring_argument", "subring_list", "tables_list", "bare_list", "degree"],
    )
    def test_refused_by_its_length(self, parse, text):
        with pytest.raises(SpecError, match="^an integer of 4301 digits is too long$"):
            parse(text)

    def test_the_limit_itself_is_read(self):
        assert specio.parse_element_list("9" * 4300) == [int("9" * 4300)]


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
            (specio.parse_graph_file, "vertex v\nvertex w\nvertex v"),
        ],
        ids=["ring", "group", "filter_ring", "I", "pattern", "override", "vertex"],
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


class TestVertexCap:
    def vertices(self, n: int) -> str:
        return "".join(f"vertex v{k}  # a comment\n" for k in range(n))

    def test_a_graph_is_refused_at_its_first_vertex_over_the_cap(self):
        """The lines after the 257th vertex are never read: no cursor is
        built for them, and each line read is stripped of its comment once."""
        text = self.vertices(2 * specio.MAX_VERTICES)
        with mock.patch.object(specio, "_Tokens", wraps=specio._Tokens) as cursors, \
                mock.patch.object(specio, "_strip_comments", wraps=specio._strip_comments) as strips:
            with pytest.raises(CapError, match="^graph of 257 vertices exceeds cap 256$"):
                specio.parse_graph_file(text)
        assert cursors.call_count == strips.call_count == specio.MAX_VERTICES + 1

    def test_a_name_given_twice_before_the_cap_is_its_own_error(self):
        text = self.vertices(100) + "vertex v7\n" + self.vertices(400)
        with pytest.raises(SpecError, match="^vertex v7 given twice$"):
            specio.parse_graph_file(text)

    def test_a_name_given_again_counts_once(self):
        # a repeated name is refused before it could reach the cap
        text = self.vertices(specio.MAX_VERTICES) + "vertex v0\nvertex extra\n"
        with pytest.raises(SpecError, match="^vertex v0 given twice$"):
            specio.parse_graph_file(text)

    def test_a_graph_at_the_cap_is_read(self):
        graph = specio.parse_graph_file(self.vertices(specio.MAX_VERTICES))
        assert len(graph.vertices) == specio.MAX_VERTICES
