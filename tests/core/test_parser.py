"""The blueprint language parser, including the paper's verbatim listing."""

import pytest

from repro.core.expressions import And, Compare, Literal, VarRef
from repro.core.lang.ast import (
    AssignAction,
    ExecAction,
    NotifyAction,
    PostAction,
)
from repro.core.lang.parser import parse_blueprint
from repro.core.lang.tokens import BlueprintSyntaxError
from repro.flows.edtc import EDTC_BLUEPRINT_VERBATIM
from repro.metadb.links import Direction
from repro.metadb.versions import InheritMode


class TestBlueprintShell:
    def test_named_blueprint(self):
        ast = parse_blueprint("blueprint p view a endview endblueprint")
        assert ast.name == "p"
        assert ast.view_names() == ["a"]

    def test_anonymous_view_list(self):
        ast = parse_blueprint("view a endview view b endview")
        assert ast.name == "anonymous"
        assert ast.view_names() == ["a", "b"]

    def test_empty_blueprint(self):
        ast = parse_blueprint("blueprint empty endblueprint")
        assert ast.views == []

    def test_missing_endblueprint_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            parse_blueprint("blueprint p view a endview")

    def test_duplicate_views_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            parse_blueprint("view a endview view a endview")

    def test_trailing_junk_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            parse_blueprint("view a endview stray")

    def test_implicit_endview_before_next_view(self):
        """The paper's listing omits an endview; parser tolerates it."""
        ast = parse_blueprint("view a property p default x view b endview")
        assert ast.view_names() == ["a", "b"]
        assert ast.view("a").properties[0].name == "p"

    def test_default_view(self):
        ast = parse_blueprint("view default endview")
        assert ast.views[0].is_default


class TestPropertyDecl:
    def test_plain(self):
        ast = parse_blueprint("view v property sim_result default bad endview")
        prop = ast.view("v").properties[0]
        assert prop.name == "sim_result"
        assert prop.default == "bad"
        assert prop.inherit is InheritMode.NONE

    def test_copy_figure2(self):
        ast = parse_blueprint("view GDSII property DRC default bad copy endview")
        prop = ast.view("GDSII").properties[0]
        assert prop.inherit is InheritMode.COPY

    def test_move(self):
        ast = parse_blueprint("view v property p default x move endview")
        assert ast.view("v").properties[0].inherit is InheritMode.MOVE

    def test_boolean_default_coerced(self):
        ast = parse_blueprint("view v property uptodate default true endview")
        assert ast.view("v").properties[0].default is True

    def test_quoted_default(self):
        ast = parse_blueprint('view v property msg default "not yet" endview')
        assert ast.view("v").properties[0].default == "not yet"

    def test_missing_default_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            parse_blueprint("view v property p endview")


class TestLetDecl:
    def test_state_expression(self):
        ast = parse_blueprint(
            "view v let state = ($a == good) and ($b == true) endview"
        )
        let = ast.view("v").lets[0]
        assert let.name == "state"
        assert isinstance(let.value, And)

    def test_simple_varref(self):
        ast = parse_blueprint("view v let mirror = $arg endview")
        assert isinstance(ast.view("v").lets[0].value, VarRef)

    def test_expression_stops_at_next_declaration(self):
        ast = parse_blueprint(
            "view v let s = ($a == 1) property p default x endview"
        )
        view = ast.view("v")
        assert len(view.lets) == 1
        assert len(view.properties) == 1

    def test_true_false_are_booleans_in_any_case(self):
        ast = parse_blueprint("view v let s = ($a == TRUE) or ($b == false) endview")
        assert ast.view("v").lets[0].value.items == (
            Compare("==", VarRef("a"), Literal(True)),
            Compare("==", VarRef("b"), Literal(False)),
        )

    def test_keyword_is_a_literal_where_an_atom_is_expected(self):
        ast = parse_blueprint("view v when e do s = done done endview")
        assert ast.view("v").rules[0].actions[0].value == Literal("done")

    @pytest.mark.parametrize(
        "source",
        [
            "view v when touch do rev = 1.2.3 done endview",
            "view v property rev default 1.2.3 endview",
        ],
    )
    def test_malformed_number_is_a_syntax_error(self, source):
        with pytest.raises(BlueprintSyntaxError, match="malformed number"):
            parse_blueprint(source)


class TestLinkDecls:
    def test_move_after_view_name(self):
        ast = parse_blueprint(
            "view sch link_from synth_lib move propagates outofdate "
            "type depend_on endview"
        )
        link = ast.view("sch").links[0]
        assert link.from_view == "synth_lib"
        assert link.move is True
        assert link.link_type == "depend_on"
        assert link.propagates == ("outofdate",)

    def test_trailing_move_figure3(self):
        ast = parse_blueprint(
            "view GDSII link_from NetList propagates OutOfDate "
            "type derive_from MOVE endview"
        )
        link = ast.view("GDSII").links[0]
        assert link.move is True
        assert link.link_type == "derive_from"

    def test_event_list(self):
        ast = parse_blueprint(
            "view n link_from sch propagates nl_sim, outofdate type derived endview"
        )
        assert ast.view("n").links[0].propagates == ("nl_sim", "outofdate")

    def test_no_type(self):
        ast = parse_blueprint("view n link_from sch propagates e endview")
        assert ast.view("n").links[0].link_type is None

    def test_use_link(self):
        ast = parse_blueprint("view sch use_link move propagates outofdate endview")
        use = ast.view("sch").use_links[0]
        assert use.move is True
        assert use.propagates == ("outofdate",)

    def test_use_link_without_move(self):
        ast = parse_blueprint("view sch use_link propagates outofdate endview")
        assert ast.view("sch").use_links[0].move is False


class TestWhenRules:
    def test_assign_action(self):
        ast = parse_blueprint("view v when hdl_sim do sim_result = $arg done endview")
        rule = ast.view("v").rules[0]
        assert rule.event == "hdl_sim"
        action = rule.actions[0]
        assert isinstance(action, AssignAction)
        assert action.name == "sim_result"

    def test_multiple_actions_with_semicolon(self):
        ast = parse_blueprint(
            "view v when ckin do uptodate = true; post outofdate down done endview"
        )
        actions = ast.view("v").rules[0].actions
        assert isinstance(actions[0], AssignAction)
        assert isinstance(actions[1], PostAction)

    def test_trailing_semicolon_tolerated(self):
        ast = parse_blueprint("view v when e do x = 1; done endview")
        assert len(ast.view("v").rules[0].actions) == 1

    def test_post_plain(self):
        ast = parse_blueprint("view v when ckin do post outofdate down done endview")
        action = ast.view("v").rules[0].actions[0]
        assert action.event == "outofdate"
        assert action.direction is Direction.DOWN
        assert action.to_view is None
        assert action.arg is None

    def test_post_to_view_paper_example1(self):
        ast = parse_blueprint(
            "view v when checkin do post behavioral_sim_ok down to "
            "VerilogNetList done endview"
        )
        action = ast.view("v").rules[0].actions[0]
        assert action.to_view == "VerilogNetList"

    def test_post_with_arg(self):
        ast = parse_blueprint(
            'view v when ckin do post lvs down "$lvs_res" done endview'
        )
        action = ast.view("v").rules[0].actions[0]
        assert action.arg == "$lvs_res"

    def test_exec_paper_example(self):
        ast = parse_blueprint(
            'view v when ckin do exec netlister "$oid" done endview'
        )
        action = ast.view("v").rules[0].actions[0]
        assert isinstance(action, ExecAction)
        assert action.script == "netlister"
        assert action.args == ("$oid",)

    def test_exec_script_with_suffix(self):
        ast = parse_blueprint(
            'view v when ckin do exec netlister.sh "$OID" done endview'
        )
        assert ast.view("v").rules[0].actions[0].script == "netlister.sh"

    def test_exec_bare_varref_arg(self):
        ast = parse_blueprint("view v when e do exec tool $oid extra done endview")
        assert ast.view("v").rules[0].actions[0].args == ("$oid", "extra")

    def test_exec_boolean_args(self):
        ast = parse_blueprint("view v when e do exec tool true FALSE done endview")
        assert ast.view("v").rules[0].actions[0].args == ("true", "FALSE")

    def test_notify_paper_example(self):
        ast = parse_blueprint(
            'view v when checkin do notify "$owner: Your oid $OID has been '
            'modified" done endview'
        )
        action = ast.view("v").rules[0].actions[0]
        assert isinstance(action, NotifyAction)
        assert "has been" in action.message

    def test_assignment_of_interpolated_string(self):
        ast = parse_blueprint(
            'view v when ckin do lvs_res = "$oid changed by $user" done endview'
        )
        action = ast.view("v").rules[0].actions[0]
        assert isinstance(action.value, Literal)
        assert action.value.quoted

    def test_missing_done_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            parse_blueprint("view v when e do x = 1 endview")


class TestVerbatimPaperListing:
    def test_parses(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        assert ast.name == "EDTC_example"
        assert ast.view_names() == [
            "default", "HDL_model", "synth_lib", "schematic", "netlist", "layout",
        ]

    def test_default_view_rules(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        default = ast.view("default")
        assert {rule.event for rule in default.rules} == {"ckin", "outofdate"}

    def test_schematic_state_expression(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        schematic = ast.view("schematic")
        state = schematic.lets[0]
        assert state.name == "state"
        assert state.value.variables() == {"nl_sim_res", "lvs_res", "uptodate"}

    def test_schematic_links(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        schematic = ast.view("schematic")
        sources = {link.from_view: link for link in schematic.links}
        assert set(sources) == {"HDL_model", "synth_lib"}
        assert sources["synth_lib"].move is True
        assert sources["synth_lib"].link_type == "depend_on"
        assert len(schematic.use_links) == 1

    def test_netlist_event_list(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        netlist = ast.view("netlist")
        assert netlist.links[0].propagates == ("nl_sim", "outofdate")

    def test_layout_rules(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        layout = ast.view("layout")
        events = {rule.event for rule in layout.rules}
        assert events == {"drc", "lvs", "ckin"}

    def test_schematic_exec_rule(self):
        ast = parse_blueprint(EDTC_BLUEPRINT_VERBATIM)
        schematic = ast.view("schematic")
        execs = [
            action
            for rule in schematic.rules
            for action in rule.actions
            if isinstance(action, ExecAction)
        ]
        assert len(execs) == 1
        assert execs[0].script == "netlister"
