"""OID triplet semantics and parsing."""

import pytest

from repro.metadb.errors import InvalidOIDError
from repro.metadb.oid import OID


class TestConstruction:
    def test_triplet_fields(self):
        oid = OID("cpu", "SCHEMA", 4)
        assert oid.block == "cpu"
        assert oid.view == "SCHEMA"
        assert oid.version == 4

    def test_versions_start_at_one(self):
        with pytest.raises(InvalidOIDError):
            OID("cpu", "SCHEMA", 0)

    def test_negative_version_rejected(self):
        with pytest.raises(InvalidOIDError):
            OID("cpu", "SCHEMA", -1)

    def test_bool_version_rejected(self):
        with pytest.raises(InvalidOIDError):
            OID("cpu", "SCHEMA", True)

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidOIDError):
            OID("", "SCHEMA", 1)

    def test_block_with_comma_rejected(self):
        with pytest.raises(InvalidOIDError):
            OID("a,b", "SCHEMA", 1)

    def test_view_with_spaces_rejected(self):
        with pytest.raises(InvalidOIDError):
            OID("cpu", "a view", 1)

    def test_equality_is_value_based(self):
        assert OID("cpu", "SCHEMA", 4) == OID("cpu", "SCHEMA", 4)
        assert OID("cpu", "SCHEMA", 4) != OID("cpu", "SCHEMA", 5)

    def test_hashable(self):
        oids = {OID("a", "v", 1), OID("a", "v", 1), OID("a", "v", 2)}
        assert len(oids) == 2

    def test_ordering_groups_lineages(self):
        scrambled = [
            OID("b", "v", 1),
            OID("a", "v", 2),
            OID("a", "v", 1),
            OID("a", "u", 9),
        ]
        ordered = sorted(scrambled)
        assert ordered == [
            OID("a", "u", 9),
            OID("a", "v", 1),
            OID("a", "v", 2),
            OID("b", "v", 1),
        ]


class TestFormatting:
    def test_wire_format_matches_paper(self):
        assert OID("reg", "verilog", 4).wire() == "reg,verilog,4"

    def test_dotted_format_matches_paper(self):
        assert OID("CPU", "HDL_model", 1).dotted() == "CPU.HDL_model.1"

    def test_str_is_bracketed_dotted(self):
        assert str(OID("CPU", "HDL_model", 1)) == "<CPU.HDL_model.1>"


class TestParsing:
    def test_wire_form(self):
        assert OID.parse("reg,verilog,4") == OID("reg", "verilog", 4)

    def test_wire_form_with_spaces(self):
        assert OID.parse(" reg , verilog , 4 ") == OID("reg", "verilog", 4)

    def test_dotted_form(self):
        assert OID.parse("CPU.HDL_model.1") == OID("CPU", "HDL_model", 1)

    def test_bracketed_form(self):
        assert OID.parse("<CPU.HDL_model.1>") == OID("CPU", "HDL_model", 1)

    def test_names_with_dots_rejected(self):
        """Dots would make the dotted display form ambiguous."""
        with pytest.raises(InvalidOIDError):
            OID("chip.core", "netlist", 3)
        with pytest.raises(InvalidOIDError):
            OID.parse("chip.core.alu.netlist.3")

    def test_round_trip_wire(self):
        oid = OID("alu", "GDSII", 12)
        assert OID.parse(oid.wire()) == oid

    def test_round_trip_dotted(self):
        oid = OID("alu", "GDSII", 12)
        assert OID.parse(oid.dotted()) == oid

    @pytest.mark.parametrize(
        "bad",
        ["", "justoneword", "a,b", "a,b,c,d", "a,b,notanumber", "a.b", 42],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(InvalidOIDError):
            OID.parse(bad)

    #: Spellings on both sides of the one-pass wire match, with what
    #: ``OID.parse`` gave for each before it had that match.
    SPELLINGS = [
        ("a,b,1", ("a", "b", 1)),
        ("cpu,netlist,12", ("cpu", "netlist", 12)),
        ("_a,b-,7", ("_a", "b-", 7)),
        ("a,b,01", ("a", "b", 1)),
        ("a,b,+1", ("a", "b", 1)),
        ("a,b,1_0", ("a", "b", 10)),
        ("a,b,\uff11", ("a", "b", 1)),
        (" a,b,1", ("a", "b", 1)),
        ("a,b,1\n", ("a", "b", 1)),
        ("a, b ,1", ("a", "b", 1)),
        ("<a,b,1>", ("a", "b", 1)),
        ("<a.b.1>", ("a", "b", 1)),
        ("a,b,0", "version must be >= 1 (paper numbers versions from 1): 0"),
        ("a,b,00", "version must be >= 1 (paper numbers versions from 1): 0"),
        ("a,b,-1", "version must be >= 1 (paper numbers versions from 1): -1"),
        ("a,b,1.0", "bad version number '1.0' in 'a,b,1.0'"),
        ("a,b,1e3", "bad version number '1e3' in 'a,b,1e3'"),
        ("a,b,", "bad version number '' in 'a,b,'"),
        ("-a,b,1", "bad block name: '-a'"),
        ("a,,1", "bad view name: ''"),
        ("a b,c,1", "bad block name: 'a b'"),
        ("\u00e9,b,1", "bad block name: '\u00e9'"),
        ("a,b,1,2", "cannot parse OID from 'a,b,1,2'"),
    ]

    @pytest.mark.parametrize("text, expected", SPELLINGS)
    def test_spellings_parse_as_before(self, text, expected):
        if isinstance(expected, tuple):
            oid = OID.parse(text)
            assert (oid.block, oid.view, oid.version) == expected
            assert oid == OID(*expected) and hash(oid) == hash(OID(*expected))
        else:
            with pytest.raises(InvalidOIDError) as caught:
                OID.parse(text)
            assert str(caught.value) == expected

    @pytest.mark.parametrize(
        "make",
        [lambda: OID("a\n", "b", 1), lambda: OID("a", "b\n", 1),
         lambda: OID.parse("a\n.b.1")],
        ids=["block", "view", "parse-dotted"],
    )
    def test_trailing_newline_in_a_name_is_refused(self, make):
        with pytest.raises(InvalidOIDError, match="bad (block|view) name"):
            make()

    def test_wire_parse_is_a_frozen_value(self):
        oid = OID.parse("alu,GDSII,12")
        assert type(oid) is OID
        assert repr(oid) == "OID(block='alu', view='GDSII', version=12)"
        with pytest.raises(AttributeError):
            oid.block = "other"


class TestLineage:
    def test_lineage_pair(self):
        assert OID("cpu", "netlist", 3).lineage == ("cpu", "netlist")

    def test_with_version(self):
        assert OID("cpu", "netlist", 3).with_version(7) == OID("cpu", "netlist", 7)

    def test_successor(self):
        assert OID("cpu", "netlist", 3).successor() == OID("cpu", "netlist", 4)

    def test_same_lineage(self):
        a = OID("cpu", "netlist", 1)
        assert a.is_same_lineage(OID("cpu", "netlist", 9))
        assert not a.is_same_lineage(OID("cpu", "layout", 1))
        assert not a.is_same_lineage(OID("dsp", "netlist", 1))
