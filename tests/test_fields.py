"""Unit tests for header layouts and IP notation helpers."""

import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.flowspace import (
    FieldSpec,
    FIVE_TUPLE_LAYOUT,
    HeaderLayout,
    Match,
    OPENFLOW_10_LAYOUT,
    Packet,
    Ternary,
    TWO_FIELD_LAYOUT,
    format_ip,
    ip_prefix_to_ternary,
    parse_ip,
    ternary_to_ip_prefix,
)

LAYOUTS = [OPENFLOW_10_LAYOUT, FIVE_TUPLE_LAYOUT, TWO_FIELD_LAYOUT]


class TestLayoutBasics:
    def test_widths(self):
        assert OPENFLOW_10_LAYOUT.width == 48 + 48 + 16 + 32 + 32 + 8 + 16 + 16
        assert FIVE_TUPLE_LAYOUT.width == 104
        assert TWO_FIELD_LAYOUT.width == 16

    def test_field_lookup(self):
        spec = FIVE_TUPLE_LAYOUT.field("nw_src")
        assert spec.width == 32

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            FIVE_TUPLE_LAYOUT.field("nope")

    def test_contains(self):
        assert "nw_dst" in FIVE_TUPLE_LAYOUT
        assert "bogus" not in FIVE_TUPLE_LAYOUT

    def test_first_field_is_most_significant(self):
        # nw_src occupies the top 32 bits of the 104-bit five-tuple.
        assert FIVE_TUPLE_LAYOUT.offset("nw_src") == 104 - 32

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([FieldSpec("a", 4), FieldSpec("a", 4)])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([])

    def test_zero_width_field_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("z", 0)

    def test_equality_and_hash(self):
        clone = HeaderLayout([FieldSpec("f1", 8), FieldSpec("f2", 8)])
        assert clone == TWO_FIELD_LAYOUT
        assert hash(clone) == hash(TWO_FIELD_LAYOUT)

    def test_unpickled_layout_hashes_like_a_fresh_one_in_another_interpreter(self):
        # The layout caches its hash, and field-name hashes differ per
        # interpreter: a sweep worker must not inherit the parent's value.
        spec = [("src", 32), ("dst", 32), ("port", 16)]
        layout = HeaderLayout([FieldSpec(name, width) for name, width in spec])
        payload = pickle.dumps((layout, Match.build(layout, dst=7, port=80)))
        child = textwrap.dedent(f"""
            import pickle, sys
            from repro.flowspace import FieldSpec, HeaderLayout, Match
            layout, match = pickle.loads(sys.stdin.buffer.read())
            fresh = HeaderLayout([FieldSpec(n, w) for n, w in {spec!r}])
            assert hash(layout) == hash(fresh), "stale layout hash"
            assert {{Match.build(fresh, dst=7, port=80): "hit"}}[match] == "hit"
        """)
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", child], input=payload, env=env,
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()


class TestPacking:
    def test_pack_unpack_round_trip(self):
        word = FIVE_TUPLE_LAYOUT.pack_values(nw_src=0x0A000001, tp_dst=80)
        fields = FIVE_TUPLE_LAYOUT.unpack(word)
        assert fields["nw_src"] == 0x0A000001
        assert fields["tp_dst"] == 80
        assert fields["nw_dst"] == 0

    def test_pack_rejects_unknown(self):
        with pytest.raises(KeyError):
            FIVE_TUPLE_LAYOUT.pack_values(bogus=1)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FIVE_TUPLE_LAYOUT.pack_values(nw_proto=256)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["of10", "five_tuple", "two_field"])
    def test_pack_values_contract(self, layout):
        assert layout.pack_values() == 0
        with pytest.raises(KeyError) as unknown:
            layout.pack_values(bogus=1)
        assert unknown.value.args == (f"unknown field 'bogus' (layout has {layout.names()})",)
        for spec in layout.fields:
            top = 2 ** spec.width - 1
            assert layout.pack_values(**{spec.name: 0}) == 0
            assert layout.pack_values(**{spec.name: top}) == top << layout.offset(spec.name)
            for bad in (-1, 2 ** spec.width):
                with pytest.raises(ValueError) as out_of_range:
                    layout.pack_values(**{spec.name: bad})
                assert str(out_of_range.value) == (
                    f"value {bad} out of range for field {spec.name} ({spec.width} bits)"
                )

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["of10", "five_tuple", "two_field"])
    def test_from_fields_packs_like_pack_values(self, layout):
        values = {spec.name: (0x5A5A5A5A5A5A >> index) & (2 ** spec.width - 1)
                  for index, spec in enumerate(layout.fields)}
        packet = Packet.from_fields(layout, flow_id=3, **values)
        expected = Packet(layout, layout.pack_values(**values), 3)
        assert (packet.layout, packet.header_bits, packet.flow_id, packet.size_bytes) == (
            expected.layout, expected.header_bits, expected.flow_id, expected.size_bytes
        )
        assert packet.fields() == {**dict.fromkeys(layout.names(), 0), **values}


class TestPackMatch:
    def test_omitted_fields_are_wildcard(self):
        match = TWO_FIELD_LAYOUT.pack_match(f1=5)
        assert TWO_FIELD_LAYOUT.field_ternary(match, "f2").is_wildcard()
        assert TWO_FIELD_LAYOUT.field_ternary(match, "f1") == Ternary.exact(5, 8)

    def test_string_pattern(self):
        match = TWO_FIELD_LAYOUT.pack_match(f1="1xxxxxxx")
        assert TWO_FIELD_LAYOUT.field_ternary(match, "f1").bit(7) == "1"

    def test_cidr_string(self):
        match = FIVE_TUPLE_LAYOUT.pack_match(nw_src="10.0.0.0/8")
        sub = FIVE_TUPLE_LAYOUT.field_ternary(match, "nw_src")
        assert ternary_to_ip_prefix(sub) == "10.0.0.0/8"

    def test_prefix_tuple(self):
        match = TWO_FIELD_LAYOUT.pack_match(f1=(0b10100000, 3))
        assert str(TWO_FIELD_LAYOUT.field_ternary(match, "f1")) == "101xxxxx"

    def test_ternary_value(self):
        t = Ternary.from_string("0000xxxx")
        match = TWO_FIELD_LAYOUT.pack_match(f2=t)
        assert TWO_FIELD_LAYOUT.field_ternary(match, "f2") == t

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            TWO_FIELD_LAYOUT.pack_match(f1=Ternary.wildcard(4))

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            TWO_FIELD_LAYOUT.pack_match(zz=1)

    def test_describe_match(self):
        match = FIVE_TUPLE_LAYOUT.pack_match(nw_src="10.0.0.0/8", tp_dst=80)
        text = FIVE_TUPLE_LAYOUT.describe_match(match)
        assert "nw_src=10.0.0.0/8" in text
        assert "tp_dst=80" in text

    def test_describe_wildcard(self):
        assert TWO_FIELD_LAYOUT.describe_match(Ternary.wildcard(16)) == "*"


class TestIpHelpers:
    def test_parse_format_round_trip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255"):
            assert format_ip(parse_ip(text)) == text

    def test_parse_rejects_bad(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(1 << 32)

    def test_prefix_round_trip(self):
        for text in ("10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32", "0.0.0.0/0"):
            assert ternary_to_ip_prefix(ip_prefix_to_ternary(text)) == text

    def test_prefix_without_slash_is_host(self):
        assert ternary_to_ip_prefix(ip_prefix_to_ternary("1.2.3.4")) == "1.2.3.4/32"

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            ip_prefix_to_ternary("10.0.0.0/33")

    def test_non_prefix_ternary_rejected(self):
        with pytest.raises(ValueError):
            ternary_to_ip_prefix(Ternary.from_string("x" * 31 + "1"))
