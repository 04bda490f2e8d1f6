import hashlib

import pytest

import bruteforce as bf
from nrpbench import (ParseError, builtin_spec, generate, read_instance,
                      read_instance_file, write_instance, write_instance_file)

TOY_TEXT = """\
1
4
5 3 4 2
2
1 2
3 4
3
10 1 2
8 1 3
6 1 4
"""


def test_write_golden(toy):
    assert write_instance(toy) == TOY_TEXT


def test_read_golden(toy):
    assert read_instance(TOY_TEXT) == toy


def test_roundtrip_random_instances():
    for seed in range(1, 31):
        inst = bf.random_small_instance(seed)
        assert read_instance(write_instance(inst)) == inst


def test_roundtrip_generated():
    inst = generate(builtin_spec("NRP-2"), 7)
    again = read_instance(write_instance(inst))
    assert again == inst
    assert again.level_sizes == (20, 40, 80, 160, 320)


# sha256 of write_instance(generate(builtin_spec(family), 1)), recorded
# before Instance held arrays only
GENERATED_SHA256 = {
    "NRP-1": "864eb824355967d2eb97b55f856b6e2f4585b7eb14266502caf36f014668fb43",
    "NRP-2": "f62bef8e952780143ef314f19251616636d1602970ee53690571d93704c65135",
    "NRP-3": "738b19e2922d9bbc7283180d19d071c45d7b23663f363aabd8fc4543db025ad3",
    "NRP-4": "ed771d20d97118a44e884e3d8ac2c87a6fc670ae458384def6bde94d18ad4e9b",
    "NRP-5": "b67552ab1562b9c5715a16cf00799069d6dd94452084668b8157ec4d166e7aaf",
}


@pytest.mark.parametrize("family", sorted(GENERATED_SHA256))
def test_generated_files_are_pinned(family):
    inst = generate(builtin_spec(family), 1)
    text = write_instance(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SHA256[family]
    again = read_instance(text)
    assert again == inst
    assert write_instance(again) == text


def test_roundtrip_through_files(toy, tmp_path):
    path = tmp_path / "toy.txt"
    write_instance_file(toy, path)
    assert path.read_text() == TOY_TEXT
    assert read_instance_file(path) == toy


def test_truncated_input_reports_position():
    with pytest.raises(ParseError) as exc:
        read_instance("1\n4\n5 3 4 2\n2\n1 2\n")
    assert "line 6" in str(exc.value)
    assert "end of input" in str(exc.value)


def test_non_integer_token():
    with pytest.raises(ParseError) as exc:
        read_instance("1\n4\n5 x 4 2\n0\n0\n")
    assert exc.value.line == 3


def test_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        read_instance(TOY_TEXT + "999\n")
    assert "trailing garbage" in str(exc.value)
    with pytest.raises(ParseError):
        read_instance(TOY_TEXT.rstrip("\n") + " 7\n")


def test_negative_counts_rejected():
    with pytest.raises(ParseError):
        read_instance("-1\n")
    with pytest.raises(ParseError):
        read_instance("1\n-4\n")
    with pytest.raises(ParseError):
        read_instance("1\n1\n5\n-2\n")


def test_customer_with_no_requests_roundtrips():
    text = "1\n2\n3 4\n0\n1\n9 0\n"
    inst = read_instance(text)
    assert inst.customers[0].requests == ()
    assert write_instance(inst) == text


def test_blank_lines_between_sections_ok(toy):
    assert read_instance(TOY_TEXT.replace("3 4\n3\n", "3 4\n\n3\n")) == toy
