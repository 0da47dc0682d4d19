"""The artifact container that every design-artifact file shares."""

import pytest

from frisim.serialize import read_artifact, write_artifact


def test_write_then_read_round_trips_header_and_records(tmp_path):
    path = tmp_path / "demo.txt"
    write_artifact(path, "demo", {"b": 2, "a": "x=y"}, ["r1 1 2", "note=3"])
    assert path.read_text(encoding="utf-8") == "# frisim demo v1\nb=2\na=x=y\nr1 1 2\nnote=3\n"
    header, records = read_artifact(path, "demo", ("a", "b"))
    assert header == {"a": "x=y", "b": "2"}
    assert records == ["r1 1 2", "note=3"]


def test_read_skips_blank_and_comment_lines_and_strips_whitespace(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text("\n# any tag\n  k = v  \n\n  rec one  \n# k=w\n", encoding="utf-8")
    assert read_artifact(path, "demo", ("k",)) == ({"k": "v"}, ["rec one"])


def test_files_are_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "demo.txt"
    write_artifact(path, "demo", {"name": "µ-Δ"})
    assert path.read_bytes() == "# frisim demo v1\nname=µ-Δ\n".encode("utf-8")
    assert read_artifact(path, "demo", ("name",)) == ({"name": "µ-Δ"}, [])


@pytest.mark.parametrize("text, message", [
    ("k=1\nk = 2\n", "demo file repeats key 'k'"),
    ("j=1\n", "demo file is missing key 'k'"),
])
def test_read_rejects_a_repeated_or_missing_key(tmp_path, text, message):
    path = tmp_path / "demo.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_artifact(path, "demo", ("k",))
