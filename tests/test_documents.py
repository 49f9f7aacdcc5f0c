import pytest

from adlrec.documents import read_csv

HEADER = ("a", "b")


class Refused(Exception):
    pass


def test_read_csv_gives_each_row_its_last_line():
    # the quoted field spans lines 2 and 3, and line 4 is blank
    text = ' a , b\n"x\ny",1\n\nz,2\n'
    assert list(read_csv(text, HEADER, Refused, "table")) == [(3, ["x\ny", "1"]), (5, ["z", "2"])]
    assert list(read_csv(text.splitlines(keepends=True), HEADER, Refused, "table"))[1] == (5, ["z", "2"])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "table is empty (header row required)"),
        ("a\nx\n", "table header must be a,b, got ['a']"),
        ("\na,b\n", "table header must be a,b, got []"),
        ("a,b\nx,y\n" + "z" * 200_000 + "\n", "table line 3: field larger than field limit (131072)"),
    ],
)
def test_read_csv_refuses_a_document_with_its_error(text, message):
    with pytest.raises(Refused) as caught:
        list(read_csv(text, HEADER, Refused, "table"))
    assert str(caught.value) == message
