import importlib
import pkgutil

import pytest

from adlrec.documents import InputError, read_csv

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


def test_read_csv_refuses_a_row_of_another_width():
    for row, width in (("x\n", 1), ("x,y,z\n", 3)):
        with pytest.raises(Refused) as caught:
            list(read_csv("a,b\n\nv,w\n" + row, HEADER, Refused, "table"))
        assert str(caught.value) == f"table line 4: expected 2 fields, got {width}"


def test_every_error_class_is_input_error():
    """Every exception class adlrec defines derives from InputError, so that
    the command line reports each as one error line, never a traceback."""
    package = importlib.import_module("adlrec")
    names = [info.name for info in pkgutil.walk_packages(package.__path__, "adlrec.")]
    assert len(names) > 10
    defined = [
        cls
        for name in names
        for cls in vars(importlib.import_module(name)).values()
        if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == name
    ]
    assert len(defined) >= 8
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, InputError)] == []
    assert issubclass(InputError, ValueError)
