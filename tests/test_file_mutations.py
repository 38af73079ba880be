"""Bad files fail with exit code 2, found by search.

Each case takes a valid n = 6 instance file of one family, or the sketch
built from it, and breaks it in one place: a key is deleted, a list gets
one more entry, a field is set to an odd JSON value, or one character of
the sketch's deflated member table is replaced or the table cut off
there (a search of its own, so the other kinds keep their draws). `sketch`, `verify` and `eval` then run on it in-process through
`cli.main`. Each must exit 0 or 2, never raise; exit 1 ("verification
failed") may come only from `verify`. The search is seeded
(`derandomize`), writes nothing to the hypothesis database and caps each
case's time; at n = 6 a case takes milliseconds, so a file that makes
the program allocate without bound shows as a case over its deadline.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import valsketch as vs
from valsketch.cli import main
from valsketch.instances import FAMILIES

N = 6
FULL = format((1 << N) - 1, "x")
# a pipeline each family's instances are certified for
PIPELINE = {
    "additive": "submodular",
    "coverage": "submodular",
    "uniform-matroid": "matroid",
    "partition-matroid": "matroid",
    "graphic-matroid": "matroid",
    "xos-explicit": "subadditive",
    "subadditive-table": "subadditive",
}
ODD_VALUES = [None, True, -1, 2.5, 1e308, 2 ** 70, "x", [], {}]
# what replaces a character of the member table's base64; None cuts the table there
BLOB_CHARS = [None, "A", "z", "/", "="]


def _paths(obj, path=()):
    """The positions in a decoded JSON value, the root included, as key
    tuples; of a list only the first and the last entry are entered, so
    a long list of alike entries does not crowd out the fields beside it."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = {0: obj[0], len(obj) - 1: obj[-1]}.items() if obj else ()
    else:
        return
    for key, value in children:
        yield from _paths(value, path + (key,))


@st.composite
def mutations(draw, doc):
    """One of: delete the entry at a path, append an entry to a list, or
    set the entry at a path to an odd value."""
    paths = list(_paths(doc))
    lists = [p for p in paths if isinstance(_at(doc, p), list)]
    kind = draw(st.sampled_from(["delete", "append", "set"] if lists else ["delete", "set"]))
    path = draw(st.sampled_from(lists if kind == "append" else paths[1:]))
    return kind, path, None if kind == "delete" else draw(st.sampled_from(ODD_VALUES))


@st.composite
def blob_mutations(draw, doc):
    """Replace one character of a sketch file's "bundles" blob, or cut the
    blob off before it."""
    at = draw(st.integers(0, len(doc["bundles"]) - 1))
    return "blob", ("bundles",), (at, draw(st.sampled_from(BLOB_CHARS)))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(text, mutation):
    doc = json.loads(text)
    kind, path, value = mutation
    if kind == "blob":
        at, char = value
        blob = doc["bundles"]
        doc["bundles"] = blob[:at] if char is None else blob[:at] + char + blob[at + 1:]
    elif kind == "append":
        _at(doc, path).append(value)
    elif kind == "delete":
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc)


def _run(*argv):
    """main's exit code; its output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per family: the instance path, its text, and the text of its sketch."""
    root = tmp_path_factory.mktemp("mutations")
    out = {}
    for family in FAMILIES:
        inst = root / f"{family}.json"
        sk = root / f"{family}.sketch.json"
        vs.save_instance(vs.generate_instance(family, N, 0), str(inst))
        code = _run("sketch", "--instance", str(inst), "--pipeline", PIPELINE[family],
                       "--out", str(sk))
        assert code == 0, family
        out[family] = inst, inst.read_text(), sk.read_text()
    return root, out


def cases(count):
    """count seeded cases, each under a time cap, with no database writes."""
    return settings(max_examples=count, derandomize=True, database=None,
                    deadline=timedelta(seconds=5),
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _check(argv):
    assert _run(*argv) in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), argv


@pytest.mark.parametrize("family", FAMILIES)
@cases(40)
@given(data=st.data())
def test_a_mutated_instance_file_exits_0_or_2(files, family, data):
    root, out = files
    _, inst_text, _ = out[family]
    mutation = data.draw(mutations(json.loads(inst_text)))
    bad = root / "bad-instance.json"
    bad.write_text(_mutated(inst_text, mutation))
    pipeline = PIPELINE[family]
    for argv in (("sketch", "--instance", str(bad), "--pipeline", pipeline,
                  "--out", str(root / "bad-instance.sketch.json")),
                 ("verify", "--instance", str(bad), "--pipeline", pipeline)):
        _check(argv)


def _check_sketch(files, family, mutation):
    root, out = files
    inst, _, sketch_text = out[family]
    bad = root / "bad.sketch.json"
    bad.write_text(_mutated(sketch_text, mutation))
    for argv in (("eval", "--sketch", str(bad), "--bundle", FULL, "--bundle", "1"),
                 ("verify", "--instance", str(inst), "--pipeline", PIPELINE[family],
                  "--sketch", str(bad))):
        _check(argv)


# a sketch file has more fields than an instance file, and its cases run faster
@pytest.mark.parametrize("family", FAMILIES)
@cases(100)
@given(data=st.data())
def test_a_mutated_sketch_file_exits_0_or_2(files, family, data):
    _check_sketch(files, family, data.draw(mutations(json.loads(files[1][family][2]))))


@pytest.mark.parametrize("family", FAMILIES)
@cases(40)
@given(data=st.data())
def test_a_broken_table_blob_exits_0_or_2(files, family, data):
    _check_sketch(files, family, data.draw(blob_mutations(json.loads(files[1][family][2]))))
