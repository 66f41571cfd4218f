"""Mutated project files never crash the command line.

Every mutation of the bundled project, in its saved (version 3) form and in its
inline (version 2) form, must end in exit code 0, 1 or 2: a result, an analytic
or soundness failure, or an input error.  A Python exception escaping ``main``
fails the test.
"""

import copy
import json

import pytest
from helpers import inline
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simcert.cli import main

COMMANDS = (
    ["check"],
    ["compose"],
    ["bound", "--epsilon", "1", "--horizon", "10"],
    ["simulate", "--trials", "40", "--horizon", "3"],
)

VALUES = st.one_of(
    st.sampled_from([None, True, "x", "nan", [], {}, [[]], [[1.0]], [[1.0, 2.0]], 2**70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=30),
)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The emitted project, as saved and in its inline form."""
    path = tmp_path_factory.mktemp("fuzz") / "net.json"
    assert main(["paper-example", "--trials", "30", "--emit-project", str(path)]) == 0
    doc = json.loads(path.read_text())
    return doc, inline(doc)


def _mutate(data, doc) -> None:
    """Replace or delete one node, reached by a random walk from the root."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        # descend two times in three, so matrix entries are reached as often as fields
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 2)):
            node = child
            continue
        if data.draw(st.booleans()) and isinstance(node, dict):
            del node[key]
        else:
            node[key] = copy.deepcopy(data.draw(VALUES))  # sampled values are shared
        return


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_project_never_crashes(emitted, tmp_path, data):
    for form in emitted:
        doc = json.loads(json.dumps(form))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            assert main([command[0], "--project", str(path), *command[1:]]) in (0, 1, 2)
