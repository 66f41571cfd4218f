import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import certified_network, inline, random_network, ring_document
from simcert import smallgain, spsf
from simcert.cli import main
from simcert.errors import SchemaError, SimcertError
from simcert.model import LinearSubsystem, Topology, assemble_interconnection
from simcert.project import (
    ProjectFile,
    RunDefaults,
    dumps,
    load_project,
    project_from_dict,
    project_to_dict,
    save_project,
)
from simcert.spsf import AbstractionCandidate


def test_round_trip_preserves_matrices(ref_project, tmp_path):
    path = tmp_path / "net.json"
    save_project(ref_project, path)
    loaded = load_project(path)
    for a, b in zip(ref_project.subsystems, loaded.subsystems):
        for name in ("A", "B", "D", "F", "C_ext"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert set(a.C_int) == set(b.C_int)
        for j in a.C_int:
            assert np.array_equal(a.C_int[j], b.C_int[j])
    for sid, cert in ref_project.certificates.items():
        other = loaded.certificates[sid]
        for name in ("M", "K", "P", "Q", "S", "Rtilde"):
            assert np.array_equal(getattr(cert, name), getattr(other, name))
        assert cert.pi == other.pi and cert.kappa_hat == other.kappa_hat
    assert loaded.run == ref_project.run
    assert loaded.notes == dict(ref_project.notes)

    # a second save produces identical bytes
    path2 = tmp_path / "net2.json"
    save_project(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_random_floats(ref_project, tmp_path):
    # full-precision decimal serialization survives awkward values
    doc = inline(project_to_dict(ref_project))
    doc["subsystems"][0]["A"][0][0] = 0.1 + 0.2  # 0.30000000000000004
    doc["subsystems"][0]["A"][0][1] = 1e-300
    loaded = project_from_dict(json.loads(json.dumps(doc)))
    assert loaded.subsystems[0].A[0, 0] == 0.1 + 0.2
    assert loaded.subsystems[0].A[0, 1] == 1e-300


def test_missing_schema_version(ref_project):
    doc = project_to_dict(ref_project)
    del doc["schema_version"]
    with pytest.raises(SchemaError):
        project_from_dict(doc)


def test_unknown_schema_version(ref_project):
    doc = project_to_dict(ref_project)
    # only the integers 2 and 3 are versions; True and 1.0 compare equal to 1, yet are no
    # version 1, whose refusal says how to make the file current
    for version in (99, 0, True, 1.0, "2"):
        doc["schema_version"] = version
        with pytest.raises(SchemaError, match="unsupported schema_version"):
            project_from_dict(doc)


def test_bad_certificate_reference(ref_project):
    doc = project_to_dict(ref_project)
    doc["certificates"][0]["subsystem"] = 9
    with pytest.raises(SchemaError):
        project_from_dict(doc)


def test_ragged_matrix_rejected(ref_project):
    doc = project_to_dict(ref_project)
    doc["subsystems"][0]["A"] = [[1.0, 2.0], [3.0]]
    with pytest.raises(SchemaError):
        project_from_dict(doc)


def test_id_position_mismatch(ref_project):
    doc = project_to_dict(ref_project)
    doc["subsystems"][0]["id"] = 3
    with pytest.raises(SchemaError):
        project_from_dict(doc)


def test_edge_to_unknown_subsystem(ref_project):
    doc = project_to_dict(ref_project)
    doc["topology"]["edges"].append([0, 9])
    with pytest.raises(SchemaError):
        project_from_dict(doc)


def test_repeated_edge_exits_2(ref_project, tmp_path, capsys):
    doc = project_to_dict(ref_project)
    doc["topology"]["edges"].append(doc["topology"]["edges"][0])
    with pytest.raises(SchemaError, match="listed twice"):
        project_from_dict(doc)
    target = tmp_path / "net.json"
    target.write_text(json.dumps(doc))
    assert main(["check", "--project", str(target)]) == 2
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(6))
def test_routing_survives_save_and_load(tmp_path, seed):
    subs, pairs = random_network(np.random.default_rng(seed))
    project = ProjectFile(2, tuple(subs), Topology.from_pairs(subs, pairs))
    save_project(project, tmp_path / "net.json")
    loaded = load_project(tmp_path / "net.json")
    before = assemble_interconnection(project.subsystems, project.topology).in_edges
    after = assemble_interconnection(loaded.subsystems, loaded.topology).in_edges
    assert [[e for e, _ in edges] for edges in after] == [[e for e, _ in edges] for edges in before]
    for edges, loaded_edges in zip(before, after):
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(edges, loaded_edges))


def _without_Fhat(project) -> dict:
    doc = project_to_dict(project)
    for cand in doc["candidates"]:
        del cand["Fhat"]
    return doc


def test_candidate_defaults(ref_project):
    loaded = project_from_dict(_without_Fhat(ref_project))
    assert loaded.candidates[0].Fhat.shape == (1, 0)
    # on the reference ring and on a random one, an absent Fhat is bitwise `induced`'s,
    # and the abstract output blocks are C P
    for project in (loaded, project_from_dict(_without_Fhat(_ring_project()))):
        for s in project.subsystems:
            got = project.candidates[s.id]
            want = AbstractionCandidate.induced(
                s, P=got.P, Ahat=got.Ahat, Bhat=got.Bhat, Dhat=got.Dhat
            )
            assert got.Fhat.shape == want.Fhat.shape
            assert got.Fhat.tobytes() == want.Fhat.tobytes()
            abstract = got.as_subsystem(s)
            assert abstract.C_ext.tobytes() == (s.C_ext @ got.P).tobytes()
            assert set(abstract.C_int) == set(s.C_int)
            for j, C in s.C_int.items():
                assert abstract.C_int[j].tobytes() == (C @ got.P).tobytes()


def test_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json")
    with pytest.raises(SchemaError):
        load_project(path)


def test_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        load_project(tmp_path / "nope.json")


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


# each entry is one malformed field; all must be refused at load with exit 2
LOADER_DEFECTS = {
    "nan-matrix-entry": (("subsystems", 0, "A", 0, 0), float("nan")),
    "inf-matrix-entry": (("certificates", 0, "M", 0, 0), float("inf")),
    "nan-string-entry": (("candidates", 0, "Bhat"), [["nan"]]),
    "huge-int-entry": (("subsystems", 0, "F", 0, 0), 10**400),
    "A-1x1-B-25-rows": (("subsystems", 0, "A"), [[0.5]]),
    "string-pi": (("certificates", 0, "pi"), "0.99"),
    "null-kappa_hat": (("certificates", 0, "kappa_hat"), None),
    "nan-pi": (("certificates", 0, "pi"), float("nan")),
    "string-subsystem": (("certificates", 1, "subsystem"), "one"),
    "null-candidate-subsystem": (("candidates", 0, "subsystem"), None),
    "bool-id": (("subsystems", 1, "id"), True),
    "string-edge-end": (("topology", "edges", 0, 0), "a"),
    "null-edge-end": (("topology", "edges", 0, 1), None),
    "edges-not-a-list": (("topology", "edges"), 5),
    "string-run-field": (("run", "trials"), "many"),
    "null-run-field": (("run", "seed"), None),
    "fractional-run-field": (("run", "horizon"), 2.5),
    "topology-not-object": (("topology",), []),
    "run-not-object": (("run",), 5),
    "candidates-not-a-list": (("candidates",), 5),
    # a field's index into arrays; a callable value is computed from the saved document
    "negative-index": (("certificates", 0, "M"), -1),
    "index-past-the-end": (("certificates", 0, "M"), lambda doc: len(doc["arrays"])),
    "fractional-index": (("certificates", 0, "K"), 0.5),
    "string-index": (("certificates", 0, "K"), "3"),
    "index-of-a-wrong-shape": (("certificates", 0, "M"), lambda doc: doc["candidates"][0]["Ahat"]),
    "arrays-not-a-list": (("arrays",), {"0": [[1.0]]}),
    "arrays-entry-not-a-matrix": (("arrays", 1), 0),
}


# these edit an entry of a matrix, so they edit the document's inline form
_INLINE = ("nan-matrix-entry", "inf-matrix-entry", "huge-int-entry")
# the message of each index defect, which names the field; the reference project
# saves 10 distinct matrices
_INDEX_ERRORS = {
    "negative-index": "certificates[0].M: index -1 is not in arrays (10 entries)",
    "index-past-the-end": "certificates[0].M: index 10 is not in arrays (10 entries)",
    "fractional-index": "certificates[0].K: expected a matrix or an integer index into arrays, "
                        "got 0.5",
    "string-index": "certificates[0].K: expected a matrix or an integer index into arrays, "
                    "got '3'",
    "index-of-a-wrong-shape": "certificates[0].M is 1x1, expected 25x25 (n x n)",
    "arrays-not-a-list": "arrays must be a list",
    "arrays-entry-not-a-matrix": "arrays[1]: expected a nested (2-D) array, got 0",
}


@pytest.mark.parametrize("name", LOADER_DEFECTS)
def test_malformed_field_exits_2(ref_project, tmp_path, capsys, name):
    path, value = LOADER_DEFECTS[name]
    doc = project_to_dict(ref_project)
    doc = inline(doc) if name in _INLINE else doc
    _set(doc, path, value(doc) if callable(value) else value)
    with pytest.raises(SchemaError):
        project_from_dict(doc)
    target = tmp_path / "net.json"
    target.write_text(json.dumps(doc))
    assert main(["bound", "--project", str(target), "--epsilon", "1", "--horizon", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: " + _INDEX_ERRORS.get(name, ""))


def _ring_project(seed=3) -> ProjectFile:
    """A certified random ring, with full-precision floats everywhere."""
    subs, topo, cands, certs, _ = certified_network(seed)
    return ProjectFile(
        schema_version=2,
        subsystems=tuple(subs),
        topology=topo,
        candidates=dict(enumerate(cands)),
        certificates=dict(enumerate(certs)),
        notes={0: "first"},
        run=RunDefaults(),
    )


# float repr round-trips exactly, so equal JSON text means bitwise-equal numbers
def _bits(project) -> str:
    return json.dumps(inline(project_to_dict(project)))


AWKWARD_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]


def test_indented_layout_loads_bitwise_equal(tmp_path):
    project = _ring_project()
    doc = inline(project_to_dict(project))
    A = doc["subsystems"][0]["A"]  # at least 2 x 2
    A[0][0], A[0][1], A[1][0], A[1][1] = AWKWARD_FLOATS
    old, new, again = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "again.json"
    old.write_text(json.dumps(doc, indent=1) + "\n")  # the layout of earlier releases
    save_project(project_from_dict(doc), new)
    from_old = load_project(old)
    assert _bits(from_old) == _bits(load_project(new)) == json.dumps(doc)
    assert from_old.subsystems[0].A[:2, :2].tobytes() == np.array(AWKWARD_FLOATS).tobytes()

    # re-saving an old file gives the new bytes, and save -> load -> save is stable
    save_project(from_old, again)
    assert again.read_bytes() == new.read_bytes()
    save_project(load_project(again), again)
    assert again.read_bytes() == new.read_bytes()


def test_one_line_per_entry(tmp_path):
    project = _ring_project()
    path = tmp_path / "ring.json"
    save_project(project, path)
    doc = project_to_dict(project)
    lines = path.read_text().splitlines()
    for key in ("arrays", "subsystems", "candidates", "certificates"):
        at = lines.index(f' "{key}": [')
        entries = lines[at + 1 : at + 1 + len(doc[key])]
        assert [json.loads(line.rstrip(",")) for line in entries] == doc[key]
        assert lines[at + 1 + len(doc[key])].strip().startswith("]")
    assert json.loads(path.read_text()) == doc


# the writer's layout, written out by hand: a list of matrices, a list of objects, an
# empty list, a scalar field, and objects on one line, with non-ASCII text escaped
SMALL_DOCUMENT = {
    "schema_version": 3,
    "arrays": [[[0.1, -0.0]], [[5e-324], [1e308]]],
    "subsystems": [{"id": 0, "A": 0, "C_int": {"1": 1}}, {"id": 1, "A": 1}],
    "candidates": [],
    "notes": {"0": 'Grüße, "quoted"'},
    "run": {"seed": 4, "epsilon": None},
}
SMALL_TEXT = r"""{
 "schema_version": 3,
 "arrays": [
  [[0.1, -0.0]],
  [[5e-324], [1e+308]]
 ],
 "subsystems": [
  {"id": 0, "A": 0, "C_int": {"1": 1}},
  {"id": 1, "A": 1}
 ],
 "candidates": [],
 "notes": {"0": "Gr\u00fc\u00dfe, \"quoted\""},
 "run": {"seed": 4, "epsilon": null}
}
"""


def _assert_one_line_each(text: str, doc: dict) -> None:
    """``text`` holds ``doc`` with a line per top-level field and per entry of a
    nonempty list of objects or matrices, between that field's ``[`` and ``]`` lines."""
    lines = iter(text.splitlines())
    assert next(lines) == "{"
    for key, value in doc.items():
        head = next(lines).rstrip(",")
        if isinstance(value, list) and value and all(isinstance(v, (dict, list)) for v in value):
            assert head == f" {json.dumps(key)}: ["
            assert [json.loads(next(lines).rstrip(",")) for _ in value] == value
            assert next(lines).rstrip(",") == " ]"
        else:
            assert json.loads("{" + head + "}") == {key: value}
    assert next(lines) == "}" and next(lines, None) is None


def test_save_writes_the_bytes_of_whole_entry_encoding(ref_project, tmp_path):
    assert dumps(SMALL_DOCUMENT) == SMALL_TEXT
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(ring_document(8)))
    noted = dataclasses.replace(
        _ring_project(), notes={0: "first", 2: "Grüße, ∑ and \"quotes\""}, run=RunDefaults(seed=4)
    )
    inline_ref = project_from_dict(inline(project_to_dict(ref_project)))
    projects = [ref_project, load_project(ring), inline_ref, noted]
    for project in projects:
        doc = project_to_dict(project)
        assert json.loads(dumps(doc)) == doc
        _assert_one_line_each(dumps(doc), doc)
        # no two entries of arrays are equal, also where the project holds equal
        # matrices as separate arrays
        assert len({json.dumps(a) for a in doc["arrays"]}) == len(doc["arrays"])
    # copies that hold one array share one index in the document
    doc = project_to_dict(projects[1])
    assert all(s["A"] == doc["subsystems"][0]["A"] for s in doc["subsystems"])

    out = tmp_path / "composed.json"
    assert main(["compose", "--project", str(ring), "--output", str(out)]) == 0
    _assert_one_line_each(out.read_text(), json.loads(out.read_text()))

    # entries that share one list object, an empty entry, a non-string key and a nested
    # object in an entry; JSON keys are strings
    row = [[0.1, -0.0], [5e-324, 1e308]]
    doc = {"a": [{"M": row, "x": 1}, {"M": row, "y": None}, {}, {1: row, "z": {"w": row}}],
           "b": [], "c": row}
    as_json = json.loads(json.dumps(doc))
    assert json.loads(dumps(doc)) == as_json
    _assert_one_line_each(dumps(doc), as_json)


def test_non_finite_value_is_not_written(ref_project, tmp_path):
    path = tmp_path / "net.json"
    save_project(ref_project, path)
    before = path.read_bytes()
    cert = ref_project.certificates[0]
    bad = dataclasses.replace(cert, M=np.where(np.eye(cert.M.shape[0]) > 0, np.nan, cert.M))
    broken = dataclasses.replace(ref_project, certificates={**ref_project.certificates, 0: bad})
    with pytest.raises(SimcertError, match="non-finite"):
        save_project(broken, path)
    assert path.read_bytes() == before


def test_compose_output_numbers(tmp_path, capsys):
    project = _ring_project()
    src, out = tmp_path / "ring.json", tmp_path / "composed.json"
    save_project(project, src)
    assert main(["compose", "--project", str(src), "--output", str(out)]) == 0
    constants = [
        spsf.derive_constants(s, project.candidate_for(s.id), project.certificate_for(s.id))
        for s in project.subsystems
    ]
    gains = smallgain.build_gains(constants, project.topology)
    radius = gains.radius
    mu = smallgain.find_mu(gains)
    composed = smallgain.compose(constants, gains, mu)
    doc = json.loads(out.read_text())
    assert doc == {
        "mu": mu.tolist(),
        "alpha_coef": composed.alpha_coef,
        "kappa_hat": composed.kappa_hat,
        "rho_ext_coef": composed.rho_ext_coef,
        "psi": composed.psi,
        "spectral_radius": radius,
        "constituents": [
            {"subsystem": i, **dataclasses.asdict(c)} for i, c in enumerate(constants)
        ],
    }
    # "{", a line per field, a line per constituent, the constituents' "]" and "}"
    assert len(out.read_text().splitlines()) == 1 + 7 + len(constants) + 2


@pytest.mark.parametrize("key", ["candidates", "certificates"])
def test_duplicate_entry_rejected(ref_project, key):
    # a second entry for subsystem 0 used to replace the first without a word
    doc = project_to_dict(ref_project)
    doc[key].append(json.loads(json.dumps(doc[key][0])))
    last = len(doc[key]) - 1
    with pytest.raises(SchemaError, match=rf"{key}\[0\] and {key}\[{last}\] both name subsystem 0"):
        project_from_dict(doc)


def test_duplicate_peer_key_rejected(ref_project):
    doc = inline(project_to_dict(ref_project))
    blocks = doc["subsystems"][0]["C_int"]
    (peer,) = blocks
    blocks["0" + peer] = blocks[peer]
    with pytest.raises(SchemaError, match=f"keys '{peer}' and '0{peer}' both name peer {peer}"):
        project_from_dict(doc)


def test_duplicate_certificate_exits_2(ref_project, tmp_path, capsys):
    # a failing certificate followed by a passing one for the same subsystem
    doc = project_to_dict(ref_project)
    failing = json.loads(json.dumps(doc["certificates"][0]))
    failing["kappa_hat"] = 1.2
    doc["certificates"].insert(0, failing)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: certificates[0] and certificates[1] both name subsystem 0\n"
    assert captured.out == ""


def test_duplicate_json_key_exits_2(ref_project, tmp_path, capsys):
    # a key written twice in one object used to load its last value without a word
    text = json.dumps(project_to_dict(ref_project))
    assert text.count('"kappa_hat": 0.98') == 4
    path = tmp_path / "net.json"
    path.write_text(text.replace('"kappa_hat": 0.98', '"kappa_hat": 1.2, "kappa_hat": 0.98', 1))
    assert main(["check", "--project", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: key 'kappa_hat' is written twice in one object\n"
    assert captured.out == ""


def test_present_optional_fields_are_used_as_written(ref_project):
    doc = inline(project_to_dict(ref_project))
    cand = doc["candidates"][0]
    cand["Fhat"] = np.random.default_rng(5).standard_normal((len(cand["Ahat"]), 2)).tolist()
    assert project_from_dict(doc).candidates[0].Fhat.tolist() == cand["Fhat"]


def test_loaded_arrays_are_read_only(ref_project):
    loaded = project_from_dict(project_to_dict(ref_project))
    arrays = []
    for s in loaded.subsystems:
        arrays += [s.A, s.B, s.D, s.F, s.C_ext, *s.C_int.values()]
    for c in loaded.candidates.values():
        arrays += [c.P, c.Ahat, c.Bhat, c.Dhat, c.Fhat]
    for c in loaded.certificates.values():
        arrays += [c.M, c.K, c.P, c.Q, c.S, c.Rtilde]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_writable_arrays_are_copied():
    base = np.eye(2)
    view = base.view()
    view.setflags(write=False)  # read-only, yet written through `base`
    given = {"A": base.copy(), "B": base.copy(), "D": view, "F": base.copy(), "C_ext": base.copy()}
    block = base.copy()
    s = LinearSubsystem(id=0, **given, C_int={1: block})
    cand = AbstractionCandidate(
        Ahat=given["A"], Bhat=given["B"], Dhat=view, Fhat=given["F"], P=base
    )
    for arr in [*given.values(), block, base]:
        if arr.flags.writeable:
            arr[...] = 7.0  # `base` last: it also changes `view`
    for held in [s.A, s.B, s.D, s.F, s.C_ext, s.C_int[1],
                 cand.Ahat, cand.Bhat, cand.Dhat, cand.Fhat, cand.P]:
        assert np.array_equal(held, np.eye(2))


_DERIVED_FIELDS = [("candidates", "Chat_ext"), ("candidates", "Chat_int"),
                   ("certificates", "P"), ("certificates", "Q"), ("certificates", "S"),
                   ("certificates", "Rtilde")]


def test_saved_file_holds_no_derived_key(ref_project, tmp_path):
    path = tmp_path / "net.json"
    save_project(ref_project, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 3
    for group, name in _DERIVED_FIELDS:
        assert all(name not in entry for entry in doc[group])
    assert set(doc["candidates"][0]) == {"subsystem", "P", "Ahat", "Bhat", "Dhat", "Fhat"}
    assert set(doc["certificates"][0]) == {"subsystem", "M", "K", "pi", "kappa_hat", "note"}


def _constants(project):
    return [spsf.derive_constants(s, project.candidate_for(s.id), project.certificate_for(s.id))
            for s in project.subsystems]


@pytest.mark.parametrize("seed, fan_in, noise",
                         [(900, 1, False), (2104, 2, False), (2101, 1, True)])
def test_save_load_reproduces_certificates_bitwise(tmp_path, seed, fan_in, noise):
    subs, topo, cands, certs, _ = certified_network(seed, abstract_noise=noise, fan_in=fan_in)
    project = ProjectFile(2, tuple(subs), topo, dict(enumerate(cands)), dict(enumerate(certs)))
    save_project(project, tmp_path / "net.json")
    loaded = load_project(tmp_path / "net.json")
    for sid, cert in project.certificates.items():
        got = loaded.certificates[sid]
        for name in ("M", "K", "P", "Q", "S", "Rtilde"):
            assert getattr(got, name).tobytes() == getattr(cert, name).tobytes()
        assert (got.pi, got.kappa_hat) == (cert.pi, cert.kappa_hat)
    assert _constants(loaded) == _constants(project)
    # a version 2 (inline) document loads bitwise equal to its version 3 save, with
    # equal constants
    first = project_from_dict(inline(project_to_dict(project)))
    save_project(first, tmp_path / "v3.json")
    again = load_project(tmp_path / "v3.json")
    assert _bits(again) == _bits(first) == json.dumps(inline(project_to_dict(project)))
    assert _constants(again) == _constants(first) == _constants(project)


VERSION_1_REFUSED = ("error: schema_version 1 is refused: delete the derived blocks (a candidate's "
                     "Chat_*, a certificate's P, Q, S, Rtilde) and set schema_version to 3\n")


def test_version_1_file_is_refused(ref_project, tmp_path, capsys):
    # version 1 also stored the blocks that later versions derive, which are never read:
    # such a file is refused with what to do, and doing it gives a file that loads
    doc = inline(project_to_dict(ref_project))
    doc["schema_version"] = 1
    for group, name in _DERIVED_FIELDS:
        for entry in doc[group]:
            entry[name] = {"1": [[0.0]]} if name == "Chat_int" else [[0.0]]
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    assert capsys.readouterr().err == VERSION_1_REFUSED
    for group, name in _DERIVED_FIELDS:
        for entry in doc[group]:
            del entry[name]
    doc["schema_version"] = 3
    assert _constants(project_from_dict(doc)) == _constants(ref_project)


@pytest.mark.parametrize("group, name", _DERIVED_FIELDS, ids=[n for _, n in _DERIVED_FIELDS])
def test_hand_edited_derived_field_exits_2(ref_project, tmp_path, capsys, group, name):
    # a derived block is never read: stored in a version 3 entry, it is an unknown field
    doc = project_to_dict(ref_project)
    doc[group][2][name] = [[0.0]]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {group}[2]: unknown field '{name}'\n"


# the fields of each object of a project file, as its schema states them
SCHEMA_FIELDS = {
    "project": {"schema_version", "arrays", "subsystems", "topology", "candidates",
                "certificates", "run"},
    "subsystems": {"id", "A", "B", "D", "F", "C_ext", "C_int"},
    "topology": {"edges"},
    "candidates": {"subsystem", "P", "Ahat", "Bhat", "Dhat", "Fhat"},
    "certificates": {"subsystem", "M", "K", "pi", "kappa_hat", "note"},
    "run": {"horizon", "trials", "seed", "epsilon"},
}


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(SCHEMA_FIELDS)), pos=st.integers(0, 3), data=st.data(),
       value=st.one_of(st.none(), st.integers(), st.text(), st.just([[0.5]])))
def test_unknown_field_exits_2(ref_project, tmp_path, capsys, kind, pos, data, value):
    # a key outside the schema, added to any object of a saved project, is refused with
    # its object and its name, whatever it holds; the reference project has 4 subsystems
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in SCHEMA_FIELDS[kind]))
    doc = project_to_dict(ref_project)
    if kind == "project":
        target, where = doc, "project"
    elif kind in ("topology", "run"):
        target, where = doc[kind], kind
    else:
        target, where = doc[kind][pos], f"{kind}[{pos}]"
    target[key] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {where}: unknown field {key!r}\n"


def test_misspelt_field_exits_2(tmp_path, capsys):
    # spelt right, a noisy abstraction (Fhat = 0.5) gives the trivial bound; misspelt, the
    # key was ignored and the bound was that of a noiseless one, 0.09562, with exit 0
    path = tmp_path / "net.json"
    assert main(["paper-example", "--trials", "30", "--emit-project", str(path)]) == 0
    doc = json.loads(path.read_text())
    bound = ["bound", "--project", str(path), "--epsilon", "1", "--horizon", "10"]
    for spelling, code in (("Fhat", 0), ("FHat", 2)):
        edited = json.loads(json.dumps(doc))
        for cand in edited["candidates"]:
            del cand["Fhat"]
            cand[spelling] = [[0.5]]
        path.write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(bound) == code
        out, err = capsys.readouterr()
        if code:
            assert err == "error: candidates[0]: unknown field 'FHat'\n" and out == ""
        else:
            assert "<= 1.000" in out
    # and a run block with `trails` ran the default 1,000 trials
    doc["run"]["trails"] = doc["run"].pop("trials")
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--project", str(path)]) == 2
    assert capsys.readouterr().err == "error: run: unknown field 'trails'\n"


def test_certificate_without_candidate_exits_2(ref_project, tmp_path, capsys):
    doc = project_to_dict(ref_project)
    del doc["candidates"][2]
    with pytest.raises(SchemaError, match=r"certificates\[2\]: subsystem 2 has no candidate"):
        project_from_dict(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    assert "has no candidate" in capsys.readouterr().err


@pytest.mark.parametrize("note", [None, [1, 2], 3.5, {"text": "x"}])
def test_non_string_note_exits_2(ref_project, tmp_path, capsys, note):
    # a non-string note was printed as its repr and saved back as that text
    doc = project_to_dict(ref_project)
    doc["certificates"][0]["note"] = note
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: certificates[0].note: expected a string, got {note!r}\n"
    )


def _with_F(doc, entries) -> dict:
    """``doc`` with the column ``F`` of subsystem 0 starting with ``entries``."""
    for row, value in zip(doc["subsystems"][0]["F"], entries):
        row[0] = value
    return doc


def _setting(path, value):
    return lambda doc: _set(doc, path, value) or doc


# each defect sets one matrix entry, or a whole matrix, to a value that is not a number
NON_NUMBER_ENTRIES = {
    "string": (lambda doc: _with_F(doc, ["1.5"]), "subsystems[0].F"),
    "all-boolean": (_setting(("subsystems", 1, "D"), [[True]] * 25), "subsystems[1].D"),
    "true-among-numbers": (lambda doc: _with_F(doc, [0.5, True]), "subsystems[0].F[1][0]"),
    "false-among-numbers": (_setting(("certificates", 1, "M", 3, 2), False),
                            "certificates[1].M[3][2]"),
}


@pytest.mark.parametrize("name", NON_NUMBER_ENTRIES)
def test_non_number_matrix_entry_exits_2(tmp_path, capsys, name):
    edit, field = NON_NUMBER_ENTRIES[name]
    doc = edit(ring_document(2))
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}")


@pytest.mark.parametrize("name", ["string", "all-boolean"])
def test_non_number_matrix_refused_from_a_document(name):
    # numpy infers a string or an all-boolean matrix as no number
    edit, field = NON_NUMBER_ENTRIES[name]
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: every entry must be a number"):
        project_from_dict(edit(ring_document(2)))


def test_integer_entries_load_as_floats(tmp_path):
    entries = [3, 2**63 + 1, 2**70, -(2**64) - 5, 0.5]  # int64, uint64 and past both
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(_with_F(ring_document(2), entries)))
    F = load_project(path).subsystems[0].F
    assert F.dtype == np.float64
    assert F[: len(entries), 0].tolist() == [float(v) for v in entries]
    doc = ring_document(2)
    doc["subsystems"][1]["F"] = [[1] * len(row) for row in doc["subsystems"][1]["F"]]
    path.write_text(json.dumps(doc))  # an all-integer matrix infers as int64
    F = load_project(path).subsystems[1].F
    assert F.dtype == np.float64 and (F == 1.0).all()


@pytest.mark.parametrize("text", ["true", "false"])
def test_boolean_words_in_a_string_load(tmp_path, text):
    # the words make the load look for booleans; a string that spells one is none
    doc = ring_document(2)
    doc["certificates"][0]["note"] = f"{text}, as checked"
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert load_project(path).notes[0] == f"{text}, as checked"
