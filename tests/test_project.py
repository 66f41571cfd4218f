import json

import numpy as np
import pytest

from simcert.cli import main
from simcert.errors import SchemaError
from simcert.project import load_project, project_from_dict, project_to_dict, save_project


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
    doc = project_to_dict(ref_project)
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
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
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


def test_candidate_defaults(ref_project):
    doc = project_to_dict(ref_project)
    for cand in doc["candidates"]:
        del cand["Chat_ext"]
        del cand["Chat_int"]
        del cand["Fhat"]
    loaded = project_from_dict(doc)
    cand = loaded.candidates[0]
    s = loaded.subsystems[0]
    assert np.array_equal(cand.Chat_ext, s.C_ext @ cand.P)
    assert set(cand.Chat_int) == set(s.C_int)
    assert cand.Fhat.shape == (1, 0)


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
    "wrong-shape-Q": (("certificates", 0, "Q"), [[1.0]]),
    "wrong-shape-Chat_ext": (("candidates", 0, "Chat_ext"), [[1.0, 2.0]]),
    "Chat_int-peer": (("candidates", 0, "Chat_int"), {"2": [[1.0]]}),
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
}


@pytest.mark.parametrize("path, value", LOADER_DEFECTS.values(), ids=LOADER_DEFECTS.keys())
def test_malformed_field_exits_2(ref_project, tmp_path, capsys, path, value):
    doc = project_to_dict(ref_project)
    _set(doc, path, value)
    with pytest.raises(SchemaError):
        project_from_dict(doc)
    target = tmp_path / "net.json"
    target.write_text(json.dumps(doc))
    assert main(["bound", "--project", str(target), "--epsilon", "1", "--horizon", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
