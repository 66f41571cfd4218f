"""Project files: systems, topology, candidates and certificates on disk.

Project file schema (JSON)
--------------------------
All matrices are nested row-major arrays of numbers (vectors are ``n x 1``).
Subsystem ids double as list positions.  Fields marked * are optional.

    {
      "schema_version": 1,
      "subsystems": [
        {"id": 0,
         "A": [[...]], "B": [[...]], "D": [[...]], "F": [[...]],
         "C_ext": [[...]],
         "C_int": {"<peer index>": [[...]], ...}*   // absent peer => zero block
        }, ...
      ],
      "topology": {
        "edges": [[from, to], ...]   // internal output of `from` feeds `to`;
                                     // slices are assigned in ascending source
                                     // order, leftover rows read as zero
      },
      "candidates": [                // * reduced models, one per subsystem
        {"subsystem": 0, "P": [[...]],
         "Ahat": [[...]], "Bhat": [[...]], "Dhat": [[...]],
         "Fhat": [[...]]*,           // default: noiseless (zero columns)
         "Chat_ext": [[...]]*,       // default: C_ext P
         "Chat_int": {"j": [[...]]}* // default: C_int[j] P
        }, ...
      ],
      "certificates": [              // * witnesses, one per subsystem
        {"subsystem": 0,
         "M": [[...]], "K": [[...]], "P": [[...]],
         "Q": [[...]], "S": [[...]], "Rtilde": [[...]],
         "pi": 0.99, "kappa_hat": 0.98,
         "note": "..."*
        }, ...
      ],
      "run": {"horizon": 10, "trials": 1000, "seed": 0, "epsilon": 1.0}*
    }

Floats are written with full precision, so save/load round-trips bit-exactly.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, SchemaError
from .model import LinearSubsystem, Topology
from .spsf import AbstractionCandidate, AbstractionCertificate

__all__ = ["SCHEMA_VERSION", "RunDefaults", "ProjectFile", "load_project", "save_project"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunDefaults:
    """Simulation defaults stored with a project (flags override them)."""

    horizon: int = 10
    trials: int = 1000
    seed: int = 0
    epsilon: float = 1.0


@dataclass(frozen=True, eq=False)
class ProjectFile:
    """In-memory view of a project: everything the commands operate on."""

    schema_version: int
    subsystems: tuple[LinearSubsystem, ...]
    topology: Topology
    candidates: Mapping[int, AbstractionCandidate] = field(default_factory=dict)
    certificates: Mapping[int, AbstractionCertificate] = field(default_factory=dict)
    notes: Mapping[int, str] = field(default_factory=dict)
    run: RunDefaults | None = None

    def candidate_for(self, sub_id: int) -> AbstractionCandidate:
        if sub_id not in self.candidates:
            raise SchemaError(f"no abstraction candidate for subsystem {sub_id}")
        return self.candidates[sub_id]

    def certificate_for(self, sub_id: int) -> AbstractionCertificate:
        if sub_id not in self.certificates:
            raise SchemaError(f"no certificate for subsystem {sub_id}")
        return self.certificates[sub_id]


def _as_matrix(obj, where: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: not a numeric matrix ({exc})") from exc
    if arr.ndim != 2:
        raise SchemaError(f"{where}: expected a nested (2-D) array, got ndim={arr.ndim}")
    return arr


def _int_keyed(obj, where: str) -> dict[int, np.ndarray]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object keyed by peer index")
    out = {}
    for k, v in obj.items():
        try:
            key = int(k)
        except ValueError as exc:
            raise SchemaError(f"{where}: key {k!r} is not an integer") from exc
        out[key] = _as_matrix(v, f"{where}[{k}]")
    return out


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


def project_from_dict(doc: dict) -> ProjectFile:
    if not isinstance(doc, dict):
        raise SchemaError("project root must be an object")
    version = _require(doc, "schema_version", "project")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    raw_subs = _require(doc, "subsystems", "project")
    if not isinstance(raw_subs, list) or not raw_subs:
        raise SchemaError("subsystems must be a nonempty list")
    subsystems = []
    for pos, entry in enumerate(raw_subs):
        where = f"subsystems[{pos}]"
        sid = _require(entry, "id", where)
        if sid != pos:
            raise SchemaError(f"{where}: id must equal list position ({sid} != {pos})")
        try:
            subsystems.append(
                LinearSubsystem(
                    id=sid,
                    A=_as_matrix(_require(entry, "A", where), f"{where}.A"),
                    B=_as_matrix(_require(entry, "B", where), f"{where}.B"),
                    D=_as_matrix(_require(entry, "D", where), f"{where}.D"),
                    F=_as_matrix(_require(entry, "F", where), f"{where}.F"),
                    C_ext=_as_matrix(_require(entry, "C_ext", where), f"{where}.C_ext"),
                    C_int=_int_keyed(entry.get("C_int", {}), f"{where}.C_int"),
                )
            )
        except DimensionMismatch as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    subsystems = tuple(subsystems)
    n = len(subsystems)

    topo_doc = _require(doc, "topology", "project")
    pairs = topo_doc.get("edges", [])
    for e in pairs:
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"topology.edges entries must be [from, to] pairs, got {e!r}")
    try:
        topology = Topology.from_pairs(subsystems, [(int(a), int(b)) for a, b in pairs])
    except DimensionMismatch as exc:
        raise SchemaError(f"topology: {exc}") from exc

    candidates: dict[int, AbstractionCandidate] = {}
    for pos, entry in enumerate(doc.get("candidates", [])):
        where = f"candidates[{pos}]"
        sid = int(_require(entry, "subsystem", where))
        if not 0 <= sid < n:
            raise SchemaError(f"{where}: unknown subsystem {sid}")
        s = subsystems[sid]
        P = _as_matrix(_require(entry, "P", where), f"{where}.P")
        Ahat = _as_matrix(_require(entry, "Ahat", where), f"{where}.Ahat")
        nhat = Ahat.shape[0]
        fhat = entry.get("Fhat")
        chat_ext = entry.get("Chat_ext")
        chat_int = entry.get("Chat_int")
        candidates[sid] = AbstractionCandidate(
            Ahat=Ahat,
            Bhat=_as_matrix(_require(entry, "Bhat", where), f"{where}.Bhat"),
            Dhat=_as_matrix(_require(entry, "Dhat", where), f"{where}.Dhat"),
            Fhat=_as_matrix(fhat, f"{where}.Fhat") if fhat is not None else np.zeros((nhat, 0)),
            Chat_ext=_as_matrix(chat_ext, f"{where}.Chat_ext")
            if chat_ext is not None
            else s.C_ext @ P,
            Chat_int=_int_keyed(chat_int, f"{where}.Chat_int")
            if chat_int is not None
            else {j: blk @ P for j, blk in s.C_int.items()},
            P=P,
        )

    certificates: dict[int, AbstractionCertificate] = {}
    notes: dict[int, str] = {}
    for pos, entry in enumerate(doc.get("certificates", [])):
        where = f"certificates[{pos}]"
        sid = int(_require(entry, "subsystem", where))
        if not 0 <= sid < n:
            raise SchemaError(f"{where}: unknown subsystem {sid}")
        certificates[sid] = AbstractionCertificate(
            M=_as_matrix(_require(entry, "M", where), f"{where}.M"),
            K=_as_matrix(_require(entry, "K", where), f"{where}.K"),
            P=_as_matrix(_require(entry, "P", where), f"{where}.P"),
            Q=_as_matrix(_require(entry, "Q", where), f"{where}.Q"),
            S=_as_matrix(_require(entry, "S", where), f"{where}.S"),
            Rtilde=_as_matrix(_require(entry, "Rtilde", where), f"{where}.Rtilde"),
            pi=float(_require(entry, "pi", where)),
            kappa_hat=float(_require(entry, "kappa_hat", where)),
        )
        if "note" in entry:
            notes[sid] = str(entry["note"])

    run = None
    if "run" in doc and doc["run"] is not None:
        r = doc["run"]
        run = RunDefaults(
            horizon=int(r.get("horizon", 10)),
            trials=int(r.get("trials", 1000)),
            seed=int(r.get("seed", 0)),
            epsilon=float(r.get("epsilon", 1.0)),
        )

    return ProjectFile(
        schema_version=SCHEMA_VERSION,
        subsystems=subsystems,
        topology=topology,
        candidates=candidates,
        certificates=certificates,
        notes=notes,
        run=run,
    )


def _mat(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(a)]


def project_to_dict(project: ProjectFile) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "subsystems": [
            {
                "id": s.id,
                "A": _mat(s.A),
                "B": _mat(s.B),
                "D": _mat(s.D),
                "F": _mat(s.F),
                "C_ext": _mat(s.C_ext),
                "C_int": {str(j): _mat(m) for j, m in sorted(s.C_int.items())},
            }
            for s in project.subsystems
        ],
        "topology": {
            "edges": [[e.source, e.target] for e in project.topology.edges],
        },
    }
    if project.candidates:
        doc["candidates"] = [
            {
                "subsystem": sid,
                "P": _mat(c.P),
                "Ahat": _mat(c.Ahat),
                "Bhat": _mat(c.Bhat),
                "Dhat": _mat(c.Dhat),
                "Fhat": _mat(c.Fhat),
                "Chat_ext": _mat(c.Chat_ext),
                "Chat_int": {str(j): _mat(m) for j, m in sorted(c.Chat_int.items())},
            }
            for sid, c in sorted(project.candidates.items())
        ]
    if project.certificates:
        entries = []
        for sid, c in sorted(project.certificates.items()):
            entry = {
                "subsystem": sid,
                "M": _mat(c.M),
                "K": _mat(c.K),
                "P": _mat(c.P),
                "Q": _mat(c.Q),
                "S": _mat(c.S),
                "Rtilde": _mat(c.Rtilde),
                "pi": c.pi,
                "kappa_hat": c.kappa_hat,
            }
            if sid in project.notes:
                entry["note"] = project.notes[sid]
            entries.append(entry)
        doc["certificates"] = entries
    if project.run is not None:
        doc["run"] = {
            "horizon": project.run.horizon,
            "trials": project.run.trials,
            "seed": project.run.seed,
            "epsilon": project.run.epsilon,
        }
    return doc


def load_project(path) -> ProjectFile:
    """Parse a project file; raises :class:`SchemaError` on any defect."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return project_from_dict(doc)


def save_project(project: ProjectFile, path) -> None:
    """Write a project file (floats at full round-trip precision)."""
    Path(path).write_text(json.dumps(project_to_dict(project), indent=1) + "\n")
