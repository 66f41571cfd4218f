"""Project files: systems, topology, candidates and certificates on disk.

Project file schema (JSON)
--------------------------
A matrix is a nested row-major list of numbers (vectors are ``n x 1``) or the
index of one in ``arrays``.  Subsystem ids double as list positions.  Fields
marked * are optional.

    {
      "schema_version": 3,
      "arrays": [[[...]], ...]*,     // matrices that fields name by index
      "subsystems": [
        {"id": 0,
         "A": 0, "B": [[...]], "D": [[...]], "F": [[...]],  // an index or inline
         "C_ext": [[...]],
         "C_int": {"<peer index>": [[...]], ...}*   // absent peer => zero block
        }, ...
      ],
      "topology": {
        "edges": [[from, to], ...]   // internal output of `from` feeds `to`,
                                     // each pair at most once; slices are
                                     // assigned in ascending source order,
                                     // leftover rows read as zero
      },
      "candidates": [                // * reduced models, one per subsystem
        {"subsystem": 0, "P": [[...]],
         "Ahat": [[...]], "Bhat": [[...]], "Dhat": [[...]],
         "Fhat": [[...]]*            // default: noiseless (zero columns)
        }, ...
      ],
      "certificates": [              // * witnesses, one per subsystem;
        {"subsystem": 0,             //   each needs its subsystem's candidate
         "M": [[...]], "K": [[...]],
         "pi": 0.99, "kappa_hat": 0.98,
         "note": "..."*              // a string
        }, ...
      ],
      "run": {"horizon": 10, "trials": 1000, "seed": 0, "epsilon": 1.0}*
    }

Each subsystem has at most one candidate and one certificate, each peer at
most one ``C_int`` block, and each object a key once and no key but the above:
a duplicate (peers ``"1"`` and ``"01"``, or ``"pi"`` twice) or an unknown key
is a :class:`SchemaError`, and so is a file that is not UTF-8 or that nests
past the parser's recursion limit.

A save writes each distinct matrix once, as an ``arrays`` entry keyed by shape
and bits (``-0.0`` and ``0.0`` differ).  A load makes each entry, or inline
matrix as in version 2 files, one read-only array shared by every field
with its bits, and so by the derivations, checks and constants keyed by identity;
candidate entries that name the same arrays, for equal ``(n, m, p)``, are one candidate.

A file stores only what cannot be derived.  The loader derives the rest: a
candidate's output blocks are ``Chat_ext = C_ext P`` and ``Chat_int[j] =
C_int[j] P``, and a certificate is :func:`~simcert.spsf.solve_structural` of
its candidate and ``(M, K, pi, kappa_hat)``, which gives ``P``, ``Q``, ``S``
and ``Rtilde``.  Version 1 files also stored those blocks and are refused.

Floats are written with full precision, so save/load round-trips bit-exactly.
:func:`dumps` writes a line per top-level field and per entry of a list of
objects or matrices, so a diff names the entry that changed; older files,
indented a space per level, load unchanged.  A non-finite number is never written.
"""

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, SchemaError
from .model import LinearSubsystem, Topology, validate_subsystem
from .spsf import AbstractionCandidate, AbstractionCertificate, _shared, solve_structural

__all__ = ["SCHEMA_VERSION", "RunDefaults", "ProjectFile", "load_project", "save_project", "dumps"]

SCHEMA_VERSION = 3


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


_JSON_TYPES = {str: "string", bool: "boolean", type(None): "null", dict: "object"}


def _as_matrix(obj, where: str, table: dict) -> np.ndarray:
    """``obj`` as a read-only float matrix, the table's array if one holds its bits;
    an integer is an index into ``arrays``, whose entries the table holds by position.

    numpy infers the dtype, so a string or an all-boolean matrix is no number;
    integers past int64 infer as objects and convert here.  A boolean among
    numbers infers as a number: :func:`load_project` refuses those first.
    """
    if type(obj) is int:
        if obj not in table:  # negative or past the end
            size = sum(type(k) is int for k in table)
            raise SchemaError(f"{where}: index {obj} is not in arrays ({size} entries)")
        return table[obj]
    if not isinstance(obj, (list, np.ndarray)):
        raise SchemaError(f"{where}: expected a matrix or an integer index into arrays, "
                          f"got {obj!r}")
    try:
        arr = np.array(obj)
        if arr.dtype.kind != "f":
            bad = next((type(v) for v in arr.ravel().tolist() if type(v) not in (int, float)),
                       None)
            if bad is not None:
                raise SchemaError(f"{where}: every entry must be a number, "
                                  f"got a {_JSON_TYPES.get(bad, bad.__name__)}")
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: not a numeric matrix ({exc})") from exc
    if arr.ndim != 2:
        raise SchemaError(f"{where}: expected a nested (2-D) array, got ndim={arr.ndim}")
    key = (arr.shape, arr.tobytes())  # -0.0 and 0.0 differ here, though equal as lists
    if key in table:
        return table[key]
    if not np.isfinite(arr).all():
        raise SchemaError(f"{where}: entries must be finite")
    arr.setflags(write=False)  # owned and read-only: the dataclasses keep it uncopied
    return table.setdefault(key, arr)


def _number(value, where: str, kind: type):
    """A finite JSON number as ``kind``; an ``int`` field must hold an integral value."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        out = kind(value)
        if not math.isfinite(out) or out != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{where}: expected a finite {kind.__name__}, got {value!r}") from None
    return out


def _int_keyed(obj, where: str, table: dict) -> dict[int, np.ndarray]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object keyed by peer index")
    out = {}
    for k, v in obj.items():
        try:
            key = int(k)
        except ValueError as exc:
            raise SchemaError(f"{where}: key {k!r} is not an integer") from exc
        if key in out:
            first = next(k0 for k0 in obj if int(k0) == key)
            raise SchemaError(f"{where}: keys {first!r} and {k!r} both name peer {key}")
        out[key] = _as_matrix(v, f"{where}[{k}]", table)
    return out


def _object(obj, where: str, kind: str) -> dict:
    """``obj`` if a JSON object that holds only the fields of ``kind``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if not obj.keys() <= _FIELDS[kind]:  # a subset test allocates nothing
        key = next(k for k in obj if k not in _FIELDS[kind])
        raise SchemaError(f"{where}: unknown field {key!r}")
    return obj


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


def _list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where} must be a list")
    return obj


def _matrices(entry: dict, names, where: str, table: dict) -> dict[str, np.ndarray]:
    return {n: _as_matrix(_require(entry, n, where), f"{where}.{n}", table) for n in names}


def _entry_key(entry: dict, names, types: tuple):
    """``entry``'s values of ``names`` if of the ``types`` (indices into ``arrays``, then floats)
    and no float is zero, which ``-0.0`` equals; else a new object, which no key equals."""
    key = tuple(map(entry.get, names))
    if tuple(map(type, key)) == types and 0.0 not in key[types.count(int) :]:
        return key
    return object()


_SUBSYSTEM_MATRICES = ("A", "B", "D", "F", "C_ext")
_CANDIDATE_MATRICES = ("P", "Ahat", "Bhat", "Dhat", "Fhat")
_CERTIFICATE_MATRICES = ("M", "K")
# The fields each object may hold, named by its key in the root, so a field the save
# writes is one the load knows; ``C_int``'s keys are peer indices.
_FIELDS = {
    "subsystems": {"id", *_SUBSYSTEM_MATRICES, "C_int"},
    "topology": {"edges"},
    "candidates": {"subsystem", *_CANDIDATE_MATRICES},
    "certificates": {"subsystem", *_CERTIFICATE_MATRICES, "pi", "kappa_hat", "note"},
    "run": {f.name for f in fields(RunDefaults)},
}
_FIELDS["project"] = {"schema_version", "arrays", *_FIELDS}

# Rows and columns of every stored candidate and certificate matrix, named by the
# dimensions of its subsystem (n, m, p) and of its candidate (nhat, mhat, qhat).
_SHAPES = {
    "P": ("n", "nhat"),
    "Ahat": ("nhat", "nhat"),
    "Bhat": ("nhat", "mhat"),
    "Dhat": ("nhat", "p"),
    "Fhat": ("nhat", "qhat"),
    "M": ("n", "n"),
    "K": ("m", "n"),
}


def _check_shapes(where: str, mats: dict[str, np.ndarray], dims: dict[str, int]) -> None:
    for name, arr in mats.items():
        want = tuple(dims[d] for d in _SHAPES[name])
        if arr.shape != want:
            raise SchemaError(
                f"{where}.{name} is {arr.shape[0]}x{arr.shape[1]}, expected "
                f"{want[0]}x{want[1]} ({' x '.join(_SHAPES[name])})"
            )


def project_from_dict(doc: dict) -> ProjectFile:
    version = _require(_object(doc, "project", "project"), "schema_version", "project")
    if version == 1 and type(version) is int:
        raise SchemaError("schema_version 1 is refused: delete the derived blocks (a candidate's "
                          "Chat_*, a certificate's P, Q, S, Rtilde) and set schema_version to 3")
    if type(version) is not int or not 2 <= version <= SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    table: dict = {}  # (shape, bytes) -> the read-only array all copies share; i -> arrays[i]
    for pos, entry in enumerate(_list(doc.get("arrays", []), "arrays")):
        if not isinstance(entry, (list, np.ndarray)):  # an entry is a matrix, never an index
            raise SchemaError(f"arrays[{pos}]: expected a nested (2-D) array, got {entry!r}")
        table[pos] = _as_matrix(entry, f"arrays[{pos}]", table)
    raw_subs = _require(doc, "subsystems", "project")
    if not isinstance(raw_subs, list) or not raw_subs:
        raise SchemaError("subsystems must be a nonempty list")
    resolved: dict = {}  # an indexed entry's key, one length per kind -> the first one's result
    subsystems = []
    for pos, entry in enumerate(raw_subs):
        where = f"subsystems[{pos}]"
        entry = _object(entry, where, "subsystems")
        sid = _number(_require(entry, "id", where), f"{where}.id", int)
        if sid != pos:
            raise SchemaError(f"{where}: id must equal list position ({sid} != {pos})")
        key = _entry_key(entry, _SUBSYSTEM_MATRICES, (int,) * 5)
        if key not in resolved:
            resolved[key] = _matrices(entry, _SUBSYSTEM_MATRICES, where, table)
        s = LinearSubsystem(id=sid, **resolved[key],
                            C_int=_int_keyed(entry.get("C_int", {}), f"{where}.C_int", table))
        problems = validate_subsystem(s)
        if problems:
            raise SchemaError(f"{where}: " + "; ".join(problems))
        subsystems.append(s)
    subsystems = tuple(subsystems)

    edges = _object(_require(doc, "topology", "project"), "topology", "topology").get("edges", [])
    pairs = _list(edges, "topology.edges")
    for e in pairs:
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"topology.edges entries must be [from, to] pairs, got {e!r}")
    try:
        topology = Topology.from_pairs(
            subsystems, [[_number(v, "topology.edges", int) for v in e] for e in pairs]
        )
    except DimensionMismatch as exc:
        raise SchemaError(f"topology: {exc}") from exc

    def entries(key: str):
        """``(where, subsystem, entry, its dimensions)`` per entry of an optional list."""
        seen: dict[int, int] = {}  # subsystem -> list position of its entry
        for pos, entry in enumerate(_list(doc.get(key, []), key)):
            where = f"{key}[{pos}]"
            entry = _object(entry, where, key)
            sid = _number(_require(entry, "subsystem", where), f"{where}.subsystem", int)
            if not 0 <= sid < len(subsystems):
                raise SchemaError(f"{where}: unknown subsystem {sid}")
            if sid in seen:
                raise SchemaError(f"{key}[{seen[sid]}] and {where} both name subsystem {sid}")
            seen[sid] = pos
            s = subsystems[sid]
            yield where, s, entry, {"n": s.n, "m": s.m, "p": s.p}

    candidates: dict[int, AbstractionCandidate] = {}
    built: dict = {}  # (n, m, p) and the ids of a candidate's arrays -> the one candidate
    for where, s, entry, dims in entries("candidates"):
        indexed = (_entry_key(entry, _CANDIDATE_MATRICES, (int,) * 5), *dims.values())
        if indexed not in resolved:
            mats = _matrices(entry, ("P", "Ahat", "Bhat", "Dhat"), where, table)
            dims.update(nhat=mats["Ahat"].shape[0], mhat=mats["Bhat"].shape[1])
            fhat = entry.get("Fhat")  # absent: noiseless, a zero column count (the least psi)
            mats["Fhat"] = _as_matrix(
                np.zeros((dims["nhat"], 0)) if fhat is None else fhat, f"{where}.Fhat", table)
            dims["qhat"] = mats["Fhat"].shape[1]
            key = (*dims.values(), *map(id, mats.values()))  # the table keeps every id in use
            if key not in built:
                _check_shapes(where, mats, dims)
                built[key] = AbstractionCandidate(**mats)
            resolved[indexed] = built[key]
        candidates[s.id] = resolved[indexed]

    certificates: dict[int, AbstractionCertificate] = {}
    notes: dict[int, str] = {}
    derive = _shared(solve_structural)  # copies hold one set of arrays: one derivation
    for where, s, entry, dims in entries("certificates"):
        if s.id not in candidates:
            raise SchemaError(f"{where}: subsystem {s.id} has no candidate to derive it from")
        # the certificate reads the entry, the candidate and the subsystem's arrays
        key = (_entry_key(entry, ("M", "K", "pi", "kappa_hat"), (int, int, float, float)),
               id(candidates[s.id]), *map(id, (s.A, s.B, s.D, s.F, s.C_ext)))
        if key not in resolved:
            mats = _matrices(entry, _CERTIFICATE_MATRICES, where, table)
            _check_shapes(where, mats, dims)
            resolved[key] = derive(s, candidates[s.id], mats["M"], mats["K"],
                _number(_require(entry, "pi", where), f"{where}.pi", float),
                _number(_require(entry, "kappa_hat", where), f"{where}.kappa_hat", float))
        certificates[s.id] = resolved[key]
        if "note" in entry:
            if not isinstance(entry["note"], str):
                raise SchemaError(f"{where}.note: expected a string, got {entry['note']!r}")
            notes[s.id] = entry["note"]

    run = None
    if doc.get("run") is not None:
        given = _object(doc["run"], "run", "run")
        run = RunDefaults(**{f.name: _number(given.get(f.name, f.default), f"run.{f.name}",
                                             type(f.default)) for f in fields(RunDefaults)})

    return ProjectFile(SCHEMA_VERSION, subsystems, topology, candidates, certificates, notes, run)


def project_to_dict(project: ProjectFile) -> dict:
    """``project`` as a document whose fields name each matrix by its index in ``arrays``."""
    arrays: list = []  # each distinct matrix once, in order of first reference
    index: dict = {}  # (shape, bytes), as the load interns, and an array's id -> position
    def ref(a: np.ndarray) -> int:
        if id(a) not in index:  # the project keeps each array alive, so no id is reused
            key = (a.shape, a.tobytes())
            if key not in index:
                index[key] = len(arrays)
                arrays.append(a.tolist())
            index[id(a)] = index[key]
        return index[id(a)]
    def save_matrices(obj, names) -> dict[str, int]:
        return {name: ref(getattr(obj, name)) for name in names}
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "arrays": arrays,  # filled as the entries below are built
        "subsystems": [
            {"id": s.id, **save_matrices(s, _SUBSYSTEM_MATRICES),
             "C_int": {str(j): ref(m) for j, m in sorted(s.C_int.items())}}
            for s in project.subsystems
        ],
        "topology": {"edges": [list(pair) for pair in project.topology.pairs]},
    }
    if project.candidates:
        doc["candidates"] = [
            {"subsystem": sid, **save_matrices(c, _CANDIDATE_MATRICES)}
            for sid, c in sorted(project.candidates.items())
        ]
    if project.certificates:
        doc["certificates"] = [
            {
                "subsystem": sid,
                **save_matrices(c, _CERTIFICATE_MATRICES),
                "pi": c.pi,
                "kappa_hat": c.kappa_hat,
                **({"note": project.notes[sid]} if sid in project.notes else {}),
            }
            for sid, c in sorted(project.certificates.items())
        ]
    if project.run is not None:
        doc["run"] = asdict(project.run)
    return doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key written twice in it is a :class:`SchemaError`."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise SchemaError(f"key {key!r} is written twice in one object")
    return doc


def _boolean_at(obj) -> str | None:
    """Where the first ``true`` or ``false`` in the JSON value ``obj`` is, as
    ``.key[index]...``, or None: no field of a project is boolean, and numpy
    reads one among numbers as 1 or 0."""
    if isinstance(obj, dict):
        items, step = obj.items(), ".{}"
    elif isinstance(obj, list):
        if not {bool, list, dict} & set(map(type, obj)):  # a row of numbers, scanned in C
            return None
        items, step = enumerate(obj), "[{}]"
    else:
        return None
    for key, value in items:
        inner = "" if isinstance(value, bool) else _boolean_at(value)
        if inner is not None:
            return step.format(key) + inner
    return None


def load_project(path) -> ProjectFile:
    """Parse a project file; raises :class:`SchemaError` on any defect."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
        # the walk recurses as deep as the parser did, so it shares the RecursionError
        at = _boolean_at(doc) if b"true" in data or b"false" in data else None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if at is not None:
        raise SchemaError(f"{at.removeprefix('.')}: got a boolean, but no project field is one")
    return project_from_dict(doc)


def check_output(path) -> None:
    """Raise :func:`open_output`'s error now, before any work, if ``path`` cannot be written."""
    target = Path(path)
    if target.exists():
        ok = not target.is_dir() and os.access(target, os.W_OK)
    else:
        ok = target.parent.is_dir() and os.access(target.parent, os.W_OK)
    if not ok:
        raise SchemaError(f"cannot write {path}: not a writable file path")


@contextmanager
def open_output(path):
    """``path`` opened for writing text; an ``OSError`` raises :class:`SchemaError`, but for
    a ``BrokenPipeError``: a reader that closed the pipe ends the console script with exit 1."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def dumps(doc: dict) -> str:
    """JSON text of ``doc``: a line per top-level field and per entry of a list of objects
    or matrices, each written by one call of the C encoder."""
    encode = json.JSONEncoder(allow_nan=False).encode  # the C encoder: no indent
    try:
        lines = [
            f" {encode(key)}: [\n  " + ",\n  ".join(map(encode, value)) + "\n ]"
            if isinstance(value, list) and value and all(isinstance(v, (dict, list)) for v in value)
            else f" {encode(key)}: {encode(value)}"
            for key, value in doc.items()
        ]
    except ValueError as exc:  # a non-finite number, which JSON cannot hold
        raise SchemaError(f"cannot write a non-finite number as JSON ({exc})") from None
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_json(doc: dict, path) -> None:
    """Write ``dumps(doc)``; the file is opened, and so truncated, only once encoded."""
    text = dumps(doc)
    with open_output(path) as fh:
        fh.write(text)


def save_project(project: ProjectFile, path) -> None:
    """Write a project file (floats at full round-trip precision)."""
    write_json(project_to_dict(project), path)
