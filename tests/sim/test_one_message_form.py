"""There is one message form: an object message is the object.

A point-to-point message carries either bytes (copied at the send) or
the sender's object itself, by reference; :func:`repro.simmpi.comm.wire_size`
prices it with a pickle that never travels. A second form — pickle on
send, unpickle on receive — would give the same message two host costs
and two aliasing rules, so CI fails on its parts: a ``pickle.loads``
anywhere under ``src/repro``, a ``pickle`` import outside
``simmpi/comm.py``, any name of the retired object-message API, or a
send/receive method on ``Communicator`` beyond ``isend``/``send``/
``irecv``/``recv``. The pickle checks are AST-based; the retired names
are refused anywhere in the text, comments and docstrings included.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.simmpi.comm import Communicator

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: The one module that may pickle: the price of a message.
PRICING_MODULE = "simmpi/comm.py"

#: The retired object-message API.
RETIRED = (
    "pack_object",
    "unpack_object",
    "send_object",
    "recv_object",
    "isend_ref",
    "RpcEndpoint",
)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


def _pickle_uses(text: str, filename: str) -> tuple[list[int], list[int]]:
    """Lines that import pickle, and lines that call ``loads`` on it."""
    imports, loads = [], []
    for node in ast.walk(ast.parse(text, filename=filename)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in ("pickle", "_pickle") for a in node.names):
                imports.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in ("pickle", "_pickle"):
                imports.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("loads", "load", "Unpickler"):
                if isinstance(func.value, ast.Name) and func.value.id in ("pickle", "_pickle"):
                    loads.append(node.lineno)
    return imports, loads


def test_nothing_unpickles_a_message():
    offenders = []
    for rel, text in _sources():
        _, loads = _pickle_uses(text, rel)
        offenders += [f"{rel}:{line}" for line in loads]
    assert offenders == [], f"pickle.loads under src/repro: {offenders}"


def test_only_the_pricing_module_imports_pickle():
    importers = []
    for rel, text in _sources():
        imports, _ = _pickle_uses(text, rel)
        importers += [f"{rel}:{line}" for line in imports if rel != PRICING_MODULE]
    assert importers == [], f"pickle imported outside {PRICING_MODULE}: {importers}"


def test_the_retired_object_message_api_stays_gone():
    hits = [
        f"{rel}:{n}: {name}"
        for rel, text in _sources()
        for n, line in enumerate(text.splitlines(), 1)
        for name in RETIRED
        if name in line
    ]
    assert hits == [], hits


def test_communicator_has_one_send_and_one_receive():
    messaging = {
        name
        for name in dir(Communicator)
        if not name.startswith("_") and ("send" in name or "recv" in name)
    }
    assert messaging == {"isend", "send", "irecv", "recv"}
