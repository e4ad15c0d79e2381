"""Only ``repro.session`` (and the kernel itself) builds deployments.

Every runner, figure and bench point gets its simulator, cluster and
coordination service from :class:`repro.session.Session`; a second
hand-wired copy is how the copies drifted apart before.
"""

import ast
from pathlib import Path

import repro

BUILT_ONLY_BY_SESSION = {"Simulator", "Cluster", "CoordinationService"}
SRC = Path(repro.__file__).resolve().parent


def _allowed(path: Path) -> bool:
    relative = path.relative_to(SRC).as_posix()
    return relative.startswith("sim/") or relative == "session.py"


def _constructions(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in BUILT_ONLY_BY_SESSION:
            yield f"{path.relative_to(SRC).as_posix()}:{node.lineno} {name}("


def test_no_deployment_is_wired_outside_the_session():
    offenders = [
        hit
        for path in sorted(SRC.rglob("*.py")) if not _allowed(path)
        for hit in _constructions(path)
    ]
    assert offenders == []


def test_the_check_sees_the_session_constructions():
    hits = list(_constructions(SRC / "session.py"))
    assert {hit.split()[-1] for hit in hits} == {
        "Simulator(", "Cluster(", "CoordinationService("}
