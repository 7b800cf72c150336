"""Shared-memory arena lifecycle: export/attach identity, unlink
discipline, and solve parity (:mod:`repro.core.shm`)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.arena import CompiledProblem
from repro.core.registry import solve_report
from repro.core.session import SolveSession
from repro.core.shm import (
    ShmError,
    active_segments,
    attach_arena,
    attach_session,
)
from repro.fuzz.generator import CASE_KINDS, make_case
from repro.workloads import scaling_problem

_ROOT = Path(__file__).resolve().parents[2]

#: The CSR slabs whose bytes must survive the export/attach round trip.
_SLABS = (
    "dep_offsets",
    "dep_indices",
    "wit_offsets",
    "wit_indices",
    "weights",
    "is_delta",
)


def _shm_path(name: str) -> Path | None:
    root = Path("/dev/shm")
    return root / name if root.is_dir() else None


# ----------------------------------------------------------------------
# Bitwise identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", CASE_KINDS)
def test_export_attach_bitwise_identity(kind):
    """Every fuzz shape's attached arena is byte-for-byte the local
    compile: slabs, interning tables, ΔV bindings, flags."""
    before = set(active_segments())
    problem = make_case(kind, random.Random(11)).problem
    arena = CompiledProblem.of(problem)
    session = SolveSession.of(problem)

    manifest = session.export_shm()
    attached_session = attach_session(manifest)
    attached = attached_session.arena

    for name in _SLABS:
        local = getattr(arena, name)
        remote = getattr(attached, name)
        assert remote.dtype == local.dtype, name
        assert remote.tobytes() == local.tobytes(), name
    assert attached.facts == arena.facts
    assert attached.view_tuples == arena.view_tuples
    assert attached.fact_ids == arena.fact_ids
    assert attached.vt_ids == arena.vt_ids
    assert attached.delta_ids == arena.delta_ids
    assert attached.candidate_ids == arena.candidate_ids
    assert attached.preserved_ids == arena.preserved_ids
    assert attached.weights_list == arena.weights_list
    assert attached.num_delta == arena.num_delta
    assert attached.balanced == arena.balanced
    assert attached.delta_penalty == arena.delta_penalty
    assert attached.delta_flags == arena.delta_flags

    attached_session.close()
    session.close()
    assert set(active_segments()) == before


def test_export_is_idempotent():
    problem = make_case("chain", random.Random(2)).problem
    session = SolveSession.of(problem)
    first = session.export_shm()
    second = session.export_shm()
    assert first["segment"] == second["segment"]
    session.close()


def test_each_export_gets_its_own_segment():
    first = SolveSession.of(make_case("chain", random.Random(5)).problem)
    second = SolveSession.of(make_case("star", random.Random(6)).problem)
    try:
        names = [
            first.export_shm()["segment"],
            second.export_shm()["segment"],
        ]
        assert names[0] != names[1]
        assert all(name.startswith("repro_") for name in names)
        attached = attach_session(first.export_shm())
        assert (
            attached.arena.wit_indices.tobytes()
            == first.arena.wit_indices.tobytes()
        )
        attached.close()
    finally:
        for session in (first, second):
            session.close()


def test_attach_slabs_are_readonly_views():
    """Attached slabs are reader-only views of the shared segment —
    a writer would corrupt every attached sibling."""
    problem = make_case("star", random.Random(4)).problem
    session = SolveSession.of(problem)
    attached = attach_session(session.export_shm()).arena
    with pytest.raises((ValueError, RuntimeError)):
        attached.weights[0] = 99.0
    session.close()


def test_rebound_sibling_shares_attached_segment():
    """ΔV rebinds of an attached problem keep pointing at the parent
    segment — no copy, no re-export."""
    problem = scaling_problem(random.Random(1), facts_per_relation=60)
    session = SolveSession.of(problem)
    attached = attach_session(session.export_shm())
    base_arena = attached.arena

    vts = attached.problem.all_view_tuples()[:2]
    request: dict[str, list] = {}
    for vt in vts:
        request.setdefault(vt.view, []).append(list(vt.values))
    sibling = attached.problem.with_deletions(request)
    sibling_arena = CompiledProblem.of(sibling)
    assert sibling_arena is not base_arena
    assert sibling_arena.dep_indices is base_arena.dep_indices
    assert sibling_arena.weights is base_arena.weights
    assert sibling_arena._shm is base_arena._shm

    attached.close()
    session.close()


# ----------------------------------------------------------------------
# Solve parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", CASE_KINDS)
def test_attach_vs_recompile_solve_parity(kind):
    """Attached instances solve to the same answer, by the same route,
    with the same oracle accounting, as the local compile."""
    problem = make_case(kind, random.Random(7)).problem
    session = SolveSession.of(problem)
    attached = attach_session(session.export_shm())

    base = solve_report(problem, method="auto")
    twin = solve_report(attached.problem, method="auto")

    assert twin.propagation.deleted_facts == base.propagation.deleted_facts
    assert twin.method == base.method
    assert twin.route == base.route
    assert twin.propagation.objective() == base.propagation.objective()
    base_counters = base.counters
    twin_counters = twin.counters
    assert (base_counters is None) == (twin_counters is None)
    if base_counters is not None:
        assert twin_counters.as_dict() == base_counters.as_dict()

    attached.close()
    session.close()


# ----------------------------------------------------------------------
# Lifecycle / unlink discipline
# ----------------------------------------------------------------------


def test_segment_unlinked_on_session_close():
    problem = make_case("chain", random.Random(9)).problem
    session = SolveSession.of(problem)
    manifest = session.export_shm()
    name = manifest["segment"]
    path = _shm_path(name)
    if path is not None:
        assert path.exists()
    assert name in active_segments()

    session.close()
    assert name not in active_segments()
    if path is not None:
        assert not path.exists()

    with pytest.raises(ShmError):
        attach_arena(manifest)


def test_worker_crash_leaves_no_leak(tmp_path):
    """A SIGKILLed attacher neither unlinks the owner's segment nor
    leaves resource-tracker leak warnings; the owner's close still
    removes the segment."""
    child = (
        "import os, pickle, sys\n"
        "manifest = pickle.load(open(sys.argv[1], 'rb'))\n"
        "from repro.core.shm import attach_session\n"
        "session = attach_session(manifest)\n"
        "assert session.arena.weights.size >= 0\n"
        "os.kill(os.getpid(), 9)\n"
    )
    driver = (
        "import pickle, random, signal, subprocess, sys, tempfile\n"
        "from repro.core.session import SolveSession\n"
        "from repro.core.shm import active_segments\n"
        "from repro.fuzz.generator import make_case\n"
        "problem = make_case('chain', random.Random(3)).problem\n"
        "session = SolveSession.of(problem)\n"
        "manifest = session.export_shm()\n"
        "name = manifest['segment']\n"
        "with tempfile.NamedTemporaryFile(suffix='.pkl', delete=False) as fh:\n"
        "    pickle.dump(manifest, fh)\n"
        f"child = subprocess.run([sys.executable, '-c', {child!r}, fh.name],\n"
        "                       capture_output=True, text=True, timeout=120)\n"
        "assert child.returncode == -signal.SIGKILL, child.stderr\n"
        "assert child.stderr.strip() == '', child.stderr\n"
        "import os\n"
        "if os.path.isdir('/dev/shm'):\n"
        "    assert os.path.exists('/dev/shm/' + name), 'crash unlinked owner segment'\n"
        "session.close()\n"
        "assert name not in active_segments()\n"
        "if os.path.isdir('/dev/shm'):\n"
        "    assert not os.path.exists('/dev/shm/' + name)\n"
        "print('CLEAN')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", driver],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "CLEAN" in result.stdout
    assert "resource_tracker" not in result.stderr, result.stderr
    assert "leaked" not in result.stderr, result.stderr


def test_pool_workers_attach_and_release_cleanly(tmp_path):
    """The portfolio pool path end to end in a fresh interpreter:
    workers attach by manifest, answers match the serial path, and
    process exit leaves no segment and no tracker warnings."""
    driver = (
        "import random\n"
        "from repro.workloads import scaling_problem\n"
        "from repro.core.portfolio import run_delta_batch\n"
        "problem = scaling_problem(random.Random(5),"
        " facts_per_relation=80)\n"
        "base = problem.deleted_view_tuples()\n"
        "rng = random.Random(1)\n"
        "reqs = []\n"
        "for _ in range(4):\n"
        "    req = {}\n"
        "    for vt in rng.sample(base, 2):\n"
        "        req.setdefault(vt.view, []).append(list(vt.values))\n"
        "    reqs.append(req)\n"
        "pooled = run_delta_batch(problem, reqs, max_workers=2)\n"
        "serial = run_delta_batch(problem, reqs, max_workers=0)\n"
        "assert all(o.ok for o in pooled), [o.error for o in pooled]\n"
        "for a, b in zip(pooled, serial):\n"
        "    assert a.propagation.deleted_facts == "
        "b.propagation.deleted_facts\n"
        "print('POOL-OK')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", driver],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "POOL-OK" in result.stdout
    assert "resource_tracker" not in result.stderr, result.stderr
    assert "leaked" not in result.stderr, result.stderr


def test_attach_after_owner_release_raises():
    problem = make_case("chain", random.Random(13)).problem
    session = SolveSession.of(problem)
    manifest = session.export_shm()
    session.close()
    with pytest.raises(ShmError):
        attach_session(manifest)


def test_manifest_format_is_checked():
    problem = make_case("chain", random.Random(21)).problem
    session = SolveSession.of(problem)
    manifest = dict(session.export_shm())
    manifest["format"] = "repro-shm-arena/999"
    with pytest.raises(ShmError):
        attach_arena(manifest)
    session.close()


def test_session_document_and_content_hash_round_trip():
    """The session-cached doc is the canonical serialization, and the
    attached session inherits both it and the content hash."""
    from repro.io.serialize import problem_from_dict

    problem = make_case("star", random.Random(8)).problem
    session = SolveSession.of(problem)
    twin = problem_from_dict(session.document)
    assert SolveSession.of(twin).content_hash == session.content_hash

    attached = attach_session(session.export_shm())
    assert attached.content_hash == session.content_hash
    assert attached.document == session.document
    attached.close()
    session.close()
