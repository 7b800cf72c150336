"""Tests for repro.relational.tuples (facts)."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import InstanceError
from repro.relational.schema import Key, RelationSchema
from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple


class TestFact:
    def test_equality_and_hash(self):
        a = Fact("T", ("x", 1))
        b = Fact("T", ["x", 1])
        c = Fact("U", ("x", 1))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_immutable(self):
        fact = Fact("T", ("x",))
        with pytest.raises(AttributeError):
            fact.relation = "U"

    def test_arity_and_indexing(self):
        fact = Fact("T", ("x", "y", "z"))
        assert fact.arity == 3
        assert fact[1] == "y"
        assert list(fact) == ["x", "y", "z"]

    def test_key_values(self):
        rel = RelationSchema("T", ("a", "b", "c"), Key((0, 2)))
        fact = Fact("T", ("x", "y", "z"))
        assert fact.key_values(rel) == ("x", "z")

    def test_key_values_wrong_relation_raises(self):
        rel = RelationSchema("U", ("a",))
        with pytest.raises(InstanceError):
            Fact("T", ("x",)).key_values(rel)

    def test_key_values_wrong_arity_raises(self):
        rel = RelationSchema("T", ("a", "b"))
        with pytest.raises(InstanceError):
            Fact("T", ("x",)).key_values(rel)

    def test_ordering_is_total_and_deterministic(self):
        facts = [Fact("T", (2,)), Fact("S", (9,)), Fact("T", (1,))]
        ordered = sorted(facts)
        assert [f.relation for f in ordered] == ["S", "T", "T"]
        assert ordered[1].values == (1,)

    def test_ordering_mixed_types_does_not_crash(self):
        assert sorted([Fact("T", ("a",)), Fact("T", (1,))])

    def test_repr(self):
        assert repr(Fact("T", ("x", 1))) == "T('x', 1)"

    def test_usable_in_sets(self):
        facts = {Fact("T", (1,)), Fact("T", (1,)), Fact("T", (2,))}
        assert len(facts) == 2


class TestCopyAndPickle:
    """Both hash-caching value classes rebuild from their values, so a
    copy or an unpickled object hashes under the current process's
    string-hash seed."""

    VALUES = (Fact("R", ("x", "a")), ViewTuple("Q", ("x", "a", 3)))

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda value: pickle.loads(pickle.dumps(value)),
        ],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trip(self, value, clone):
        twin = clone(value)
        assert twin == value and hash(twin) == hash(value)
        assert twin in {value} and value in {twin}
        assert repr(twin) == repr(value)

    def test_unpickled_under_another_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        values = (
            "from repro.relational.tuples import Fact\n"
            "from repro.relational.views import ViewTuple\n"
            "values = (Fact('R', ('x', 'a')), ViewTuple('Q', ('x', 'a', 3)))\n"
        )

        def run(code: str, seed: str, data: bytes = b"") -> bytes:
            done = subprocess.run(
                [sys.executable, "-c", values + code],
                input=data,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        pickled = run(
            "import pickle, sys\n"
            "sys.stdout.buffer.write(pickle.dumps(values))\n",
            seed="1",
        )
        out = run(
            "import pickle, sys\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "local = set(values)\n"
            "assert all(value in local for value in loaded), loaded\n"
            "assert set(loaded) == local\n"
            "print('ok')\n",
            seed="2",
            data=pickled,
        )
        assert out.strip() == b"ok"
