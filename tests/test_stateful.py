"""Stateful property tests: random operation sequences vs invariants.

Hypothesis drives random split/collapse walks over a DynamicMesh and
random build/reopen/query sequences over bulk-loaded B+-trees, checking
structural invariants after every step — the class of bug
(order-dependent corruption) that example-based tests rarely reach.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.mesh.simplify import simplify_to_pm
from tests.conftest import make_wavy_grid_mesh
from tests.oracles.vsplit import DynamicMesh

# One shared PM for every machine run (read-only).
_PM = None


def _pm():
    global _PM
    if _PM is None:
        mesh = make_wavy_grid_mesh(side=10, seed=12)
        _PM = simplify_to_pm(mesh)
        _PM.normalize_lod()
    return _PM


class DynamicMeshMachine(RuleBasedStateMachine):
    """Random walks through the split/collapse state space."""

    @initialize()
    def setup(self):
        self.pm = _pm()
        self.mesh = DynamicMesh(self.pm)

    @rule(choice=st.randoms(use_true_random=False))
    def split_something(self, choice):
        candidates = [
            i for i in self.mesh.active if not self.pm.node(i).is_leaf
        ]
        if not candidates:
            return
        self.mesh.split(choice.choice(sorted(candidates)))

    @rule(choice=st.randoms(use_true_random=False))
    def collapse_something(self, choice):
        candidates = []
        for node_id in self.mesh.active:
            parent_id = self.pm.node(node_id).parent
            if parent_id == -1:
                continue
            parent = self.pm.node(parent_id)
            if (
                parent.child1 in self.mesh.active
                and parent.child2 in self.mesh.active
            ):
                candidates.append(parent_id)
        if not candidates:
            return
        self.mesh.collapse(choice.choice(sorted(set(candidates))))

    @invariant()
    def active_is_antichain_cut(self):
        if not hasattr(self, "mesh"):
            return
        self.mesh.validate()

    @invariant()
    def covers_all_leaves(self):
        if not hasattr(self, "mesh"):
            return
        covered = set()
        for node_id in self.mesh.active:
            node = self.pm.node(node_id)
            if node.is_leaf:
                covered.add(node_id)
            covered.update(
                d.id for d in self.pm.descendants(node_id) if d.is_leaf
            )
        assert len(covered) == self.pm.n_leaves

    @invariant()
    def planar_edge_bound(self):
        if not hasattr(self, "mesh"):
            return
        v = len(self.mesh.active)
        e = len(self.mesh.edges())
        if v >= 3:
            assert e <= 3 * v - 6


TestDynamicMeshMachine = DynamicMeshMachine.TestCase
TestDynamicMeshMachine.settings = settings(
    max_examples=15,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class BTreeMachine(RuleBasedStateMachine):
    """Rebuild/reopen/query sequences against a dict model.

    The model is edited freely; ``build`` packs it into a fresh segment
    of the same database (older trees stay on disk beside it), and
    ``reopen`` closes the database and attaches to the last tree again.
    Queries always go to the last tree built, checked against the model
    as it stood at that build.
    """

    @initialize()
    def setup(self):
        import tempfile
        from pathlib import Path

        from repro.storage.database import Database

        self._dir = tempfile.TemporaryDirectory()
        self.path = Path(self._dir.name) / "db"
        self.db = Database(self.path, pool_pages=32)
        self.model: dict[int, int] = {}
        self.built: dict[int, int] = {}
        self.builds = 0
        self.tree = self._attach()
        self.tree.bulk_load([])

    def teardown(self):
        if hasattr(self, "db"):
            self.db.close()
            self._dir.cleanup()

    def _attach(self):
        from repro.index.btree import BPlusTree

        return BPlusTree(self.db.segment(f"bt{self.builds}"))

    @rule(key=st.integers(0, 300), value=st.integers(0, 10**9))
    def put(self, key, value):
        self.model[key] = value

    @rule(key=st.integers(0, 300))
    def drop(self, key):
        self.model.pop(key, None)

    @rule()
    def build(self):
        self.builds += 1
        self.tree = self._attach()
        self.tree.bulk_load(sorted(self.model.items()))
        self.built = dict(self.model)

    @rule()
    def reopen(self):
        from repro.storage.database import Database

        self.db.close()
        self.db = Database(self.path, pool_pages=32)
        self.tree = self._attach()

    @rule(lo=st.integers(0, 300), span=st.integers(0, 100))
    def range_scan(self, lo, span):
        got = [k for k, _ in self.tree.range(lo, lo + span)]
        expected = sorted(k for k in self.built if lo <= k <= lo + span)
        assert got == expected

    @invariant()
    def size_matches(self):
        if not hasattr(self, "tree"):
            return
        assert len(self.tree) == len(self.built)

    @invariant()
    def spot_lookups(self):
        if not hasattr(self, "tree"):
            return
        for key in list(self.built)[:5]:
            assert self.tree.get(key) == self.built[key]
        assert self.tree.get(301) is None

    @invariant()
    def structure_valid(self):
        if not hasattr(self, "tree"):
            return
        self.tree.validate()


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(
    max_examples=12,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
