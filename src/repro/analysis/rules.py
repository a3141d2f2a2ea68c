"""The reprolint rule set.

Every rule is grounded in a bug this repository actually shipped (and
fixed) or a standing invariant of the design:

========  ==================================================================
R1        Lock discipline: attributes a lock protects must be accessed
          under it (the ``Histogram.snapshot()`` race).
R2        Clamped probes: R*-tree range queries only through the
          sanctioned wrappers, query boxes through :func:`clamp_lod`
          (the ``e_cap`` blind spot).
R3        Lazy init on shared objects needs double-checked locking
          (the ``DMQueryResult._edges`` race).
R4        No load-bearing ``assert`` under ``src/`` — raise typed
          errors from :mod:`repro.errors` (asserts vanish under -O).
R5        Metric names come from :data:`repro.obs.metrics.METRIC_NAMES`
          (typos fork series silently).
R6        No bare ``Lock.acquire()`` without try/finally release or a
          context manager.
R7        Raw page I/O (``os.pread``/``os.pwrite``) only inside the
          storage layer's sanctioned modules — everything else goes
          through :class:`~repro.storage.pager.Pager`, which seals and
          verifies page checksums.
R8        Registry hygiene: entries added to ``METRIC_NAMES`` /
          ``METRIC_PREFIXES`` follow the ``family.metric`` grammar
          with a family declared in ``METRIC_FAMILIES`` (a misspelt
          family dodges every dashboard that groups by family).
R12       Epoch snapshot discipline: the engine's swappable
          ``(store, epoch)`` slot is pinned once per request via
          ``pinned_snapshot()`` — direct slot access outside the
          three sanctioned methods can tear across a patch commit —
          and its patch history, the other slot a commit replaces
          whole, is read only by ``patched_since()``.
========  ==================================================================

(R9–R11, the interprocedural lock analyses, live in
:mod:`repro.analysis.locksets`.)

Rules R1/R3 scope themselves to classes that *own* a lock (they assign
``threading.Lock()``/``RLock()`` to an attribute), so single-threaded
value classes stay out of scope by construction.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import (
    FileContext,
    Rule,
    Violation,
    class_lock_attrs,
    is_self_attr,
    is_with_lock,
    iter_attr_accesses,
    iter_methods,
    iter_statement_lists,
    register,
)

#: Modules allowed to probe the DM R*-tree directly (R2).  Everything
#: else goes through the query processors, which clamp the probe to
#: ``e_cap`` (the engine reads cluster runs and probes no index).
SANCTIONED_PROBE_MODULES = (
    "src/repro/core/query.py",
    "src/repro/index/rstar.py",
)

#: Modules whose query-box construction must route LOD coordinates
#: through ``clamp_lod``: the query processors, and the engine, whose
#: request boxes select clusters by the same capped extents.
CLAMP_MODULES = (
    "src/repro/core/query.py",
    "src/repro/core/engine.py",
)

#: Receiver names that identify an R*-tree probe (``store.rtree``,
#: a local ``tree``/``rtree`` variable...).
_RTREE_NAMES = frozenset({"rtree", "tree", "rstar", "rstar_tree", "r_tree"})

#: The only modules allowed to call ``os.pread``/``os.pwrite`` (R7):
#: the pager (seals + verifies checksums), the WAL (its own record
#: framing), and the corruption injector (must damage bytes *around*
#: the pager, which would refuse to produce them).
SANCTIONED_RAW_IO_MODULES = (
    "src/repro/storage/pager.py",
    "src/repro/storage/wal.py",
    "src/repro/storage/integrity.py",
)


def _terminal_name(node: ast.AST) -> str:
    """The last identifier of a dotted/indexed expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return ""


@register
class LockDisciplineRule(Rule):
    """R1: attributes a lock protects are accessed only under it.

    For every class that owns a lock, the rule infers the *guarded*
    set — private attributes mutated while the lock is held (direct
    assignment, augmented assignment, subscript stores, or in-place
    mutator calls like ``.append``/``.clear``) — then flags any access
    to a guarded attribute outside the lock.  Two idioms stay legal:

    * ``__init__``/``__new__`` construct state before it is shared;
    * a *read* in a method that also touches the same attribute under
      the lock (the double-checked fast path R3 prescribes);
    * methods named ``*_locked`` declare caller-holds-the-lock.
    """

    id = "R1"
    title = "lock-protected attribute accessed outside its lock"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        lock_attrs = class_lock_attrs(cls)
        if not lock_attrs:
            return
        accesses = [
            access
            for method in iter_methods(cls)
            for access in iter_attr_accesses(method, lock_attrs)
        ]
        guarded = {
            access.attr
            for access in accesses
            if access.is_write
            and access.under_lock
            and access.method not in ("__init__", "__new__")
        }
        locked_reads_by_method = {
            (access.method, access.attr)
            for access in accesses
            if access.under_lock
        }
        for access in accesses:
            if access.attr not in guarded or access.under_lock:
                continue
            if access.method in ("__init__", "__new__"):
                continue
            if (
                not access.is_write
                and (access.method, access.attr) in locked_reads_by_method
            ):
                continue  # Double-checked fast path: re-read under lock.
            verb = "written" if access.is_write else "read"
            yield self.violation(
                ctx,
                access.node,
                f"{cls.name}.{access.attr} is guarded by a lock but "
                f"{verb} outside it in {access.method}(); wrap the "
                "access in the lock (or suffix the method _locked if "
                "callers hold it)",
            )


@register
class ClampedProbeRule(Rule):
    """R2: R*-tree probes only via sanctioned, e_cap-clamped wrappers.

    Part A: a ``<rtree>.search(...)`` call outside
    :data:`SANCTIONED_PROBE_MODULES` bypasses the ``min(lod, e_cap)``
    clamp and re-opens the e_cap blind spot (``lod > e_cap`` silently
    returned an empty mesh instead of the base mesh).

    Part B: inside :data:`CLAMP_MODULES`, every query-box
    construction (``Box3.from_rect``) must sit in a function that
    routes its LOD coordinates through ``clamp_lod``.
    """

    id = "R2"
    title = "unsanctioned or unclamped R*-tree range query"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.path_endswith(*SANCTIONED_PROBE_MODULES):
            for node in ast.walk(ctx.tree):
                if self._is_rtree_search(node):
                    yield self.violation(
                        ctx,
                        node,
                        "direct R*-tree range query outside the "
                        "sanctioned wrapper (core/query.py); use "
                        "uniform_query/single_base_query or "
                        "range_columns with a clamp_lod-ed box so the "
                        "probe is clamped to e_cap",
                    )
        if ctx.path_endswith(*CLAMP_MODULES):
            yield from self._check_clamp(ctx)

    @staticmethod
    def _is_rtree_search(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "search"
            and _terminal_name(node.func.value) in _RTREE_NAMES
        )

    def _check_clamp(self, ctx: FileContext) -> Iterator[Violation]:
        functions = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            if function.name == "clamp_lod":
                continue
            calls_clamp = any(
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "clamp_lod"
                for node in ast.walk(function)
            )
            if calls_clamp:
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_rect"
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"{function.name}() builds a query box without "
                        "routing its LOD coordinates through "
                        "clamp_lod(); probes above e_cap return an "
                        "empty mesh instead of the base mesh",
                    )


@register
class LazyInitRule(Rule):
    """R3: lazy init of shared attributes uses double-checked locking.

    In a lock-owning class, ``if self._x is None: self._x = ...`` is a
    publication race unless (a) it already runs under the lock, or
    (b) the body takes the lock and re-checks before assigning.  A
    class that owns no lock is out of scope: ``DMQueryResult``
    memoises an immutable array compute-then-assign.
    """

    id = "R3"
    title = "unsynchronised lazy initialisation of a shared attribute"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        lock_attrs = class_lock_attrs(cls)
        if not lock_attrs:
            return
        for method in iter_methods(cls):
            if method.name in ("__init__", "__new__"):
                continue
            if method.name.endswith("_locked"):
                continue
            locked_ids: set[int] = set()
            for node in ast.walk(method):
                if isinstance(node, ast.With) and is_with_lock(
                    node, lock_attrs
                ):
                    locked_ids.update(id(child) for child in ast.walk(node))
            for node in ast.walk(method):
                attr = self._lazy_init_attr(node)
                if attr is None:
                    continue
                if id(node) in locked_ids:
                    continue
                if self._body_is_checked_lock(node, attr, lock_attrs):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"lazy init of {cls.name}.{attr} races: use "
                    "double-checked locking (check, take the lock, "
                    "re-check, then assign)",
                )

    @staticmethod
    def _lazy_init_attr(node: ast.AST) -> str | None:
        """``_x`` when node is ``if self._x is None:`` assigning it."""
        if not isinstance(node, ast.If):
            return None
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and is_self_attr(test.left)
            and test.left.attr.startswith("_")
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return None
        attr = test.left.attr
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if is_self_attr(target) and target.attr == attr:
                        return attr
        return None

    @staticmethod
    def _body_is_checked_lock(
        node: ast.If, attr: str, lock_attrs: set[str]
    ) -> bool:
        """Body takes the lock and re-checks before assigning."""
        for stmt in node.body:
            if isinstance(stmt, ast.With) and is_with_lock(stmt, lock_attrs):
                recheck = any(
                    LazyInitRule._lazy_init_attr(inner) == attr
                    for inner in ast.walk(stmt)
                )
                if recheck:
                    return True
        return False


@register
class NoAssertRule(Rule):
    """R4: no load-bearing ``assert`` in production code.

    ``python -O`` strips assert statements, silently disabling the
    check.  Library invariants raise
    :class:`repro.errors.InvariantError` (or another typed error)
    instead; tests and benchmarks may assert freely.
    """

    id = "R4"
    title = "assert statement in src/ (stripped under python -O)"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    ctx,
                    node,
                    "assert is stripped under python -O; raise "
                    "InvariantError (repro.errors) so the invariant "
                    "survives in production",
                )


@register
class MetricRegistryRule(Rule):
    """R5: literal metric names must be declared in the registry.

    :class:`~repro.obs.metrics.MetricsRegistry` creates instruments on
    first use, so a typo'd name silently forks a series instead of
    failing.  Every string-literal name passed to ``.counter()`` /
    ``.gauge()`` / ``.histogram()`` / ``.timer()`` must appear in
    :data:`repro.obs.metrics.METRIC_NAMES`; f-string names must start
    with a prefix from :data:`repro.obs.metrics.METRIC_PREFIXES`.

    A *source* (``.add_source(read)``) names its metrics as the keys
    of the dict ``read`` returns; the registry checks them when the
    source is registered, this rule before the code runs: every
    string-literal key of a dict literal in the lambda — or returned
    by the same-file function — handed to ``add_source`` must be in
    ``METRIC_NAMES`` too.
    """

    id = "R5"
    title = "metric name not in the declared registry"

    _FACTORIES = frozenset({"counter", "gauge", "histogram", "timer"})

    def __init__(self) -> None:
        self._names: frozenset[str] | None = None
        self._prefixes: frozenset[str] | None = None

    def _registry(self) -> tuple[frozenset[str], frozenset[str]]:
        if self._names is None or self._prefixes is None:
            from repro.obs.metrics import METRIC_NAMES, METRIC_PREFIXES

            self._names = METRIC_NAMES
            self._prefixes = METRIC_PREFIXES
        return self._names, self._prefixes

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        names, prefixes = self._registry()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                continue
            if node.func.attr == "add_source":
                for key in self._source_keys(ctx.tree, node.args[0]):
                    if key.value not in names:
                        yield self.violation(
                            ctx,
                            key,
                            f"metric source returns '{key.value}', "
                            "which is not declared in "
                            "repro.obs.metrics.METRIC_NAMES "
                            "(add_source would refuse it at run time)",
                        )
                continue
            if node.func.attr not in self._FACTORIES:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
                if name in names or any(
                    name.startswith(prefix) for prefix in prefixes
                ):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"metric name '{name}' is not declared in "
                    "repro.obs.metrics.METRIC_NAMES; add it there (a "
                    "typo here would silently fork the series)",
                )
            elif isinstance(arg, ast.JoinedStr):
                head = ""
                if arg.values and isinstance(arg.values[0], ast.Constant):
                    head = str(arg.values[0].value)
                if head and any(
                    head.startswith(prefix) for prefix in prefixes
                ):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    "dynamically formatted metric name must start with "
                    "a prefix declared in "
                    "repro.obs.metrics.METRIC_PREFIXES",
                )


    @staticmethod
    def _source_keys(tree: ast.AST, read: ast.expr) -> Iterator[ast.Constant]:
        """The literal string keys of the dicts a source returns:
        ``read`` is a lambda, or the name of a function in ``tree``."""
        roots: list[ast.AST] = []
        if isinstance(read, ast.Lambda):
            roots.append(read.body)
        elif isinstance(read, ast.Name):
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name == read.id:
                    roots.extend(
                        ret.value
                        for ret in ast.walk(fn)
                        if isinstance(ret, ast.Return) and ret.value
                    )
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            yield key


@register
class BareAcquireRule(Rule):
    """R6: ``Lock.acquire()`` needs a paired, exception-safe release.

    An acquire whose release can be skipped by an exception leaks the
    lock and deadlocks every later waiter.  Allowed forms: ``with
    lock:`` (preferred) or ``lock.acquire()`` immediately followed by
    ``try: ... finally: lock.release()``.
    """

    id = "R6"
    title = "bare Lock.acquire() without try/finally release"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        sanctioned: set[int] = set()
        for stmts in iter_statement_lists(ctx.tree):
            for index, stmt in enumerate(stmts):
                call = self._acquire_stmt(stmt)
                if call is None:
                    continue
                if index + 1 < len(stmts) and self._try_releases(
                    stmts[index + 1]
                ):
                    sanctioned.add(id(call))
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and id(node) not in sanctioned
            ):
                yield self.violation(
                    ctx,
                    node,
                    "acquire() without a guaranteed release: use "
                    "'with lock:' or follow the acquire immediately "
                    "with try/finally lock.release()",
                )

    @staticmethod
    def _acquire_stmt(stmt: ast.stmt) -> ast.Call | None:
        value = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "acquire"
        ):
            return value
        return None

    @staticmethod
    def _try_releases(stmt: ast.stmt) -> bool:
        if not isinstance(stmt, ast.Try) or not stmt.finalbody:
            return False
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
            for final in stmt.finalbody
            for node in ast.walk(final)
        )


@register
class RawPageIORule(Rule):
    """R7: raw page I/O stays inside the sanctioned storage modules.

    A bare ``os.pread``/``os.pwrite`` outside
    :data:`SANCTIONED_RAW_IO_MODULES` bypasses the pager — pages
    written that way carry no (or a stale) crc trailer and fail
    verification on the next read; pages read that way skip
    verification entirely.  Route page access through
    :class:`~repro.storage.pager.Pager` (or a :class:`Segment`), which
    seals on write and verifies on read.
    """

    id = "R7"
    title = "raw os.pread/os.pwrite outside the sanctioned storage modules"

    _RAW_IO = frozenset({"pread", "pwrite"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.path_endswith(*SANCTIONED_RAW_IO_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._RAW_IO
                and _terminal_name(node.func.value) == "os"
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"os.{node.func.attr} bypasses the pager's checksum "
                    "seal/verify; use Pager.read_page/write_page (or "
                    "Segment), or repro.storage.inject_corruption for "
                    "deliberate damage in drills",
                )


@register
class MetricRegistryGrammarRule(Rule):
    """R8: registry entries follow the ``family.metric`` grammar.

    R5 guarantees emitted names come *from* the registry; R8 guards
    the registry itself.  Every string literal added to
    ``METRIC_NAMES`` must be ``family.metric`` — a head declared in
    :data:`repro.obs.metrics.METRIC_FAMILIES` followed by one or more
    lowercase ``[a-z0-9_]`` segments — and every ``METRIC_PREFIXES``
    entry must additionally end with ``"."`` (it is a prefix for
    dynamically formatted names).  A registry addition with a misspelt
    family (``sol.`` for ``slo.``) would sail through R5 while dodging
    every dashboard that groups series by family.
    """

    id = "R8"
    title = "metric registry entry violates the family.metric grammar"

    _TARGETS = frozenset({"METRIC_NAMES", "METRIC_PREFIXES"})
    _SEGMENT = re.compile(r"[a-z][a-z0-9_]*\Z")

    def __init__(self) -> None:
        self._families: frozenset[str] | None = None

    def _known_families(self) -> frozenset[str]:
        if self._families is None:
            from repro.obs.metrics import METRIC_FAMILIES

            self._families = METRIC_FAMILIES
        return self._families

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            assignment = self._registry_assignment(node)
            if assignment is None:
                continue
            target, value = assignment
            for literal in ast.walk(value):
                if isinstance(literal, ast.Constant) and isinstance(
                    literal.value, str
                ):
                    problem = self._problem(
                        literal.value, prefix=target == "METRIC_PREFIXES"
                    )
                    if problem is not None:
                        yield self.violation(
                            ctx,
                            literal,
                            f"{target} entry '{literal.value}' {problem}",
                        )

    @classmethod
    def _registry_assignment(
        cls, node: ast.AST
    ) -> tuple[str, ast.expr] | None:
        """``(registry_name, assigned_value)`` when ``node`` assigns
        one of the metric registries, else None."""
        if isinstance(node, ast.AnnAssign):
            targets: list[ast.expr] = [node.target]
            value = node.value
        elif isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        else:
            return None
        if value is None:
            return None
        for target in targets:
            if isinstance(target, ast.Name) and target.id in cls._TARGETS:
                return target.id, value
        return None

    def _problem(self, name: str, prefix: bool) -> str | None:
        """Why ``name`` breaks the grammar, or None if well-formed."""
        if prefix:
            if not name.endswith("."):
                return (
                    "must end with '.' (prefixes head dynamically "
                    "formatted names)"
                )
            segments = name[:-1].split(".")
        else:
            if name.endswith("."):
                return "must not end with '.' (that form is a prefix)"
            segments = name.split(".")
        if len(segments) < 2:
            return "must follow the family.metric grammar"
        if not all(self._SEGMENT.fullmatch(segment) for segment in segments):
            return (
                "has a segment outside the [a-z][a-z0-9_]* grammar"
            )
        families = self._known_families()
        if segments[0] not in families:
            return (
                f"uses family '{segments[0]}', which is not declared "
                "in repro.obs.metrics.METRIC_FAMILIES"
            )
        return None


@register
class EpochSnapshotRule(Rule):
    """R12: swapped store state only via the snapshot contract.

    A mutable store commits patches by *swapping* an engine's pinned
    ``(store, epoch)`` snapshot (``install_store``).  Any code path
    that dereferences the swap slot ``self._snap`` more than once per
    request can observe two different epochs in one answer — the
    classic torn read the epoch design exists to prevent.  The
    contract: methods pin the snapshot **once** through
    ``pinned_snapshot()`` (or receive it as an argument) and thread
    that frozen value through; the slot itself is touched only by
    ``__init__``, ``pinned_snapshot`` and ``install_store``.

    The engine's patch history ``self._patch_log`` is the second slot
    a commit replaces whole: written by ``__init__`` and
    ``install_store``, read — once, into locals — by
    ``patched_since``.  A second reader would be a second place to
    see the floor of one log and the entries of the next.  Both slots
    are policed on classes that own ``_snap`` (a cache keeping a
    patch log of its own under its own lock is out of scope).
    """

    id = "R12"
    title = (
        "epoch-pinned store slot accessed outside the snapshot contract"
    )

    _OWNER_SLOT = "_snap"
    #: slot -> (the methods that may touch it, what to do instead).
    _SLOTS = {
        "_snap": (
            ("__init__", "pinned_snapshot", "install_store"),
            "pin the snapshot once via pinned_snapshot() and thread "
            "it through",
        ),
        "_patch_log": (
            ("__init__", "install_store", "patched_since"),
            "ask patched_since() instead",
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._owns_slot(node):
                continue
            for method in iter_methods(node):
                for access in ast.walk(method):
                    if not is_self_attr(access):
                        continue
                    slot = access.attr  # type: ignore[attr-defined]
                    allowed, advice = self._SLOTS.get(slot, ((), ""))
                    if not allowed or method.name in allowed:
                        continue
                    yield self.violation(
                        ctx,
                        access,
                        f"{node.name}.{method.name} touches "
                        f"self.{slot} directly; {advice} (only "
                        f"{'/'.join(allowed)} may access the slot)",
                    )

    @classmethod
    def _owns_slot(cls, node: ast.ClassDef) -> bool:
        """True when the class assigns ``self._snap`` anywhere."""
        for method in iter_methods(node):
            for stmt in ast.walk(method):
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                for target in targets:
                    if (
                        is_self_attr(target)
                        and target.attr == cls._OWNER_SLOT  # type: ignore[attr-defined]
                    ):
                        return True
        return False
