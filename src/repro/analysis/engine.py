"""Rule engine for ``reprolint`` — project-specific static analysis.

Generic linters catch generic mistakes; this engine exists for the
invariants that are *ours*: lock discipline around shared state, the
``e_cap`` probe clamp, double-checked lazy initialisation, typed
errors instead of ``assert``, the metric-name registry.  Each of those
started life as a shipped bug — the rules in :mod:`repro.analysis.rules`
are their machine-checked post-mortems.

The engine is deliberately small:

* a :class:`Rule` subclasses declare ``id``/``title`` and implement
  ``check(ctx)`` yielding :class:`Violation`\\ s — most rules fit in
  ~30 lines on top of the shared AST helpers below;
* per-line suppressions (``# reprolint: disable=R2 <reason>``) and
  per-file suppressions (``# reprolint: disable-file=R2 <reason>``)
  are parsed from comment tokens.  A suppression **must** carry a
  reason; a bare or malformed pragma is itself reported (rule ``R0``);
* :func:`check_paths` walks directories, skipping caches and the
  ``reprolint_fixtures`` corpus (which is intentionally-bad code);
* project rules (:class:`ProjectRule`) see *every* file at once via a
  :class:`ProjectContext` — that is how the interprocedural lockset
  rules (R9–R11 in :mod:`repro.analysis.locksets`) follow a call from
  ``engine.py`` into ``cache.py`` while a lock is held.

Paths are normalised to POSIX form relative to the repository root so
rules can scope themselves (e.g. R4 applies only under ``src/``).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "FileContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "check_paths",
    "check_source",
    "register",
]

#: Directory names never descended into when walking paths.
SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".benchmarks",
        ".data",
        "reprolint_fixtures",
    }
)

#: Method names that mutate their receiver in place — used by the
#: lock-discipline rule to infer which attributes a lock protects.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<ids>[A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)?(?P<reason>.*)$"
)
_PRAGMA_ANY = re.compile(r"#\s*reprolint\s*:")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class Suppressions:
    """Parsed suppression pragmas for one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)
    malformed: list[Violation] = field(default_factory=list)

    def covers(self, violation: Violation) -> bool:
        if violation.rule_id in self.file_wide:
            return True
        return violation.rule_id in self.by_line.get(violation.line, set())


class FileContext:
    """Everything a rule needs to know about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        #: POSIX path relative to the repository root (or as given).
        self.path = path
        self.source = source
        self.tree = tree

    @property
    def in_src(self) -> bool:
        """True when the file lives under the ``src/`` tree."""
        return self.path.startswith("src/") or "/src/" in self.path

    def path_endswith(self, *suffixes: str) -> bool:
        """True when the path ends with any of ``suffixes``."""
        return self.path.endswith(suffixes)


class ProjectContext:
    """Every parsed file of one lint run, for whole-program rules.

    Project rules share expensive derived structures (the call graph,
    the lockset fixed point) through :meth:`memo`, so three rules over
    the same analysis cost one analysis.
    """

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)
        self.by_path = {ctx.path: ctx for ctx in self.files}
        self._memo: dict[str, object] = {}

    def memo(self, key: str, build: "Callable[[ProjectContext], object]") -> object:
        """Cache ``build(self)`` under ``key`` for the lifetime of the run."""
        if key not in self._memo:
            self._memo[key] = build(self)
        return self._memo[key]


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`id` (``"R<n>"``), :attr:`title`, and
    implement :meth:`check`.  Register with the :func:`register`
    decorator; adding a rule is: subclass, register, drop a bad/good
    fixture pair into ``tests/reprolint_fixtures/``.
    """

    id: str = ""
    title: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole project, not one file.

    Subclasses implement :meth:`check_project` instead of
    :meth:`check`; the driver runs them once per lint invocation after
    every file has parsed, and routes each finding back through the
    suppressions of the file it names.
    """

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Registered rules, ordered by numeric id (R2 before R10)."""
    return [
        _REGISTRY[rule_id]
        for rule_id in sorted(_REGISTRY, key=lambda rid: int(rid[1:]))
    ]


# -- shared AST helpers (used by several rules) ------------------------------


def is_self_attr(node: ast.AST) -> bool:
    """True for ``self.<attr>`` attribute nodes."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


#: Call names that construct a lock.  ``watched_lock`` is the
#: env-gated instrumented wrapper from :mod:`repro.obs.lockwatch` —
#: recognising it here keeps R1/R3/R6 and the lockset analysis sighted
#: after a class switches to instrumented locks.
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "watched_lock"})


def _is_lock_call(node: ast.AST) -> bool:
    """True for ``threading.Lock()`` / ``RLock()`` / ``watched_lock()``
    style calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    return name in LOCK_CONSTRUCTORS


def _is_lock_factory(node: ast.AST) -> bool:
    """True for ``field(default_factory=threading.Lock)`` style calls."""
    if not isinstance(node, ast.Call):
        return False
    for keyword in node.keywords:
        if keyword.arg == "default_factory":
            value = keyword.value
            name = value.attr if isinstance(value, ast.Attribute) else (
                value.id if isinstance(value, ast.Name) else ""
            )
            if name in LOCK_CONSTRUCTORS:
                return True
    return False


def class_lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of attributes holding a lock (or a list of locks).

    Detects ``self._x = threading.Lock()`` (and ``RLock``), stripe
    lists built from comprehensions/lists of lock calls, and dataclass
    fields with a lock ``default_factory`` or a ``threading.Lock``
    annotation.
    """
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if not is_self_attr(target):
                continue
            if _is_lock_call(value):
                locks.add(target.attr)
            elif isinstance(value, ast.ListComp) and _is_lock_call(value.elt):
                locks.add(target.attr)
            elif isinstance(value, ast.List) and value.elts and all(
                _is_lock_call(elt) for elt in value.elts
            ):
                locks.add(target.attr)
    # Dataclass-style: class-level annotated fields.
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            annotation = stmt.annotation
            name = annotation.attr if isinstance(
                annotation, ast.Attribute
            ) else (annotation.id if isinstance(annotation, ast.Name) else "")
            if name in {"Lock", "RLock"}:
                locks.add(stmt.target.id)
            elif stmt.value is not None and _is_lock_factory(stmt.value):
                locks.add(stmt.target.id)
    return locks


def is_with_lock(node: ast.With, lock_attrs: set[str]) -> bool:
    """True when any item of the ``with`` is ``self.<lock>`` (or a
    subscript of one, for stripe lists)."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        if is_self_attr(expr) and expr.attr in lock_attrs:
            return True
    return False


def iter_methods(
    cls: ast.ClassDef,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


@dataclass(frozen=True)
class AttrAccess:
    """One ``self._x`` access inside a method."""

    attr: str
    node: ast.Attribute
    method: str
    under_lock: bool
    is_write: bool


def iter_attr_accesses(
    method: ast.FunctionDef | ast.AsyncFunctionDef, lock_attrs: set[str]
) -> Iterator[AttrAccess]:
    """Every private ``self._x`` access in ``method``, annotated with
    whether it happens under an owned lock and whether it mutates.

    Methods whose name ends in ``_locked`` are treated as fully under
    lock — that suffix is the project's caller-holds-the-lock
    contract.
    """
    parents: dict[int, ast.AST] = {}
    for parent in ast.walk(method):
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent

    locked_nodes: set[int] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.With) and is_with_lock(node, lock_attrs):
            for child in ast.walk(node):
                locked_nodes.add(id(child))

    always_locked = method.name.endswith("_locked")

    for node in ast.walk(method):
        if not is_self_attr(node):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr in lock_attrs:
            continue
        yield AttrAccess(
            attr=attr,
            node=node,
            method=method.name,
            under_lock=always_locked or id(node) in locked_nodes,
            is_write=_is_write_access(node, parents),
        )


def _is_write_access(
    node: ast.Attribute, parents: dict[int, ast.AST]
) -> bool:
    """Does this access mutate the attribute (or its contents)?"""
    if isinstance(node.ctx, (ast.Store, ast.Del)):
        return True
    parent = parents.get(id(node))
    # self._x[k] = v  /  self._x[k] += v  /  del self._x[k]
    if (
        isinstance(parent, ast.Subscript)
        and parent.value is node
        and isinstance(parent.ctx, (ast.Store, ast.Del))
    ):
        return True
    # self._x.append(v) and friends.
    if (
        isinstance(parent, ast.Attribute)
        and parent.value is node
        and parent.attr in MUTATOR_METHODS
    ):
        grandparent = parents.get(id(parent))
        if isinstance(grandparent, ast.Call) and grandparent.func is parent:
            return True
    return False


def iter_statement_lists(tree: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every list of statements in the tree (bodies, else/finally...)."""
    for node in ast.walk(tree):
        for field_name in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field_name, None)
            if (
                isinstance(stmts, list)
                and stmts
                and isinstance(stmts[0], ast.stmt)
            ):
                yield stmts


# -- suppression parsing -----------------------------------------------------


def parse_suppressions(
    path: str, source: str, known_ids: set[str]
) -> Suppressions:
    """Extract ``# reprolint: ...`` pragmas from comment tokens."""
    suppressions = Suppressions()
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions  # Parse errors surface via E0 instead.

    code_lines: set[int] = set()
    for token in tokens:
        if token.type not in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            code_lines.add(token.start[0])

    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        if not _PRAGMA_ANY.search(token.string):
            continue
        line = token.start[0]
        match = _PRAGMA.search(token.string)
        ids_group = match.group("ids") if match else None
        reason = (match.group("reason") or "").strip() if match else ""
        if match is None or not ids_group:
            suppressions.malformed.append(
                Violation(
                    path,
                    line,
                    token.start[1],
                    "R0",
                    "malformed reprolint pragma: expected "
                    "'# reprolint: disable=R<n>[,R<m>] <reason>'",
                )
            )
            continue
        rule_ids = {part.strip() for part in ids_group.split(",")}
        unknown = sorted(rule_ids - known_ids)
        if unknown:
            suppressions.malformed.append(
                Violation(
                    path,
                    line,
                    token.start[1],
                    "R0",
                    f"suppression names unknown rule(s): {', '.join(unknown)}",
                )
            )
            continue
        if not reason:
            suppressions.malformed.append(
                Violation(
                    path,
                    line,
                    token.start[1],
                    "R0",
                    "suppression must carry a reason: "
                    f"'# reprolint: disable={ids_group} <why>'",
                )
            )
            continue
        if match.group("kind") == "disable-file":
            suppressions.file_wide |= rule_ids
        else:
            targets = {line}
            if line not in code_lines:  # Standalone comment: next line.
                targets.add(line + 1)
            for target in targets:
                suppressions.by_line.setdefault(target, set()).update(
                    rule_ids
                )
    return suppressions


# -- driving -----------------------------------------------------------------


def _parse_file(
    source: str, path: str, known_ids: set[str]
) -> tuple[FileContext | None, Suppressions, list[Violation]]:
    """Parse one file into a context, its suppressions, and any E0."""
    suppressions = parse_suppressions(path, source, known_ids)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        error = Violation(
            path,
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            "E0",
            f"file does not parse: {exc.msg}",
        )
        return None, suppressions, [error]
    return FileContext(path, source, tree), suppressions, []


def _run_rules(
    active: Sequence[Rule],
    contexts: Sequence[FileContext],
    suppressions: dict[str, Suppressions],
) -> list[Violation]:
    """Per-file rules over each file, then project rules over all."""
    found: list[Violation] = []
    project: ProjectContext | None = None
    for rule in active:
        if isinstance(rule, ProjectRule):
            if project is None:
                project = ProjectContext(contexts)
            candidates = rule.check_project(project)
        else:
            candidates = (
                violation
                for ctx in contexts
                for violation in rule.check(ctx)
            )
        for violation in candidates:
            cover = suppressions.get(violation.path)
            if cover is None or not cover.covers(violation):
                found.append(violation)
    return found


def check_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Run the rule set over one source blob.

    ``path`` scopes path-sensitive rules (R2's sanctioned wrappers,
    R4's ``src/`` restriction); pass the repo-relative POSIX path.
    Project rules see a one-file project — that is what keeps the
    fixture corpus able to exercise R9–R11 file by file.
    """
    active = list(rules) if rules is not None else all_rules()
    known_ids = {rule.id for rule in active} | {
        rule.id for rule in all_rules()
    }
    ctx, suppressions, errors = _parse_file(source, path, known_ids)
    if ctx is None:
        return errors
    found = _run_rules(active, [ctx], {path: suppressions})
    found.extend(suppressions.malformed)
    found.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return found


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths``, skipping :data:`SKIP_DIRS`."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames if name not in SKIP_DIRS
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield Path(dirpath) / filename


def check_paths(
    paths: Iterable[str | Path],
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint every Python file under ``paths``.

    ``root`` (default: the current directory) anchors the
    repo-relative paths that path-sensitive rules and reports use.
    """
    anchor = Path(root) if root is not None else Path.cwd()
    active = list(rules) if rules is not None else all_rules()
    known_ids = {rule.id for rule in active} | {
        rule.id for rule in all_rules()
    }
    contexts: list[FileContext] = []
    suppressions: dict[str, Suppressions] = {}
    found: list[Violation] = []
    for file_path in iter_python_files(paths):
        try:
            relative = file_path.resolve().relative_to(anchor.resolve())
            virtual = relative.as_posix()
        except ValueError:
            virtual = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        ctx, cover, errors = _parse_file(source, virtual, known_ids)
        found.extend(errors)
        found.extend(cover.malformed)
        suppressions[virtual] = cover
        if ctx is not None:
            contexts.append(ctx)
    found.extend(_run_rules(active, contexts, suppressions))
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return found
