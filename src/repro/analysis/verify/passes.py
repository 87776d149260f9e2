"""Translation-validation passes over one compiled artifact (PGMP5xx).

Given a :class:`~repro.scheme.compile_py.artifact.CompiledArtifact`,
:func:`verify_artifact` statically checks the generated Python AST
against the properties the compiled backend's observational-equality
contract rests on — without executing the artifact:

* **PGMP501** — ``H[i] += 1`` instrumentation sites appear exactly once
  per recorded hook site, with sequential indices in textual order, ``H``
  is used in no other way, and (when the expanded program is available)
  the recorded sites match the interpreter-order sites re-derived from
  the core forms;
* **PGMP502** — ``C()`` step-budget charges are present in the expected
  count for budget flavors, absent otherwise, and each profile bump is
  immediately preceded by its charge (the interpreter's charge-then-bump
  order);
* **PGMP503** — every name the generated module reads resolves through
  the lexical environment codegen established (function scopes, the
  runtime import, a tiny builtin whitelist), and a runnable artifact
  actually defines the ``_pgmp_main(GB, H, C)`` entry point;
* **PGMP504** — the last parameter assignment before a ``continue`` in a
  self-tail-call ``while`` loop rebinds every loop parameter at once, as
  one parallel (tuple) assignment, never as sequential ones that could
  read an already-clobbered parameter;
* **PGMP505** — every inlined primitive fast path (int arithmetic and
  comparisons, ``car``/``cdr`` field access) sits under an identity
  guard (``... is RT.P_x``) so a redefined primitive falls back to the
  generic call;
* **PGMP506** (info) — artifacts the backend could not translate are
  enumerated with their fallback reason instead of failing silently.

The generated source is parsed once and walked once: :class:`_Walk`
carries every check's state through a single recursive traversal and
keeps each check's first finding in source order. All diagnostics use
``pass_name="verify"`` and anchor to the artifact's filename, with
generated-source line numbers where the finding has one.

:func:`verify_projections` verifies a program's full text (every hook
call and charge, the ``instr+budget`` flavor) and, from the same walk,
gives the texts of the flavors that are clean because it is: a flavor's
text deletes whole hook and charge lines, which bind, read and guard no
name but ``H`` and ``C``. What deleting a line can still change is
checked on the walk: each deleted statement must stand alone on its
line, no block may lose all its statements, and no tail-loop rebinding
may become sequential once the lines between two assignments are gone.
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.verify.expected import ExpectedEvents, expected_events
from repro.core.srcloc import SourceLocation
from repro.scheme.compile_py.artifact import CompiledArtifact
from repro.scheme.core_forms import Program

__all__ = ["PASS_NAME", "derive_expected", "verify_artifact", "verify_projections"]

PASS_NAME = "verify"

#: Builtins the generated code is allowed to read (arity checks, inline
#: type guards, the recursion backstop); anything else outside the
#: module/function scopes is a PGMP503 finding.
_ALLOWED_BUILTINS = frozenset({"len", "type", "int", "RecursionError"})

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult)
_ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

#: A check's first finding: its message and the node it anchors to.
_Finding = tuple[str, ast.AST | None]

#: The statements each projection of a full text deletes: ``"C"``
#: charges and ``"H"`` hooks (see ``compile_py.artifact.project``).
_PROJECTIONS = {
    "instr": frozenset("C"),
    "budget": frozenset("H"),
    "plain": frozenset("CH"),
}


def _anchor(filename: str, node: ast.AST | None = None) -> SourceLocation:
    line = getattr(node, "lineno", 0) if node is not None else 0
    column = getattr(node, "col_offset", 0) if node is not None else 0
    return SourceLocation(filename, 0, 0, line=line, column=column)


# -- AST helpers -------------------------------------------------------------


def _is_param_assign(stmt: ast.stmt, params: set[str]) -> bool:
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return False
    target = stmt.targets[0]
    if isinstance(target, ast.Name):
        return target.id in params
    if isinstance(target, ast.Tuple):
        return all(isinstance(elt, ast.Name) for elt in target.elts) and any(
            elt.id in params
            for elt in target.elts
            if isinstance(elt, ast.Name)
        )
    return False


def _line_kind(stmt: ast.stmt) -> str | None:
    """``"C"`` for a ``C()`` charge statement, ``"H"`` for an ``H[i] += 1``
    hook with an int literal ``i``, None for any other statement."""
    if isinstance(stmt, ast.Expr):
        call = stmt.value
        if isinstance(call, ast.Call) and not (call.args or call.keywords):
            if isinstance(call.func, ast.Name) and call.func.id == "C":
                return "C"
    elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
        target, one = stmt.target, stmt.value
        if (
            isinstance(one, ast.Constant)
            and type(one.value) is int
            and one.value == 1
            and isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id == "H"
            and isinstance(target.slice, ast.Constant)
            and type(target.slice.value) is int
        ):
            return "H"
    return None


def _hook_index(stmt: ast.stmt) -> int:
    return stmt.target.slice.value  # type: ignore[attr-defined]


def _continue_finding(
    block: list[ast.stmt],
    position: int,
    params: set[str],
    deleted: frozenset[str] = frozenset(),
) -> _Finding | None:
    """PGMP504 for the ``continue`` at ``block[position]``, rebinding
    ``params``: the last parameter assignment before it must rebind every
    loop parameter at once, as one parallel tuple assignment when there
    are several. A parameter assignment before that one is the program's
    own ``set!``. ``deleted`` names the statements (see
    :func:`_line_kind`) a projection removes from the block."""
    index = position - 1
    while deleted and index >= 0 and _line_kind(block[index]) in deleted:
        index -= 1
    if index < 0 or not _is_param_assign(block[index], params):
        return None  # zero-parameter loop: bare continue is fine
    assign = block[index]
    assert isinstance(assign, ast.Assign)
    target = assign.targets[0]
    elts = target.elts if isinstance(target, ast.Tuple) else [target]
    names = [elt.id for elt in elts]  # type: ignore[attr-defined]
    if not params <= set(names):
        return (
            "self-tail-call rebinds loop parameters in sequential "
            "assignments before continue, not all at once; a later "
            "assignment can read an already-rebound parameter",
            assign,
        )
    if isinstance(target, ast.Name):
        return None  # one variable: nothing to clobber
    value = assign.value
    if not isinstance(value, ast.Tuple) or len(value.elts) != len(names):
        return (
            "self-tail-call rebinding is not a parallel tuple assignment "
            "of matching arity",
            assign,
        )
    if len(set(names)) != len(names):
        return (
            "self-tail-call rebinding assigns the same loop parameter "
            "twice in one tuple assignment",
            assign,
        )
    return None


def _is_arity_check(node: ast.Compare) -> bool:
    left = node.left
    return (
        isinstance(left, ast.Call)
        and isinstance(left.func, ast.Name)
        and left.func.id == "len"
    )


# -- the traversal -----------------------------------------------------------


class _Walk:
    """One traversal of a generated module, carrying every check's state.

    Counts (hooks, charges) are complete; everything else keeps
    only the first finding in source order, as each check reports at
    most one.
    """

    def __init__(self) -> None:
        # PGMP501 / PGMP502: every hook and charge statement, in order,
        # and the first use of ``H`` outside a hook
        self.hooks: list[ast.stmt] = []
        self.misordered: tuple[ast.stmt, int, int] | None = None
        self.stray_hook: ast.Name | None = None
        self.charges: list[ast.stmt] = []
        self.uncharged_hook: ast.stmt | None = None
        # Projections: whether some block holds nothing but hooks and
        # charges, and the projections with a PGMP504 finding
        self.calls_only_block = False
        self.projected_tail_loops: set[str] = set()
        # PGMP503, for the current scope (a function, or the module): every
        # name bound anywhere in it (nested function bodies excluded), and
        # the reads it did not bind when they were seen, in source order.
        # Those are resolved once the scope is complete, at its exit.
        self.bound: set[str] = set()
        self.reads: list[ast.Name] = []
        self.reads_a = False
        # PGMP504: the loop parameters (names bound from the ``*_a``
        # argument tuple by top-level assignments) of every enclosing
        # function, and of the functions around the innermost ``while
        # True`` loop
        self.function_params: tuple[set[str], ...] = ()
        self.loop_params: tuple[set[str], ...] = ()
        self.tail_loop: _Finding | None = None
        # PGMP505: guards established by enclosing if-tests, and those
        # seen in the if-test being walked
        self.identity = self.typed = False
        self.test_identity = self.test_typed = False
        self.guard: _Finding | None = None

    def block(self, stmts: list[ast.stmt], params: set[str] | None = None) -> None:
        """Walk sibling statements; ``params`` collects the loop
        parameters when ``stmts`` is a function's body."""
        after_charge = False
        calls = 0
        for position, stmt in enumerate(stmts):
            kind = _line_kind(stmt)
            # Only the reads of ``C`` and ``H`` matter to the other checks
            # in a budget charge or a hook.
            if kind == "C":
                self.charges.append(stmt)
                self.expr(stmt.value.func)  # type: ignore[attr-defined]
                after_charge = True
                calls += 1
                continue
            if kind == "H":
                self.hook(stmt, after_charge)  # type: ignore[arg-type]
                after_charge = False
                calls += 1
                continue
            if isinstance(stmt, ast.Expr):
                self.expr(stmt.value)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self.expr(target)
                self.reads_a = False
                self.expr(stmt.value)
                if params is not None and self.reads_a and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        params.add(target.id)
            elif isinstance(stmt, ast.If):
                self.test_identity = self.test_typed = False
                self.expr(stmt.test)
                identity, typed = self.identity, self.typed
                self.identity = identity or self.test_identity
                self.typed = typed or self.test_typed
                self.block(stmt.body)
                # The else branch is the generic fallback: the guard does
                # NOT cover it, so fast ops there are findings.
                self.identity, self.typed = identity, typed
                self.block(stmt.orelse)
            elif isinstance(stmt, ast.FunctionDef):
                self.function(stmt)
            elif (
                isinstance(stmt, ast.While)
                and isinstance(stmt.test, ast.Constant)
                and stmt.test.value is True
            ):
                outer = self.loop_params
                self.loop_params = self.function_params
                self.block(stmt.body)
                self.loop_params = outer
                self.block(stmt.orelse)
            elif isinstance(stmt, ast.Continue):
                for loop_params in self.loop_params:
                    if self.tail_loop is None:
                        self.tail_loop = _continue_finding(
                            stmts, position, loop_params
                        )
                    for flavor, deleted in _PROJECTIONS.items():
                        if flavor not in self.projected_tail_loops and (
                            _continue_finding(stmts, position, loop_params, deleted)
                        ):
                            self.projected_tail_loops.add(flavor)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                # Only the module's imports are part of the environment
                # codegen establishes.
                if not self.function_params:
                    for alias in stmt.names:
                        name = alias.asname or alias.name
                        if isinstance(stmt, ast.Import):
                            name = name.split(".")[0]
                        self.bound.add(name)
            else:
                self.children(stmt)
            after_charge = False
        if stmts and calls == len(stmts):
            self.calls_only_block = True

    def hook(self, stmt: ast.AugAssign, after_charge: bool) -> None:
        index = _hook_index(stmt)
        if self.misordered is None and index != len(self.hooks):
            self.misordered = (stmt, len(self.hooks), index)
        if self.uncharged_hook is None and not after_charge:
            self.uncharged_hook = stmt
        self.hooks.append(stmt)
        if "H" not in self.bound:  # the hook's read of ``H``, for PGMP503
            self.reads.append(stmt.target.value)  # type: ignore[attr-defined]

    def function(self, fn: ast.FunctionDef) -> None:
        self.bound.add(fn.name)
        # Decorators, defaults and annotations run in the enclosing scope.
        for decorator in fn.decorator_list:
            self.expr(decorator)
        self.children(fn.args)
        if fn.returns is not None:
            self.expr(fn.returns)
        outer = self.bound, self.reads, self.function_params
        bound = {arg.arg for arg in fn.args.args}
        if fn.args.vararg is not None:
            bound.add(fn.args.vararg.arg)
        params: set[str] = set()
        self.bound, self.reads = bound, []
        self.function_params = outer[2] + (params,)
        self.block(fn.body, params)
        reads = self.reads
        self.bound, self.reads, self.function_params = outer
        self.reads.extend(node for node in reads if node.id not in bound)

    def expr(self, node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            if node.id == "H" and self.stray_hook is None:
                self.stray_hook = node
            if isinstance(node.ctx, ast.Load):
                if node.id == "_a":
                    self.reads_a = True
                if node.id not in self.bound:
                    self.reads.append(node)
            else:
                self.bound.add(node.id)
        elif isinstance(node, ast.Constant):
            return
        elif isinstance(node, ast.Attribute):
            if (
                node.attr in ("car", "cdr")
                and not self.identity
                and self.guard is None
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id == "RT")
            ):
                self.guard = (
                    f"inlined .{node.attr} field access is not protected by "
                    "a primitive identity guard",
                    node,
                )
            self.expr(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "type":
                self.test_typed = True
            self.expr(func)
            for arg in node.args:
                self.expr(arg)
            for keyword in node.keywords:
                self.expr(keyword.value)
        elif isinstance(node, ast.Compare):
            self.compare(node)
            self.expr(node.left)
            for comparator in node.comparators:
                self.expr(comparator)
        elif isinstance(node, ast.BinOp):
            if (
                isinstance(node.op, _ARITH_OPS)
                and not (self.identity and self.typed)
                and self.guard is None
            ):
                self.guard = (
                    "inlined arithmetic fast path is not protected by an "
                    "identity guard plus int type test",
                    node,
                )
            self.expr(node.left)
            self.expr(node.right)
        else:
            if isinstance(node, ast.ExceptHandler) and node.name:
                self.bound.add(node.name)
            self.children(node)

    def compare(self, node: ast.Compare) -> None:
        ops = node.ops
        if len(ops) == 1 and isinstance(ops[0], ast.Is):
            right = node.comparators[0]
            if (
                isinstance(right, ast.Attribute)
                and isinstance(right.value, ast.Name)
                and right.value.id == "RT"
                and right.attr.startswith("P_")
            ):
                self.test_identity = True
        if (
            self.guard is None
            and not (self.identity and self.typed)
            and any(isinstance(op, _ORDER_OPS) for op in ops)
            and not _is_arity_check(node)
        ):
            self.guard = (
                "inlined comparison fast path is not protected by an "
                "identity guard plus int type test",
                node,
            )

    def children(self, node: ast.AST) -> None:
        for field in node._fields:
            value = getattr(node, field, None)
            if type(value) is list:
                if value and isinstance(value[0], ast.stmt):
                    self.block(value)
                    continue
                for item in value:
                    if isinstance(item, ast.AST):
                        self.expr(item)
            elif isinstance(value, ast.AST):
                self.expr(value)


# -- verdicts, in emission order ---------------------------------------------


def _entry_point(tree: ast.Module) -> _Finding | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_pgmp_main":
            params = [arg.arg for arg in stmt.args.args]
            if params != ["GB", "H", "C"] or stmt.args.vararg is not None:
                return (
                    f"_pgmp_main has parameters ({', '.join(params)}); "
                    "the execution contract requires (GB, H, C)",
                    stmt,
                )
            return None
    return (
        "runnable artifact's source defines no _pgmp_main(GB, H, C) "
        "entry point — the callable cannot be the code it claims to be",
        None,
    )


def _hooks(
    walk: _Walk, artifact: CompiledArtifact, expected: ExpectedEvents | None
) -> _Finding | None:
    if walk.stray_hook is not None:
        return (
            "generated code uses H outside a hook statement H[<int>] += 1",
            walk.stray_hook,
        )
    if "instr" not in artifact.flavor:
        if walk.hooks:
            stmt = walk.hooks[0]
            index = _hook_index(stmt)
            return f"non-instrumented flavor emits hook H[{index}] += 1", stmt
        return None
    if walk.misordered is not None:
        stmt, position, index = walk.misordered
        return (
            f"hook #{position} in textual order has index "
            f"{index}; emission order must match traversal order",
            stmt,
        )
    if len(walk.hooks) != len(artifact.hook_sites):
        return (
            f"generated source contains {len(walk.hooks)} hook(s) but the "
            f"artifact records {len(artifact.hook_sites)} hook site(s)",
            None,
        )
    if expected is None:
        return None
    derived = expected.hook_sites
    recorded = [tuple(site) for site in artifact.hook_sites]
    if len(recorded) != len(derived):
        return (
            f"artifact records {len(recorded)} hook site(s) but the "
            f"interpreter traversal produces {len(derived)}",
            None,
        )
    for index, (got, want) in enumerate(zip(recorded, derived)):
        if got != want:
            return (
                f"hook site #{index} diverges from interpreter order: "
                f"recorded point {got[0]} (is_app={got[1]}), expected "
                f"{want[0]} (is_app={want[1]})",
                None,
            )
    return None


def _charges(
    walk: _Walk, artifact: CompiledArtifact, expected: ExpectedEvents | None
) -> _Finding | None:
    charges = len(walk.charges)
    if "budget" not in artifact.flavor:
        if charges:
            return "non-budget flavor emits a C() charge", walk.charges[0]
        return None
    if artifact.charge_count >= 0 and charges != artifact.charge_count:
        return (
            f"generated source contains {charges} C() charge(s) but "
            f"codegen recorded {artifact.charge_count}",
            None,
        )
    if expected is not None and charges != expected.charge_count:
        return (
            f"generated source contains {charges} C() charge(s) but "
            f"the interpreter traversal evaluates {expected.charge_count} "
            f"node(s)",
            None,
        )
    # Charge-then-bump: in instr+budget artifacts every hook must be
    # immediately preceded by its node's charge, as sibling statements.
    if "instr" in artifact.flavor and walk.uncharged_hook is not None:
        return (
            "hook is not immediately preceded by its C() "
            "charge (interpreter order is charge, then bump)",
            walk.uncharged_hook,
        )
    return None


def _scope(walk: _Walk) -> _Finding | None:
    # After the walk, ``walk.reads`` holds the reads no function bound.
    for node in walk.reads:
        if node.id not in walk.bound and node.id not in _ALLOWED_BUILTINS:
            return (
                f"generated code reads {node.id!r}, which is bound in "
                "no enclosing scope of the core-form lexical environment",
                node,
            )
    return None


# -- the per-artifact entry point --------------------------------------------


def derive_expected(program: Program | None) -> ExpectedEvents | Exception | None:
    """The interpreter-order events of ``program``, or the exception that
    deriving them raised (reported per artifact as a PGMP501 warning)."""
    if program is None:
        return None
    try:
        return expected_events(program)
    except Exception as exc:
        return exc


def verify_artifact(
    artifact: CompiledArtifact,
    program: Program | None = None,
    filename: str | None = None,
    derived: ExpectedEvents | Exception | None = None,
) -> AnalysisReport:
    """Statically validate one compiled artifact (PGMP5xx diagnostics).

    ``program`` is the expanded program the artifact claims to implement;
    it defaults to the artifact's own carried Program. Without one (e.g.
    a disk-loaded cache entry) the expected-order comparison degrades to
    the source-level invariants, which still catch swapped indices,
    missing charges, scope escapes, unsafe rebinding, and unguarded fast
    paths. ``derived`` is :func:`derive_expected` of the program when the
    caller verifies several flavors of it; it replaces ``program``.
    """
    return _verify(artifact, program, filename, derived)[0]


def verify_projections(
    full: CompiledArtifact,
    filename: str | None = None,
    derived: ExpectedEvents | Exception | None = None,
) -> tuple[AnalysisReport, dict[str, str]]:
    """:func:`verify_artifact` of a program's full (``instr+budget``)
    text, and the texts of the flavors that are clean because it is.

    Each such flavor maps to the full text without the lines of the
    statements it drops (hooks and/or charges): an artifact of that
    flavor with exactly that text, and with the hook sites and charge
    count its flavor keeps, verifies clean. No flavor qualifies unless
    the full text has no diagnostic at all, and one is left out when a
    dropped statement does not fill its line alone, when a block would
    be left empty, or when its tail loops would report PGMP504.
    """
    report, walk = _verify(full, None, filename, derived)
    source = full.python_source
    if walk is None or report.diagnostics or walk.calls_only_block:
        return report, {}
    if "\r" in source:  # line numbers would not index ``split("\n")``
        return report, {}
    lines = source.split("\n")

    def own_lines(stmts: list[ast.stmt]) -> set[int] | None:
        numbers = set()
        for stmt in stmts:
            number = stmt.lineno - 1
            line = lines[number]
            if (
                stmt.end_lineno != stmt.lineno
                or stmt.end_col_offset != len(line)
                or line[: stmt.col_offset].strip()
                or (number and lines[number - 1].endswith("\\"))
            ):
                return None
            numbers.add(number)
        return numbers

    dropped: dict[str, set[int]] = {}
    for kind, stmts in (("H", walk.hooks), ("C", walk.charges)):
        numbers = own_lines(stmts)
        if numbers is not None:
            dropped[kind] = numbers
    texts = {"instr+budget": source}
    for flavor, kinds in _PROJECTIONS.items():
        if flavor in walk.projected_tail_loops or not kinds <= dropped.keys():
            continue
        gone = {number for kind in kinds for number in dropped[kind]}
        texts[flavor] = "\n".join(
            line for number, line in enumerate(lines) if number not in gone
        )
    return report, texts


def _verify(
    artifact: CompiledArtifact,
    program: Program | None,
    filename: str | None,
    derived: ExpectedEvents | Exception | None,
) -> tuple[AnalysisReport, _Walk | None]:
    """The report of :func:`verify_artifact`, and the walk of the parsed
    source when there was one."""
    report = AnalysisReport()
    name = filename if filename is not None else artifact.filename
    prefix = f"artifact[{artifact.flavor}]: "
    if not artifact.runnable:
        report.emit(
            "PGMP506",
            prefix
            + "interpreter fallback: "
            + (artifact.unsupported_reason or "artifact is expansion-only"),
            _anchor(name),
            PASS_NAME,
        )
        return report, None
    source = artifact.python_source
    if not source:
        # Mirrors CompiledArtifact.self_check: instr flavors legitimately
        # drop their source; a plain/budget runnable artifact must not.
        if "instr" not in artifact.flavor:
            report.emit(
                "PGMP503",
                prefix
                + "runnable artifact carries no generated source to verify",
                _anchor(name),
                PASS_NAME,
            )
        return report, None
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.emit(
            "PGMP503",
            prefix + f"generated source does not parse: {exc}",
            _anchor(name),
            PASS_NAME,
        )
        return report, None
    if derived is None:
        derived = derive_expected(
            program if program is not None else artifact.program
        )
    expected: ExpectedEvents | None = None
    if isinstance(derived, Exception):
        report.emit(
            "PGMP501",
            prefix
            + f"could not re-derive expected instrumentation sites: "
            f"{type(derived).__name__}: {derived}",
            _anchor(name),
            PASS_NAME,
            severity=Severity.WARNING,
        )
    else:
        expected = derived
    walk = _Walk()
    walk.block(tree.body)
    findings = (
        ("PGMP503", _entry_point(tree)),
        ("PGMP501", _hooks(walk, artifact, expected)),
        ("PGMP502", _charges(walk, artifact, expected)),
        ("PGMP503", _scope(walk)),
        ("PGMP504", walk.tail_loop),
        ("PGMP505", walk.guard),
    )
    for code, finding in findings:
        if finding is not None:
            message, node = finding
            report.emit(code, prefix + message, _anchor(name, node), PASS_NAME)
    return report, walk
