"""Intraprocedural control-flow graphs over Python AST.

One :class:`CFG` is built per function. Nodes are statements (plus
three synthetic nodes: entry, normal exit, and exceptional exit);
edges carry a kind — ``normal`` for fallthrough/branch edges and
``exception`` for may-raise edges into handler dispatch.

Soundness/precision choices (documented because the typestate and
taint analyses inherit them):

* **Branches** (``if``/``while``/``for``/``match``) take both arms
  unconditionally — no constant folding, so ``while True:`` still has
  a loop-exit edge. That adds infeasible paths (over-approximation)
  but never hides feasible ones.
* **Exceptions.** Inside a ``try`` body, *every* statement gets an
  exception edge to the try's handler-dispatch node, and the edge
  propagates the join of the statement's in- and out-state (the raise
  may happen before or after the statement's own effects). Outside
  any ``try``, only explicit ``raise`` statements produce exceptional
  edges — an uncaught exception ends the function, and the analyses
  deliberately do not judge the state at the exceptional exit (a run
  that is dying mid-round is the *caller's* failure-handling problem;
  see the cost-protocol rule).
* **``finally``** bodies are built once and shared by every path that
  traverses them; the region's exit fans out to every continuation
  the protected region can take (fallthrough, function return, loop
  break/continue, exception propagation). Different continuations
  therefore observe the joined state — sound for the collecting
  semantics used here, imprecise only when two continuations would
  need different facts.
* ``with`` bodies are sequential; the context manager's ``__exit__``
  is treated as pass-through.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "NORMAL",
    "EXCEPTION",
    "CFGNode",
    "CFG",
    "build_cfg",
    "node_exprs",
    "node_calls",
]

#: Edge kinds.
NORMAL = "normal"
EXCEPTION = "exception"


@dataclass
class CFGNode:
    """One control-flow node: a statement or a synthetic marker."""

    index: int
    stmt: ast.stmt | None
    kind: str
    succs: list[tuple[int, str]] = field(default_factory=list)

    def add_succ(self, target: int, edge: str = NORMAL) -> None:
        """Add an out-edge (idempotent)."""
        if (target, edge) not in self.succs:
            self.succs.append((target, edge))


@dataclass
class CFG:
    """Control-flow graph of one function."""

    func: ast.FunctionDef | ast.AsyncFunctionDef
    nodes: list[CFGNode]

    ENTRY = 0
    EXIT = 1
    RAISE_EXIT = 2

    def statement_nodes(self) -> list[CFGNode]:
        """The non-synthetic nodes, in creation (document) order."""
        return [node for node in self.nodes if node.stmt is not None]


class _LoopFrame:
    """Targets for break/continue while building a loop body."""

    def __init__(self, head: int):
        self.head = head
        #: Nodes whose break edge must be patched to the loop's after.
        self.breaks: list[int] = []


class _TryFrame:
    """Exception routing while building a protected region."""

    def __init__(self, target: int):
        #: Node that may-raise statements get an exception edge to
        #: (a handler-dispatch node, or a finally entry marker).
        self.target = target
        #: Continuations the region's finally must fan out to.
        self.saw_return = False
        self.breaks: list[_LoopFrame] = []
        self.continues: list[_LoopFrame] = []


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        self.func = func
        self.nodes: list[CFGNode] = []
        self._synthetic("entry")
        self._synthetic("exit")
        self._synthetic("raise-exit")
        self.loop_stack: list[_LoopFrame] = []
        self.try_stack: list[_TryFrame] = []

    # -- node helpers -----------------------------------------------------

    def _synthetic(self, kind: str) -> int:
        node = CFGNode(index=len(self.nodes), stmt=None, kind=kind)
        self.nodes.append(node)
        return node.index

    def _stmt_node(self, stmt: ast.stmt, kind: str = "stmt") -> int:
        node = CFGNode(index=len(self.nodes), stmt=stmt, kind=kind)
        self.nodes.append(node)
        if self.try_stack:
            # Anything in a protected region may raise into dispatch.
            node.add_succ(self.try_stack[-1].target, EXCEPTION)
        return node.index

    def _connect(self, preds: list[int], target: int) -> None:
        for pred in preds:
            self.nodes[pred].add_succ(target)

    # -- statement dispatch ----------------------------------------------

    def build(self) -> CFG:
        """The function's CFG, from ENTRY through its body to EXIT."""
        exits = self._build_body(self.func.body, [CFG.ENTRY])
        self._connect(exits, CFG.EXIT)
        return CFG(func=self.func, nodes=self.nodes)

    def _build_body(self, stmts: list[ast.stmt], preds: list[int]) -> list[int]:
        for stmt in stmts:
            preds = self._build_stmt(stmt, preds)
        return preds

    def _build_stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, preds)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = self._stmt_node(stmt, "with")
            self._connect(preds, head)
            return self._build_body(stmt.body, [head])
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, preds)
        if isinstance(stmt, ast.Return):
            node = self._stmt_node(stmt, "return")
            self._connect(preds, node)
            self._route_jump(node, CFG.EXIT, want_return=True)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._stmt_node(stmt, "raise")
            self._connect(preds, node)
            if not self.try_stack:
                self.nodes[node].add_succ(CFG.RAISE_EXIT, EXCEPTION)
            return []
        if isinstance(stmt, ast.Break):
            node = self._stmt_node(stmt, "break")
            self._connect(preds, node)
            if self.loop_stack:
                self._route_break(node, self.loop_stack[-1])
            return []
        if isinstance(stmt, ast.Continue):
            node = self._stmt_node(stmt, "continue")
            self._connect(preds, node)
            if self.loop_stack:
                self._route_continue(node, self.loop_stack[-1])
            return []
        node = self._stmt_node(stmt)
        self._connect(preds, node)
        return [node]

    # -- jump routing through finally regions -----------------------------

    def _innermost_finally(self) -> _TryFrame | None:
        for frame in reversed(self.try_stack):
            if getattr(frame, "is_finally_frame", False):
                return frame
        return None

    def _route_jump(self, node: int, target: int, want_return: bool) -> None:
        """Route a return through the innermost finally, or straight out."""
        frame = self._innermost_finally()
        if frame is None:
            self.nodes[node].add_succ(target)
        else:
            self.nodes[node].add_succ(frame.target)
            if want_return:
                frame.saw_return = True

    def _route_break(self, node: int, loop: _LoopFrame) -> None:
        frame = self._innermost_finally()
        if frame is None or self._frame_outside_loop(frame):
            loop.breaks.append(node)
        else:
            self.nodes[node].add_succ(frame.target)
            frame.breaks.append(loop)

    def _route_continue(self, node: int, loop: _LoopFrame) -> None:
        frame = self._innermost_finally()
        if frame is None or self._frame_outside_loop(frame):
            self.nodes[node].add_succ(loop.head)
        else:
            self.nodes[node].add_succ(frame.target)
            frame.continues.append(loop)

    def _frame_outside_loop(self, frame: _TryFrame) -> bool:
        # A finally frame opened before the innermost loop does not
        # intercept that loop's break/continue.
        return getattr(frame, "loop_depth", 0) < len(self.loop_stack)

    # -- compound statements ----------------------------------------------

    def _build_if(self, stmt: ast.If, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt, "if")
        self._connect(preds, head)
        exits = self._build_body(stmt.body, [head])
        if stmt.orelse:
            exits += self._build_body(stmt.orelse, [head])
        else:
            exits.append(head)
        return exits

    def _build_loop(self, stmt, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt, "loop")
        self._connect(preds, head)
        frame = _LoopFrame(head)
        self.loop_stack.append(frame)
        try:
            body_exits = self._build_body(stmt.body, [head])
        finally:
            self.loop_stack.pop()
        self._connect(body_exits, head)  # back edge
        exits = (
            self._build_body(stmt.orelse, [head]) if stmt.orelse else [head]
        )
        # Breaks bypass the else clause and join the loop's after; the
        # caller connects our returned exits there, so patch breaks by
        # handing back their nodes as pending exits.
        exits += frame.breaks
        return exits

    def _build_match(self, stmt: ast.Match, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt, "match")
        self._connect(preds, head)
        exits: list[int] = [head]  # no case may match
        for case in stmt.cases:
            exits += self._build_body(case.body, [head])
        return exits

    def _build_try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        has_finally = bool(stmt.finalbody)
        finally_entry = self._synthetic("finally-entry") if has_finally else None
        dispatch = (
            self._synthetic("except-dispatch") if stmt.handlers else None
        )

        # The finally frame wraps the whole statement: body raises land
        # on the dispatch first (when handlers exist), but returns,
        # breaks, continues, and handler/orelse raises all traverse the
        # finally region.
        finally_frame: _TryFrame | None = None
        if has_finally:
            finally_frame = _TryFrame(finally_entry)
            finally_frame.is_finally_frame = True
            finally_frame.loop_depth = len(self.loop_stack)
            self.try_stack.append(finally_frame)

        dispatch_frame: _TryFrame | None = None
        if dispatch is not None:
            dispatch_frame = _TryFrame(dispatch)
            dispatch_frame.loop_depth = len(self.loop_stack)
            self.try_stack.append(dispatch_frame)
        try:
            body_exits = self._build_body(stmt.body, preds)
        finally:
            if dispatch_frame is not None:
                self.try_stack.pop()

        if stmt.orelse:
            # else runs after a no-raise body; its own raises are NOT
            # caught by this try's handlers.
            body_exits = self._build_body(stmt.orelse, body_exits)

        # Handlers: their raises propagate past this try (through the
        # finally region when there is one — still on the stack).
        handler_exits: list[int] = []
        for handler in stmt.handlers:
            head = self._stmt_node(handler, "except")
            self.nodes[dispatch].add_succ(head)
            handler_exits += self._build_body(handler.body, [head])
        if dispatch is not None:
            # No handler matches: propagate (through finally).
            if finally_entry is not None:
                self.nodes[dispatch].add_succ(finally_entry, EXCEPTION)
            elif self.try_stack:
                self.nodes[dispatch].add_succ(
                    self.try_stack[-1].target, EXCEPTION
                )
            else:
                self.nodes[dispatch].add_succ(CFG.RAISE_EXIT, EXCEPTION)

        if finally_frame is not None:
            self.try_stack.pop()
        if not has_finally:
            return body_exits + handler_exits

        # Finally region: entered from the body/handler fallthroughs
        # and from every abrupt path; exits fan out to each observed
        # continuation. The region itself raises to the *enclosing*
        # frame (it is popped above before building the final body).
        self._connect(body_exits + handler_exits, finally_entry)
        finally_exits = self._build_body(stmt.finalbody, [finally_entry])
        for exit_node in finally_exits:
            if finally_frame.saw_return:
                self.nodes[exit_node].add_succ(CFG.EXIT)
            for loop in finally_frame.breaks:
                loop.breaks.append(exit_node)
            for loop in finally_frame.continues:
                self.nodes[exit_node].add_succ(loop.head)
            # Exceptional traversal continues past the finally.
            if self.try_stack:
                self.nodes[exit_node].add_succ(
                    self.try_stack[-1].target, EXCEPTION
                )
            else:
                self.nodes[exit_node].add_succ(CFG.RAISE_EXIT, EXCEPTION)
        return finally_exits


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()


def node_exprs(node: CFGNode) -> list[ast.expr]:
    """The expressions a CFG node evaluates when control reaches it.

    For compound statements only the *header* belongs to the node —
    the body statements are CFG nodes of their own — so an ``if``
    contributes its test, a ``for`` its iterable, and so on. Simple
    statements contribute all their expressions.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs: list[ast.expr] = []
        for item in stmt.items:
            exprs.append(item.context_expr)
            if item.optional_vars is not None:
                exprs.append(item.optional_vars)
        return exprs
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Try):
        return []
    # Simple statements own every expression under them.
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


def node_calls(node: CFGNode) -> list[ast.Call]:
    """Call expressions a CFG node evaluates, in document order."""
    calls = [
        sub
        for expr in node_exprs(node)
        for sub in ast.walk(expr)
        if isinstance(sub, ast.Call)
    ]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls
