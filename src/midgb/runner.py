"""The run state shared by all three engines, the one run loop that drives
them, and the rounds and entry points of the two batch engines.

A RunState owns the basis (a plain list in insertion order), the pair queue,
the solved-variable map and the trace. Every engine runs in ``run_rounds``
with its own round function and stop rule. A batch round reduces a batch and
hands it to ``RunState.absorb``, which screens, inserts and counts it; the
batch engines stop at a status or when ``RunState.pairs_left`` is false. The
two batch rounds differ only in how they reduce: ``f4_round`` takes every
critical pair of minimal degree and reduces them in one matrix with the
kernels of ``f4``; ``buchberger_round`` takes one pair and reduces its
S-polynomial fully against the basis. An incremental round reads one input;
that engine stops when the run is inconsistent or no input is left. Middle
solving runs through one method, ``RunState.screen``, in one of the paper's
two modes: the batch engines screen every freshly reduced batch and, once
the queue drains, the completed basis; the incremental engine screens only
each completed intermediate basis. ``midsolve`` does the algebra of a
screen; the screen makes its solve events (``RunState.emit``) and stores
the renewed members through ``RunState.store``, like every other member.
Everything here is deterministic: fixed iteration orders, no set iteration.

This module calls the matrix kernels as ``f4.symbolic_preprocess`` and
``f4.MacaulayMatrix``, and ``reduced_basis`` from ``f4`` on completed bases,
each with the run's reducer lookup, ``RunState.divisors``, as their one
context; ``f4`` does not import it back.
"""

from __future__ import annotations

from . import f4
from .engine import (
    EngineConfig,
    EngineReport,
    RoundTrace,
    SolveEvent,
    Status,
    PairQueue,
    adjoin_field_equations,
    degree_monitor,
    update,
)
from .errors import ConflictingRootsError
from .f4 import reduced_basis
from .midsolve import (
    find_unique_root_polys,
    inconsistency_check,
    renew,
)
from .poly import FirstDivisor, field_reduce, is_field_polynomial, normal_form, s_polynomial
from .trace import TraceWriter


class RunState:
    """One run: its basis, pair queue, solved values and trace.

    ``divisors`` is the reducer lookup over the current basis, with the
    run's ring and field-equation setting and the reducer rows it has made;
    it is replaced with the basis, and it is all the ``f4`` kernels take.
    ``folds``, the exponent-fold table, depends on the ring alone, so every
    lookup of the run shares it, and with it every product the kernels form.
    """

    def __init__(self, config: EngineConfig, tracer: TraceWriter):
        self.ring = config.ring
        self.config = config
        self.field_active = config.adjoin_field_eqs
        self.screening = config.middle_solving
        # the incremental engine turns this off: it screens completed bases only
        self.batch_screening = config.middle_solving
        self.tracer = tracer
        self.folds: dict = {}
        self.basis = []
        self.queue = PairQueue()
        self.assignments: dict = {}
        self.events: list = []
        self.rounds: list = []
        self.round_no = 0
        self.inconsistent = False

    @property
    def basis(self) -> list:
        return self._basis

    @basis.setter
    def basis(self, members: list):
        """Replace the basis, and with it the reducer lookups over it.

        ``engine.update`` only appends, which ``divisors`` follows; any other
        change to the basis must assign a new list here. The new lookup
        keeps the run's fold table.
        """
        self._basis = members
        self.divisors = FirstDivisor(members, self.ring, self.field_active, self.folds)

    # ------------------------------------------------------------ helpers

    def canon(self, p):
        """Monic + eagerly exponent-folded (field polynomials stay intact)."""
        if p.is_zero:
            return p
        if self.field_active and is_field_polynomial(p) is None:
            p = field_reduce(p)
            if p.is_zero:
                return p
        return p.monic()

    def ingest_inputs(self, polys):
        """Make the raw inputs canonical and store them.

        A constant input makes the whole ideal trivial. With solving enabled
        it marks the run inconsistent and the rest is skipped; without it
        the unit is stored like any member and the run completes to {1}.
        """
        for f in map(self.canon, polys):
            if self.screening and f.is_constant and not f.is_zero:
                self.mark_inconsistent()
                return
            self.store(f)

    def store(self, h):
        """Append a canonical h to the basis and pair it, unless it is zero.

        The one step that adds a basis member, and the only caller of
        ``engine.update``. Returns h, or None when it is zero.
        """
        if h.is_zero:
            return None
        degree_monitor(h, self.ring, "stored", self.field_active)
        update(self.basis, self.queue, h)
        return h

    def mark_inconsistent(self):
        if not self.inconsistent:
            self.inconsistent = True
            self.tracer.event("inconsistent", self.round_no)

    def all_solved(self) -> bool:
        return len(self.assignments) == self.ring.n

    def emit(self, variable: int, value: int):
        """Record x_variable = value as a solve event of the current round.

        The one place that makes a ``SolveEvent``."""
        self.events.append(SolveEvent(self.round_no, variable, value))
        self.assignments[variable] = value
        self.tracer.event("solved", self.round_no, self.ring.names[variable], value)

    def outcome(self):
        """The status a run has reached early or at completion, if any."""
        if self.inconsistent:
            return Status.INCONSISTENT
        if self.screening and self.all_solved():
            return Status.ALL_VARIABLES_SOLVED
        return None

    def screen(self, source, pending: list):
        """Emit every unique-root assignment found in ``source``.

        The first is emitted at once; one renew then substitutes them all
        through the basis and ``pending`` (a batch not yet inserted), and
        the rest are emitted. Where that renew of two or more values meets a
        nonzero constant, substituted or interreduced, one renew per value
        is replayed from the saved basis and ``pending``, so the run turns
        inconsistent at the same emitted value as it would that way
        (``midsolve.renew``). Last, the basis starts again empty with an
        empty pair queue, and each renewed member is stored in the order
        renew returned them, so it is paired once and checked against the
        stored-degree bound. Returns whether anything was found, and the
        renewed ``pending``; a find always renews or ends the run.
        """
        try:
            found = find_unique_root_polys(source)
        except ConflictingRootsError:
            self.mark_inconsistent()
            return True, []
        if not found:
            return False, pending
        values = list(found.items())
        self.emit(*values[0])
        res = renew(self.basis, pending, found)
        replay = len(values) > 1 and (res.inconsistent or inconsistency_check(res.basis))
        if replay:
            res = renew(self.basis, pending, dict(values[:1]))
        for variable, value in values[1:]:
            if res.inconsistent:
                break
            self.emit(variable, value)
            if replay:
                res = renew(res.basis, res.pending, {variable: value})
        self.basis, self.queue = [], PairQueue()
        for g in res.basis:
            self.store(g)
        if res.inconsistent:
            self.mark_inconsistent()
        return True, res.pending

    def absorb(self, batch: list, tr: RoundTrace) -> RoundTrace:
        """End a round: screen a freshly reduced batch, insert it, count it.

        ``batch`` is in normal form against the basis as it stands on entry
        and in descending leading-monomial order (see ``insert_new``). The
        batch engines screen it first; when the screen finds something, it
        has rewritten the basis and renewed the batch, whose members are
        then stale. Each member is inserted until the run turns
        inconsistent, and the kept ones are counted in ``tr``. Last, the
        whole basis is checked for a constant: a renew's interreduce can
        turn survivors such as {x + 1, x} into 1 without flagging it.
        Returns ``tr``.
        """
        stale = False
        if self.batch_screening and batch:
            stale, batch = self.screen(batch, batch)
        for h in batch:
            if self.inconsistent:
                break
            kept = self.insert_new(h, stale)
            if kept is not None:
                tr.new_polys += 1
                tr.max_poly_degree = max(tr.max_poly_degree, kept.degree())
        if self.batch_screening and not self.inconsistent and inconsistency_check(self.basis):
            self.mark_inconsistent()
        return tr

    def insert_new(self, h, stale: bool):
        """Store a candidate of a batch unless it reduces to zero.

        h arrives canonical and fully reduced against the basis, and
        ``stale`` says whether a screen has rewritten the basis since.
        Members inserted since then came earlier in the same batch, which
        runs in descending leading-monomial order; a larger leading monomial
        divides none of h's monomials. So only a stale h is reduced again,
        and made canonical again.

        Returns the polynomial as stored, or None when it reduced away.
        """
        if stale:
            h = self.canon(normal_form(h, self.basis, self.divisors))
        return self.store(h)

    def record_round(self, tr: RoundTrace):
        tr.events = [e for e in self.events if e.round == tr.round]
        tr.inconsistent = self.inconsistent
        if self.screening:
            tr.solved_total = len(self.assignments)
        self.rounds.append(tr)
        payload = {
            "round": tr.round,
            "pairs_selected": tr.pairs_selected,
            "new_polys": tr.new_polys,
        }
        if tr.matrix_rows is not None:
            payload["matrix_rows"] = tr.matrix_rows
            payload["matrix_cols"] = tr.matrix_cols
            payload["zero_rows"] = tr.zero_rows
        payload["max_degree"] = tr.max_poly_degree
        payload["events"] = [
            {"kind": "solved", "var": self.ring.names[e.variable], "value": e.value}
            for e in tr.events
        ]
        if tr.inconsistent:
            payload["events"].append({"kind": "inconsistent", "var": None, "value": None})
        if tr.solved_total is not None:
            payload["solved_total"] = tr.solved_total
        self.tracer.round(payload)

    def completion(self) -> bool:
        """Queue is empty: reduce and screen the completed basis.

        With the queue empty the basis is a Groebner basis, after a renew
        too (the pair criteria then pruned every pair of the rebuilt basis),
        so ``f4.reduced_basis`` replaces it by its reduced basis in one
        matrix; that is the unique list ``interreduce`` would return. Its
        reducer rows come from the run's lookup, so rows that the rounds
        since the last change of basis made are not formed again.
        Repeats while screening finds something. True once the run is done:
        nothing more is found, or it is inconsistent. False when a renew
        left pairs to process.
        """
        while True:
            self.basis = reduced_basis(self.divisors)
            if not self.screening:
                return True
            if inconsistency_check(self.basis):
                self.mark_inconsistent()
                return True
            found, _ = self.screen(self.basis, [])
            if not found or self.inconsistent:
                return True
            if self.queue:
                return False

    def pairs_left(self) -> bool:
        """Whether a batch round is due; an empty queue runs ``completion``."""
        return not self.inconsistent and (bool(self.queue) or not self.completion())

    def finish(self, status: Status) -> EngineReport:
        if status is Status.INCONSISTENT:
            basis = [self.ring.one]
        else:  # the reduced basis from completion(), or the RoundLimit snapshot
            basis = list(self.basis)
        report = EngineReport(
            status=status,
            basis=basis,
            assignments=dict(self.assignments),
            rounds=self.rounds,
            events=list(self.events),
            engine=self.config.engine,
        )
        self.tracer.terminal(
            {
                "status": status.value,
                "assignments": {
                    self.ring.names[i]: v for i, v in self.assignments.items()
                },
                "basis": [str(p) for p in basis],
                "total_rounds": report.total_rounds,
                "engine": self.config.engine,
            }
        )
        return report


def run_rounds(state: RunState, round_fn, more) -> EngineReport:
    """The one run loop: ``round_fn`` once per round while ``more()`` holds.

    The only code that counts and records a round, applies ``max_rounds``
    and ends a run. ``more`` is asked first, so a run that reaches its
    status in the last allowed round ends with it, not ``RoundLimit``.
    """
    max_rounds = state.config.max_rounds
    while more():
        if max_rounds is not None and state.round_no >= max_rounds:
            return state.finish(Status.ROUND_LIMIT)
        state.round_no += 1
        state.record_round(round_fn(state))
    return state.finish(state.outcome() or Status.GROEBNER_BASIS)


def _batch_core(polys, config: EngineConfig, tracer: TraceWriter, round_fn) -> EngineReport:
    """Ingest every input, then ``run_rounds`` until a status or no pairs left."""
    state = RunState(config, tracer)
    if state.field_active:
        polys = adjoin_field_equations(polys, state.ring)
    state.ingest_inputs(polys)
    return run_rounds(state, round_fn, lambda: state.outcome() is None and state.pairs_left())


def f4_round(state: RunState) -> RoundTrace:
    """One batch: select, preprocess, row reduce, then ``RunState.absorb``.

    Every basis-divisible column got a reducer row, so it is a pivot column
    and no reduced row has a basis-reducible monomial: the rows are already
    in normal form against the basis, and monic and folded, so canonical.
    """
    pairs = state.queue.select(batch=True)
    rows = f4.symbolic_preprocess(pairs, state.divisors)
    matrix = f4.MacaulayMatrix(rows, state.divisors)
    nrows, ncols = matrix.shape
    reduced, zero_rows = matrix.reduce()
    return state.absorb(
        reduced,
        RoundTrace(
            round=state.round_no,
            pairs_selected=len(pairs),
            matrix_rows=nrows,
            matrix_cols=ncols,
            zero_rows=zero_rows,
        ),
    )


def f4_core(polys, config: EngineConfig, tracer: TraceWriter) -> EngineReport:
    """The matrix engine: one F4 batch per round."""
    return _batch_core(polys, config, tracer, f4_round)


def buchberger_round(state: RunState) -> RoundTrace:
    """One pair: S-polynomial, full reduction, then ``RunState.absorb``."""
    (pr,) = state.queue.select(batch=False)
    s = state.canon(s_polynomial(state.basis[pr.left], state.basis[pr.right]))
    batch = []
    if not s.is_zero:
        degree_monitor(s, state.ring, "created", state.field_active)
        # folding and scaling an irreducible remainder keep it irreducible
        h = state.canon(normal_form(s, state.basis, state.divisors))
        if not h.is_zero:
            batch = [h]
    return state.absorb(batch, RoundTrace(round=state.round_no, pairs_selected=1))


def buchberger_core(polys, config: EngineConfig, tracer: TraceWriter) -> EngineReport:
    """The pair engine: one critical pair per round."""
    return _batch_core(polys, config, tracer, buchberger_round)
