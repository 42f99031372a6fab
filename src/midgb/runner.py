"""The run state shared by all three engines, and the batch engines' run loop.

A RunState owns the basis (a plain list in insertion order), the pair
queue, the solved-variable map and the trace; the engines supply a
per-round step function. Middle solving runs through one method,
``RunState.screen``, in one of the paper's two modes: the batch engines
screen every freshly reduced batch and, once the queue drains, the
completed basis; the incremental engine screens only each completed
intermediate basis. Everything here is deterministic: fixed iteration
orders, no set iteration.
"""

from __future__ import annotations

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
from .midsolve import (
    find_unique_root_polys,
    inconsistency_check,
    renew,
)
from .poly import field_reduce, interreduce, is_field_polynomial, normal_form
from .trace import TraceWriter


class RunState:
    def __init__(self, config: EngineConfig, tracer: TraceWriter):
        self.ring = config.ring
        self.config = config
        self.field_active = config.adjoin_field_eqs
        self.screening = config.middle_solving
        # the incremental mode screens completed bases only, never a batch
        self.batch_screening = self.screening and config.engine != "incremental"
        self.tracer = tracer
        self.basis: list = []
        self.queue = PairQueue()
        self.assignments: dict = {}
        self.events: list = []
        self.rounds: list = []
        self.round_no = 0
        self.renewals = 0  # renews applied to the basis so far
        self.inconsistent = False

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

    def ingest_inputs(self, polys) -> bool:
        """Insert the raw inputs. False means a constant input ended the run.

        A constant input makes the whole ideal trivial. With solving enabled
        that is detected immediately; without it the unit is inserted like any
        member and the run completes to the basis {1}.
        """
        for f in polys:
            if f.is_zero:
                continue
            f = self.canon(f)
            if f.is_zero:
                continue
            if f.is_constant and self.screening:
                self.mark_inconsistent()
                return False
            degree_monitor(f, self.ring, "stored", self.field_active)
            update(self.basis, self.queue, f)
        return True

    def mark_inconsistent(self):
        if not self.inconsistent:
            self.inconsistent = True
            self.tracer.event("inconsistent", self.round_no)

    def all_solved(self) -> bool:
        return len(self.assignments) == self.ring.n

    def emit(self, assignment):
        ev = SolveEvent(assignment.round, assignment.variable, assignment.value)
        self.events.append(ev)
        self.assignments[ev.variable] = ev.value
        self.tracer.event("solved", ev.round, self.ring.names[ev.variable], ev.value)
        return ev

    def outcome(self):
        """The status a run has reached early or at completion, if any."""
        if self.inconsistent:
            return Status.INCONSISTENT
        if self.screening and self.all_solved():
            return Status.ALL_VARIABLES_SOLVED
        return None

    def screen(self, source, pending: list):
        """Emit every unique-root assignment found in ``source``.

        Each one is substituted through the basis, the queue and ``pending``
        (a batch not yet inserted). Returns whether anything was found, and
        the renewed ``pending``.
        """
        try:
            found = find_unique_root_polys(source, self.round_no)
        except ConflictingRootsError:
            self.mark_inconsistent()
            return True, []
        for a in found:
            if self.inconsistent:
                break
            self.emit(a)
            res = renew(self.basis, pending, a)
            self.basis, pending, self.queue = res.basis, res.pending, res.queue
            self.renewals += 1
            if res.inconsistent:
                self.mark_inconsistent()
        return bool(found), pending

    def screen_batch(self, batch: list) -> list:
        """Mid-run solving over a freshly reduced batch; returns it renewed."""
        if not self.batch_screening or not batch:
            return batch
        return self.screen(batch, batch)[1]

    def insert_new(self, h, reduced_at: int):
        """Insert a candidate if it does not reduce to zero.

        ``reduced_at`` is the value of ``renewals`` when h was last fully
        reduced against the basis. Members inserted since then came earlier
        in the same batch, which runs in descending leading-monomial order;
        a larger leading monomial divides none of h's monomials. So h is
        reduced again only when a renew has rewritten the basis since.

        Returns the polynomial as stored, or None when it reduced away.
        """
        if reduced_at != self.renewals:
            h = normal_form(h, self.basis)
            if h.is_zero:
                return None
        h = self.canon(h)
        if h.is_zero:
            return None
        degree_monitor(h, self.ring, "stored", self.field_active)
        update(self.basis, self.queue, h)
        return h

    def post_round_checks(self):
        if self.batch_screening and not self.inconsistent and inconsistency_check(self.basis):
            self.mark_inconsistent()

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
        """Queue is empty: interreduce and screen the completed basis.

        Repeats while screening finds something. True once the run is done:
        nothing more is found, or it is inconsistent. False when a renew
        left pairs to process.
        """
        while True:
            self.basis = interreduce(self.basis)
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

    def finish(self, status: Status) -> EngineReport:
        if status is Status.INCONSISTENT:
            basis = [self.ring.one]
        else:  # interreduced by completion(), or the RoundLimit snapshot
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


def run_rounds(state: RunState, polys, round_fn) -> EngineReport:
    """Run a batch engine to termination on its inputs.

    Adjoins the field equations when they are on, ingests the inputs, then
    calls ``round_fn`` once per round until the run reaches a status.
    """
    if state.field_active:
        polys = adjoin_field_equations(polys, state.ring)
    state.ingest_inputs(polys)
    max_rounds = state.config.max_rounds
    while state.outcome() is None:
        # completion() is False only when its screen left pairs to process
        if not state.queue and state.completion():
            break
        if max_rounds is not None and state.round_no >= max_rounds:
            return state.finish(Status.ROUND_LIMIT)
        state.round_no += 1
        state.record_round(round_fn(state))
    return state.finish(state.outcome() or Status.GROEBNER_BASIS)
