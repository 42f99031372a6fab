"""The run loop shared by the pair-at-a-time and matrix-batch engines.

A RunState owns the temporary basis, the pair queue, the solved-variable map
and the trace; the engines supply a per-round step function. Everything here
is deterministic: fixed iteration orders, no set iteration.
"""

from __future__ import annotations

from .engine import (
    EngineConfig,
    EngineReport,
    RoundTrace,
    SolveEvent,
    Status,
    TemporaryBasis,
    PairQueue,
    adjoin_field_equations,
    degree_monitor,
    update,
    update_no_criteria,
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
    def __init__(self, config: EngineConfig, *, engine_name, field_active, screening, tracer):
        self.ring = config.ring
        self.config = config
        self.engine_name = engine_name
        self.field_active = field_active
        self.screening = screening
        self.tracer = tracer if tracer is not None else TraceWriter(None)
        self.basis = TemporaryBasis()
        self.queue = PairQueue()
        self.assignments: dict = {}
        self.events: list = []
        self.rounds: list = []
        self.round_no = 0
        self.renewals = 0  # renews applied to the basis so far
        self.inconsistent = False
        self._update = update if config.use_criteria else update_no_criteria

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
            self._update(self.basis, self.queue, f)
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

    def screen_batch(self, batch: list) -> list:
        """Mid-run solving over a freshly reduced batch.

        Emits every unique-root assignment found, substitutes it through the
        basis, the batch and the queue, and hands back the renewed batch.
        """
        if not self.screening or not batch:
            return batch
        try:
            found = find_unique_root_polys(batch, self.ring, self.round_no)
        except ConflictingRootsError:
            self.mark_inconsistent()
            return []
        for a in found:
            if self.inconsistent:
                break
            self.emit(a)
            res = renew(self.basis, batch, self.queue, a, self.ring, self.field_active)
            self.basis, batch, self.queue = res.basis, res.pending, res.queue
            self.renewals += 1
            if res.inconsistent:
                self.mark_inconsistent()
        return batch

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
            h = normal_form(h, self.basis.polys)
            if h.is_zero:
                return None
        h = self.canon(h)
        if h.is_zero:
            return None
        degree_monitor(h, self.ring, "stored", self.field_active)
        self._update(self.basis, self.queue, h)
        return h

    def post_round_checks(self):
        if self.screening and not self.inconsistent and inconsistency_check(self.basis.polys):
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
        """Queue is empty: interreduce, final safety screen. True = really done."""
        reduced = interreduce(self.basis.polys)
        self.basis = TemporaryBasis()
        self.queue = PairQueue()
        for g in reduced:
            self.basis.add(g)
        if not self.screening:
            return True
        if inconsistency_check(reduced):
            self.mark_inconsistent()
            return True
        try:
            found = find_unique_root_polys(reduced, self.ring, self.round_no)
        except ConflictingRootsError:
            self.mark_inconsistent()
            return True
        if not found:
            return True
        for a in found:
            if self.inconsistent:
                break
            self.emit(a)
            res = renew(self.basis, [], self.queue, a, self.ring, self.field_active)
            self.basis, self.queue = res.basis, res.queue
            self.renewals += 1
            if res.inconsistent:
                self.mark_inconsistent()
        return bool(self.inconsistent) or (not self.queue and self._settled())

    def _settled(self) -> bool:
        """After a completion screen with events: anything left to do?"""
        if inconsistency_check(self.basis.polys):
            self.mark_inconsistent()
            return True
        if self.all_solved():
            return True
        # no pairs and no further unique roots -> loop would re-screen forever
        # unless we check now
        try:
            more = find_unique_root_polys(self.basis.polys, self.ring, self.round_no)
        except ConflictingRootsError:
            self.mark_inconsistent()
            return True
        return not more

    def finish(self, status: Status) -> EngineReport:
        if status is Status.INCONSISTENT:
            basis = [self.ring.one]
        else:  # interreduced by completion(), or the RoundLimit snapshot
            basis = list(self.basis.polys)
        report = EngineReport(
            status=status,
            basis=basis,
            assignments=dict(self.assignments),
            rounds=self.rounds,
            events=list(self.events),
            engine=self.engine_name,
        )
        self.tracer.terminal(
            {
                "status": status.value,
                "assignments": {
                    self.ring.names[i]: v for i, v in self.assignments.items()
                },
                "basis": [str(p) for p in basis],
                "total_rounds": report.total_rounds,
                "engine": self.engine_name,
            }
        )
        return report


def run_rounds(state: RunState, round_fn) -> EngineReport:
    """Drive a RunState to termination with the engine-specific round step."""
    max_rounds = state.config.max_rounds
    while True:
        if state.inconsistent:
            return state.finish(Status.INCONSISTENT)
        if state.screening and state.all_solved():
            return state.finish(Status.ALL_VARIABLES_SOLVED)
        if not state.queue:
            if state.completion():
                if state.inconsistent:
                    return state.finish(Status.INCONSISTENT)
                if state.screening and state.all_solved():
                    return state.finish(Status.ALL_VARIABLES_SOLVED)
                return state.finish(Status.GROEBNER_BASIS)
            continue  # the final screen solved something; new pairs may exist
        if max_rounds is not None and state.round_no >= max_rounds:
            return state.finish(Status.ROUND_LIMIT)
        state.round_no += 1
        round_fn(state)


def prepare_inputs(polys, config: EngineConfig):
    """Apply input-order and field-equation configuration. Returns (list, field_active)."""
    polys = list(polys)
    if config.reverse_inputs:
        polys = polys[::-1]
    if config.adjoin_field_eqs:
        polys = adjoin_field_equations(polys, config.ring)
    return polys, config.adjoin_field_eqs
