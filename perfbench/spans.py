"""In-process traced run: spans around divaut's public functions.

The wrappers are installed from outside, on the imported modules, and removed
again afterwards; no divaut source changes.  Each call records one span
(name, start, end, parent, job) in memory.  A layer's self time is its spans'
durations minus the time covered by their direct children.
"""
from __future__ import annotations

import contextlib
import io
import os
import signal
import time
from collections import Counter, defaultdict

import divaut
from divaut import activation, automaton, cli, fileformat, kleene, quantum, semiring, series
from divaut import words


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, job id)
        self.stack = []      # (span index, name) of the open spans
        self.job = None
        self.counts = Counter()
        self.maxima = Counter()
        # the largest automaton advance_row saw, with its latest row
        self.largest = None

    def wrap(self, name, fn, after=None):
        """``name`` is a string or a function of the call's arguments;
        ``after(args, result)`` records counts once the span is closed."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if label is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((index, label))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.job)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    # -- counts -------------------------------------------------------------

    def note_automaton(self, aut, layer=None):
        edges = sum(len(row) for rows in aut.transitions.values() for row in rows)
        self.maxima["automaton.states_max"] = max(self.maxima["automaton.states_max"],
                                                  aut.num_states)
        self.maxima["automaton.edges_max"] = max(self.maxima["automaton.edges_max"], edges)
        if layer == "quantum":
            self.maxima["quantum.states"] = max(self.maxima["quantum.states"],
                                                aut.num_states)

    def note_value(self, value):
        if isinstance(value, semiring.GaussianRational):
            parts = (value.real, value.imag)
        else:
            parts = (value,)
        bits = 0
        for part in parts:
            if isinstance(part, bool):
                continue
            for whole in (getattr(part, "numerator", part), getattr(part, "denominator", 1)):
                bits = max(bits, abs(whole).bit_length())
        self.maxima["semiring.max_bits"] = max(self.maxima["semiring.max_bits"], bits)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wraps the layer boundaries; returns the patches for ``uninstall``."""
        patches = []
        modules = [m for m in (divaut, activation, automaton, cli, fileformat, kleene,
                               quantum, semiring, series, words)]

        def function(module, attr, name, after=None):
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, after)
            for mod in modules:   # every `from x import f` binding too
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

        def method(cls, attr, name, after=None):
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, after))

        def parsed(args, result):
            self.counts["fileformat.bytes"] += len(args[0])
            if isinstance(result, automaton.Automaton):
                self.note_automaton(result)

        def formatted(args, result):
            self.counts["fileformat.bytes"] += len(result)

        function(fileformat, "parse_automaton", "fileformat.parse", parsed)
        function(fileformat, "parse_expression_file", "fileformat.parse", parsed)
        function(fileformat, "format_automaton", "fileformat.format", formatted)
        function(fileformat, "format_expression_file", "fileformat.format", formatted)
        function(words, "parse_word", "words.parse")

        for cls in (semiring.BooleanSemiring, semiring.NaturalSemiring,
                    semiring.RationalSemiring, semiring.GaussianRationalSemiring):
            method(cls, "format", "semiring.format",
                   lambda args, result: self.note_value(args[1]))

        def outermost(prefix):
            parent = self.parent_name()
            return parent is None or not parent.startswith(prefix)

        def compiled(args, result):
            self.note_automaton(result)
            if outermost("kleene."):
                self.counts["kleene.states_out"] += result.num_states

        def extracted(args, result):
            if outermost("kleene."):
                self.counts["kleene.states_in"] += args[0].num_states
                self.counts["kleene.expr_nodes"] += expr_nodes(result)

        for level in ("conv", "div", "bidiv"):
            function(kleene, f"compile_{level}", "kleene.compile", compiled)
            function(kleene, f"extract_{level}", "kleene.extract", extracted)

        def built(args, result):
            self.note_automaton(result, "quantum")

        for attr in ("build_hs_hamiltonian", "build_correlator", "build_magnetization"):
            function(quantum, attr, "quantum.build", built)
        for attr in ("apply_transducer", "dual"):
            function(quantum, attr, "quantum.transduce", built)
        method(quantum.ExpectedValue, "row", "quantum.table")
        method(quantum.ExpectedValue, "ratio_at",
               lambda args: None if self.parent_name() == "quantum.table"
               else "quantum.probe")

        def setup_name(shape):
            def name(args):
                field = "field" if args[1].semiring.is_field else "nonfield"
                return f"activation.setup.{shape}-{field}"
            return name

        def decided(args, result):
            verdict = args[0].verdict
            self.counts["activation.pairs"] += len(verdict.pairs)
            self.counts["activation.live_pairs"] += sum(verdict.pairs.values())
            if verdict.method.startswith("BoundedHorizon"):
                self.counts["activation.horizon_pairs"] += len(verdict.pairs)

        method(activation.DivergingBehavior, "__init__", setup_name("onesided"), decided)
        method(activation.BidivergingBehavior, "__init__", setup_name("twosided"), decided)
        method(activation.DivergingBehavior, "at", "activation.eval")
        method(activation.BidivergingBehavior, "at", "activation.eval")

        method(series.DivSeries, "at", "series.oracle")
        method(series.BidivSeries, "at", "series.oracle")
        function(series, "conv_coeff", "series.oracle")

        original_advance = automaton.advance_row
        counts = self.counts

        def advance_row(aut, row, symbol):
            counts["automaton.rows"] += 1
            largest = self.largest
            if largest is None or aut.num_states >= largest[0].num_states:
                self.largest = (aut, row, symbol)
            return original_advance(aut, row, symbol)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original_advance:
                    patches.append((mod, key, value))
                    setattr(mod, key, advance_row)
        return patches

    @staticmethod
    def uninstall(patches):
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Self time per span name, and the nesting violations found."""
        covered = [0.0] * len(self.spans)
        problems = []
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if parent >= 0:
                _, p_start, p_end, _, p_job = self.spans[parent]
                if start < p_start or end > p_end or job != p_job:
                    problems.append(f"span {index} ({name}) escapes its parent {parent}")
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            own = (end - start) - covered[index]
            if own < -1e-9:
                problems.append(f"span {index} ({name}) has negative self time {own}")
            totals[name] += own
        return totals, problems


def expr_nodes(expr):
    """Number of nodes in a series expression (a tree of dataclasses)."""
    count = 0
    todo = [expr]
    while todo:
        node = todo.pop()
        count += 1
        for value in vars(node).values():
            if isinstance(value, series.Expr):
                todo.append(value)
            elif isinstance(value, tuple):
                todo.extend(v for v in value if isinstance(v, series.Expr))
    return count


class _Capture(io.StringIO):
    """Captured stdout that remembers when the first row was written."""

    first = None

    def write(self, text):
        if self.first is None and text:
            self.first = time.perf_counter()
        return super().write(text)


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("the job ran out of time")


def run_in_process(job, workdir, timeout_s, tracer=None):
    """Runs one job through ``divaut.cli.main`` in this process; returns
    (seconds, seconds to the first stdout write, exit code, stdout, error).
    A job still running after ``timeout_s`` is interrupted and fails.  With
    a tracer, the call is the job's root span ``cli``."""
    out, err = _Capture(), io.StringIO()
    main = cli.main if tracer is None else tracer.wrap("cli", cli.main)
    if tracer is not None:
        tracer.job = job.id
    cwd = os.getcwd()
    os.chdir(workdir)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    error = None
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.args))
    except (Exception, SystemExit) as exc:  # a crashing job is counted, never fatal
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        os.chdir(cwd)
    if code not in (0, None):
        error = err.getvalue()[-2000:] or f"exit {code}"
    first = elapsed if out.first is None else out.first - start
    return elapsed, first, code, out.getvalue(), error
