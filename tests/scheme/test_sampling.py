"""Tests for the sampling profiler mode (profiler parametricity)."""

import pytest

from repro.casestudies.exclusive_cond import make_case_system
from repro.casestudies.if_r import make_if_r_system
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.scheme.core_forms import unparse_string
from repro.scheme.instrument import Instrumenter, ProfileMode
from repro.scheme.pipeline import SchemeSystem


class TestSamplingCounters:
    def test_counts_are_unbiased_for_multiples_of_stride(self):
        source = "(define (f x) (* x x))\n(define (run n) (if (= n 0) 'done (begin (f n) (run (- n 1)))))\n(run 100)"
        exact = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.EXPR)
        sampled = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.SAMPLE)
        body_start = source.index("(* x x)")
        point = None
        for p in exact.counters.points():
            if p.location.start == body_start:
                point = p
        assert point is not None
        assert exact.counters.count(point) == 100
        # stride 10 divides 100 exactly: sampled count is exact.
        assert sampled.counters.count(point) == 100

    def test_counts_within_one_stride_otherwise(self):
        source = "(define (f x) (* x x))\n(define (run n) (if (= n 0) 'done (begin (f n) (run (- n 1)))))\n(run 57)"
        sampled = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.SAMPLE)
        body_start = source.index("(* x x)")
        counts = [
            sampled.counters.count(p)
            for p in sampled.counters.points()
            if p.location.start == body_start
        ]
        assert counts and abs(counts[0] - 57) < 10

    def test_sampling_cheaper_than_exact_by_bump_count(self):
        """The point of sampling: fewer counter increments."""
        source = "(define (loop n) (if (= n 0) 'done (loop (- n 1))))\n(loop 1000)"
        exact = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.EXPR)
        sampled = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.SAMPLE)
        # Totals are similar (unbiased) ...
        assert sampled.counters.total() == pytest.approx(exact.counters.total(), rel=0.05)
        # ... but the number of distinct *recorded* points can only shrink
        # and cold points vanish entirely under sampling.
        assert len(sampled.counters) <= len(exact.counters)

    def test_invalid_stride(self):
        from repro.core.counters import CounterSet

        with pytest.raises(ValueError):
            Instrumenter(CounterSet(), ProfileMode.SAMPLE, sample_stride=0)

    @pytest.mark.parametrize("backend", ["interp", "compile"])
    def test_sites_of_one_point_share_its_stride(self, backend):
        """Regression: ``twice`` copies ``(g x)``, so its one point has two
        hook sites. A residue per site read 20 of 30 executions at stride
        10; the residue per point reads all 30."""
        source = (
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
            "(define (g x) x)\n"
            "(define (f x) (twice (g x)))\n"
            "(define (loop n) (if (= n 0) 'done (begin (f n) (loop (- n 1)))))\n"
            "(loop 15)"
        )
        system = SchemeSystem()
        program = system.compile(source, "s.ss")
        start = source.index("(g x)))")
        counts = {}
        for mode in (ProfileMode.EXPR, ProfileMode.SAMPLE):
            result = system.run(program, instrument=mode, backend=backend)
            (counts[mode],) = [
                count
                for point, count in result.counters.snapshot().items()
                if point.location.start == start
            ]
        assert counts == {ProfileMode.EXPR: 30, ProfileMode.SAMPLE: 30}

    def test_deterministic_across_runs(self):
        source = "(define (loop n) (if (= n 0) 'done (loop (- n 1))))\n(loop 123)"
        a = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.SAMPLE)
        b = SchemeSystem().run_source(source, "s.ss", instrument=ProfileMode.SAMPLE)
        assert a.counters.snapshot() == b.counters.snapshot()


class TestMetaProgramsOverSampledProfiles:
    def test_if_r_decision_matches_exact_profiler(self):
        program = """
        (define (classify n) (if-r (< n 20) 'low 'high))
        (define (run n acc) (if (= n 0) acc (run (- n 1) (cons (classify n) acc))))
        (length (run 200 '()))
        """
        sampled_system = make_if_r_system(mode=ProfileMode.SAMPLE)
        sampled_system.profile_run(program, "p.ss", mode=ProfileMode.SAMPLE)
        sampled = unparse_string(sampled_system.compile(program, "p.ss"))

        exact_system = make_if_r_system()
        exact_system.profile_run(program, "p.ss")
        exact = unparse_string(exact_system.compile(program, "p.ss"))
        assert sampled == exact
        assert "(if (not (< n 20))" in sampled  # 'high dominates

    def test_case_reordering_under_sampling(self):
        # Sampling (stride 10) only sees clauses executed often enough;
        # the workload must be much larger than the stride.
        stream = "a" * 20 + "b" * 60 + " " * 200
        program = r"""
        (define (parse-char c)
          (case c
            [(#\a) 'a]
            [(#\b) 'b]
            [(#\space) 'space]))
        """ + f'(length (map parse-char (string->list "{stream}")))'
        system = make_case_system(mode=ProfileMode.SAMPLE)
        first = system.profile_run(program, "c.ss", mode=ProfileMode.SAMPLE)
        text = unparse_string(system.compile(program, "c.ss"))
        line = next(l for l in text.splitlines() if l.startswith("(define parse-char"))
        assert line.index("'space") < line.index("'a")
        second = system.run(system.compile(program, "c.ss"))
        assert str(first.value) == str(second.value)
