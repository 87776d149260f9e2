"""Tests for the Python-AST substrate: profiler, macros, case studies."""

import ast

import pytest

from repro.core.counters import CounterSet
from repro.core.database import ProfileDatabase
from repro.core.errors import MacroError
from repro.core.profile_point import ProfilePoint
from repro.core import annotate_expr, point_of_expr, profile_query, using_profile_information
from repro.pyast import (
    CallProfiler,
    MacroContext,
    MacroRegistry,
    PyAstSystem,
    annotate_expr_ast,
    collecting_counters,
    expand_function,
    node_location,
    node_point,
    profile_hook,
)
from tests.pyast import sample_functions as S


class TestSrcloc:
    def test_node_location(self):
        node = ast.parse("x + 1", mode="eval").body
        loc = node_location(node, "f.py")
        assert loc is not None
        assert loc.filename == "f.py"
        assert loc.line == 1

    def test_distinct_nodes_distinct_points(self):
        tree = ast.parse("f(a) + f(a)", mode="eval").body
        left, right = tree.left, tree.right
        assert node_point(left) != node_point(right)

    def test_node_without_position(self):
        assert node_location(ast.Load()) is None
        assert node_point(ast.Load()) is None


class TestSubstrateRegistration:
    def test_figure_4_api_works_on_ast(self):
        node = ast.parse("1 + 2", mode="eval").body
        point = point_of_expr(node)
        assert isinstance(point, ProfilePoint)
        fresh = ProfilePoint.for_location(
            node_location(ast.parse("0", mode="eval").body, "other.py")
        )
        annotated = annotate_expr(node, fresh)
        assert point_of_expr(annotated) == fresh

    def test_profile_query_on_ast(self):
        node = ast.parse("g()", mode="eval").body
        point = point_of_expr(node)
        db = ProfileDatabase()
        counters = CounterSet()
        counters.increment(point, by=2)
        db.record_counters(counters)
        with using_profile_information(db):
            assert profile_query(node) == 1.0


class TestProfileHook:
    def test_hook_without_collector_is_passthrough(self):
        assert profile_hook(_key(), lambda: 42) == 42

    def test_hook_counts_into_collector(self):
        counters = CounterSet()
        key = _key()
        with collecting_counters(counters):
            for _ in range(3):
                profile_hook(key, lambda: None)
        assert counters.count(ProfilePoint.from_key(key)) == 3

    def test_nested_collectors_use_innermost(self):
        outer, inner = CounterSet(), CounterSet()
        key = _key()
        with collecting_counters(outer):
            with collecting_counters(inner):
                profile_hook(key, lambda: None)
            profile_hook(key, lambda: None)
        assert inner.count(ProfilePoint.from_key(key)) == 1
        assert outer.count(ProfilePoint.from_key(key)) == 1

    def test_call_profiler_bundle(self):
        profiler = CallProfiler()
        key = _key()
        with profiler.collect():
            profile_hook(key, lambda: None)
        assert profiler.count(ProfilePoint.from_key(key)) == 1
        profiler.reset()
        assert profiler.count(ProfilePoint.from_key(key)) == 0


def _key() -> str:
    from repro.core.srcloc import SourceLocation

    return ProfilePoint.for_location(SourceLocation("hook.py", 0, 1)).key()


class TestAnnotateExprAst:
    def test_generates_wrapped_call(self):
        node = ast.parse("a + b", mode="eval").body
        point = node_point(node, "x.py")
        wrapped = annotate_expr_ast(node, point)
        code = ast.unparse(ast.fix_missing_locations(wrapped))
        assert code.startswith("__pgmp_profile__(")
        assert "lambda: a + b" in code

    def test_wrapped_expression_still_evaluates(self):
        node = ast.parse("a + b", mode="eval").body
        point = node_point(node, "x.py")
        wrapped = ast.Expression(annotate_expr_ast(node, point))
        ast.fix_missing_locations(wrapped)
        fn = eval(
            compile(wrapped, "<test>", "eval"),
            {"a": 1, "b": 2, "__pgmp_profile__": profile_hook},
        )
        assert fn == 3

    def test_counts_once_per_evaluation(self):
        node = ast.parse("a + b", mode="eval").body
        point = node_point(node, "x.py")
        wrapped = ast.Expression(annotate_expr_ast(node, point))
        ast.fix_missing_locations(wrapped)
        code = compile(wrapped, "<test>", "eval")
        counters = CounterSet()
        with collecting_counters(counters):
            for _ in range(4):
                eval(code, {"a": 1, "b": 2, "__pgmp_profile__": profile_hook})
        assert counters.count(point) == 4


class TestExpandFunction:
    def test_no_macros_is_identity_semantics(self):
        expanded = expand_function(S.no_macros_here)
        assert expanded(21) == 42

    def test_cannot_expand_sourceless(self):
        fn = eval("lambda x: x")
        with pytest.raises(MacroError):
            expand_function(fn)

    def test_expansion_exposes_ast(self):
        expanded = expand_function(S.decide)
        assert hasattr(expanded, "__pgmp_ast__")
        assert "__pgmp_profile__" in expanded.__pgmp_source__

    def test_macro_registry_isolated(self):
        registry = MacroRegistry()

        @registry.macro("answer")
        def _answer(node, ctx):
            return ast.Constant(value=42)

        import textwrap, types

        # S.no_macros_here has no 'answer' call; expansion is unchanged.
        expanded = expand_function(S.no_macros_here, registry)
        assert expanded(5) == 10

    def test_bad_transformer_return(self):
        registry = MacroRegistry()
        registry.register("pycase", lambda node, ctx: "not an ast")
        with pytest.raises(MacroError, match="not an AST"):
            expand_function(S.classify_char, registry)


class TestPycase:
    def test_unexpanded_fallback_works(self):
        assert S.classify_char("(") == "start-paren"
        assert S.classify_char("q") == "other"

    def test_expanded_semantics(self):
        expanded = expand_function(S.classify_char)
        for ch in " 5()q\t":
            assert expanded(ch) == S.classify_char(ch)

    def test_profile_reorders_branches(self):
        system = PyAstSystem()
        instrumented = system.expand(S.classify_char)
        system.profile(instrumented, [(c,) for c in "(((((((((1 "])
        optimized = system.expand(S.classify_char)
        source = optimized.__pgmp_source__
        assert source.index("start-paren") < source.index("white-space")
        assert source.index("start-paren") < source.index("digit")

    def test_unprofiled_expansion_keeps_source_order(self):
        system = PyAstSystem()
        source = system.expand(S.classify_char).__pgmp_source__
        assert source.index("white-space") < source.index("digit") < source.index(
            "start-paren"
        )

    def test_optimized_function_same_semantics(self):
        system = PyAstSystem()
        instrumented = system.expand(S.classify_char)
        system.profile(instrumented, [(c,) for c in "()()()999"])
        optimized = system.expand(S.classify_char)
        for ch in " 5()q\t9":
            assert optimized(ch) == S.classify_char(ch)

    def test_second_call_site_profiles_independently(self):
        system = PyAstSystem()
        inst1 = system.expand(S.classify_char)
        inst2 = system.expand(S.classify_snd)
        system.profile(inst1, [("(",)] * 5)
        system.profile(inst2, [("b",)] * 5)
        opt2 = system.expand(S.classify_snd)
        source = opt2.__pgmp_source__
        assert source.index("bee") < source.index("ay")


class TestIfR:
    def test_reorders_when_false_branch_hotter(self):
        system = PyAstSystem()
        instrumented = system.expand(S.decide)
        system.profile(instrumented, [(i,) for i in range(100)])  # mostly "big"
        optimized = system.expand(S.decide)
        assert "not n < 3" in optimized.__pgmp_source__
        assert optimized(1) == "small"
        assert optimized(50) == "big"

    def test_keeps_order_when_true_branch_hotter(self):
        system = PyAstSystem()
        instrumented = system.expand(S.decide)
        system.profile(instrumented, [(0,)] * 10 + [(9,)] * 2)
        optimized = system.expand(S.decide)
        assert "not n < 3" not in optimized.__pgmp_source__

    def test_nested_if_r(self):
        system = PyAstSystem()
        instrumented = system.expand(S.nested_if_r)
        system.profile(instrumented, [(i,) for i in range(20)])
        optimized = system.expand(S.nested_if_r)
        for n in (1, 7, 15):
            assert optimized(n) == S.nested_if_r(n)


class TestPersistence:
    def test_store_and_load(self, tmp_path):
        system = PyAstSystem()
        instrumented = system.expand(S.decide)
        system.profile(instrumented, [(i,) for i in range(50)])
        path = tmp_path / "py.profile"
        system.store_profile(path)

        fresh = PyAstSystem()
        fresh.load_profile(path)
        optimized = fresh.expand(S.decide)
        assert "not n < 3" in optimized.__pgmp_source__


class TestProfileSampled:
    INPUTS = [(i % 10,) for i in range(1000)]  # 300 "small", 700 "big"

    def _exact_counts(self):
        system = PyAstSystem()
        return system.profile(system.expand(S.decide), self.INPUTS).snapshot()

    def test_counts_confidence_and_samples_total(self):
        from repro.obs.metrics import get_global_metrics

        metrics = get_global_metrics()
        before = metrics.counter("samples_total")
        datasets_before = metrics.counter("sampled_datasets_total")
        system = PyAstSystem()
        counters = system.profile_sampled(
            system.expand(S.decide), self.INPUTS, sample_stride=10
        )
        # 300 and 700 are multiples of the stride, so the gate is exact.
        assert counters.snapshot() == self._exact_counts()
        (confidence,) = system.profile_db.dataset_confidences()
        assert confidence.is_sampled
        assert confidence.samples == 100  # the events that passed the gate
        assert confidence.scale == 10.0
        assert metrics.counter("samples_total") == before + 100
        assert metrics.counter("sampled_datasets_total") == datasets_before + 1

    def test_stride_one_is_exact_collection(self):
        from repro.obs.metrics import get_global_metrics

        metrics = get_global_metrics()
        before = metrics.counter("samples_total")
        datasets_before = metrics.counter("sampled_datasets_total")
        system = PyAstSystem()
        counters = system.profile_sampled(
            system.expand(S.decide), self.INPUTS, sample_stride=1
        )
        assert counters.snapshot() == self._exact_counts()
        assert system.profile_db.dataset_confidences() == [None]
        assert system.profile_db.confidence_summary() is None
        assert metrics.counter("samples_total") == before
        assert metrics.counter("sampled_datasets_total") == datasets_before

    def test_rejects_a_stride_below_one(self):
        system = PyAstSystem()
        with pytest.raises(ValueError, match="stride"):
            system.profile_sampled(system.expand(S.decide), self.INPUTS, sample_stride=0)
        assert system.profile_db.dataset_confidences() == []
