"""Whole-program pocolint v2: graph, dataflow, POCO701/801/901 fixtures.

The multi-module fixture *packages* under ``tests/lint_fixtures/`` are
linted statically (never imported); the bad packages assert exact
``file:line`` expectations for every planted violation, and each good
twin runs the same shapes legally and must stay silent.
"""

import pathlib

from repro.lint import get_rule, lint_file, lint_paths, lint_source
from repro.lint.graph import Project, module_name_for_path
from repro.lint.core import LintContext

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def package_findings(pkg, rule_id):
    return lint_paths([FIXTURES / pkg], rules=[get_rule(rule_id)], root=FIXTURES)


def located(findings):
    return [(f.path, f.line) for f in findings]


class TestProjectGraph:
    def test_module_name_for_path(self):
        assert module_name_for_path("src/repro/lint/core.py") == (
            "src.repro.lint.core"
        )
        assert module_name_for_path("pkg/__init__.py") == "pkg"

    def test_suffix_resolution_crosses_modules(self):
        ctx_a = LintContext.from_source(
            "def helper():\n    return 1\n", "proj/util.py"
        )
        ctx_b = LintContext.from_source(
            "from proj.util import helper\n\n"
            "def caller():\n    return helper()\n",
            "proj/main.py",
        )
        project = Project.from_contexts([ctx_a, ctx_b])
        table = project.modules["proj.main"]
        resolved = project.resolve_name(table, "helper")
        assert resolved is not None
        assert resolved.qualname == "proj.util.helper"
        assert project.call_graph["proj.main.caller"] == (
            "proj.util.helper",
        )

    def test_ambiguous_suffix_resolves_to_nothing(self):
        contexts = [
            LintContext.from_source("def f():\n    pass\n", "a/util.py"),
            LintContext.from_source("def f():\n    pass\n", "b/util.py"),
        ]
        project = Project.from_contexts(contexts)
        assert project.module_for_suffix("util") is None

    def test_self_method_resolution(self):
        ctx = LintContext.from_source(
            "class C:\n"
            "    def a(self):\n"
            "        return self.b()\n"
            "    def b(self):\n"
            "        return 1\n",
            "m.py",
        )
        project = Project.from_contexts([ctx])
        assert project.call_graph["m.C.a"] == ("m.C.b",)


class TestUnitFlow:
    def test_bad_package_exact_locations(self):
        found = package_findings("unitflow_bad", "unit-flow")
        assert located(found) == [
            ("unitflow_bad/controller.py", 13),
            ("unitflow_bad/controller.py", 18),
            ("unitflow_bad/controller.py", 23),
            ("unitflow_bad/controller.py", 27),
        ]

    def test_cross_module_evidence_names_the_callee(self):
        found = package_findings("unitflow_bad", "unit-flow")
        by_line = {f.line: f.message for f in found}
        assert "binds joules to budget_w (expects watts)" in by_line[13]
        assert (
            "value returned by stored_energy() defined at "
            "unitflow_bad/convert.py:17"
        ) in by_line[18]
        assert "suffix-typed as joules but this return produces watts" in (
            by_line[23]
        )
        assert (
            "parameter cap_w= of sink_power() expects watts but receives "
            "seconds (callee defined at unitflow_bad/convert.py:13)"
        ) in by_line[27]

    def test_good_twin_is_clean(self):
        assert package_findings("unitflow_good", "unit-flow") == []

    def test_does_not_duplicate_poco101_jurisdiction(self):
        # Both sides syntactically suffixed: POCO101's finding, not 701's.
        src = "def f(power_w):\n    total_j = power_w\n    return total_j\n"
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []
        assert len(lint_source(src, rules=[get_rule("unit-mixing")])) == 1

    def test_unit_agreement_survives_branch_join(self):
        src = (
            "def f(cond, left_j, right_j):\n"
            "    if cond:\n"
            "        acc = left_j\n"
            "    else:\n"
            "        acc = right_j\n"
            "    cap_w = acc\n"
            "    return cap_w\n"
        )
        found = lint_source(src, rules=[get_rule("unit-flow")])
        assert [f.line for f in found] == [6]

    def test_conflicting_branches_stay_silent(self):
        # joules on one arm, watts on the other: the join is unknown, and
        # an unknown value must produce no finding (precision over recall).
        src = (
            "def f(cond, left_j, right_w):\n"
            "    if cond:\n"
            "        acc = left_j\n"
            "    else:\n"
            "        acc = right_w\n"
            "    cap_w = acc\n"
            "    return cap_w\n"
        )
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []


class TestLaneSafety:
    def test_bad_package_exact_locations(self):
        found = package_findings("lane_bad", "lane-safety")
        assert located(found) == [
            ("lane_bad/kernel.py", 11),
            ("lane_bad/kernel.py", 18),
            ("lane_bad/kernel.py", 25),
            ("lane_bad/kernel.py", 30),
            ("lane_bad/kernel.py", 35),
            ("lane_bad/kernel.py", 40),
            ("lane_bad/kernel.py", 46),
            ("lane_bad/state.py", 15),
            ("lane_bad/state.py", 20),
        ]

    def test_messages_name_the_base_array(self):
        found = package_findings("lane_bad", "lane-safety")
        by_loc = {(f.path, f.line): f.message for f in found}
        assert "view of lane array power" in by_loc[("lane_bad/kernel.py", 11)]
        assert "out= argument" in by_loc[("lane_bad/kernel.py", 25)]
        assert "dtype=float32" in by_loc[("lane_bad/kernel.py", 30)]
        assert "implicit int64" in by_loc[("lane_bad/kernel.py", 40)]
        assert "_np_mean_lanes" in by_loc[("lane_bad/kernel.py", 46)]
        assert "self.power" in by_loc[("lane_bad/state.py", 15)]

    def test_good_twin_is_clean(self):
        assert package_findings("lane_good", "lane-safety") == []

    def test_rule_is_gated_on_the_directive(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    a = np.zeros(n)\n"
            "    v = a[::2]\n"
            "    v += 1.0\n"
        )
        assert lint_source(src, rules=[get_rule("lane-safety")]) == []
        directive = "# pocolint: lane-module\n" + src
        assert len(lint_source(directive, rules=[get_rule("lane-safety")])) == 1

    def test_planted_bug_in_real_kernel_copy(self):
        found = lint_file(
            FIXTURES / "lane_regression.py",
            rules=[get_rule("lane-safety")],
            root=FIXTURES,
        )
        assert located(found) == [("lane_regression.py", 54)]
        assert "mutates a view of lane array ticks" in found[0].message

    def test_live_engine_modules_declare_and_pass(self):
        repo_src = pathlib.Path(__file__).parent.parent / "src"
        for name in ("batched.py", "vectorized.py"):
            path = repo_src / "repro" / "engine" / name
            text = path.read_text(encoding="utf-8")
            assert "# pocolint: lane-module" in text
            assert (
                lint_file(path, rules=[get_rule("lane-safety")]) == []
            )


class TestDeterminismTaint:
    def test_bad_package_exact_locations(self):
        found = package_findings("taint_bad", "determinism-taint")
        assert located(found) == [
            ("taint_bad/writer.py", 13),
            ("taint_bad/writer.py", 18),
            ("taint_bad/writer.py", 23),
            ("taint_bad/writer.py", 28),
            ("taint_bad/writer.py", 34),
        ]

    def test_evidence_chains_cross_the_module_boundary(self):
        found = package_findings("taint_bad", "determinism-taint")
        by_line = {f.line: f.message for f in found}
        # clock -> telemetry, with the source anchored in the other module
        assert "time.time() (taint_bad/sources.py:7)" in by_line[13]
        assert "return of stamp()" in by_line[13]
        # env -> checkpoint
        assert "os.environ[...]" in by_line[18]
        assert "Checkpoint payload" in by_line[18]
        # set order -> ledger
        assert "hash-randomized order" in by_line[23]
        assert "guard violation ledger" in by_line[23]
        # unseeded rng -> pickled worker args
        assert "unseeded np.random.default_rng()" in by_line[28]
        # global rng -> export_state return
        assert "export_state() return carries" in by_line[34]

    def test_good_twin_is_clean(self):
        assert package_findings("taint_good", "determinism-taint") == []

    def test_clock_reaching_a_tick_block_fires(self):
        # The oracle's keyword write into its one-lane tick block is a
        # telemetry sink like any other record call.
        found = package_findings("taint_telemetry", "determinism-taint")
        assert located(found) == [("taint_telemetry/sim.py", 16)]
        message = found[0].message
        assert "time.time() (taint_telemetry/meter.py:7)" in message
        assert "telemetry (telemetry.record)" in message

    def test_simulated_values_into_a_tick_block_are_clean(self):
        src = (
            "def run(telemetry, n_ticks, server):\n"
            "    for tick in range(n_ticks):\n"
            "        telemetry.record(tick, power_w=server.power_w())\n"
        )
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_sorted_cleanses_order_taint(self):
        src = (
            "def f(ledger_path):\n"
            "    rows = sorted({'a', 'b'})\n"
            "    write_ledger(ledger_path, rows)\n"
        )
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_len_of_nondeterministic_value_is_clean(self):
        src = (
            "import os\n"
            "def f(telemetry, sim_time_s):\n"
            "    n = len(os.environ['X'])\n"
            "    telemetry.record('n', sim_time_s, n)\n"
        )
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_source_without_sink_is_silent(self):
        # POCO901 only fires at sinks; loose clocks are POCO201's job.
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_param_flow_reports_at_the_caller(self):
        # `route` sinks its parameter; the *caller* feeding it a clock is
        # the site that gets flagged, with the routed-sink evidence.
        src = (
            "import time\n"
            "def route(telemetry, value):\n"
            "    telemetry.record('v', 0.0, value)\n"
            "def caller(telemetry):\n"
            "    route(telemetry, time.time())\n"
        )
        found = lint_source(src, rules=[get_rule("determinism-taint")])
        lines = sorted(f.line for f in found)
        assert 5 in lines
        routed = [f for f in found if f.line == 5]
        assert "inside route()" in routed[0].message
