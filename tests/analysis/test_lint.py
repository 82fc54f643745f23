"""Kernel lint: clean over the real solvers, loud on seeded bad kernels."""

import textwrap

from repro.analysis.lint import (
    lint_paths,
    lint_source,
    main,
    solver_package_paths,
)


def _lint(body: str):
    return lint_source(textwrap.dedent(body))


#: A kernel violating all three rules at once.
BAD_KERNEL = """
    def kernel(ctx):
        i = ctx.global_id
        col = int(ctx.load("col_idx", i))
        yield ALU
        yield SpinWait("get_value", col, 1)       # KL002: divergent spin
        dep = i - 1
        left = ctx.load("values", i) * ctx.load("x", dep)  # KL003: unguarded
        yield ALU
        ctx.store("x", i, left)
        yield ALU
        ctx.store("get_value", i, 1)              # KL001: no fence
        yield ALU
"""


class TestRealKernels:
    def test_solver_package_is_clean(self):
        findings = lint_paths(solver_package_paths())
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_solver_package_paths_cover_the_kernels(self):
        names = {p.name for p in solver_package_paths()}
        assert {"capellini.py", "naive_thread.py", "syncfree.py"} <= names


class TestKL001:
    def test_missing_fence(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                ctx.store("x", i, 1.0)
                yield ALU
                ctx.store("get_value", i, 1)
                yield ALU
        """)
        assert [f.rule for f in findings] == ["KL001"]
        assert "threadfence" in findings[0].message

    def test_fence_on_wrong_side(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                ctx.threadfence()
                ctx.store("x", i, 1.0)
                yield ALU
                ctx.store("get_value", i, 1)
                yield ALU
        """)
        assert [f.rule for f in findings] == ["KL001"]

    def test_correct_protocol_is_clean(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                ctx.store("x", i, 1.0)
                yield ALU
                ctx.threadfence()
                ctx.store("get_value", i, 1)
                yield ALU
        """)
        assert findings == []

    def test_sim_attribute_spelling_recognized(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                ctx.store(_sim.X, i, 1.0)
                yield ALU
                ctx.store(_sim.GET_VALUE, i, 1)
                yield ALU
        """)
        assert [f.rule for f in findings] == ["KL001"]

    def test_atomic_flag_publish_needs_fence_too(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                ctx.atomic_add("left_sum", i, 1.0)
                yield ALU
                ctx.atomic_add("counter", i, 1)
                yield ALU
        """)
        assert [f.rule for f in findings] == ["KL001"]


class TestKL002:
    def test_divergent_blocking_spin(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                col = int(ctx.load("col_idx", i))
                yield SpinWait("get_value", col, 1)
        """)
        assert [f.rule for f in findings] == ["KL002"]

    def test_warp_uniform_row_is_clean(self):
        # SyncFree shape: the warp owns one row, deps are cross-warp
        findings = _lint("""
            def kernel(ctx):
                i = ctx.warp_id
                lane = ctx.lane_id
                lo = int(ctx.load("row_ptr", i))
                j = lo + lane
                col = int(ctx.load("col_idx", j))
                yield SpinWait("get_value", col, 1)
        """)
        assert findings == []

    def test_cross_warp_guard_is_clean(self):
        # Two-Phase phase 1: break before any intra-warp element
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                warp_begin = (i // 32) * 32
                col = int(ctx.load("col_idx", i))
                while True:
                    if col >= warp_begin:
                        break
                    yield SpinWait("get_value", col, 1)
                    col += 1
        """)
        assert findings == []

    def test_sibling_branch_taint_does_not_leak(self):
        # Adaptive shape: the thread-mode branch derives a lane-varying
        # row, the warp-mode branch re-derives a warp-uniform one — the
        # else-branch spin must not be poisoned by the if-branch assigns
        findings = _lint("""
            def kernel(ctx):
                w = ctx.warp_id
                lane = ctx.lane_id
                if w % 2 == 0:
                    i = w * 32 + lane
                    lo = int(ctx.load("row_ptr", i))
                    yield ALU
                else:
                    i = w * 32
                    lo = int(ctx.load("row_ptr", i))
                    col = int(ctx.load("col_idx", lo + lane))
                    yield SpinWait("get_value", col, 1)
        """)
        assert findings == []

    def test_pragma_silences_the_rule(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                col = int(ctx.load("col_idx", i))
                yield SpinWait(  # kernel-lint: allow=KL002 -- demo
                    "get_value", col, 1
                )
        """)
        assert findings == []

    def test_poll_is_always_clean(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                col = int(ctx.load("col_idx", i))
                yield Poll("get_value", col, 1)
        """)
        assert findings == []


class TestKL003:
    def test_unguarded_value_load(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                ctx.store("get_value", 0, 0)
                yield ALU
                v = ctx.load("x", i)
                yield ALU
        """)
        assert "KL003" in [f.rule for f in findings]

    def test_poll_guard_matches_root_variable(self):
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                col = int(ctx.load("col_idx", i))
                yield Poll("get_value", col, 1)
                v = ctx.load("x", col)
                yield ALU
        """)
        assert findings == []

    def test_strided_index_still_guarded(self):
        # multi-RHS: value index col * k + r, flag wait on col
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                k = 4
                col = int(ctx.load("col_idx", i))
                yield Poll("get_value", col, 1)
                for r in range(k):
                    v = ctx.load("x", col * k + r)
                yield ALU
        """)
        assert findings == []

    def test_rule_inactive_without_flag_protocol(self):
        # a kernel that never touches flag arrays is not held to KL003
        findings = _lint("""
            def kernel(ctx):
                i = ctx.global_id
                v = ctx.load("x", i)
                yield ALU
        """)
        assert findings == []


class TestDiscovery:
    def test_non_kernel_functions_ignored(self):
        findings = _lint("""
            def helper(ctx):          # no yield: not a kernel
                ctx.store("get_value", 0, 1)

            def plain(a, b):          # no ctx: not a kernel
                return a + b
        """)
        assert findings == []

    def test_all_three_rules_fire_on_bad_kernel(self):
        rules = {f.rule for f in _lint(BAD_KERNEL)}
        assert rules == {"KL001", "KL002", "KL003"}

    def test_findings_are_ordered_and_formatted(self):
        findings = _lint(BAD_KERNEL)
        lines = [f.line for f in findings]
        assert lines == sorted(lines)
        assert all(":" in f.format() and f.rule in f.format()
                   for f in findings)


class TestMain:
    def test_main_clean(self, capsys):
        assert main([str(p) for p in solver_package_paths()]) == 0
        assert "clean" in capsys.readouterr().out

    def test_main_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad_kernel.py"
        bad.write_text(textwrap.dedent(BAD_KERNEL))
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "KL001" in out and "KL002" in out and "KL003" in out
