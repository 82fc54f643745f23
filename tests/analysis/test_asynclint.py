"""Async-hazard lint: SL001-SL005 on seeded snippets + the live package."""

import textwrap

from repro.analysis.asynclint import (
    lint_paths,
    lint_source,
    serve_package_paths,
)


def _lint(snippet: str):
    return lint_source(textwrap.dedent(snippet))


def _rules(findings):
    return [f.rule for f in findings]


class TestSL001StaleRead:
    def test_stale_read_across_await_fires(self):
        findings = _lint(
            """
            async def flush(self):
                depth = self._depth
                await asyncio.sleep(0)
                return depth + 1
            """
        )
        assert "SL001" in _rules(findings)

    def test_revalidated_after_await_is_clean(self):
        findings = _lint(
            """
            async def flush(self):
                depth = self._depth
                await asyncio.sleep(0)
                depth = self._depth
                return depth + 1
            """
        )
        # the rebinding after the await is itself the revalidation;
        # the final use reads the fresh value
        assert "SL001" not in _rules(findings)

    def test_use_before_await_is_clean(self):
        findings = _lint(
            """
            async def flush(self):
                depth = self._depth
                record(depth)
                await asyncio.sleep(0)
            """
        )
        assert "SL001" not in _rules(findings)

    def test_untainted_local_is_clean(self):
        findings = _lint(
            """
            async def flush(self):
                n = compute()
                await asyncio.sleep(0)
                return n
            """
        )
        assert findings == []

    def test_tuple_unpacking_from_shared_state_fires(self):
        findings = _lint(
            """
            async def flush(self):
                depth, group = self._depth, self._pending
                await asyncio.sleep(0)
                return depth + len(group)
            """
        )
        assert _rules(findings).count("SL001") == 2

    def test_list_target_unpacking_shared_state_fires(self):
        findings = _lint(
            """
            async def flush(self):
                [first, *rest] = self._pending
                await asyncio.sleep(0)
                return rest
            """
        )
        assert "SL001" in _rules(findings)

    def test_tuple_element_from_local_is_clean(self):
        # element-wise: only the name bound from self._pending is tainted
        findings = _lint(
            """
            async def flush(self):
                n, group = compute(), self._pending
                await asyncio.sleep(0)
                return n
            """
        )
        assert findings == []

    def test_private_method_result_is_clean(self):
        # a private method's return value is not a read of shared state
        findings = _lint(
            """
            async def solve(self, b):
                req = self._pending_solve(b)
                await asyncio.sleep(0)
                return req
            """
        )
        assert findings == []

    def test_method_called_on_shared_state_still_fires(self):
        findings = _lint(
            """
            async def flush(self, key):
                group = self._pending.pop(key)
                await asyncio.sleep(0)
                return group
            """
        )
        assert "SL001" in _rules(findings)


class TestSL002DoublePublish:
    def test_two_unguarded_publishes_fire(self):
        findings = _lint(
            """
            async def run(fut):
                try:
                    fut.set_result(work())
                except Exception as exc:
                    fut.set_exception(exc)
            """
        )
        assert _rules(findings).count("SL002") == 2

    def test_done_guard_is_clean(self):
        findings = _lint(
            """
            async def run(fut):
                try:
                    if not fut.done():
                        fut.set_result(work())
                except Exception as exc:
                    if not fut.done():
                        fut.set_exception(exc)
            """
        )
        assert "SL002" not in _rules(findings)

    def test_unguarded_publish_in_loop_fires(self):
        findings = _lint(
            """
            async def run(fut, items):
                for item in items:
                    fut.set_result(item)
            """
        )
        assert "SL002" in _rules(findings)

    def test_single_unguarded_publish_is_clean(self):
        findings = _lint(
            """
            async def run(fut):
                fut.set_result(work())
            """
        )
        assert "SL002" not in _rules(findings)

    def test_distinct_futures_do_not_interfere(self):
        findings = _lint(
            """
            async def run(a, b):
                a.set_result(1)
                b.set_result(2)
            """
        )
        assert "SL002" not in _rules(findings)


class TestSL003LostWakeup:
    def test_swallowing_handler_fires(self):
        findings = _lint(
            """
            async def run(fut):
                try:
                    fut.set_result(work())
                except Exception:
                    log.warning("oops")
            """
        )
        assert "SL003" in _rules(findings)

    def test_handler_publishing_exception_is_clean(self):
        findings = _lint(
            """
            async def run(fut):
                try:
                    fut.set_result(work())
                except Exception as exc:
                    fut.set_exception(exc)
            """
        )
        assert "SL003" not in _rules(findings)

    def test_reraising_handler_is_clean(self):
        findings = _lint(
            """
            async def run(fut):
                try:
                    fut.set_result(work())
                except Exception:
                    raise
            """
        )
        assert "SL003" not in _rules(findings)

    def test_return_past_later_publish_fires(self):
        findings = _lint(
            """
            async def run(fut):
                try:
                    value = work()
                except Exception:
                    return
                fut.set_result(value)
            """
        )
        assert "SL003" in _rules(findings)

    def test_function_without_publishes_is_exempt(self):
        findings = _lint(
            """
            async def run():
                try:
                    work()
                except Exception:
                    pass
            """
        )
        assert "SL003" not in _rules(findings)


class TestSL004SleepPolling:
    def test_sleep_poll_loop_fires(self):
        findings = _lint(
            """
            async def close(self):
                while self._pending or self._depth:
                    await asyncio.sleep(0.001)
            """
        )
        assert "SL004" in _rules(findings)

    def test_event_wait_is_clean(self):
        findings = _lint(
            """
            async def close(self):
                await self._drained.wait()
            """
        )
        assert "SL004" not in _rules(findings)

    def test_loop_with_real_await_is_clean(self):
        findings = _lint(
            """
            async def worker(self, queue):
                while True:
                    item = await queue.get()
                    await asyncio.sleep(0.01)
                    handle(item)
            """
        )
        assert "SL004" not in _rules(findings)


class TestSL005DroppedHandle:
    def test_bare_ensure_future_fires(self):
        findings = _lint(
            """
            def kick(self, coro):
                asyncio.ensure_future(coro)
            """
        )
        assert "SL005" in _rules(findings)

    def test_bare_create_task_fires(self):
        findings = _lint(
            """
            def kick(self, loop, coro):
                loop.create_task(coro)
            """
        )
        assert "SL005" in _rules(findings)

    def test_retained_handle_is_clean(self):
        findings = _lint(
            """
            def kick(self, coro):
                task = asyncio.ensure_future(coro)
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                return task
            """
        )
        assert "SL005" not in _rules(findings)


class TestPragma:
    def test_allow_on_flagged_line(self):
        findings = _lint(
            """
            async def close(self):
                while self._spin:  # serve-lint: allow=SL004 -- demo
                    await asyncio.sleep(0.01)
            """
        )
        assert findings == []

    def test_allow_on_def_line(self):
        findings = _lint(
            """
            def kick(self, coro):  # serve-lint: allow=SL005 -- fire+forget
                asyncio.ensure_future(coro)
            """
        )
        assert findings == []

    def test_kernel_lint_tag_does_not_silence(self):
        findings = _lint(
            """
            def kick(self, coro):  # kernel-lint: allow=SL005
                asyncio.ensure_future(coro)
            """
        )
        assert "SL005" in _rules(findings)


class TestServePackage:
    def test_serve_package_is_clean(self):
        # the gate CI enforces: the live engine carries no un-allowed
        # SL findings (the seeded hazards were fixed in this tree)
        findings = lint_paths(serve_package_paths())
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_serve_package_paths_cover_engine(self):
        names = {p.name for p in serve_package_paths()}
        assert "engine.py" in names
