"""OpenMetrics / Prometheus text exposition for the serving telemetry.

Renders the :class:`~repro.serve.telemetry.ServeTelemetry` primitives
(and a few derived per-solver / per-transition / SLO series) in the
`OpenMetrics text format
<https://prometheus.io/docs/specs/om/open_metrics_spec/>`_: ``# HELP``
and ``# TYPE`` lines per family, label support, a ``# EOF`` terminator.
Histograms are exposed as OpenMetrics *summaries* — ``quantile`` label
series plus ``_count``/``_sum`` — because the reservoir percentiles are
the statistic the engine actually computes (there are no fixed buckets
to cumulate).

The output is **byte-deterministic** for a given telemetry state:
families sort by name, series sort by label value, and floats render
via ``repr`` (shortest round-trip).  That determinism is what makes the
golden-file test (``tests/metrics/golden/serve_telemetry.om.txt``)
possible, and it is also just good exporter hygiene — scrape diffs stay
meaningful.

:class:`OpenMetricsExporter` serves the rendering over a stdlib
``http.server`` on ``GET /metrics`` for anything that wants to scrape a
live engine; ``repro-sptrsv serve-stats --openmetrics`` prints the same
text once for pipelines.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Optional, Union

from repro.metrics.telemetry import Counter, Gauge, Histogram

__all__ = [
    "CONTENT_TYPE",
    "JOURNAL_FAMILIES",
    "journal_families",
    "render_metrics",
    "render_openmetrics",
    "parse_openmetrics",
    "parse_openmetrics_full",
    "render_parsed",
    "OpenMetricsExporter",
]

#: Content type scrapers negotiate for this format.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Quantiles exposed per histogram family (matches Histogram.summary()).
_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))

Metric = Union[Counter, Gauge, Histogram]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: Union[int, float]) -> str:
    # ints stay ints; floats use repr (shortest exact round-trip), which
    # keeps the output byte-stable across renders of the same state
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labelset(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Family:
    """One metric family: HELP/TYPE header plus its sample lines."""

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.samples: list[tuple[str, dict, Union[int, float]]] = []

    def add(self, suffix: str, labels: dict, value) -> None:
        self.samples.append((suffix, labels, value))

    def render(self, prefix: str) -> str:
        full = prefix + self.name
        lines = []
        if self.help:
            lines.append(f"# HELP {full} {_escape_help(self.help)}")
        lines.append(f"# TYPE {full} {self.kind}")
        # deterministic series order: suffix, then sorted label items
        for suffix, labels, value in sorted(
            self.samples, key=lambda s: (s[0], sorted(s[1].items()))
        ):
            lines.append(
                f"{full}{suffix}{_labelset(labels)} {_format_value(value)}"
            )
        return "\n".join(lines)


def _family_for(metric: Metric, families: dict) -> _Family:
    name = metric.name
    if isinstance(metric, Counter):
        kind = "counter"
        # counters expose samples as <family>_total; a family already
        # named *_total would double the suffix, so strip it here
        if name.endswith("_total"):
            name = name[: -len("_total")]
    elif isinstance(metric, Gauge):
        kind = "gauge"
    else:
        kind = "summary"
    fam = families.get(name)
    if fam is None:
        fam = families[name] = _Family(name, kind, metric.help)
    else:
        # first registration wins for help text; kinds must agree
        if fam.kind != kind:
            raise ValueError(
                f"metric family {metric.name!r} registered as both "
                f"{fam.kind} and {kind}"
            )
        if not fam.help and metric.help:
            fam.help = metric.help
    return fam


def _add_metric(metric: Metric, families: dict) -> None:
    fam = _family_for(metric, families)
    labels = dict(metric.labels)
    if isinstance(metric, Counter):
        fam.add("_total", labels, metric.value)
    elif isinstance(metric, Gauge):
        fam.add("", labels, metric.value)
        fam.add("_peak", labels, metric.peak)
    else:
        summary = metric.summary()
        for q, key in _QUANTILES:
            fam.add("", {**labels, "quantile": repr(q)}, summary[key])
        fam.add("_count", labels, summary["count"])
        fam.add("_sum", labels, summary["sum"])


def render_metrics(
    metrics: Iterable[Metric], *, prefix: str = "", extra_families=()
) -> str:
    """Render bare primitives (plus pre-built families) to exposition text.

    Same-named metrics merge into one family (their label sets
    distinguish the series).  Families are emitted name-sorted and the
    text ends with the OpenMetrics ``# EOF`` terminator.
    """
    families: dict[str, _Family] = {}
    for metric in metrics:
        _add_metric(metric, families)
    for fam in extra_families:
        if fam.name in families:
            raise ValueError(f"duplicate metric family {fam.name!r}")
        families[fam.name] = fam
    chunks = [
        families[name].render(prefix) for name in sorted(families)
    ]
    chunks.append("# EOF")
    return "\n".join(chunks) + "\n"


#: Journal-health series rendered by :func:`journal_families`:
#: ``(stats key, family name, kind, help)``.  Counters come from the
#: writer's monotonic totals; gauges are instantaneous.
JOURNAL_FAMILIES = (
    ("records_written", "journal_records_written", "counter",
     "Solve-journal records written."),
    ("records_dropped", "journal_records_dropped", "counter",
     "Solve-journal records dropped (I/O errors, closed writer)."),
    ("segments_rotated", "journal_segments_rotated", "counter",
     "Solve-journal segment rotations."),
    ("incidents", "journal_incidents", "counter",
     "Black-box incident dumps written."),
    ("bytes_written", "journal_bytes_written", "counter",
     "Solve-journal bytes written across all segments."),
    ("segment_bytes", "journal_segment_bytes", "gauge",
     "Bytes in the currently open journal segment."),
    ("buffered_records", "journal_buffered_records", "gauge",
     "Journal records buffered but not yet flushed to the OS."),
    ("flush_lag_s", "journal_flush_lag_seconds", "gauge",
     "Seconds since the oldest buffered journal record was appended."),
)


def journal_families(journal: dict) -> list:
    """Journal-health metric families from ``JournalWriter.stats()``.

    Shared by the single-engine exposition
    (:func:`render_openmetrics`) and the fleet roll-up
    (:func:`repro.metrics.fleet.fleet_openmetrics`), so both surfaces
    name the series identically.
    """
    fams = []
    for key, name, kind, help_text in JOURNAL_FAMILIES:
        if key not in journal:
            continue
        fam = _Family(name, kind, help_text)
        fam.add("_total" if kind == "counter" else "", {}, journal[key])
        fams.append(fam)
    return fams


def render_openmetrics(
    telemetry,
    *,
    prefix: str = "repro_serve_",
    cache: Optional[dict] = None,
    journal: Optional[dict] = None,
) -> str:
    """The full serving exposition: every ``telemetry.metrics()``
    primitive plus derived families the snapshot carries outside the
    primitives — per-solver kernel failures, per-transition fallbacks,
    the SLO verdict gauges, and (when given) registry cache statistics
    and journal-health counters.

    ``telemetry`` is a :class:`~repro.serve.telemetry.ServeTelemetry`;
    ``cache`` is ``MatrixRegistry.stats()`` and ``journal`` is
    ``JournalWriter.stats()`` if the caller has them.  Both are
    optional so existing expositions (and their golden files) are
    byte-identical when the features are off.
    """
    extra = []

    by_solver = telemetry.failures_by_solver()
    fam = _Family(
        "kernel_failures_by_solver",
        "counter",
        "Kernel launch failures, by solver.",
    )
    for solver, count in sorted(by_solver.items()):
        fam.add("_total", {"solver": solver}, count)
    extra.append(fam)

    by_transition = telemetry.fallbacks_by_transition()
    fam = _Family(
        "fallback_solves_by_transition",
        "counter",
        "Fallback solves, by primary->fallback solver transition.",
    )
    for transition, count in sorted(by_transition.items()):
        fam.add("_total", {"transition": transition}, count)
    extra.append(fam)

    slo = telemetry._slo_snapshot()
    for name, value, help_text in (
        ("slo_objective", slo["objective"],
         "Configured availability objective."),
        ("slo_availability", slo["availability"],
         "Observed availability (1 - errors/attempts)."),
        ("slo_error_budget_burn", slo["error_budget_burn"],
         "Fraction of the error budget spent."),
    ):
        fam = _Family(name, "gauge", help_text)
        fam.add("", {}, value)
        extra.append(fam)

    if cache is not None:
        for key, help_text in (
            ("entries", "Matrices resident in the registry cache."),
            ("hits", "Registry cache hits."),
            ("misses", "Registry cache misses."),
            ("evictions", "Registry cache evictions."),
            ("artifact_builds", "Derived artifacts built by the registry."),
            ("hit_rate", "Registry cache hit rate."),
        ):
            if key not in cache:
                continue
            fam = _Family(f"cache_{key}", "gauge", help_text)
            fam.add("", {}, cache[key])
            extra.append(fam)

    if journal is not None:
        extra.extend(journal_families(journal))

    return render_metrics(
        telemetry.metrics(), prefix=prefix, extra_families=extra
    )


def parse_openmetrics(text: str) -> dict:
    """Parse exposition text into ``{family: {series-key: value}}``.

    A flat view of :func:`parse_openmetrics_full` for tests and smoke
    scripts: one series key is the sample name plus its rendered
    labelset, e.g. ``'lane_batches_total{lane="host"}'``.  Raises
    ``ValueError`` on a malformed sample line or a missing ``# EOF``
    terminator.
    """
    return {
        name: {
            name + suffix + _labelset(labels): value
            for suffix, labels, value in info["samples"]
        }
        for name, info in parse_openmetrics_full(text).items()
    }


def _unescape(text: str) -> str:
    """Inverse of :func:`_escape_help` / :func:`_escape_label`."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ("\\", '"'):
                out.append(nxt)
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


def _parse_labelset(text: str) -> dict:
    """Parse the interior of a rendered labelset (quote- and
    escape-aware, so label values may contain ``,``, ``}`` or ``\\"``)."""
    labels: dict = {}
    i = 0
    n = len(text)
    while i < n:
        eq = text.find("=", i)
        if eq < 0 or eq + 1 >= n or text[eq + 1] != '"':
            raise ValueError(f"malformed labelset: {text!r}")
        key = text[i:eq]
        j = eq + 2
        start = j
        while j < n:
            if text[j] == "\\":
                j += 2
                continue
            if text[j] == '"':
                break
            j += 1
        if j >= n:
            raise ValueError(f"unterminated label value in {text!r}")
        labels[key] = _unescape(text[start:j])
        i = j + 1
        if i < n:
            if text[i] != ",":
                raise ValueError(f"malformed labelset: {text!r}")
            i += 1
    return labels


def _parse_value(text: str) -> Union[int, float]:
    # mirror _format_value: ints render bare, floats via repr — so an
    # int-looking token *was* an int, anything else parses as float
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_openmetrics_full(text: str) -> dict:
    """Lossless parse of exposition text produced by this module.

    Returns ``{family: {"kind", "help", "samples": [(suffix, labels,
    value), ...]}}`` — everything :class:`_Family` knows, recovered from
    the text, so :func:`render_parsed` can re-render the exposition
    **byte-identically**.  Unlike :func:`parse_openmetrics` (a flat
    sanity-check view) this keeps label *structure* and HELP/TYPE
    metadata; values parse as ``int`` when they rendered bare and
    ``float`` otherwise, matching the renderer's type split.
    """
    if not text.endswith("# EOF\n"):
        raise ValueError("exposition text must end with '# EOF'")
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(
            name, {"kind": "gauge", "help": "", "samples": []}
        )

    current = None
    for line in text.splitlines():
        if not line or line == "# EOF":
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            family(name)["help"] = _unescape(help_text)
            current = name
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            family(name)["kind"] = kind.strip()
            current = name
            continue
        if line.startswith("#"):
            continue
        name_and_labels, _, value_text = line.rpartition(" ")
        if not name_and_labels:
            raise ValueError(f"malformed sample line: {line!r}")
        if "{" in name_and_labels:
            sample_name, labels_text = name_and_labels.split("{", 1)
            if not labels_text.endswith("}"):
                raise ValueError(f"malformed sample line: {line!r}")
            labels = _parse_labelset(labels_text[:-1])
        else:
            sample_name, labels = name_and_labels, {}
        if current is None or not sample_name.startswith(current):
            raise ValueError(
                f"sample {sample_name!r} outside its family header"
            )
        family(current)["samples"].append(
            (sample_name[len(current):], labels, _parse_value(value_text))
        )
    return families


def render_parsed(families: dict, *, prefix: str = "") -> str:
    """Re-render :func:`parse_openmetrics_full` output.

    ``render_parsed(parse_openmetrics_full(text)) == text`` for any
    exposition this module rendered — the round-trip property the
    byte-determinism tests pin down.  Family names in ``families``
    already carry their original prefix, so ``prefix`` defaults empty.
    """
    fams = []
    for name, info in families.items():
        fam = _Family(name, info.get("kind", "gauge"), info.get("help", ""))
        for suffix, labels, value in info.get("samples", ()):
            fam.add(suffix, dict(labels), value)
        fams.append(fam)
    return render_metrics([], prefix=prefix, extra_families=fams)


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        if self.path.split("?", 1)[0] != "/metrics":
            self.send_error(404, "only /metrics is served")
            return
        try:
            body = self.server.render().encode("utf-8")  # type: ignore[attr-defined]
        except Exception as exc:  # surface render bugs to the scraper
            self.send_error(500, f"render failed: {type(exc).__name__}")
            return
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        pass  # scrapes are high-frequency; stay quiet


class OpenMetricsExporter:
    """Serve a live exposition over HTTP (stdlib only).

    ``render`` is any zero-argument callable returning exposition text —
    typically ``lambda: render_openmetrics(engine.telemetry,
    cache=engine.registry.stats())``.  ``port=0`` (the default) binds an
    ephemeral port; read it back from :attr:`port`.  Use as a context
    manager or call :meth:`close`.
    """

    def __init__(
        self,
        render: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.render = render  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="openmetrics-exporter",
            daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "OpenMetricsExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
