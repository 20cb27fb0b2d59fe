"""End-to-end tests for the interprocedural corroboration gate.

``examples/escape.c`` is the motivating case: main passes ``&buf`` to a
recursive callee, so every array access happens in a different frame
than the one that owns the array.  Per-function corroboration is blind
— main never touches buf, and fill's accesses are parameter-relative —
so an under-tracing input (n=3 of 8) recovers a truncated variable
without a single intra-function finding.  The call-graph summary pass
must translate fill's footprint into main's frame and flag the split on
the unwidened layout (what ``repro check`` reports), name the exact call
chain, let every recompile widen the split away, and stay byte-for-byte
out of the way when the trace already covers the footprint.
"""

import json
from pathlib import Path

import pytest

from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image
from repro import obs
from repro.core import driver
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.emu import run_binary, trace_binary
from repro.errors import CheckError

ESCAPE_SOURCE = (Path(__file__).resolve().parents[2]
                 / "examples" / "escape.c").read_text()


@pytest.fixture(scope="module")
def escape_image():
    return cached_image(ESCAPE_SOURCE, name="escape")


def lift_report(image, inputs, **kwargs):
    traces = trace_binary(image.stripped(), inputs)
    return wytiwyg_lift(traces, **kwargs)


def _without_interproc(monkeypatch):
    """Stub the interprocedural pass out: it finds and suggests
    nothing."""
    monkeypatch.setattr(driver, "interproc_corroborate",
                        lambda module, layouts, accesses: ([], []))


# -- the under-traced escaping array -----------------------------------------


def test_undertraced_escape_is_flagged_with_call_chain(escape_image):
    _module, _layouts, _notes, report = lift_report(escape_image, [[3]],
                                                    static_widen=False)
    splits = report.by_kind("escaped-split")
    assert len(splits) == 1, [f.render() for f in report.findings]
    finding = splits[0]
    assert finding.severity == "error"
    assert "escapes via" in finding.message
    chain = finding.provenance["chain"]
    assert len(chain) == 2
    assert all(name.startswith("fn_") for name in chain)
    # The region the callee can reach extends past the traced variable.
    lo, hi = finding.provenance["region"]
    v_lo, v_hi = finding.provenance["variable"]
    assert lo <= v_lo and hi > v_hi


def test_gate_off_is_blind_to_the_split(escape_image, monkeypatch):
    # Only the interprocedural pass sees the escaped footprint.
    _without_interproc(monkeypatch)
    _m, _l, _n, report = lift_report(escape_image, [[3]])
    assert report.by_kind("escaped-split") == []
    assert report.errors == [], [f.render() for f in report.errors]


def test_full_trace_corroborates_cleanly(escape_image):
    _m, _l, _n, report = lift_report(escape_image, [[8]])
    assert report.by_kind("escaped-split") == []
    assert report.by_kind("extern-divergence") == []
    assert report.errors == [], [f.render() for f in report.errors]


def test_widening_repairs_the_escaped_split(escape_image):
    _m, layouts, _n, report = lift_report(escape_image, [[3]])
    applied = [w for w in report.widenings if w["applied"]]
    assert any("escaped pointer footprint" in w["reason"]
               for w in applied), report.widenings
    # Re-corroboration after the repair: the split is resolved.
    assert report.by_kind("escaped-split") == []
    # The widened caller variable now covers the callee's whole reach.
    span = max(v.end - v.start
               for layout in layouts.values()
               for v in layout.variables)
    assert span >= 32


def test_widened_recompile_matches_on_held_out_inputs(escape_image):
    result = wytiwyg_recompile(escape_image, [[3]],
                               collect_accuracy=False)
    assert not result.fallback
    for held_out in ([8], [5], [0]):
        want = run_binary(escape_image, held_out)
        got = run_binary(result.recovered, held_out)
        assert got.stdout == want.stdout, held_out
        assert got.exit_code == want.exit_code


# -- the gate is pure observation when it passes -----------------------------


def _image_doc(image):
    doc = json.loads(image.to_json())
    doc.pop("metadata", None)
    return doc


def test_recompile_is_byte_identical_with_gate_on_and_off(
        escape_image, monkeypatch):
    on = wytiwyg_recompile(escape_image, [[8]],
                           collect_accuracy=False)
    _without_interproc(monkeypatch)
    off = wytiwyg_recompile(escape_image, [[8]],
                            collect_accuracy=False)
    assert _image_doc(on.recovered) == _image_doc(off.recovered)


# -- extern-signature recovery on the example corpus -------------------------


@pytest.mark.parametrize("source", [KERNEL_SOURCE, FEATURE_SOURCE])
def test_inferred_extern_signatures_agree_with_the_db(source):
    image = cached_image(source)
    _m, _l, _n, report = lift_report(image, [[]])
    assert report.by_kind("extern-divergence") == [], \
        [f.render() for f in report.by_kind("extern-divergence")]
    assert report.by_kind("extern-candidate") == []


# -- zero traced inputs ------------------------------------------------------


def test_zero_traced_inputs_is_a_check_error(escape_image):
    traces = trace_binary(escape_image.stripped(), [])
    with pytest.raises(CheckError, match="no traced inputs"):
        wytiwyg_lift(traces)


# -- observability -----------------------------------------------------------


def test_summary_counters_and_span(escape_image):
    obs.enable(reset=True)
    try:
        lift_report(escape_image, [[3]])
        doc = obs.export(obs.recorder())
    finally:
        obs.disable()
    counters = doc["metrics"]["counters"]
    assert counters.get("sanalysis.summary.computed", 0) >= 2
    assert counters.get("sanalysis.escape.findings", 0) >= 1
    spans = {s["name"] for s in obs.iter_spans(doc)}
    assert "sanalysis.interproc" in spans
    assert "sanalysis.summaries" in spans


def test_escape_chain_lands_in_the_ledger_and_explain(escape_image):
    led = obs.enable_ledger()
    try:
        result = wytiwyg_recompile(escape_image, [[3]], optimize=False,
                                   collect_accuracy=False)
        escapes = [e for e in led.events
                   if e["kind"] == "sanalysis.escape"]
        assert escapes
        assert len(escapes[0]["chain"]) == 2
        func, widened = max(
            ((fname, var) for fname, layout in result.layouts.items()
             for var in layout.variables),
            key=lambda pair: pair[1].end - pair[1].start)
        prov = obs.explain_variable(led.events, func,
                                    (widened.start, widened.end),
                                    widened.name)
        splits = [e for e in prov.findings
                  if e["finding"] == "escaped-split"]
        assert splits and "escapes via" in splits[0]["message"]
        grown = [e for e in prov.widenings if e["applied"]]
        assert grown
        text = obs.render_provenance(prov)
        assert "escaped-split" in text
    finally:
        obs.disable_ledger()
