"""End-to-end tests for the static corroboration gate (paper §4.2 +
the static leg this repo adds on top of it).

The under-traced program is the motivating case: ``int buf[16]``
traced with ``n = 3`` gives the dynamic recovery evidence for three
elements only, while the static interpreter proves the whole array is
reachable.  Corroboration must flag the gap on the unwidened layout
(what ``repro check`` reports), the widening every recompile applies
must repair the layout, and the repaired recompile must be
byte-identical on a held-out input that walks the full array.
"""

from pathlib import Path

import pytest

from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image
from repro import obs
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.emu import run_binary, trace_binary
from repro.errors import StaticCheckError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

UNDERTRACE_SOURCE = r"""
int main() {
    int buf[16];
    int i;
    int n;
    n = read_int();
    for (i = 0; i < n; i++) buf[i] = i * 7;
    int s = 0;
    for (i = 0; i < n; i++) s += buf[i];
    printf("s=%d\n", s);
    return 0;
}
"""


@pytest.fixture(scope="module")
def undertrace_image():
    return cached_image(UNDERTRACE_SOURCE)


def lift_report(image, inputs, **kwargs):
    traces = trace_binary(image.stripped(), inputs)
    return wytiwyg_lift(traces, **kwargs)


# -- fully traced programs corroborate cleanly -------------------------------


@pytest.mark.parametrize("source,inputs", [
    (KERNEL_SOURCE, [[]]),
    (FEATURE_SOURCE, [[]]),
])
def test_fully_traced_programs_have_no_unsound_splits(source, inputs):
    image = cached_image(source)
    _module, _layouts, _notes, report = lift_report(image, inputs)
    splits = report.by_kind("unsound-split")
    assert splits == [], [f.render() for f in splits]
    assert report.by_kind("oob-access") == []
    assert report.by_kind("alias-divergence") == []


# -- the under-traced array --------------------------------------------------


def test_undertrace_yields_coverage_gap(undertrace_image):
    _module, layouts, _notes, report = lift_report(
        undertrace_image, [[3]], static_widen=False)
    gaps = report.by_kind("coverage-gap")
    assert len(gaps) >= 1
    gap = gaps[0]
    assert gap.severity == "warning"
    # The suggested widening spans the whole 64-byte array.
    start, end = gap.provenance["suggestion"]
    assert end - start >= 64
    assert report.errors == []


def test_static_widen_repairs_the_layout(undertrace_image):
    _m, narrow, _n, _r = lift_report(undertrace_image, [[3]],
                                     static_widen=False)
    _m, widened, _n, report = lift_report(undertrace_image, [[3]])
    applied = [w for w in report.widenings if w["applied"]]
    assert applied, report.widenings
    func = applied[0]["func"]
    span = max(v.end - v.start for v in widened[func].variables)
    assert span >= 64
    assert span > max(v.end - v.start
                      for v in narrow[func].variables)
    # The repaired layout corroborates cleanly: the gap is resolved,
    # not merely papered over in the report.
    assert report.by_kind("coverage-gap") == []


def test_widened_recompile_is_byte_identical_on_held_out_input(
        undertrace_image):
    # Trace with n=3 only; hold out n=16 (walks the full array).
    result = wytiwyg_recompile(undertrace_image, [[3]],
                               collect_accuracy=False)
    assert not result.fallback
    for held_out in ([16], [9], [0]):
        want = run_binary(undertrace_image, held_out)
        got = run_binary(result.recovered, held_out)
        assert got.stdout == want.stdout, held_out
        assert got.exit_code == want.exit_code


# -- the gate ----------------------------------------------------------------


def test_strict_gate_aborts_before_optimization(undertrace_image):
    # Widening closes the coverage gap; the sanitizer's uninit-read
    # warning survives it, and strict mode blocks on warnings.
    with pytest.raises(StaticCheckError) as exc_info:
        wytiwyg_recompile(undertrace_image, [[3]],
                          collect_accuracy=False, check="strict")
    report = exc_info.value.report
    assert report is not None
    assert report.by_kind("uninit-read")
    assert all(f.severity == "warning"
               for f in report.by_kind("uninit-read"))


@pytest.mark.parametrize("check", ["1", "off", None, 1])
def test_gate_mode_is_a_boolean_or_strict(undertrace_image, check):
    # The library reads no spelling: "off" would be a truthy string.
    with pytest.raises(ValueError, match="check must be"):
        wytiwyg_recompile(undertrace_image, [[3]], check=check)


def test_plain_gate_passes_warnings_through(undertrace_image):
    # Non-strict: warnings annotate the notes instead of aborting.
    result = wytiwyg_recompile(undertrace_image, [[3]],
                               collect_accuracy=False, check=True)
    assert result.check_report is not None
    assert result.check_report.warnings
    assert any(note.startswith("check[warn]:")
               for note in result.notes)


# -- observability -----------------------------------------------------------


def test_check_findings_surface_in_obs(undertrace_image):
    obs.enable(reset=True)
    try:
        lift_report(undertrace_image, [[3]])
        doc = obs.export(obs.recorder())
    finally:
        obs.disable()
    counters = doc["metrics"]["counters"]
    assert counters.get("sanalysis.findings.warning", 0) >= 1
    spans = {s["name"] for s in obs.iter_spans(doc)}
    assert "stage.sanalysis" in spans
    assert "stage.sanitize" in spans
    assert "sanalysis.function" in spans


def test_check_report_in_result(undertrace_image):
    result = wytiwyg_recompile(undertrace_image, [[3]],
                               collect_accuracy=False)
    assert result.check_report is not None
    doc = result.check_report.to_dict()
    assert doc["counts"]["warning"] >= 1
    # The recompile widened the gap away: the report carries the
    # applied widening row and no coverage-gap finding.
    assert any(w["applied"] for w in doc["widenings"]), doc["widenings"]
    assert not any(f["kind"] == "coverage-gap" for f in doc["findings"])


def test_finding_messages_name_no_object_address():
    # The escaped-frame-pointer finding names its site by opcode and
    # block: an unnamed operand would print as an object address, which
    # differs from run to run.
    source = (EXAMPLES / "escape.c").read_text()
    result = wytiwyg_recompile(cached_image(source), [[3]],
                               collect_accuracy=False)
    findings = result.check_report.findings
    escapes = [f for f in findings if f.kind == "escaped-frame-pointer"]
    assert escapes
    assert "(store in block " in escapes[0].message
    assert not [f.message for f in findings if "%<" in f.message]
