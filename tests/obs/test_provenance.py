"""Layout provenance: event selection, the name grammar, and the
end-to-end ``explain`` acceptance scenario on an under-traced program."""

from pathlib import Path

import pytest

from repro import obs
from repro.cc import compile_source
from repro.core.driver import wytiwyg_recompile
from repro.obs.provenance import (explain_variable, parse_var_name,
                                  select_variables)


@pytest.fixture(autouse=True)
def _ledger_off():
    yield
    obs.disable_ledger()


def test_parse_var_name_roundtrip():
    assert parse_var_name("sv_m84") == -84
    assert parse_var_name("sv_p8") == 8
    assert parse_var_name("sv_m0") == 0
    for bad in ("sv_84", "m84", "sv_mx", "foo"):
        with pytest.raises(ValueError):
            parse_var_name(bad)


def _ev(kind, **fields):
    doc = {"v": 1, "seq": _ev.seq, "pid": 1, "kind": kind}
    _ev.seq += 1
    doc.update(fields)
    return doc


_ev.seq = 1


def test_explain_selects_overlapping_events_in_function():
    events = [
        _ev("frame.var.seed", func="f", ref_id=1, interval=[-16, -8],
            sp0_offset=-16, traced=[0, 8]),
        _ev("frame.var.seed", func="f", ref_id=2, interval=[-32, -24],
            sp0_offset=-32, traced=[0, 8]),          # other variable
        _ev("frame.var.seed", func="g", ref_id=3, interval=[-16, -8],
            sp0_offset=-16, traced=[0, 8]),          # other function
        _ev("frame.var.merge", func="f", reason="overlap",
            into=[-16, -8], absorbed=[-12, -8]),
        _ev("frame.var.widened", func="f", region=[-16, -4],
            applied=True, grew=[-16, -8], reason="static load"),
        _ev("corroborate.finding", func="f", severity="warning",
            finding="coverage-gap", offset=-8, width=4,
            message="gap", provenance=[]),
        _ev("corroborate.finding", func="f", severity="warning",
            finding="unsound-split", offset=-48, width=4,
            message="elsewhere", provenance=[]),      # no overlap
    ]
    prov = explain_variable(events, "f", (-16, -4))
    assert prov.var == "sv_m16"
    assert [e["ref_id"] for e in prov.seeds] == [1]
    assert len(prov.merges) == 1
    assert len(prov.widenings) == 1
    assert [e["finding"] for e in prov.findings] == ["coverage-gap"]
    # Chained events come back in emission order.
    assert [e["seq"] for e in prov.events] == sorted(
        e["seq"] for e in prov.events)
    text = obs.render_provenance(prov)
    assert "f:sv_m16" in text and "coverage-gap" in text
    assert "widened to cover [-16, -4)" in text


def test_locationless_findings_attach_by_function():
    events = [_ev("sanitize.finding", func="f", severity="warning",
                  finding="uninit-read", offset=None, width=None,
                  message="maybe uninit")]
    prov = explain_variable(events, "f", (-8, -4))
    assert [e["finding"] for e in prov.findings] == ["uninit-read"]


class _Var:
    def __init__(self, start, end):
        self.start, self.end = start, end

    @property
    def name(self):
        sign = "m" if self.start < 0 else "p"
        return f"sv_{sign}{abs(self.start)}"


class _Layout:
    def __init__(self, *vars_):
        self.variables = list(vars_)


def test_select_variables_spec_grammar():
    layouts = {"f": _Layout(_Var(-8, -4), _Var(-16, -8)),
               "g": _Layout(_Var(-8, -4))}
    assert [(f, v.name) for f, v in select_variables(layouts, None)] == \
        [("f", "sv_m16"), ("f", "sv_m8"), ("g", "sv_m8")]
    assert [(f, v.name) for f, v
            in select_variables(layouts, "f:sv_m8")] == [("f", "sv_m8")]
    assert [(f, v.name) for f, v
            in select_variables(layouts, "sv_m8")] == \
        [("f", "sv_m8"), ("g", "sv_m8")]
    assert [(f, v.name) for f, v in select_variables(layouts, "g")] == \
        [("g", "sv_m8")]
    with pytest.raises(ValueError, match="matches no recovered"):
        list(select_variables(layouts, "f:sv_m99"))


def test_explain_undertraced_widening_end_to_end():
    """Acceptance: on an under-traced run with widening, the explained
    variable chains the specific coverage-gap finding and the widening
    event that grew it, sourced from the ledger."""
    source = (Path(__file__).resolve().parents[2]
              / "examples" / "undertrace.c").read_text()
    image = compile_source(source, "gcc12", "3", "undertrace")
    led = obs.enable_ledger()
    result = wytiwyg_recompile(image, [[3]], optimize=False,
                               collect_accuracy=False)
    func, widened = max(
        ((fname, var) for fname, layout in result.layouts.items()
         for var in layout.variables),
        key=lambda pair: pair[1].end - pair[1].start)
    prov = obs.explain_variable(led.events, func,
                                (widened.start, widened.end),
                                widened.name)
    gaps = [e for e in prov.findings if e["finding"] == "coverage-gap"]
    assert gaps and "suggest widening" in gaps[0]["message"]
    grown = [e for e in prov.widenings if e["applied"]]
    assert grown
    # The widening covers exactly the final interval of the variable.
    assert grown[0]["region"][1] == widened.end
    text = obs.render_provenance(prov)
    assert "coverage-gap" in text and "widened to cover" in text
