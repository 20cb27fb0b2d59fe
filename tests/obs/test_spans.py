"""Span tree construction, attributes, and the disabled null path."""

import pytest

from repro import obs


@pytest.fixture
def rec():
    recorder = obs.enable(reset=True)
    try:
        yield recorder
    finally:
        obs.disable()


def test_spans_nest_into_a_tree(rec):
    with obs.span("outer", kind="pipeline") as outer:
        with obs.span("inner.a") as a:
            pass
        with obs.span("inner.b") as b:
            with obs.span("leaf") as leaf:
                pass
    assert rec.spans == [outer]
    assert outer.children == [a, b]
    assert b.children == [leaf]
    assert outer.attrs == {"kind": "pipeline"}
    assert outer.seconds >= a.seconds + b.seconds >= 0.0


def test_set_overrides_attrs(rec):
    with obs.span("s", x=1) as sp:
        sp.set(x=2, y="z")
    assert sp.attrs == {"x": 2, "y": "z"}


def test_exception_records_error_attr(rec):
    with pytest.raises(ValueError):
        with obs.span("failing"):
            raise ValueError("boom")
    (sp,) = rec.spans
    assert sp.attrs["error"] == "ValueError: boom"
    assert sp.seconds >= 0.0


def test_to_dict_round_trip(rec):
    with obs.span("parent", n=3) as sp:
        with obs.span("child"):
            pass
    doc = sp.to_dict()
    assert doc["name"] == "parent"
    assert doc["attrs"] == {"n": 3}
    assert [c["name"] for c in doc["children"]] == ["child"]
    assert doc["seconds"] == pytest.approx(sp.seconds)


def test_disabled_returns_inert_null_span():
    obs.disable()
    sp = obs.span("ignored", a=1)
    assert sp is obs.NULL_SPAN
    with sp as entered:
        assert entered.set(b=2) is sp
    assert obs.recorder() is None


def test_enable_is_idempotent_until_reset():
    first = obs.enable(reset=True)
    try:
        obs.count("kept")
        assert obs.enable() is first
        assert first.registry.counters == {"kept": 1}
        fresh = obs.enable(reset=True)
        assert fresh is not first
        assert fresh.registry.counters == {}
    finally:
        obs.disable()
