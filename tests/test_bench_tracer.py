"""The benchmark tracer wraps package functions by attribute name; renaming
one of them breaks the benchmark, so check every name here."""

from pathlib import Path


def test_install_wraps_every_span_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import SPANS, Tracer

    originals = [owner.__dict__[attr] for owner, attr, _ in SPANS]
    tracer = Tracer()
    try:
        tracer.install()
        for (owner, attr, name), original in zip(SPANS, originals):
            assert owner.__dict__[attr] is not original, name
    finally:
        tracer.uninstall()
    for (owner, attr, name), original in zip(SPANS, originals):
        assert owner.__dict__[attr] is original, name
