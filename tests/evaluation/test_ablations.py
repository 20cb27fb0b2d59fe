"""The ablation harness on a miniature workload."""

import dataclasses

import pytest

from repro.evaluation import ABLATIONS, ablations, run_ablation
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload

#: Two inputs, so that runs per ablation and input show in the counts.
TINY = Workload(
    name="tinyablation",
    source=r'''
int main() {
    int n = read_int();
    int total = 0;
    int i;
    for (i = 0; i < n; i++) total += i * 3;
    printf("%d\n", total);
    return 0;
}
''',
    ref_inputs=((4,), (9,)),
    description="ablation self-test kernel",
)


class _Runs(list):
    """The harness's ``run_binary`` calls, as ``(image, result)``."""

    def __init__(self, image):
        super().__init__()
        #: The input image (``Workload.compile`` caches it).
        self.image = image
        #: Added to the exit code of every run of another image.
        self.exit_delta = 0


@pytest.fixture
def runs(monkeypatch):
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    calls = _Runs(TINY.compile("gcc12", "3"))
    real = ablations.run_binary

    def run_binary(image, items):
        result = real(image, items)
        if image is not calls.image:
            result = dataclasses.replace(
                result, exit_code=result.exit_code + calls.exit_delta)
        calls.append((image, result))
        return result

    monkeypatch.setattr(ablations, "run_binary", run_binary)
    return calls


def test_the_input_image_runs_once_per_input(runs):
    report = run_ablation(TINY.name)
    native = [result for image, result in runs if image is runs.image]
    assert len(native) == len(TINY.inputs())
    assert len(runs) == len(TINY.inputs()) * (1 + len(ABLATIONS))
    assert report.native_cycles == sum(r.cycles for r in native)
    assert set(report.cycles) == set(ABLATIONS)


def test_an_ablated_run_with_another_exit_code_fails(runs):
    runs.exit_delta = 1
    with pytest.raises(AssertionError, match="ablated binary diverged"):
        run_ablation(TINY.name)
