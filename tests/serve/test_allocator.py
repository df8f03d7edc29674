"""Query temporaries reuse heap pages once the worker pool has started."""

import platform
import resource

import numpy as np
import pytest

from repro.serve.workers import keep_temporaries_on_heap


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc allocator tuning"
)
def test_repeated_temporaries_do_not_page_fault():
    keep_temporaries_on_heap()

    def query_like() -> float:
        # Several live 4 MiB temporaries, as a round of a query holds:
        # untuned glibc maps them afresh or trims them back to the OS,
        # faulting every page (~40k faults over the loop below).
        live = [np.ones(512 << 10) for _ in range(4)]
        return sum(float(a.sum()) for a in live)

    query_like()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        query_like()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1024
