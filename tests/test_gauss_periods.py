"""Property test: certified character tables of orbit schemes against Gauss
periods, an oracle that does not come from the program.  The examples are
drawn from every distinct orbit scheme on Z_m with m <= 64 and d <= 10,
prime-power moduli (which take the generic-element fallback) included."""

import math

import pytest
from conftest import gauss_period_hits

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from schemealg.analysis import character_table  # noqa: E402
from schemealg.scheme import orbit_classes, orbit_scheme  # noqa: E402


def _distinct_orbit_schemes(max_m=64, max_d=10):
    """One (m, r) per distinct orbit partition of Z_m, smallest r first."""
    out = {}
    for m in range(3, max_m + 1):
        for r in range(2, m):
            if math.gcd(m, r) == 1:
                orbit_of, reps = orbit_classes(m, r)
                if len(reps) - 1 <= max_d:
                    out.setdefault((m, tuple(orbit_of)), (m, r))
    return sorted(out.values())


SCHEMES = _distinct_orbit_schemes()


def test_the_corpus_holds_every_distinct_scheme():
    assert len(SCHEMES) == 150
    assert (25, 4) in SCHEMES and (64, 3) in SCHEMES


@settings(
    max_examples=6,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(SCHEMES))
def test_certified_p_holds_the_gauss_periods(mr):
    s = orbit_scheme(*mr)
    ct = character_table(s)
    # character a lands on row nu for exactly m_nu = Q[0][nu] values of a
    assert gauss_period_hits(s, ct) == [q.value for q in ct.Q[0]]
