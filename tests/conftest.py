"""Shared pytest configuration.

The hypothesis deadline is disabled globally: several property tests call
adaptive quadrature, whose run time per example varies with the number of
panels it needs, and a per-example timing failure there would not indicate
any real problem.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rel_err(got: float, want: float) -> float:
    """Relative error with a guard for an exactly-zero reference."""
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)
