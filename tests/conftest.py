"""Shared test plumbing: collects one summary line per acceptance criterion
and prints them after the run, and reads log (f^n)^# off a recorded orbit."""

from sphgrow import dynamics as dy

CRITERION_LINES = []


def log_sharp(orbit, n: int) -> float:
    """log (f^n)^#(z_0) along an iterate_orbit record; IndexError past its end."""
    return dy.log_spherical(orbit.log_deriv_prefix[n], orbit.log_mag(n))


def record_criterion(line: str):
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in sorted(CRITERION_LINES):
        terminalreporter.line(line)
