"""Span status codes: the fixed numbers written stores carry and that the
query summary's ok/fail/timeout accounting keys off."""

from repro.obs import STATUS_FAIL, STATUS_OK, STATUS_OPEN, STATUS_TIMEOUT


def test_status_constants_still_cover_the_spec():
    # stores and the summary key off these exact codes; a renumbering must
    # not silently invert ok/fail accounting or misread a written store
    assert (STATUS_OPEN, STATUS_OK, STATUS_FAIL, STATUS_TIMEOUT) == (0, 1, 2, 3)
