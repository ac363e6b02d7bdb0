"""The service error factories follow the code table in ``repro.service.errors``.

The table's ``retryable`` column is the client contract: the backoff
client retries exactly the responses that declare themselves retryable.
Each row is checked against the factory of the same name, so the table and
the code cannot drift apart.
"""

import re

import pytest

from repro.service import errors
from repro.service.errors import DeadlineExceededError, ServiceError

#: ``(code, http status, retryable)`` per row of the module's table.
TABLE = [
    (code, int(status), retryable == "yes")
    for code, status, retryable in re.findall(
        r"^(\w+)\s+(\d{3})\s+(yes|no)\s", errors.__doc__, flags=re.MULTILINE
    )
]

#: Arguments each factory needs besides the message.
EXTRA_ARGUMENTS = {"over_rate": (1.5,), "overloaded": (1.5,)}


def make(code: str) -> ServiceError:
    if code == "draining":
        return errors.draining()
    return getattr(errors, code)("message", *EXTRA_ARGUMENTS.get(code, ()))


def test_table_names_every_factory():
    factories = sorted(name for name in errors.__all__ if name.islower())
    assert sorted(code for code, _status, _retryable in TABLE) == factories


@pytest.mark.parametrize("code, status, retryable", TABLE,
                         ids=[row[0] for row in TABLE])
def test_factory_matches_the_table(code, status, retryable):
    error = make(code)
    assert isinstance(error, ServiceError)
    assert (error.code, error.http_status, error.retryable) == \
        (code, status, retryable)
    # Backpressure answers tell the client when to come back.
    if status in (429, 503):
        assert error.retry_after is not None and error.retry_after > 0


class TestPayload:
    def test_minimal_body(self):
        assert errors.internal("boom").to_payload() == {
            "error": {"code": "internal", "message": "boom",
                      "retryable": True},
        }

    def test_validation_error_names_its_field(self):
        payload = errors.invalid_request("bad seed", field="seed").to_payload()
        assert payload == {
            "error": {"code": "invalid_request", "message": "bad seed",
                      "retryable": False, "field": "seed"},
        }

    def test_retry_after_is_rounded_to_milliseconds(self):
        error = errors.over_rate("slow down", 0.12345).to_payload()["error"]
        assert error["retry_after"] == 0.123
        assert "field" not in error


def test_deadline_exceeded_factory_returns_the_subclass():
    error = errors.deadline_exceeded("late", retry_after=2.0)
    assert isinstance(error, DeadlineExceededError)
    assert error.message == "late"
    assert error.to_payload()["error"]["retry_after"] == 2.0
