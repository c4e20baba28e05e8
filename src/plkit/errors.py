"""Exception types raised by directive execution and goal solving."""

from __future__ import annotations


class PrologError(Exception):
    """An error with an ISO-style kind (domain, type, permission, ...)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


def domain_error(message: str) -> PrologError:
    return PrologError("domain_error", message)


def type_error(message: str) -> PrologError:
    return PrologError("type_error", message)


def permission_error(message: str) -> PrologError:
    return PrologError("permission_error", message)


def existence_error(message: str) -> PrologError:
    return PrologError("existence_error", message)


def instantiation_error(message: str) -> PrologError:
    return PrologError("instantiation_error", message)


def resource_error(message: str) -> PrologError:
    return PrologError("resource_error", message)


def representation_error(message: str) -> PrologError:
    return PrologError("representation_error", message)
