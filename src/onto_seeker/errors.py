"""Base exception for everything this package raises on purpose."""


class OntoSeekerError(Exception):
    pass


def reason_of(exc: Exception) -> str:
    """Why ``exc`` happened, for a message that names the path already: an
    OSError's strerror, as its own text repeats the path as a repr."""
    return getattr(exc, "strerror", None) or str(exc)
