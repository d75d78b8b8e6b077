"""Exception types shared across the package.

All diagnostics that mention vertices or edge labels use 1-based ids,
matching the text formats and the CLI; internal arrays are 0-based.
"""

from __future__ import annotations


class RotwalkError(Exception):
    """Base class for every error raised by this package."""


class FormatError(RotwalkError):
    """Malformed text input (edge lists, rotation maps, CLI specs).

    ``line`` is the 1-based line number when the error is tied to a
    specific input line, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphStructureError(RotwalkError):
    """Structurally invalid graph: self-loop, duplicate edge, bad vertex id."""


class RegularityError(RotwalkError):
    """Graph is not regular: the message names the first vertex (1-based)
    whose degree differs from the expected one, and how many do."""


class ValidationError(RotwalkError):
    """Rotation map inconsistent with the graph it claims to describe."""


class GenerationError(RotwalkError):
    """Graph family parameters are unsatisfiable or generation failed."""


class ConfigError(RotwalkError):
    """Invalid solver or walk configuration."""
