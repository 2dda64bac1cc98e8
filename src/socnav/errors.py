"""Exception hierarchy for the socnav toolkit."""


class SocnavError(Exception):
    """Base class for all toolkit errors."""


class MalformedDocument(SocnavError):
    """Input bytes are not a well-formed document (bad UTF-8 or JSON)."""


class _PathError(SocnavError):
    """An error at a JSON-pointer style ``path``; it reads ``"<path>: <message>"``, or
    the message alone at the document root, whose pointer is ``""``."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


class SchemaError(_PathError):
    """Document is well-formed but a field is missing or has the wrong type."""


class InvariantError(_PathError):
    """A structurally valid document, or a setting, breaks a data-model invariant.

    ``core.positive_finite`` is the one check of a setting that must be above
    0 and finite; it raises this at the setting's path.
    """


class MalformedRow(SocnavError):
    """A TSV row could not be parsed; carries the 0-based row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row
        self.message = message


class NoRobot(SocnavError):
    """A requested robot agent id is absent from the imported data."""


class UnknownCard(SocnavError):
    """A scenario card requests classification but no detector exists for it."""


class UnknownScenario(SocnavError):
    """Scenario generator name is not one of the built-in layouts."""


class EmptyCorpus(SocnavError):
    """Summary statistics need at least one metric report."""
