"""Exception types shared across the package."""


class CasemixError(Exception):
    """Base class for all casemix errors."""


class InvalidArgument(CasemixError):
    """A precondition on a function argument was violated."""


class RulesetError(CasemixError):
    """A ruleset is malformed or cannot classify a record."""


class TreeFormatError(CasemixError):
    """A serialized decision tree document is malformed or unsupported."""


class WorkerLostError(CasemixError):
    """A forked worker exited, or was killed, before it sent its result."""


class PipelineStageError(CasemixError):
    """A pipeline stage failed; carries the stage tag for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage, self.message = stage, message

    def __reduce__(self):  # pickle rebuilds it from both arguments, not from ``args``
        return type(self), (self.stage, self.message)
