"""Exception hierarchy shared by all modules.

``InputError`` subclasses map to CLI exit code 2, ``NumericalError``
subclasses to exit code 3.
"""


class ToolkitError(Exception):
    pass


class InputError(ToolkitError):
    pass


class NumericalError(ToolkitError):
    pass


class DimensionMismatch(InputError):
    pass


class RankDeficient(InputError):
    pass


class InvalidRange(InputError):
    pass


class InvalidParams(InputError):
    pass


class CubeNotFound(InputError):
    pass


class NotNested(InputError):
    pass


class IntermediateDoubling(InputError):
    pass


class EmptyBall(InputError):
    pass


class MissingDirection(InputError):
    pass


class NotDoublingRoot(InputError):
    pass


class ConeViolation(NumericalError):
    """Anchor set is not half-aperture cone separated.

    Carries the offending pair of anchor indices.
    """

    def __init__(self, pair, message=""):
        self.pair = tuple(pair)
        super().__init__(message or f"anchors {self.pair} violate cone separation")


class InvalidSpec(InputError):
    pass


class InvalidExponent(InputError):
    pass


class InvalidEta(InputError):
    pass


class UnsupportedDimension(InputError):
    pass


class GraphAmbientMismatch(InputError):
    pass


class SchemaMismatch(InputError):
    pass


class TooLarge(InputError):
    pass
