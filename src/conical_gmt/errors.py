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


class EmptyBall(InputError):
    pass


class NotDoublingRoot(InputError):
    pass


class InvalidSpec(InputError):
    pass


class GraphAmbientMismatch(InputError):
    pass


class SchemaMismatch(InputError):
    pass


class TooLarge(InputError):
    pass
