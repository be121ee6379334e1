"""Exception types shared across the package."""


class HandleOptError(Exception):
    """Base class for all handleopt errors."""


class DegenerateVelocity(HandleOptError):
    """COM displacement too small to define a motion direction."""


class IndexOutOfRange(HandleOptError, IndexError):
    """Frame index is an endpoint or outside the frame sequence."""


class SingularChain(HandleOptError):
    """A lever arm of the virtual chain collapsed below the singularity guard."""


class IllConditioned(HandleOptError):
    """The least-squares force system is numerically unsolvable."""


class ZeroTorque(HandleOptError):
    """Mechanical advantage is undefined for a zero torque vector."""


class NoFeasiblePoint(HandleOptError):
    """Every grid point of an optimization run was singular or excluded."""


class ScenarioError(HandleOptError):
    """Base class for scenario file problems."""


class ParseError(ScenarioError):
    """The scenario file is not valid JSON."""


class SchemaError(ScenarioError):
    """The scenario file does not match the expected schema."""


class ValidationError(ScenarioError):
    """The scenario parses but violates a physical or structural invariant."""
