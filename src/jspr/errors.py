"""Exception types shared across the package."""


class SingularProjectionError(RuntimeError):
    """Selected dictionary columns are (nearly) linearly dependent.

    Raised instead of silently regularizing when the Gram matrix of the
    selected columns has 2-norm condition number above 1e12 or its solve
    fails. The solvers check the support they return, not every round: their
    supports only grow, and by Cauchy's interlacing theorem a Gram matrix's
    condition number is at least that of any of its principal submatrices,
    so an earlier round over the limit means a final support over it too.
    """


class EnumerationTooLargeError(ValueError):
    """An exhaustive enumeration would exceed its configured cap."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the line and key."""


class TrialError(RuntimeError):
    """A trial failed for a reason other than a singular projection.

    The message names the sweep point (m, L), the algorithm tag, the trial
    index and the master seed, so the trial can be replayed alone; in
    `oracle-check` it names the trial index, the master seed and the failing
    comparison. The message is the only constructor argument, so the error
    pickles across a process pool.
    """
