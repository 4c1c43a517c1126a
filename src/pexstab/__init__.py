"""pexstab: simulation and certification of intermittently damped linear systems.

The package studies systems of the form

    dz/dt = A z - alpha(t) B B* z

where ``A`` is dissipative (typically skew-adjoint), ``B`` is a bounded input
map and ``alpha`` is an on/off damping schedule.  It provides exact
piecewise-constant signal algebra and persistent-excitation checks, exact
per-cell simulation, modal truncations of damped string and quantum-particle
models, a traveling-wave construction whose damping never activates, inner
and outer minimisation of observability functionals over signal classes, and
exponential/strong decay certificates with simulation-backed verification.
"""

__version__ = "0.1.0"

from .signals import (  # noqa: F401
    IntervalSequence,
    PEReport,
    Signal,
    from_intervals,
    haraux_gap,
    make_piecewise,
    pe_check,
    periodic_gate,
)
from .linsys import (  # noqa: F401
    EnergyBalance,
    LinearSystem,
    Trajectory,
    UncontrollableError,
    energy_balance,
    kalman_index,
    simulate,
)
from .modal import (  # noqa: F401
    TRUNCATION_CAVEAT,
    SchrodingerModalSpec,
    WaveModalSpec,
    build_schrodinger,
    build_wave,
    gram_matrix,
)
from .dalembert import (  # noqa: F401
    CounterexampleScenario,
    InertReport,
    build_counterexample,
    energy_of_counterexample,
    verify_damping_inert,
)
from .observability import (  # noqa: F401
    KappaScanReport,
    ObservabilityEstimate,
    OuterSearch,
    SignalClass,
    class_constant,
    kappa_scan,
    observability_gramian,
    wave_pe_lower_bound,
    wave_rho_lower_bound,
    wave_rho_threshold,
)
from .stability import (  # noqa: F401
    CertificateCheck,
    CertificateViolation,
    DecayCertificate,
    GateSignalFamily,
    ProductBoundReport,
    RhoCriterionReport,
    certificate_from_constant,
    interval_product_bound,
    rho_class_criterion,
    verify_certificate,
)
from .scenario import Scenario, ScenarioError, parse_scenario  # noqa: F401
