"""Simulation of nonadiabatic geometric-phase qubit gates.

Cyclic two-level evolutions pick up a phase with a geometric component
set only by the solid angle of the Bloch-sphere loop.  This package
builds the control-field schedules that realize such loops on two
platforms (a rotating-field spin qubit and a flux-driven Josephson
charge qubit), propagates them exactly, separates geometric from
dynamical phase, assembles the resulting one- and two-qubit gates, and
ships the experiment presets plus a verification suite behind the
``geomgates`` command-line tool.
"""

__version__ = "0.1.0"

from .config import (  # noqa: F401
    Config,
    ConfigError,
    GridSpec,
    default_config_path,
    load_config,
)
from .evolve import (  # noqa: F401
    NonConvergenceError,
    PropagatorConfig,
    final_state,
    rotating_frame_oracle,
    total_unitary,
    two_qubit_unitary,
)
from .fields import (  # noqa: F401
    FieldSchedule,
    JosephsonParams,
    NmrParams,
    TwoQubitModel,
    josephson_schedule,
    negated_schedule,
    nmr_schedule,
    nmr_two_qubit,
    reversed_schedule,
    rotate_schedule,
    time_reversed_schedule,
)
from .gates import (  # noqa: F401
    GateReport,
    GateSpec,
    TwoQubitGateSpec,
    build_gate,
    build_two_qubit,
    gate_fidelity,
    noncommutable,
    nontrivial_two_qubit,
    synthesize_double_loop,
)
from .pauli import (  # noqa: F401
    bloch_of_state,
    expm_pauli,
    kron,
    state_of_angles,
    wrap_pi,
)
from .phases import (  # noqa: F401
    CyclicPair,
    PhaseDecomposition,
    SolidAngleResult,
    berry_adiabatic,
    cyclic_pair_josephson,
    cyclic_pair_nmr,
    decompose,
    decompose_loop,
    solid_angle,
    verify_cyclic,
)
