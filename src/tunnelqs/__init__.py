"""Tunneling time delays and quantum superluminality for hydrogen-like
atoms in strong fields: closed-form delay/quotient models, parameter
scans, a velocity-gauge TDSE solver, and attoclock spectra extraction.
"""

from .atomic import (
    AtomicSystem,
    BarrierGeometry,
    BarrierSuppressionError,
    DelaySet,
    PhotonAbsorptionDelay,
    barrier_geometry,
    delay_set,
    keldysh_gamma,
    make_system,
    photon_absorption_delay,
)
from .constants import (
    au_field_vcm,
    au_intensity_wcm2,
    au_time_as,
    c_au,
    field_to_intensity,
    intensity_to_field,
)
from .scan import (
    AxisSpec,
    PRESET_NAMES,
    ScanGrid,
    emit_table,
    preset_grids,
    run_preset,
    run_scan,
    tabulate,
)
from .spectra import (
    AngularDistribution,
    IonizationAmplitudes,
    MomentumDistribution,
    OffsetResult,
    attoclock_readout,
    momentum_distribution,
    offset_angle_and_delay,
    project_scattering_states,
    radial_integrate,
)
from .superluminal import (
    CriticalFields,
    IntermediateState,
    ZetaRoot,
    critical_fields,
    intermediate,
    q_ad,
    q_db,
    q_imed_a,
    q_imed_b,
    q_nad,
    zeta_qs,
    zeta_qs_roots,
    zeta_threshold_a,
)
from .tdse import (
    PropagationError,
    Propagator,
    PulseParams,
    PulseResult,
    RadialGrid,
    TdseConfigError,
    WavefunctionState,
    build_ground_state,
    load_checkpoint,
    plan_run,
    run_pulse,
    save_checkpoint,
    vector_potential,
)

__version__ = "0.1.0"
