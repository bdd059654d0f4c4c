"""Two-qubit state toolkit: concurrence, three-setting steerability, purity,
first-order coherence, and the constraint bounds tying them together."""

from .errors import (
    ChannelIncomplete,
    IndexOutOfRange,
    NotHermitian,
    NotNormalized,
    NotPSD,
    NotRealizable,
    ParameterOutOfRange,
    QSteerError,
    TraceNotOne,
    ValidationError,
)
from .harness import (
    FalsificationSummary,
    RegionScanResult,
    SweepTable,
    run_falsification,
    run_family_sweep,
    run_region_scan,
)
from .measures import (
    MeasureReport,
    bad_closed_forms,
    bpd_closed_forms,
    concurrence_pure,
    report,
    wu_closed_forms,
    wu_steerability_from_c_purity,
    wu_steering_margin,
)
from .states import (
    STREAM_VERSION,
    DensityMatrix,
    PureState,
    SamplerConfig,
    apply_channel,
    bell_like,
    bell_like_amplitudes,
    damping_operators,
    density_from_pure,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
    validate_stack,
    werner_like,
)

__version__ = "0.1.0"
