"""Two-qubit state toolkit: concurrence, three-setting steerability, purity,
first-order coherence, and the constraint bounds tying them together."""

from .errors import (
    ChannelIncomplete,
    DimensionUnsupported,
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
    RegionRecord,
    RegionScanResult,
    SampleRecord,
    SweepRecord,
    run_falsification,
    run_family_sweep,
    run_region_scan,
    run_scatter,
)
from .linalg import hermitian_eigenvalues, kron, partial_trace, psd_sqrt, sym3_eigenvalues
from .measures import (
    MeasureReport,
    bad_closed_forms,
    bound_lower,
    bound_upper,
    bpd_closed_forms,
    classify,
    concurrence,
    concurrence_pure,
    correlation_matrix,
    correlation_singular_values,
    f_value,
    first_order_coherence,
    purity,
    report,
    spin_flip,
    steerability,
    wu_closed_forms,
    wu_steerability_from_c_purity,
    wu_steering_margin,
)
from .states import (
    DensityMatrix,
    KrausChannel,
    PureState,
    SamplerConfig,
    apply_channel,
    bell_like,
    density_from_pure,
    make_ad_channel,
    make_pd_channel,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
    werner_like,
)

__version__ = "0.1.0"
