"""Timing simulation and analysis for involution delay channels with bounded adversarial jitter."""

__version__ = "0.1.0"

from .signals import (  # noqa: F401
    Pulse,
    Signal,
    Transition,
    decompose_pulses,
    make_signal,
    pulse,
    read_trace,
    value_at,
    write_trace,
)
from .delay_model import (  # noqa: F401
    DelayFunction,
    ExpChannelParams,
    check_involution,
    delta_min,
    derivative_down,
    derivative_up,
    exp_channel,
    tabulated_channel,
)
from .channel import (  # noqa: F401
    AdversaryStrategy,
    EtaBounds,
    EtaInvolution,
    FixedSequence,
    Inertial,
    Involution,
    Pure,
    UniformRandom,
    WorstCaseShrink,
    Zero,
    apply_channel,
    worst_case_eta,
)
from .circuit import (  # noqa: F401
    Circuit,
    ChannelEdge,
    Execution,
    Gate,
    execute,
    or_loop_circuit,
    parse_circuit,
    verify_execution,
)
from .analysis import (  # noqa: F401
    PulseTrainCharacterization,
    Regime,
    characterize,
    classify_pulse,
    constraint_C,
    dimension_ht_buffer,
    f_map,
    run_spf_sweep,
    solve_tau,
    spf_check,
    tilde_delta0,
)
from .waveform_lab import (  # noqa: F401
    DeviationResult,
    DeviationSample,
    Disturbance,
    ExpFit,
    bin_coverage,
    deviation_analysis,
    fit_exp_channel,
    synth_crossings,
)
