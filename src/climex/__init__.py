"""Clocked-impulse-exchange timing protocol: simulation, estimation,
adversary models, and secret-bit accounting."""

from .signal_model import (
    SPEED_OF_LIGHT_M_S,
    ClockParams,
    MeasurementEpoch,
    NoiseParams,
    ProtocolConstants,
    SawtoothArgs,
    draw_epoch_noise,
    epoch_model,
    fold,
    sawtooth,
)
from .protocol_sim import (
    ArrivalLog,
    CausalityError,
    ProtocolOverrunError,
    ScenarioConfig,
    first_edge_at_or_after,
    latch_gap,
    measure_phi_test_local,
    ping_decimation,
    replay_dither,
    run_climex_epoch,
    run_exchange,
    run_rtt_epoch,
    scenario_stream,
)
from .estimators import (
    CounterpartEstimate,
    ParamEstimate,
    SearchGrid,
    complete_estimate,
    cost_J,
    grid_search,
    model_fold_values,
    phase_error,
    predict_phi_test,
)
from .adversary import (
    EveEpoch,
    EveEstimate,
    InjectionPlan,
    ShortEpochError,
    detect_outliers,
    eve_estimate_rtt,
    eve_interarrival_epoch,
    eve_tdoa_epoch,
    inject_responses,
    make_oracle_plan,
    make_random_timing_plan,
    remeasure_epoch,
    robust_parameter_fit,
)
from .secrecy import (
    BudgetInputs,
    KeyRangeError,
    SecrecyBudget,
    budget,
    count_valid_pairs_formula,
    derive_key,
    valid_pair_area,
)
from .config import ConfigError, build_setup, load_config, parse_config_text
from .sweep import SweepRow, log_spaced_values, run_sweep

__version__ = "0.1.0"
