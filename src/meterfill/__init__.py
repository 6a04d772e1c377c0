"""Low-rank tensor completion for smart-meter measurement data."""

from .admm import CompletionReport, NumericalError
from .benchmark import (
    BenchResult,
    baseline_linear_interp,
    baseline_mean_fill,
    complete_dataset,
    format_table,
    results_to_csv,
    rse,
    run_benchmark,
    write_results_csv,
)
from .cpd_lrtc import (
    FactorSet,
    SolverConfig,
    complete,
    svt,
)
from .data import (
    DataError,
    MeterColumns,
    PrefillResult,
    SynthSpec,
    SynthResult,
    TensorDataset,
    build_tensor,
    derive_seed,
    load_csv,
    load_dataset,
    prefill_electrical,
    save_csv,
    simulate_missing,
    synth_electrical_tensor,
    synth_load_tensor,
)
from .halrtc import HalrtcConfig, complete_halrtc
from .tensor_ops import (
    as_mask,
    as_tensor,
    cp_reconstruct,
    fold,
    fro_norm,
    khatri_rao,
    unfold,
)

__version__ = "0.1.0"
