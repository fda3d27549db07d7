"""Analysis and reporting: complexity model, protocol comparison, tables."""

from .._lazy import attach as _attach

# Names resolve on first use (PEP 562): reading one table helper does
# not load the simulator behind the traffic sweeps.
__getattr__, __dir__, __all__ = _attach(
    __name__,
    {
        ".compare": (
            "ComparisonReport",
            "DiagramShape",
            "compare_protocols",
            "diagram_shape",
        ),
        ".fsm": ("LocalFsm", "check_definition_1", "local_fsm"),
        ".sweeps": ("TrafficPoint", "metric_series", "sweep_table", "traffic_sweep"),
        ".complexity": (
            "GrowthFit",
            "fit_exponential_growth",
            "max_states",
            "visit_lower_bound",
        ),
        ".reporting": (
            "essential_state_rows",
            "expansion_listing",
            "figure4_table",
            "format_table",
        ),
    },
)

