"""Workload definitions: the sweep each benchmark workload runs.

A workload is an `ExperimentConfig` sweep, written out as the flat
``key = value`` file that ``percmix scaling --config`` reads. The workload
seed given on the command line picks the percolation seeds; everything else
is fixed here. The program only ever sees the generated config file.
"""

from __future__ import annotations

from dataclasses import dataclass

PRESET_QUANTITIES = ("tau1", "tau2", "phi_upper", "lk", "var_lower", "census")


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict  # ExperimentConfig fields other than seed_list and out
    seeds_per_run: int  # instance seeds are seed, seed+1, ...
    default_seed: int
    # certification every row of this quantity must carry; ineq_* rows must be 1
    expected: dict
    # sweeps a run makes even when fewer fit in --seconds
    min_sweeps: int = 1

    def instance_seeds(self, seed: int) -> tuple:
        return tuple(seed + i for i in range(self.seeds_per_run))

    @property
    def largest_n(self) -> int:
        return max(self.settings["n_list"])

    def config_text(self, seed_list, out: str) -> str:
        fields = dict(self.settings, seed_list=tuple(seed_list), out=out, workers=1)
        lines = ["# percmix benchmark workload " + self.name]
        for key, value in fields.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w for w in (
        # The README / criterion-1 pipeline. Pairwise mixing (chain) does most
        # of the work, then the window profile and the dense eigensolve.
        Workload(
            name="desk_preset",
            settings=dict(d=2, p=0.7, n_list=(6, 9, 12, 16, 21),
                          quantities=PRESET_QUANTITIES, mode="auto"),
            seeds_per_run=1,
            default_seed=0,
            expected={
                "tau1": "exact", "tau2": "exact", "phi_upper": "upper-bound",
                "lk": "heuristic", "var_lower": "exact",
                "census_vertex_fraction": "exact", "census_second_ratio": "exact",
                "ineq_sandwich": "exact", "ineq_var_lower": "exact",
                "ineq_gap_cuts": "exact",
            },
        ),
        # The criterion-3 sweep: window profile (conductance) dominates and the
        # eigensolve switches to Lanczos above dense_cap. No mixing work.
        Workload(
            name="cheeger_envelope",
            settings=dict(d=2, p=0.7, n_list=(8, 12, 16, 24, 32),
                          quantities=("phi_upper",), dense_cap=2500),
            seeds_per_run=1,
            default_seed=0,
            expected={"phi_upper": "upper-bound"},
        ),
        # Dual first-passage and renormalisation (geometry) on large boxes.
        # No chain, spectral or conductance work. Its sweep is the shortest
        # and mostly pure-Python, so a run takes the median of two sweeps to
        # damp the vCPU speed swings seen on small shared VMs.
        Workload(
            name="dual_geometry",
            settings=dict(d=2, p=0.7, n_list=(80, 160),
                          quantities=("census", "fpp", "renorm"),
                          renorm_blocks=(8, 16, 24)),
            seeds_per_run=2,
            default_seed=0,
            expected={
                "census_vertex_fraction": "exact", "census_second_ratio": "exact",
                "fpp_slope": "heuristic", "fpp_r2": "heuristic",
                "renorm_density_N8": "exact", "renorm_density_N16": "exact",
                "renorm_density_N24": "exact",
            },
            min_sweeps=2,
        ),
    )
}
