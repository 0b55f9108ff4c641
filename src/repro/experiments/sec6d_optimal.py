"""Section VI-D: comparison to an optimal solution.

On small samples (where exhaustive search is feasible) the paper found
that CMC with small ``b`` and ``eps`` matches the optimum and CWSC almost
always does. We reproduce with the branch-and-bound exact solver and also
report the LP-relaxation lower bound as a sanity envelope.
"""

from __future__ import annotations

from repro.core.cmc_epsilon import cmc_epsilon
from repro.core.cwsc import cwsc
from repro.core.exact import solve_exact
from repro.core.lp_bound import lp_lower_bound
from repro.core.preprocess import remove_dominated
from repro.experiments.base import ExperimentReport, Scale, experiment
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import master_trace
from repro.patterns.pattern_sets import build_set_system

CONFIG = {
    "full": {
        "n_rows": 60,
        "master_rows": 12_000,
        # protocol + endstate + flags: the attributes that carry the
        # duration structure, so small samples behave like the full
        # trace (hosts are near-unique at n=60 and only inflate the
        # exhaustive search).
        "attributes": ("protocol", "endstate", "flags"),
        "seed": 7,
        "k": 5,
        "s_values": (0.3, 0.5),
        "samples": 3,
    },
    "small": {
        "n_rows": 30,
        "master_rows": 400,
        "attributes": ("protocol", "endstate", "flags"),
        "seed": 7,
        "k": 3,
        "s_values": (0.4,),
        "samples": 2,
    },
}


@experiment("sec6d", "Comparison to the optimal solution (Section VI-D)")
def run(scale: Scale = "full") -> ExperimentReport:
    config = CONFIG[scale]
    master = master_trace(config["master_rows"], config["seed"]).project(
        config["attributes"]
    )
    rows = []
    records = []
    for sample_id in range(config["samples"]):
        table = master.sample(config["n_rows"], seed=config["seed"] + sample_id)
        system = build_set_system(table, "max")
        # Dominance preprocessing preserves the optimum and keeps the
        # exhaustive search tractable (see repro.core.preprocess); the
        # LP reduces the system itself.
        reduced = remove_dominated(system)
        for s_hat in config["s_values"]:
            opt = solve_exact(reduced, config["k"], s_hat)
            lp = lp_lower_bound(system, config["k"], s_hat)
            ours_cwsc = cwsc(
                system, config["k"], s_hat, on_infeasible="full_cover"
            )
            ours_cmc = cmc_epsilon(
                system, config["k"], s_hat, b=0.2, eps=1.0
            )
            record = {
                "sample": sample_id,
                "s": s_hat,
                "lp_bound": lp,
                "optimal": opt.total_cost,
                "cwsc": ours_cwsc.total_cost,
                "cmc": ours_cmc.total_cost,
            }
            records.append(record)
            rows.append(
                [
                    sample_id,
                    s_hat,
                    lp,
                    opt.total_cost,
                    ours_cwsc.total_cost,
                    ours_cmc.total_cost,
                ]
            )
    headers = ["sample", "s", "LP bound", "OPT", "CWSC", "CMC(b=0.2, eps=1)"]
    text = format_table(
        headers,
        rows,
        title=(
            "Section VI-D — cost vs. exhaustive optimum on small samples "
            f"(n={config['n_rows']}, k={config['k']})"
        ),
    )
    return ExperimentReport(
        experiment_id="sec6d",
        title="Comparison to optimal",
        text=text,
        data={"records": records, "config": config},
    )
