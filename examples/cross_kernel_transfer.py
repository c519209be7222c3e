"""Transfer learning across sizes and kernels with the Gaussian copula.

The dataset this paper evaluates on came from a transfer-learning
autotuning study (Gaussian copula, ICS'23 — the paper's reference [5]).
This example runs that substrate in both transfer regimes the library
supports:

* size transfer:   syr2k SM table  ->  tuning syr2k XL
* kernel transfer: syr2k SM table  ->  tuning GEMM SM

and compares against cold-start random search and GP-BO.

Run:  python examples/cross_kernel_transfer.py
"""

from repro.dataset import (
    GemmTask,
    Syr2kPerformanceModel,
    Syr2kTask,
    generate_dataset,
    syr2k_space,
)
from repro.tuning import (
    BayesianOptTuner,
    CopulaTransferTuner,
    RandomSearchTuner,
    compare_tuners,
)
from repro.utils.tables import Table

BUDGET = 25
REPETITIONS = 3


def run_transfer(title, source, target_model):
    space = syr2k_space()
    comparison = compare_tuners(
        [
            RandomSearchTuner(space, seed=5),
            BayesianOptTuner(space, seed=5),
            CopulaTransferTuner(space, source, seed=5),
        ],
        target_model,
        budget=BUDGET,
        repetitions=REPETITIONS,
    )
    table = Table(
        ["tuner", "best @5", "best @25", "regret"],
        title=f"{title} (optimum {comparison.global_optimum:.4f} s)",
    )
    for name, _ in comparison.ranking():
        curve = comparison.mean_curve(name)
        table.add_row(
            [name, float(curve[4]), float(curve[-1]),
             comparison.mean_regret(name)]
        )
    print(table.render())
    print()


def main() -> None:
    source = generate_dataset("SM")  # the syr2k SM table
    print(f"source data: syr2k SM, {len(source)} rows\n")

    run_transfer(
        "size transfer: syr2k SM -> syr2k XL",
        source,
        Syr2kPerformanceModel(Syr2kTask("XL")),
    )
    run_transfer(
        "kernel transfer: syr2k SM -> gemm SM",
        source,
        Syr2kPerformanceModel(GemmTask("SM")),
    )
    print(
        "The copula's head start comes from knowing which parameter\n"
        "combinations co-occur with fast runtimes — structure that\n"
        "transfers across sizes and (partially) across kernels, which is\n"
        "why the paper's intro cites transfer learning as the efficient\n"
        "alternative LLM-based methods would have to beat."
    )


if __name__ == "__main__":
    main()
