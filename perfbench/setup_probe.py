"""One ``setup_s`` sample: import the package and build a workload's models.

Run as a fresh child process by ``run.py``, which times it from spawn to
exit:  python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import common  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    common.use_checkout_source()
    import workloads

    workloads.setup_models(args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
