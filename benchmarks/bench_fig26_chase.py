"""Figure 26: time for chasing the 12 census dependencies on UWSDTs.

The paper reports chase times for 0.1M–12.5M tuples at placeholder
densities 0.005 %–0.1 %, observing (log-log) linear scaling in both the
number of tuples and the density.  This suite benchmarks the same chase at
laptop scale and records the same series (pytest-benchmark timings, with
rows, density and the components left in ``extra_info``); it asserts no
scaling shape.  ``repro.bench.run_chase_experiment`` returns the same grid
as records.  Run it with ``python -m pytest benchmarks/bench_fig26_chase.py``;
``REPRO_BENCH_ROWS`` and ``REPRO_BENCH_MAX_ROWS`` set the sizes.
"""

from __future__ import annotations

import pytest

from repro.bench import census_instance, density_label
from repro.census import census_dependencies
from repro.core import chase_uwsdt

from _bench_config import base_rows, size_sweep

DENSITIES = (0.00005, 0.0001, 0.0005, 0.001)


@pytest.mark.parametrize("density", DENSITIES, ids=[density_label(d) for d in DENSITIES])
def test_chase_by_density(benchmark, density):
    """Chase time at fixed size, varying placeholder density (one Figure 26 curve point)."""
    instance = census_instance(base_rows(), density)
    dependencies = census_dependencies()

    def run():
        uwsdt = instance.uwsdt.copy()
        chase_uwsdt(uwsdt, dependencies)
        return uwsdt

    result = benchmark(run)
    benchmark.extra_info["rows"] = base_rows()
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["components_after"] = result.component_count()
    benchmark.extra_info["components_gt1_after"] = result.multi_placeholder_component_count()


@pytest.mark.parametrize("rows", size_sweep())
def test_chase_by_size(benchmark, rows):
    """Chase time at fixed density (0.1 %), varying relation size (Figure 26 x-axis)."""
    density = 0.001
    instance = census_instance(rows, density)
    dependencies = census_dependencies()

    def run():
        uwsdt = instance.uwsdt.copy()
        chase_uwsdt(uwsdt, dependencies)
        return uwsdt

    result = benchmark(run)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["components_after"] = result.component_count()
