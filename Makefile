# Development targets (see README.md "Development").
#
# Works from a plain checkout (PYTHONPATH=src) or an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test chaos bench perf perf-check perf-smoke serve lint install

test:  ## tier-1 suite: unit tests + benchmark reproductions
	$(PYTHON) -m pytest -x -q

chaos:  ## fault-injection suite: watchdog, retry, resume, quarantine, service pool
	$(PYTHON) -m pytest tests/test_resilience.py tests/test_service.py::TestChaos -q

bench:  ## benchmark suite only, with timing columns
	$(PYTHON) -m pytest benchmarks -q --benchmark-columns=mean,stddev,ops

perf:  ## hot-path perf suite; appends to benchmarks/results/BENCH_perf.json
	$(PYTHON) benchmarks/perf/run_perf.py

perf-check:  ## CI gate: latest perf entry vs checked-in baseline (>2x fails)
	$(PYTHON) benchmarks/perf/check_regression.py

perf-smoke:  ## CI guard: warm SCL load + single search under ceilings
	$(PYTHON) -m pytest benchmarks/perf -q

SERVE_ARGS ?= --port 8841 --workers 2

serve:  ## run the compile service (docs/service.md); override SERVE_ARGS
	$(PYTHON) -m repro serve $(SERVE_ARGS)

lint:  ## ruff, if installed (CI always runs it)
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; pip install ruff (or pip install -e '.[dev]')"; \
	fi

install:  ## editable install with dev extras
	$(PYTHON) -m pip install -e '.[dev]'
