# Developer entry points.  `make verify` is what CI runs.

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test corpus-check smoke-campaign smoke-property pipeline-smoke \
	dist-smoke obs-smoke service-smoke chaos-smoke campaign \
	bench-campaign bench-hotpath perf-smoke serve verify

test:
	$(PYTHON) -m pytest -x -q

corpus-check:
	$(PYTHON) -c "from repro.designs import validate; \
	validate(raise_on_issue=True); print('corpus healthy')"

smoke-campaign:
	$(PYTHON) -m repro.core.cli campaign --cases A1,A2 --workers 2 \
	--timeout 120

# Sharded smoke: one task per property of one ariane design across 2
# workers (smoke-campaign covers the default whole-design groups).
smoke-property:
	$(PYTHON) -m repro.core.cli campaign --cases A2 \
	--group-size 1 --workers 2 --timeout 120

# Streaming-pipeline equivalence gate: a 2-worker property campaign under
# --schedule cost (LPT groups + work stealing) must produce verdicts
# bit-identical to --schedule inventory.
pipeline-smoke:
	$(PYTHON) benchmarks/pipeline_smoke.py --workers 2

# Distributed-fabric equivalence gate: the corpus slice over loopback TCP
# with 2 worker agents must be verdict-identical to the local transport
# AND match the verdict digest recorded in benchmarks/BENCH_campaign.json.
dist-smoke:
	$(PYTHON) benchmarks/dist_smoke.py --workers 2

# Observability gate: a traced 2-design campaign must emit a valid
# Chrome trace + ExecutionRecord, and tracing must cost <= 5%.
obs-smoke:
	$(PYTHON) benchmarks/obs_smoke.py

# Campaign-service gate: 3 overlapping HTTP campaigns from 2 tenants on
# one shared 2-worker fleet must be verdict-identical (digests) to
# one-shot runs; an over-quota submission must be a structured 429 that
# consumes zero fabric slots; every ExecutionRecord must re-validate.
# Also the operator surface: /readyz flips unstarted->serving->drain,
# every mid-campaign /metrics scrape is validator-clean, autosva top
# renders, and 10 Hz scraping costs <=5% (+0.5s) on a warm round.
service-smoke:
	$(PYTHON) benchmarks/service_smoke.py --workers 2

# Crash-safety gate: kill -9 the server mid-journal-append, kill -9 a
# worker mid-task, and drop frames under --reconnect agents — every
# scenario must converge verdict-digest-identical to a fault-free
# baseline with zero tasks lost or double-reported (docs/chaos.md).
chaos-smoke:
	$(PYTHON) benchmarks/chaos_smoke.py

# The long-lived front door itself (docs/service.md).
serve:
	$(PYTHON) -m repro.core.cli serve --listen 127.0.0.1:8420 --workers 2

campaign:
	$(PYTHON) -m repro.core.cli campaign --workers 4 \
	--cache-dir .repro-cache

bench-campaign:
	cd benchmarks && $(PYTHON) -m pytest -x -q bench_campaign.py -s

# Full-corpus hot-path gate: one check_all run over every design x
# variant must reproduce the verdict digest recorded in
# benchmarks/BENCH_formal.json, with no solver counter >25% above it.
# Too slow for every push, so it stays out of `verify`.
bench-hotpath:
	$(PYTHON) benchmarks/bench_formal_hotpath.py --check

# The CI perf gate: the same check on the quick slice (A1,A2,A5,E10,O1).
perf-smoke:
	$(PYTHON) benchmarks/bench_formal_hotpath.py --quick --check

verify: test corpus-check smoke-campaign smoke-property pipeline-smoke \
	dist-smoke obs-smoke service-smoke chaos-smoke perf-smoke
