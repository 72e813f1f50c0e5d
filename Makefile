.PHONY: all build test fmt doc lint-loops lint-globals ci bench chaos-smoke \
	bench-guard

all: build

build:
	dune build @all

test:
	dune runtest

# Format check gates on ocamlformat being installed: the tree must
# still build and test in environments that don't ship it.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

doc:
	dune build @doc

# Service loops belong on lib/svc: a hand-rolled `Chan.recv` request
# loop in the service layers bypasses the uniform overload policies
# and queue metrics.  Allowlisted files hold the loops that are not
# request/reply services: the fabric's wire and NIC delivery loops,
# the stack's frame demux fibers, the supervisor's restart
# control-plane, the cluster node's park channel, and the client's
# pipeline window (a bounded-capacity semaphore, not a request loop).
LINT_LOOP_DIRS := lib/kernel lib/net lib/cluster lib/obs lib/fsspec lib/vfs
LINT_LOOP_ALLOW := \
	lib/kernel/supervisor.ml \
	lib/net/fabric.ml \
	lib/net/stack.ml \
	lib/cluster/cluster.ml \
	lib/cluster/client.ml

lint-loops:
	@bad=$$(grep -rn --include='*.ml' 'Chan\.recv\b' $(LINT_LOOP_DIRS) \
		| grep -v $(foreach f,$(LINT_LOOP_ALLOW),-e '^$(f):') || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-loops: hand-rolled Chan.recv service loop outside lib/svc:"; \
		echo "$$bad"; \
		echo "port it to Svc.serve / Svc.serve_cast, or allowlist it in the Makefile"; \
		exit 1; \
	else \
		echo "lint-loops: OK"; \
	fi

# Domain-safety gate: no new top-level mutable globals in lib/.  The
# Ctx refactor moved every process-global (Inspect registry, metrics,
# trace factory, crash points) into per-run contexts so N engines can
# run concurrently on N domains; a fresh `let x = ref ...` at module
# top level would silently re-introduce cross-run sharing.  Allowlist
# files that earn an exception (none today); Atomic.make is deliberately
# not matched — atomics are how intentional cross-domain state is spelt.
LINT_GLOBAL_ALLOW :=

lint-globals:
	@bad=$$(grep -rnE --include='*.ml' \
		"^let [a-z_][a-zA-Z0-9_']*( *:[^=]*)? = (ref |Hashtbl\.create|Queue\.create|Buffer\.create|Array\.make)" \
		lib/ \
		| grep -v $(foreach f,$(LINT_GLOBAL_ALLOW),-e '^$(f):') -e '^$$' \
		|| true); \
	if [ -n "$$bad" ]; then \
		echo "lint-globals: top-level mutable global in lib/ (breaks domain-safety):"; \
		echo "$$bad"; \
		echo "bind it in a Chorus.Ctx slot (per-run) or allowlist it in the Makefile"; \
		exit 1; \
	else \
		echo "lint-globals: OK"; \
	fi

bench:
	dune exec bench/main.exe

# A small seeded chaos campaign over every registered scenario plus
# the oracle selftest (under a second): every fault kind gets
# explored, every oracle must stay green, and the planted violation
# must be caught.  Exit 1 on any oracle violation, 2 if the selftest
# fails.  --domains 0 shards the campaign across every available core
# (auto-detected, so a single-core CI host runs it sequentially at
# unchanged cost); the merged report is byte-identical at any width.
# The replay goldens run under `dune runtest` (test/golden/dune).
chaos-smoke:
	dune exec bin/chorus_sim.exe -- chaos --disk-runs 30 --kv-runs 6 \
		--projfs-runs 10 --lease-runs 8 --gray-runs 12 --selftest --domains 0

# Compare the committed BENCH_*.json baselines against a fresh
# regeneration of their deterministic fields.
bench-guard:
	scripts/bench_guard

ci: build test fmt doc lint-loops lint-globals chaos-smoke bench-guard
